"""Unit tests for the graph structure and synthetic generators."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.errors import GraphError
from repro.graph.generators import (
    livejournal_like,
    preferential_attachment_graph,
    random_graph,
)
from repro.graph.graph import Graph, GraphPartition


def _ring(num_vertices: int) -> Graph:
    graph = Graph()
    for vertex in range(num_vertices):
        graph.add_edge(vertex, (vertex + 1) % num_vertices)
    return graph


class TestGraph:
    def test_add_edges_and_query(self):
        graph = Graph()
        graph.add_edge(1, 2)
        graph.add_edge(2, 3)
        assert graph.num_vertices == 3
        assert graph.num_edges == 2
        assert sorted(graph.neighbors(2)) == [1, 3]

    def test_self_loops_and_duplicates_rejected(self):
        graph = Graph()
        graph.add_edge(1, 2)
        with pytest.raises(GraphError):
            graph.add_edge(1, 1)
        with pytest.raises(GraphError):
            graph.add_edge(2, 1)

    def test_unknown_vertex_rejected(self):
        graph = Graph()
        with pytest.raises(GraphError):
            graph.neighbors(7)


class TestPartition:
    def test_hash_partition_covers_all_vertices(self):
        graph = _ring(10)
        partition = GraphPartition.hash_partition(graph, 4)
        assert sorted(partition.assignment) == list(range(10))
        assert partition.worker_of(5) == 1
        assert partition.worker_of(0) == partition.worker_of(4) != partition.worker_of(1)

    def test_invalid_worker_queries(self):
        graph = _ring(4)
        partition = GraphPartition.hash_partition(graph, 2)
        with pytest.raises(GraphError):
            partition.worker_of(99)


class TestGenerators:
    def test_random_graph_edge_count(self):
        graph = random_graph(num_vertices=50, num_edges=100, seed=1)
        assert graph.num_vertices == 50
        assert graph.num_edges == 100
        with pytest.raises(GraphError):
            random_graph(num_vertices=4, num_edges=100)

    def test_preferential_attachment_properties(self):
        graph = preferential_attachment_graph(num_vertices=800, edges_per_vertex=5, seed=2)
        assert graph.num_vertices == 800
        # Every non-seed vertex contributes edges_per_vertex edges.
        assert graph.num_edges >= (800 - 5) * 5
        degrees = sorted((len(graph.neighbors(v)) for v in graph.vertices()), reverse=True)
        # Heavy tail: the most connected vertex dwarfs the median.
        assert degrees[0] > 8 * degrees[len(degrees) // 2]
        with pytest.raises(GraphError):
            preferential_attachment_graph(num_vertices=3, edges_per_vertex=5)

    def test_livejournal_like_average_degree(self):
        graph = livejournal_like(num_vertices=2_000, seed=3)
        assert 10 <= 2 * graph.num_edges / graph.num_vertices <= 18
        with pytest.raises(GraphError):
            livejournal_like(num_vertices=100, average_degree=1)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(20, 200), st.integers(2, 5), st.integers(0, 100))
    def test_preferential_attachment_is_connected(self, vertices, m, seed):
        graph = preferential_attachment_graph(vertices, m, seed=seed)
        # BFS from vertex 0 must reach every vertex (new vertices always attach
        # to existing ones, so the graph is connected by construction).
        seen = {0}
        frontier = [0]
        while frontier:
            nxt = []
            for vertex in frontier:
                for neighbor in graph.neighbors(vertex):
                    if neighbor not in seen:
                        seen.add(neighbor)
                        nxt.append(neighbor)
            frontier = nxt
        assert len(seen) == graph.num_vertices
