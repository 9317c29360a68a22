"""Unit and integration tests for the Pregel engine and the three algorithms."""

from __future__ import annotations

import pytest

from repro.core.errors import GraphError
from repro.graph.algorithms import PageRankProgram, pagerank, sssp, wcc
from repro.graph.algorithms.sssp import INFINITY
from repro.graph.combiners import MIN_COMBINER, SUM_COMBINER
from repro.graph.graph import Graph
from repro.graph.pregel import PregelEngine, run_with_combiner_check


def _graph(edges) -> Graph:
    graph = Graph()
    for u, v in edges:
        graph.add_edge(u, v)
    return graph


def _ring(num_vertices: int) -> Graph:
    return _graph((v, (v + 1) % num_vertices) for v in range(num_vertices))


@pytest.fixture()
def two_triangles() -> Graph:
    """Two disjoint triangles: vertices 0-2 and 10-12."""
    return _graph([(0, 1), (1, 2), (2, 0), (10, 11), (11, 12), (12, 10)])


@pytest.fixture()
def path_graph() -> Graph:
    """A simple path 0-1-2-3-4."""
    return _graph([(0, 1), (1, 2), (2, 3), (3, 4)])


class TestCombiners:
    def test_sum_and_min_combiners(self):
        assert SUM_COMBINER.combine([1, 2, 3]) == 6
        assert MIN_COMBINER.combine([5, 2, 9]) == 2
        assert SUM_COMBINER.name == "sum"
        with pytest.raises(GraphError):
            SUM_COMBINER.combine([])


class TestPregelEngine:
    def test_empty_graph_rejected(self):
        with pytest.raises(GraphError):
            PregelEngine(Graph(), PageRankProgram())

    def test_invalid_superstep_budget(self, path_graph):
        engine = PregelEngine(path_graph, PageRankProgram(num_iterations=2))
        with pytest.raises(GraphError):
            engine.run(max_supersteps=0)

    def test_traffic_trace_records_every_superstep(self, path_graph):
        result = pagerank(path_graph, num_iterations=3)
        assert len(result.trace.supersteps) == result.supersteps_run
        assert result.trace.total_messages() > 0
        for step in result.trace.supersteps:
            assert step.distinct_destinations <= step.messages or step.messages == 0


class TestPageRank:
    def test_ranks_sum_to_one(self):
        graph = _ring(20)
        result = pagerank(graph, num_iterations=15)
        assert sum(result.states.values()) == pytest.approx(1.0, abs=1e-6)

    def test_symmetric_graph_has_uniform_ranks(self):
        graph = _ring(10)
        result = pagerank(graph, num_iterations=20)
        values = list(result.states.values())
        assert max(values) - min(values) < 1e-9

    def test_high_degree_vertex_ranks_higher(self):
        # A star: vertex 0 connected to 1..8.
        graph = _graph([(0, i) for i in range(1, 9)])
        result = pagerank(graph, num_iterations=20)
        assert result.states[0] > result.states[1] * 3

    def test_reduction_ratio_matches_degree_structure(self):
        graph = _ring(30)
        result = pagerank(graph, num_iterations=5)
        # Every vertex sends 2 messages, every vertex receives from 2
        # neighbours: 60 messages to 30 distinct destinations each round.
        first = result.trace.supersteps[0]
        assert first.messages == 60
        assert first.distinct_destinations == 30
        assert first.reduction_ratio == pytest.approx(0.5)

    def test_invalid_parameters(self):
        with pytest.raises(GraphError):
            PageRankProgram(num_iterations=0)
        with pytest.raises(GraphError):
            PageRankProgram(damping=1.5)

    def test_combiner_does_not_change_results(self, path_graph):
        plain, combined = run_with_combiner_check(
            path_graph, lambda: PageRankProgram(num_iterations=10), max_supersteps=11
        )
        assert plain.states == pytest.approx(combined.states)


class TestSssp:
    def test_distances_on_path(self, path_graph):
        result = sssp(path_graph, source=0)
        assert [result.states[v] for v in range(5)] == [0, 1, 2, 3, 4]
        assert result.converged

    def test_unreachable_component_stays_infinite(self, two_triangles):
        result = sssp(two_triangles, source=0)
        assert result.states[1] == 1
        assert result.states[12] == INFINITY

    def test_ring_distances(self):
        graph = _ring(10)
        result = sssp(graph, source=0)
        assert result.states[5] == 5
        assert result.states[9] == 1

    def test_unknown_source_rejected(self, path_graph):
        with pytest.raises(GraphError):
            sssp(path_graph, source=99)

    def test_message_volume_grows_then_shrinks(self):
        graph = _ring(16)
        result = sssp(graph, source=0)
        messages = [s.messages for s in result.trace.supersteps]
        assert messages[0] == 2  # only the source sends
        assert max(messages) > messages[0]

    def test_combiner_does_not_change_results(self, path_graph):
        from repro.graph.algorithms.sssp import SsspProgram

        plain, combined = run_with_combiner_check(
            path_graph, lambda: SsspProgram(source=0), max_supersteps=20
        )
        assert plain.states == combined.states


class TestWcc:
    def test_single_component_converges_to_min_id(self):
        graph = _ring(9)
        result = wcc(graph)
        assert set(result.states.values()) == {0}
        assert result.converged

    def test_two_components_identified(self, two_triangles):
        result = wcc(two_triangles)
        assert result.states[0] == result.states[1] == result.states[2] == 0
        assert result.states[10] == result.states[11] == result.states[12] == 10

    def test_message_volume_decreases_as_it_converges(self):
        graph = _ring(24)
        result = wcc(graph)
        messages = [s.messages for s in result.trace.supersteps if s.messages > 0]
        assert messages[0] == max(messages)
        assert messages[-1] < messages[0]

    def test_combiner_does_not_change_results(self, two_triangles):
        from repro.graph.algorithms.wcc import WccProgram

        plain, combined = run_with_combiner_check(
            two_triangles, lambda: WccProgram(), max_supersteps=20
        )
        assert plain.states == combined.states


class TestFigure1cShape:
    """The qualitative shapes the paper describes for Figure 1(c)."""

    def test_pagerank_reduction_is_flat_and_high(self, small_social_graph):
        result = pagerank(small_social_graph, num_iterations=6)
        series = [s.reduction_ratio for s in result.trace.supersteps if s.messages > 0]
        assert min(series) > 0.85
        assert max(series) - min(series) < 0.02

    def test_sssp_reduction_rises_over_early_iterations(self, small_social_graph):
        result = sssp(small_social_graph, source=0)
        series = [s.reduction_ratio for s in result.trace.supersteps if s.messages > 0]
        assert series[0] < 0.2
        assert max(series) > 0.5
        assert series.index(max(series)) > 0

    def test_wcc_reduction_starts_high_then_declines(self, small_social_graph):
        result = wcc(small_social_graph)
        series = [s.reduction_ratio for s in result.trace.supersteps if s.messages > 0]
        assert series[0] > 0.8
        assert series[-1] < series[0]
