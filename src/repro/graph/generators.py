"""Synthetic social-graph generator.

The paper's Figure 1(c) uses the LiveJournal friendship graph (4.8M vertices,
68M edges, average degree ≈ 14, heavy-tailed degree distribution). The SNAP
download is not available offline, so :func:`livejournal_like` generates a
scaled-down graph with the same two properties that the traffic-reduction
measurement depends on: the average degree (which sets the PageRank reduction
ratio at roughly ``1 - V / 2E``) and a power-law degree tail (which shapes how
quickly SSSP's frontier explodes and how WCC converges). The substitution is
documented in DESIGN.md.
"""

from __future__ import annotations

import random

from repro.core.errors import GraphError
from repro.graph.graph import Graph

#: LiveJournal's average degree (68M edges over 4.8M vertices ≈ 14.2 neighbours
#: per vertex, counting each undirected friendship once).
LIVEJOURNAL_AVERAGE_DEGREE = 14


def preferential_attachment_graph(
    num_vertices: int,
    edges_per_vertex: int,
    seed: int = 2017,
    name: str = "preferential-attachment",
) -> Graph:
    """Barabási–Albert preferential attachment graph.

    Every new vertex attaches to ``edges_per_vertex`` distinct existing
    vertices chosen proportionally to their current degree, producing the
    power-law degree distribution characteristic of social networks.
    """
    if edges_per_vertex <= 0:
        raise GraphError("edges_per_vertex must be positive")
    if num_vertices <= edges_per_vertex:
        raise GraphError("num_vertices must exceed edges_per_vertex")
    rng = random.Random(seed)
    graph = Graph(name=name)
    # Seed clique-ish core: a path over the first m+1 vertices.
    targets = list(range(edges_per_vertex))
    for vertex in targets:
        graph.add_vertex(vertex)
    # repeated_nodes holds one entry per edge endpoint, so sampling from it is
    # degree-proportional sampling.
    repeated_nodes: list[int] = []
    for new_vertex in range(edges_per_vertex, num_vertices):
        chosen: set[int] = set()
        # `targets` from the previous round are degree-biased candidates.
        for candidate in targets:
            chosen.add(candidate)
        while len(chosen) < edges_per_vertex:
            chosen.add(rng.choice(repeated_nodes) if repeated_nodes else rng.randrange(new_vertex))
        # Sorted so edge insertion (and thus degree-biased sampling below)
        # never depends on set iteration order.
        for neighbor in sorted(chosen):
            graph.add_edge(new_vertex, neighbor)
            repeated_nodes.append(neighbor)
            repeated_nodes.append(new_vertex)
        targets = rng.sample(repeated_nodes, k=min(edges_per_vertex, len(repeated_nodes)))
        targets = list(dict.fromkeys(targets))[:edges_per_vertex]
    return graph


def livejournal_like(
    num_vertices: int = 50_000,
    average_degree: int = LIVEJOURNAL_AVERAGE_DEGREE,
    seed: int = 2017,
) -> Graph:
    """A scaled-down LiveJournal-like graph (power-law, avg degree ≈ 14)."""
    if average_degree < 2:
        raise GraphError("average_degree must be at least 2")
    edges_per_vertex = max(1, average_degree // 2)
    return preferential_attachment_graph(
        num_vertices=num_vertices,
        edges_per_vertex=edges_per_vertex,
        seed=seed,
        name=f"livejournal-like-{num_vertices}",
    )


def random_graph(
    num_vertices: int,
    num_edges: int,
    seed: int = 2017,
    name: str = "random",
) -> Graph:
    """An Erdős–Rényi-style random graph with exactly ``num_edges`` edges."""
    max_edges = num_vertices * (num_vertices - 1) // 2
    if num_edges > max_edges:
        raise GraphError(f"cannot place {num_edges} edges among {num_vertices} vertices")
    rng = random.Random(seed)
    graph = Graph(name=name)
    for vertex in range(num_vertices):
        graph.add_vertex(vertex)
    seen: set[tuple[int, int]] = set()
    while len(seen) < num_edges:
        u = rng.randrange(num_vertices)
        v = rng.randrange(num_vertices)
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        if key in seen:
            continue
        seen.add(key)
        graph.add_edge(u, v)
    return graph
