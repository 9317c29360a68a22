"""Graph data structure and worker partitioning for the Pregel substrate."""

from __future__ import annotations

from dataclasses import dataclass, field
from repro.core.errors import GraphError


@dataclass
class Graph:
    """An undirected graph stored as adjacency lists.

    Vertices are integer ids. The Figure 1(c) experiment treats each
    undirected edge as a pair of directed message channels (a vertex sends to
    every neighbour), which matches how GPS/Pregel runs PageRank, SSSP and WCC
    over the (largely symmetric) LiveJournal friendship graph.
    """

    adjacency: dict[int, list[int]] = field(default_factory=dict)
    name: str = "graph"

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def add_vertex(self, vertex: int) -> None:
        """Add an isolated vertex (no-op if it already exists)."""
        self.adjacency.setdefault(vertex, [])

    def add_edge(self, u: int, v: int) -> None:
        """Add an undirected edge (parallel edges and self-loops are rejected)."""
        if u == v:
            raise GraphError(f"self-loop on vertex {u} is not allowed")
        self.add_vertex(u)
        self.add_vertex(v)
        if v in self.adjacency[u]:
            raise GraphError(f"duplicate edge ({u}, {v})")
        self.adjacency[u].append(v)
        self.adjacency[v].append(u)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def vertices(self) -> list[int]:
        """All vertex ids."""
        return list(self.adjacency)

    def neighbors(self, vertex: int) -> list[int]:
        """Neighbours of a vertex."""
        try:
            return self.adjacency[vertex]
        except KeyError as exc:
            raise GraphError(f"unknown vertex {vertex}") from exc

    @property
    def num_vertices(self) -> int:
        """Number of vertices."""
        return len(self.adjacency)

    @property
    def num_edges(self) -> int:
        """Number of undirected edges."""
        return sum(len(neigh) for neigh in self.adjacency.values()) // 2


@dataclass
class GraphPartition:
    """Assignment of vertices to workers (hash partitioning, as in GPS)."""

    num_workers: int
    assignment: dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.num_workers <= 0:
            raise GraphError("num_workers must be positive")

    @classmethod
    def hash_partition(cls, graph: Graph, num_workers: int) -> "GraphPartition":
        """Assign each vertex to ``vertex_id % num_workers`` (GPS's default)."""
        partition = cls(num_workers=num_workers)
        partition.assignment = {v: v % num_workers for v in graph.vertices()}
        return partition

    def worker_of(self, vertex: int) -> int:
        """Worker owning a vertex."""
        try:
            return self.assignment[vertex]
        except KeyError as exc:
            raise GraphError(f"vertex {vertex} is not assigned to any worker") from exc
