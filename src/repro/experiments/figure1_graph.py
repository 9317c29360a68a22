"""Runner for Figure 1(c): potential traffic reduction of graph analytics.

Paper setup: PageRank, SSSP and WCC on the LiveJournal graph over GPS with four
workers; the metric is the per-iteration traffic-reduction ratio obtained by
combining all messages addressed to the same destination. Paper results: the
ratio ranges from 48% to 93%; PageRank is flat across iterations, SSSP grows
over the early iterations, and WCC starts high and decreases as it converges.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.reporting import render_series_table
from repro.graph.algorithms import pagerank, sssp, wcc
from repro.graph.generators import livejournal_like
from repro.graph.graph import Graph
from repro.graph.pregel import PregelResult

#: Paper-reported bounds of the Figure 1(c) reduction ratios.
PAPER_MIN_REDUCTION = 0.48
PAPER_MAX_REDUCTION = 0.93


@dataclass
class Figure1GraphSettings:
    """Scale knobs for the Figure 1(c) runs."""

    num_vertices: int = 20_000
    average_degree: int = 14
    num_workers: int = 4
    iterations: int = 10
    sssp_source: int = 0
    seed: int = 2017

    def quick(self) -> "Figure1GraphSettings":
        """A fast variant used by unit tests and smoke runs."""
        return Figure1GraphSettings(
            num_vertices=2_000,
            average_degree=self.average_degree,
            num_workers=self.num_workers,
            iterations=self.iterations,
            sssp_source=self.sssp_source,
            seed=self.seed,
        )


@dataclass
class Figure1GraphResult:
    """Per-algorithm Pregel results and reduction series."""

    settings: Figure1GraphSettings
    graph_vertices: int
    graph_edges: int
    results: dict[str, PregelResult] = field(default_factory=dict)
    report: str = ""

    def reduction_series(self, algorithm: str) -> list[float]:
        """Per-iteration reduction ratios of one algorithm (message-bearing steps)."""
        trace = self.results[algorithm].trace
        return [s.reduction_ratio for s in trace.supersteps if s.messages > 0]


def build_graph(settings: Figure1GraphSettings) -> Graph:
    """The scaled LiveJournal-like input graph."""
    return livejournal_like(
        num_vertices=settings.num_vertices,
        average_degree=settings.average_degree,
        seed=settings.seed,
    )


def run_figure1c(
    settings: Figure1GraphSettings | None = None,
    graph: Graph | None = None,
) -> Figure1GraphResult:
    """Run the three graph algorithms and collect their reduction series."""
    settings = settings or Figure1GraphSettings()
    graph = graph or build_graph(settings)
    results = {
        "PageRank": pagerank(
            graph, num_iterations=settings.iterations, num_workers=settings.num_workers
        ),
        "SSSP": sssp(
            graph,
            source=settings.sssp_source,
            num_workers=settings.num_workers,
            max_supersteps=settings.iterations + 1,
        ),
        "WCC": wcc(graph, num_workers=settings.num_workers, max_supersteps=settings.iterations + 1),
    }
    outcome = Figure1GraphResult(
        settings=settings,
        graph_vertices=graph.num_vertices,
        graph_edges=graph.num_edges,
        results=results,
    )
    outcome.report = render_series_table(
        title=(
            "Figure 1(c): traffic reduction ratio per iteration "
            f"(paper range {PAPER_MIN_REDUCTION:.0%}-{PAPER_MAX_REDUCTION:.0%})"
        ),
        series={name: outcome.reduction_series(name) for name in results},
        index_label="iter",
    )
    return outcome
