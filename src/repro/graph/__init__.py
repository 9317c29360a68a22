"""Pregel-style graph analytics substrate (Figure 1c experiments)."""

from repro.graph.algorithms import (
    PageRankProgram,
    SsspProgram,
    WccProgram,
    pagerank,
    sssp,
    wcc,
)
from repro.graph.combiners import MIN_COMBINER, SUM_COMBINER, Combiner
from repro.graph.generators import (
    LIVEJOURNAL_AVERAGE_DEGREE,
    livejournal_like,
    preferential_attachment_graph,
    random_graph,
)
from repro.graph.graph import Graph, GraphPartition
from repro.graph.pregel import (
    PregelEngine,
    PregelResult,
    VertexContext,
    VertexProgram,
    run_with_combiner_check,
)
from repro.graph.traffic import SuperstepTraffic, TrafficTrace

__all__ = [
    "PageRankProgram",
    "SsspProgram",
    "WccProgram",
    "pagerank",
    "sssp",
    "wcc",
    "MIN_COMBINER",
    "SUM_COMBINER",
    "Combiner",
    "LIVEJOURNAL_AVERAGE_DEGREE",
    "livejournal_like",
    "preferential_attachment_graph",
    "random_graph",
    "Graph",
    "GraphPartition",
    "PregelEngine",
    "PregelResult",
    "VertexContext",
    "VertexProgram",
    "run_with_combiner_check",
    "SuperstepTraffic",
    "TrafficTrace",
]
