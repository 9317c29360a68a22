"""Reproduction of "In-Network Computation is a Dumb Idea Whose Time Has Come".

The package implements DAIET — a system for in-network data aggregation for
partition/aggregate data-center applications (Sapio et al., HotNets 2017) —
together with every substrate its evaluation depends on:

* :mod:`repro.core` — DAIET itself: wire format, Algorithm 1, aggregation
  trees, controller and the :class:`~repro.core.daiet.DaietSystem` facade.
* :mod:`repro.dataplane` — a programmable-switch (RMT/P4) model with registers,
  match-action tables, a bounded-depth parser and resource budgets.
* :mod:`repro.netsim` — a discrete-event data-center network simulator.
* :mod:`repro.transport` — UDP/TCP framing models for the baselines.
* :mod:`repro.mapreduce` — a MapReduce framework with pluggable shuffle paths.
* :mod:`repro.mlsys` — a parameter-server training substrate (SGD/Adam) used
  for the tensor-update overlap study (Figure 1a/b).
* :mod:`repro.graph` — a Pregel-style graph engine (PageRank, SSSP, WCC) used
  for the traffic-reduction study (Figure 1c).
* :mod:`repro.baselines` — the TCP and UDP shuffle baselines of Figure 3.
* :mod:`repro.analysis` — reduction metrics, box-plot statistics, report
  rendering used by the benchmark harness.
"""

__version__ = "1.0.0"

from repro.core.config import DaietConfig
from repro.core.daiet import DaietSystem

__all__ = ["DaietConfig", "DaietSystem", "__version__"]
