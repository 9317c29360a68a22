"""Experiment runners regenerating every figure of the paper's evaluation.

Each module exposes a ``run_*`` entry point plus a ``*Settings`` dataclass with
a ``quick()`` variant, so the same code backs the benchmark harness
(paper-scale parameters), the examples and the fast integration tests.

The post-seed drivers (``figure_loss_sweep``, ``figure_scale``,
``figure_churn``, ``figure_incast``, ``figure_approx``) share one shape: the
evaluation is the same aggregation round run once per arm, so a driver is

* a **grid of arms** (workload x loss x policy, arm x fan-in x buffer, fault
  plan x recovery) over the two runners in :mod:`repro.experiments.rounds`,
  ``run_daiet_round`` and ``run_datagram_round``;
* a **field mapping** from the :class:`~repro.experiments.rounds.Round` they
  return (verdict, aggregate, every host and switch counter, summed once) to
  the driver's own ``*Run`` record, via ``Round.into``;
* its **report columns**, rendered by
  :func:`repro.analysis.reporting.render_table`, and its verdict gates.

Only :mod:`~repro.experiments.rounds` builds a transport or reads counters
(``tests/checks/test_lint_gate.py`` enforces it).
"""

from repro.experiments.figure1_graph import (
    Figure1GraphResult,
    Figure1GraphSettings,
    run_figure1c,
)
from repro.experiments.figure1_ml import (
    Figure1MlResult,
    Figure1MlSettings,
    run_figure1_ml,
    run_figure1a,
    run_figure1b,
)
from repro.experiments.figure3_wordcount import (
    Figure3Result,
    Figure3Settings,
    run_figure3,
)
from repro.experiments.figure_loss_sweep import (
    LossSweepResult,
    LossSweepRun,
    LossSweepSettings,
    run_loss_sweep,
)
from repro.experiments.figure_scale import (
    ScaleResult,
    ScaleRun,
    ScaleSettings,
    run_scale,
    run_scale_once,
)

__all__ = [
    "Figure1GraphResult",
    "Figure1GraphSettings",
    "run_figure1c",
    "Figure1MlResult",
    "Figure1MlSettings",
    "run_figure1_ml",
    "run_figure1a",
    "run_figure1b",
    "Figure3Result",
    "Figure3Settings",
    "run_figure3",
    "LossSweepResult",
    "LossSweepRun",
    "LossSweepSettings",
    "run_loss_sweep",
    "ScaleResult",
    "ScaleRun",
    "ScaleSettings",
    "run_scale",
    "run_scale_once",
]
