"""Exactness-vs-overhead sweep for degraded-mode (approximate) aggregation.

SAP's selective-reliability idea, applied to DAIET: not every aggregate is
worth exact recovery. This experiment sweeps ``loss rate x reliability
policy x workload class`` and reports, per arm, what the policy saves
(link bytes, ACKs, retransmissions) and what it costs (a *reported*,
a-posteriori error bound from :mod:`repro.analysis.error_bounds`, checked
for containment against the exact ground truth of a twin computation).

Workload classes exercise the per-class policy matrix:

* **wordcount** — the exact-only gate: a counting job whose answer must be
  bit-identical, so the sweep pins it to the ``exact`` policy at every
  loss rate regardless of the swept arm;
* **sgd_gradients** — quantized sparse gradient pushes (signed values),
  the class that tolerates approximation best; bounds are reported both
  absolute and relative to the injected L1 mass;
* **pagerank** — rank-contribution pairs (positive values), the graph
  analytics class.

A convergence-impact section quantifies the *application*-level cost of
dropped contributions: extra SGD steps (:func:`repro.mlsys.training.
measure_convergence_impact`) and extra Pregel supersteps / state error
(:func:`repro.graph.pregel.measure_convergence_impact`) against exact twin
runs sharing every seed.

Verdict gates (enforced by the tier-1 quick test and the benchmark):

* at the 1% loss arm, ``sampled`` and ``best_effort`` spend fewer link
  bytes than ``exact`` on every non-gated workload;
* every non-exact aggregate's reported bound contains its true L1 error.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace

from repro.analysis.error_bounds import (
    TreeErrorBound,
    install_error_tracker,
    true_error_l1,
)
from repro.analysis.reporting import render_table, yes_no
from repro.core.config import DaietConfig
from repro.core.daiet import DaietSystem
from repro.core.errors import ReproError
from repro.experiments.rounds import (
    Partition,
    gradient_partitions,
    reliable_daiet_config,
    run_daiet_round,
    truth_of,
    wordcount_partitions,
)
from repro.graph.generators import random_graph
from repro.graph.algorithms.pagerank import PageRankProgram
from repro.graph.pregel import (
    GraphConvergenceImpact,
    measure_convergence_impact as graph_convergence_impact,
)
from repro.mlsys.training import (
    ConvergenceImpact,
    TrainingConfig,
    measure_convergence_impact as training_convergence_impact,
)
from repro.netsim.simulator import SimulatorConfig
from repro.netsim.topology import single_rack

#: Reliability policies swept (in report order).
POLICIES = ("exact", "sampled", "best_effort")

#: The loss arm the byte-saving verdict gate is evaluated at.
GATE_LOSS_RATE = 0.01


@dataclass
class ApproxSweepSettings:
    """Scale and protocol knobs for the approximation sweep."""

    loss_rates: tuple[float, ...] = (0.001, 0.01, 0.05)
    num_workers: int = 8
    wordcount_pairs_per_worker: int = 400
    vocabulary_size: int = 300
    ml_params: int = 400
    ml_updates_per_worker: int = 150
    pagerank_vertices: int = 300
    pagerank_contribs_per_worker: int = 150
    register_slots: int = 256
    pairs_per_packet: int = 10
    retransmit_timeout: float = 1e-4
    ack_window: int = 8
    sampled_ack_stride: int = 4
    max_retransmits: int = 30
    loss_seed: int = 17
    seed: int = 2017
    #: Drop rate fed to the application-level convergence-impact twins.
    impact_drop_rate: float = 0.05
    sgd_steps: int = 30
    sgd_workers: int = 3
    pregel_vertices: int = 60
    pregel_edges: int = 150
    pagerank_iterations: int = 10

    def quick(self) -> "ApproxSweepSettings":
        """A fast variant used by unit tests and smoke runs."""
        return replace(
            self,
            loss_rates=(GATE_LOSS_RATE,),
            num_workers=4,
            wordcount_pairs_per_worker=120,
            vocabulary_size=80,
            ml_params=120,
            ml_updates_per_worker=60,
            pagerank_vertices=100,
            pagerank_contribs_per_worker=60,
            register_slots=64,
            sgd_steps=10,
            sgd_workers=3,
            pregel_vertices=30,
            pregel_edges=60,
            pagerank_iterations=6,
        )

    def daiet_config(self, policy: str) -> DaietConfig:
        """The DAIET configuration of one policy arm."""
        return reliable_daiet_config(
            self, reliability_policy=policy, sampled_ack_stride=self.sampled_ack_stride
        )


@dataclass
class ApproxRun:
    """Metrics of one (workload, loss rate, policy) arm."""

    workload: str
    loss_rate: float
    policy: str
    completed: bool
    link_bytes: int
    acks: int
    retransmissions: int
    losses: int
    true_error: int
    bound: TreeErrorBound
    #: Whether the reported bound contains the realized L1 error.
    bound_contains: bool
    #: Link bytes relative to the exact arm at the same loss rate.
    bytes_vs_exact: float = 1.0
    #: Simulator events the arm processed (perf-bench accounting).
    events: int = 0
    #: Link-level packets the arm moved (perf-bench packet throughput).
    link_packets: int = 0


@dataclass
class ApproxSweepResult:
    """All arms of the sweep plus the rendered report."""

    settings: ApproxSweepSettings
    runs: list[ApproxRun] = field(default_factory=list)
    sgd_impact: ConvergenceImpact | None = None
    pagerank_impact: GraphConvergenceImpact | None = None
    report: str = ""

    @property
    def all_bounds_contain(self) -> bool:
        """True when every arm's reported bound covers its true error."""
        return all(run.bound_contains for run in self.runs)

    def savings_at_gate(self) -> dict[tuple[str, str], float]:
        """``bytes_vs_exact`` per (workload, non-exact policy) at the gate."""
        out: dict[tuple[str, str], float] = {}
        for run in self.runs:
            if run.loss_rate == GATE_LOSS_RATE and run.policy != "exact":
                out[(run.workload, run.policy)] = run.bytes_vs_exact
        return out

    @property
    def gate_holds(self) -> bool:
        """Every non-exact arm at the gate loss spends fewer bytes than exact."""
        savings = self.savings_at_gate()
        return bool(savings) and all(ratio < 1.0 for ratio in savings.values())


# ---------------------------------------------------------------------- #
# Workload inputs
# ---------------------------------------------------------------------- #
def _pagerank_partitions(settings: ApproxSweepSettings) -> list[Partition]:
    """Rank-contribution pairs (positive fixed-point values) per worker."""
    rng = random.Random(settings.seed + 2000)
    partitions = []
    for _worker in range(settings.num_workers):
        partitions.append(
            [
                (f"v:{rng.randrange(settings.pagerank_vertices)}", rng.randint(1, 10_000))
                for _ in range(settings.pagerank_contribs_per_worker)
            ]
        )
    return partitions


# ---------------------------------------------------------------------- #
# One arm
# ---------------------------------------------------------------------- #
def _run_arm(
    settings: ApproxSweepSettings,
    workload: str,
    partitions: list[Partition],
    truth: dict[str, int],
    loss_rate: float,
    policy: str,
) -> ApproxRun:
    system = DaietSystem(
        single_rack(settings.num_workers + 1, loss_rate=loss_rate),
        settings.daiet_config(policy),
        SimulatorConfig(loss_seed=settings.loss_seed),
    )
    tracker = install_error_tracker(system)
    reducer = f"h{settings.num_workers}"
    mappers = [f"h{i}" for i in range(settings.num_workers)]
    round_ = run_daiet_round(system, mappers, reducer, partitions, truth, policy)
    bound = tracker.bound(system.tree_for(reducer).tree_id)
    error = true_error_l1(truth, round_.result)
    return round_.into(
        ApproxRun,
        workload=workload,
        loss_rate=loss_rate,
        policy=policy,
        true_error=error,
        bound=bound,
        bound_contains=bound.contains(error),
    )


# ---------------------------------------------------------------------- #
# The sweep
# ---------------------------------------------------------------------- #
def run_approx_sweep(settings: ApproxSweepSettings | None = None) -> ApproxSweepResult:
    """Sweep loss x policy x workload; report savings, bounds and impact."""
    settings = settings or ApproxSweepSettings()
    result = ApproxSweepResult(settings=settings)

    workers = settings.num_workers
    # The grid: (workload, partitions, policies). wordcount is the per-class
    # policy gate: counting is pinned to exact reliability, so no degraded
    # arm is even attempted.
    workloads: list[tuple[str, list[Partition], tuple[str, ...]]] = [
        (
            "wordcount",
            wordcount_partitions(
                settings.seed,
                workers,
                settings.wordcount_pairs_per_worker,
                settings.vocabulary_size,
            ),
            POLICIES[:1],
        ),
        (
            "sgd_gradients",
            gradient_partitions(
                settings.seed + 1000,
                workers,
                settings.ml_params,
                settings.ml_updates_per_worker,
            ),
            POLICIES,
        ),
        ("pagerank", _pagerank_partitions(settings), POLICIES),
    ]
    for workload, partitions, policies in workloads:
        truth = truth_of(partitions)
        for loss_rate in settings.loss_rates:
            for policy in policies:
                run = _run_arm(settings, workload, partitions, truth, loss_rate, policy)
                if policy == "exact":
                    exact_arm = run
                    if not run.bound_contains or run.true_error != 0:
                        raise ReproError(
                            f"the exact {workload} arm at loss {loss_rate} diverged "
                            "from ground truth"
                        )
                elif exact_arm.link_bytes:
                    run.bytes_vs_exact = run.link_bytes / exact_arm.link_bytes
                else:
                    run.bytes_vs_exact = 0.0
                result.runs.append(run)

    result.sgd_impact = training_convergence_impact(
        TrainingConfig(
            optimizer="sgd",
            batch_size=3,
            num_workers=settings.sgd_workers,
            num_steps=settings.sgd_steps,
            seed=settings.seed,
        ),
        drop_rate=settings.impact_drop_rate,
        drop_seed=settings.seed,
    )
    graph = random_graph(
        settings.pregel_vertices, settings.pregel_edges, seed=settings.seed
    )
    result.pagerank_impact = graph_convergence_impact(
        graph,
        lambda: PageRankProgram(num_iterations=settings.pagerank_iterations),
        drop_rate=settings.impact_drop_rate,
        max_supersteps=settings.pagerank_iterations + 1,
        drop_seed=settings.seed,
    )
    result.report = _render_report(result)
    return result


_COLUMNS = [
    ("workload", "<14s", lambda run: run.workload),
    ("loss", ">6.1%", lambda run: run.loss_rate),
    ("policy", "<12s", lambda run: run.policy),
    ("done", ">5s", lambda run: yes_no(run.completed, no="no")),
    ("acks", ">6d", lambda run: run.acks),
    ("retr", ">6d", lambda run: run.retransmissions),
    ("link-KB", ">8.1f", lambda run: run.link_bytes / 1024),
    ("vs-exact", ">9s", lambda run: f"{run.bytes_vs_exact:.2f}x"),
    ("true-err", ">10d", lambda run: run.true_error),
    ("bound", ">10d", lambda run: run.bound.abs_bound),
    ("rel", ">6.1%", lambda run: run.bound.relative_bound, 7),
    ("contains", ">9s", lambda run: yes_no(run.bound_contains)),
]


def _render_report(result: ApproxSweepResult) -> str:
    settings = result.settings
    lines = [
        "Approximation sweep: selective reliability vs bounded error",
        "",
        f"{settings.num_workers} mappers behind one switch; loss applied per "
        "direction on every host uplink.",
        "Policies: exact (full recovery), sampled (ACK every "
        f"{settings.ack_window}x{settings.sampled_ack_stride} packets, "
        "degrading give-up), best_effort (no seq/ACK/retransmit at all).",
        "wordcount is pinned to the exact policy (counting must be "
        "bit-identical); bytes-vs-exact compares each arm to the exact arm "
        "at the same loss rate.",
        "Bounds are a-posteriori L1 deficits (lost + crash-wiped + stranded "
        "register mass); 'contains' checks the bound against the realized "
        "error of the exact twin computation. Sampled bounds are "
        "conservative: recovered retransmissions are never subtracted.",
        "",
    ]
    lines.append(render_table(_COLUMNS, result.runs))
    lines.append("")
    lines.append("Convergence impact of dropped contributions "
                 f"(drop rate {settings.impact_drop_rate:.1%}, exact twins "
                 "share every seed):")
    sgd = result.sgd_impact
    if sgd is not None:
        extra = "never reached target" if sgd.extra_steps is None else f"{sgd.extra_steps} extra steps"
        lines.append(
            f"  sgd: {sgd.updates_dropped} updates dropped "
            f"({sgd.dropped_fraction:.1%}), loss gap at horizon "
            f"{sgd.loss_gap:+.4f}, {extra} to reach the exact final loss"
        )
    pr = result.pagerank_impact
    if pr is not None:
        lines.append(
            f"  pagerank: {pr.messages_dropped} messages dropped, "
            f"{pr.extra_supersteps} extra supersteps, final state L1 error "
            f"{pr.state_l1_error:.6f}"
        )
    lines.append("")
    savings = result.savings_at_gate()
    for (workload, policy), ratio in sorted(savings.items()):
        lines.append(
            f"Gate {GATE_LOSS_RATE:.1%} {workload}/{policy}: "
            f"{ratio:.2f}x exact bytes ({'saves' if ratio < 1.0 else 'COSTS'})"
        )
    if not savings:
        verdict_bytes = f"the {GATE_LOSS_RATE:.1%} gate loss was not swept"
    elif result.gate_holds:
        verdict_bytes = "every degraded arm undercuts exact at the gate loss"
    else:
        verdict_bytes = "SOME DEGRADED ARM SPENT MORE BYTES THAN EXACT AT THE GATE LOSS"
    verdict_bounds = (
        "every reported bound contains its true error"
        if result.all_bounds_contain
        else "SOME BOUND FAILED TO CONTAIN THE TRUE ERROR"
    )
    lines.append(f"Verdict: {verdict_bytes}; {verdict_bounds}.")
    return "\n".join(lines)
