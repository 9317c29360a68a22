"""Loss-sweep experiment: exact aggregation over lossy links.

The paper's evaluation runs on a lossless fabric and explicitly defers packet
loss ("we do not address the issue of packet losses, which we leave as future
work"). This experiment makes loss a first-class scenario dimension: it runs
a WordCount-shaped and an ML-training-shaped aggregation over a single rack
whose host uplinks drop packets with probability ``loss_rate`` in each
direction, with the end-host reliability layer enabled, and checks that every
run produces *bit-identical* aggregates to the lossless ground truth.

Alongside correctness it reports the price of reliability: retransmissions,
duplicates filtered at the switch, ACK traffic, and the total link-byte
overhead relative to the lossless, reliability-free baseline — the number the
benchmark gate keeps below 2x at 1% loss.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.analysis.reporting import render_table, yes_no
from repro.core.config import DaietConfig
from repro.core.daiet import DaietSystem
from repro.core.errors import ReproError
from repro.experiments.rounds import (
    Partition,
    exactness_verdict,
    gradient_partitions,
    reliable_daiet_config,
    run_daiet_round,
    truth_of,
    wordcount_partitions,
)
from repro.netsim.simulator import SimulatorConfig
from repro.netsim.topology import single_rack

#: The loss rates swept by the paper-scale run (0 = sanity baseline).
DEFAULT_LOSS_RATES = (0.0, 0.001, 0.01, 0.05)

#: Acceptance gate: total link bytes at 1% loss stay below this multiple of
#: the lossless, reliability-free baseline.
OVERHEAD_GATE_AT_1PCT = 2.0


@dataclass
class LossSweepSettings:
    """Scale and protocol knobs for the loss sweep."""

    loss_rates: tuple[float, ...] = DEFAULT_LOSS_RATES
    num_workers: int = 8
    wordcount_pairs_per_worker: int = 600
    vocabulary_size: int = 400
    ml_params: int = 400
    ml_updates_per_worker: int = 150
    ml_steps: int = 2
    register_slots: int = 256
    pairs_per_packet: int = 10
    retransmit_timeout: float = 1e-4
    ack_window: int = 8
    max_retransmits: int = 30
    loss_seed: int = 17
    seed: int = 2017

    def quick(self) -> "LossSweepSettings":
        """A fast variant used by unit tests and smoke runs."""
        return replace(
            self,
            loss_rates=(0.0, 0.01),
            num_workers=4,
            wordcount_pairs_per_worker=150,
            vocabulary_size=80,
            ml_params=120,
            ml_updates_per_worker=60,
            ml_steps=2,
            register_slots=64,
        )

    def daiet_config(self, reliability: bool) -> DaietConfig:
        """The DAIET configuration implied by these settings."""
        return reliable_daiet_config(self, reliability=reliability)


@dataclass
class LossSweepRun:
    """Metrics of one (workload, loss rate) run."""

    workload: str
    loss_rate: float
    reliability: bool
    exact: bool
    completed: bool
    link_bytes: int
    link_packets: int
    losses: int
    retransmissions: int
    duplicates_filtered: int
    acks: int
    sim_seconds: float
    #: Link-byte cost relative to the lossless, reliability-free baseline.
    overhead: float = 0.0


@dataclass
class LossSweepResult:
    """All runs of the sweep plus the rendered report."""

    settings: LossSweepSettings
    baselines: dict[str, LossSweepRun] = field(default_factory=dict)
    runs: dict[str, list[LossSweepRun]] = field(default_factory=dict)
    report: str = ""

    @property
    def all_exact(self) -> bool:
        """True when every reliable run reproduced the lossless aggregate."""
        return all(run.exact for runs in self.runs.values() for run in runs)


# ---------------------------------------------------------------------- #
# Workloads: one round of wordcount, one round per training step
# ---------------------------------------------------------------------- #
def _workloads(settings: LossSweepSettings) -> dict[str, list[list[Partition]]]:
    """Per workload, the partitions of each of its rounds."""
    workers = settings.num_workers
    return {
        "wordcount": [
            wordcount_partitions(
                settings.seed,
                workers,
                settings.wordcount_pairs_per_worker,
                settings.vocabulary_size,
            )
        ],
        "ml_training": [
            gradient_partitions(
                settings.seed + 1000 * (step + 1),
                workers,
                settings.ml_params,
                settings.ml_updates_per_worker,
            )
            for step in range(settings.ml_steps)
        ],
    }


def _run(
    settings: LossSweepSettings,
    workload: str,
    rounds: list[tuple[list[Partition], dict[str, int]]],
    loss_rate: float,
    reliability: bool,
) -> LossSweepRun:
    """Every (partitions, truth) round of ``workload`` on one system, like a training loop."""
    system = DaietSystem(
        single_rack(settings.num_workers + 1, loss_rate=loss_rate),
        settings.daiet_config(reliability),
        SimulatorConfig(loss_seed=settings.loss_seed),
    )
    reducer = f"h{settings.num_workers}"
    mappers = [f"h{i}" for i in range(settings.num_workers)]
    done = [
        run_daiet_round(system, mappers, reducer, partitions, truth)
        for partitions, truth in rounds
    ]
    # The last round's counters are the system's totals over all of them.
    return done[-1].into(
        LossSweepRun,
        workload=workload,
        loss_rate=loss_rate,
        reliability=reliability,
        exact=all(round_.exact for round_ in done),
        completed=all(round_.completed for round_ in done),
    )


# ---------------------------------------------------------------------- #
# The sweep
# ---------------------------------------------------------------------- #
def run_loss_sweep(settings: LossSweepSettings | None = None) -> LossSweepResult:
    """Sweep ``loss_rate`` for both workloads and report exactness + cost."""
    settings = settings or LossSweepSettings()
    result = LossSweepResult(settings=settings)
    for workload, partitions_per_round in _workloads(settings).items():
        rounds = [(partitions, truth_of(partitions)) for partitions in partitions_per_round]
        baseline = _run(settings, workload, rounds, 0.0, False)
        if not baseline.exact:
            raise ReproError(
                f"the lossless {workload} baseline disagrees with ground truth"
            )
        baseline.overhead = 1.0
        result.baselines[workload] = baseline
        swept = []
        for rate in settings.loss_rates:
            run = _run(settings, workload, rounds, rate, True)
            run.overhead = (
                run.link_bytes / baseline.link_bytes if baseline.link_bytes else 0.0
            )
            swept.append(run)
        result.runs[workload] = swept
    result.report = _render_report(result)
    return result


def _if_reliable(value_of):
    """The baseline row (reliability off) shows a dash in this column."""
    return lambda run: value_of(run) if run.reliability else "-"


_COLUMNS = [
    ("workload", "<12s", lambda run: run.workload),
    ("loss", ">6.1%", lambda run: run.loss_rate if run.reliability else "none*", 7),
    ("exact", ">6s", lambda run: yes_no(run.exact)),
    ("losses", ">7d", lambda run: run.losses),
    ("retrans", ">8d", _if_reliable(lambda run: run.retransmissions)),
    ("dups", ">6d", _if_reliable(lambda run: run.duplicates_filtered)),
    ("acks", ">6d", _if_reliable(lambda run: run.acks)),
    ("link-KB", ">9.1f", lambda run: run.link_bytes / 1024),
    ("overhead", ">9s", lambda run: f"{run.overhead:.2f}x"),
]


def _render_report(result: LossSweepResult) -> str:
    settings = result.settings
    lines = [
        "Loss sweep: exact in-network aggregation over lossy links",
        "",
        f"{settings.num_workers} mappers behind one switch; loss applied per "
        "direction on every host uplink.",
        f"Reliability knobs: retransmit_timeout={settings.retransmit_timeout:g}s, "
        f"ack_window={settings.ack_window}, max_retransmits={settings.max_retransmits}.",
        "Overhead is total link bytes vs the lossless baseline without the "
        "reliability layer (seq numbers, ACKs, retransmissions included).",
        "",
    ]
    rows = []
    for workload, runs in result.runs.items():
        rows += [result.baselines[workload], *runs]
    lines.append(render_table(_COLUMNS, rows))
    lines.append("")
    lines.append("* lossless run without the reliability layer (goodput baseline)")
    lines.append(exactness_verdict(result.all_exact))
    return "\n".join(lines)
