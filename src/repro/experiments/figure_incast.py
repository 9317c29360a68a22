"""Incast experiment: many-to-one fan-in under the adaptive transport.

The paper's motivating traffic pattern — every worker funnelling its map
output into one reducer — is exactly the shape that triggers TCP incast
collapse: the fan-in overruns the switch egress buffer in front of the
reducer NIC, the tail drops trigger synchronized retransmission timeouts,
and goodput falls off a cliff. DAIET sidesteps the pattern entirely by
aggregating *inside* the switch, so the reducer-facing link carries one
combined stream instead of N.

This experiment makes that comparison quantitative. For each fan-in it runs
three arms over the same single-rack fabric with a finite switch egress
buffer and an ECN marking threshold:

* ``daiet`` — in-network aggregation with hop reliability (the paper's
  design: no incast exists to collapse);
* ``udp-fixed`` — host-to-host transfers with the historical sender pinned
  at a TCP-like 2 ms minimum RTO, orders of magnitude above the rack RTT.
  Every drop costs a multi-millisecond stall on a sub-millisecond transfer:
  the classic incast goodput collapse;
* ``udp-aimd`` — the same transfers with SRTT/RTTVAR-driven timeouts and an
  AIMD congestion window.

Alongside the fan-in sweep, a buffer-size ablation re-runs the UDP arms at
one fan-in across shallow/default/deep switch buffers to show the
drop-vs-mark trade. Every run is exact-checked against the lossless ground
truth; the report tables goodput, retransmit overhead, ECN mark counts and
queue drops per arm.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.analysis.reporting import render_table, yes_no
from repro.core.config import DaietConfig
from repro.core.daiet import DaietSystem
from repro.core.errors import ReproError
from repro.experiments.rounds import (
    find,
    reliability_knobs,
    reliable_daiet_config,
    run_daiet_round,
    run_datagram_round,
    truth_of,
    wordcount_partitions,
)
from repro.netsim.simulator import NetworkSimulator, SimulatorConfig
from repro.netsim.topology import single_rack
from repro.transport.window import TransportTuning

#: Application bytes per (key, value) pair, matching the scale experiment.
INCAST_PAIR_BYTES = 20

#: UDP port the incast transfers run on.
INCAST_PORT = 9191

#: The three arms, in report order.
ARMS = ("daiet", "udp-fixed", "udp-aimd")

#: Fan-ins swept by the paper-scale run (override with ``--fanin``).
DEFAULT_FANINS = (16, 64, 256)


@dataclass
class IncastSettings:
    """Scale, buffer and transport knobs for the incast sweep."""

    fanins: tuple[int, ...] = DEFAULT_FANINS
    #: Rack link speed. The reducer uplink is the incast bottleneck; the
    #: default models a 10G testbed NIC so the fan-in actually queues.
    bandwidth_bps: float = 10e9 / 8
    pairs_per_sender: int = 200
    vocabulary_size: int = 1_000
    register_slots: int = 4_096
    pairs_per_packet: int = 10
    #: Base timeout of the adaptive arms (their RTO before any sample) and
    #: of DAIET's hop-scoped reliability, whose per-hop RTTs stay tiny.
    retransmit_timeout: float = 1e-4
    #: Pinned RTO of the ``udp-fixed`` arm: the TCP-like 2 ms minimum the
    #: adaptive transport replaces. Orders of magnitude above the rack RTT,
    #: so every tail-drop stalls the flow — the incast collapse mechanism.
    fixed_rto: float = 2e-3
    ack_window: int = 8
    #: Generous so the fixed arm degrades (collapsed goodput) rather than
    #: aborting with a give-up error mid-measurement.
    max_retransmits: int = 200
    #: Switch egress marks CE above this backlog; a marked arrival is ACKed
    #: at once.
    ecn_threshold_bytes: int = 15_000
    #: Finite switch egress buffer; tail-drop above this backlog.
    switch_buffer_bytes: int = 100_000
    #: Buffer depths for the ablation, run at ``ablation_fanin``.
    ablation_buffers: tuple[int, ...] = (25_000, 100_000, 400_000)
    ablation_fanin: int = 64
    #: RTO clamps for the adaptive arms. The ceiling is rack-scale (2 ms,
    #: the classic TCP minimum RTO): backoff may not stretch the recovery
    #: tail past it, or the adaptive arms lose on completion time at small
    #: fan-ins where the transfer itself lasts well under a millisecond.
    rto_floor: float = 5e-5
    rto_ceiling: float = 2e-3
    initial_cwnd: int = 10
    min_cwnd: int = 2
    seed: int = 2017

    def quick(self) -> "IncastSettings":
        """A fast variant used by unit tests and smoke runs."""
        return replace(
            self,
            fanins=(8, 16),
            bandwidth_bps=1e9 / 8,
            pairs_per_sender=150,
            vocabulary_size=200,
            register_slots=512,
            switch_buffer_bytes=25_000,
            ecn_threshold_bytes=8_000,
            ablation_buffers=(25_000, 100_000),
            ablation_fanin=16,
        )

    def tuning(self, arm: str) -> TransportTuning:
        """The transport tuning of one UDP arm."""
        if arm == "udp-fixed":
            return TransportTuning()
        if arm != "udp-aimd":
            raise ReproError(f"unknown incast arm {arm!r}")
        return TransportTuning(
            adaptive_rto=True,
            rto_floor=self.rto_floor,
            rto_ceiling=self.rto_ceiling,
            congestion_control="aimd",
            initial_cwnd=self.initial_cwnd,
            min_cwnd=self.min_cwnd,
        )

    def simulator_config(self, buffer_bytes: int | None = None) -> SimulatorConfig:
        """Simulator config with the congested-fabric knobs enabled."""
        return SimulatorConfig(
            ecn_threshold_bytes=self.ecn_threshold_bytes,
            switch_buffer_bytes=(
                self.switch_buffer_bytes if buffer_bytes is None else buffer_bytes
            ),
        )

    def daiet_config(self) -> DaietConfig:
        """The DAIET configuration implied by these settings."""
        return reliable_daiet_config(self)


@dataclass
class IncastRun:
    """Measurements of one (arm, fan-in, buffer) run."""

    arm: str
    fanin: int
    buffer_bytes: int
    completed: bool
    exact: bool
    events: int
    sim_seconds: float
    #: Unique application payload delivered, bits per second of sim time.
    goodput_bps: float
    datagrams_sent: int
    retransmissions: int
    #: Retransmitted fraction of everything the senders put on the wire.
    retransmit_overhead: float
    ecn_marks: int
    queue_drops: int


@dataclass
class IncastResult:
    """All runs of the sweep plus the rendered report."""

    settings: IncastSettings
    runs: list[IncastRun] = field(default_factory=list)
    ablation: list[IncastRun] = field(default_factory=list)
    report: str = ""

    def run_for(self, arm: str, fanin: int) -> IncastRun:
        """The sweep run of ``arm`` at ``fanin``."""
        return find(self.runs, f"{arm!r} run at fan-in {fanin}", arm=arm, fanin=fanin)


# ---------------------------------------------------------------------- #
# One arm
# ---------------------------------------------------------------------- #
def run_incast_arm(
    settings: IncastSettings, arm: str, fanin: int, buffer_bytes: int
) -> IncastRun:
    """One arm at one fan-in and switch buffer depth."""
    partitions = wordcount_partitions(
        settings.seed, fanin, settings.pairs_per_sender, settings.vocabulary_size
    )
    truth = truth_of(partitions)
    senders = [f"h{i}" for i in range(fanin)]
    reducer = f"h{fanin}"
    rack = single_rack(fanin + 1, bandwidth_bps=settings.bandwidth_bps)
    simulator_config = settings.simulator_config(buffer_bytes)
    if arm == "daiet":
        system = DaietSystem(rack, settings.daiet_config(), simulator_config)
        round_ = run_daiet_round(system, senders, reducer, partitions, truth)
        # Every offered pair reached the aggregate, or the run does not count.
        delivered_pairs = fanin * settings.pairs_per_sender if round_.exact else 0
    else:
        transport = dict(reliability_knobs(settings), tuning=settings.tuning(arm))
        if arm == "udp-fixed":
            transport["retransmit_timeout"] = settings.fixed_rto
        round_ = run_datagram_round(
            NetworkSimulator(rack, simulator_config),
            transport,
            senders,
            reducer,
            partitions,
            truth,
            pairs_per_packet=settings.pairs_per_packet,
            pair_bytes=INCAST_PAIR_BYTES,
            port=INCAST_PORT,
        )
        delivered_pairs = round_.pairs_delivered
    sent, retrans = round_.packets_sent, round_.retransmissions
    return round_.into(
        IncastRun,
        arm=arm,
        fanin=fanin,
        buffer_bytes=buffer_bytes,
        goodput_bps=(
            delivered_pairs * INCAST_PAIR_BYTES * 8 / round_.sim_seconds
            if round_.sim_seconds
            else 0.0
        ),
        datagrams_sent=sent,
        retransmit_overhead=retrans / (sent + retrans) if sent else 0.0,
    )


# ---------------------------------------------------------------------- #
# The sweep
# ---------------------------------------------------------------------- #
def run_incast(settings: IncastSettings | None = None) -> IncastResult:
    """Sweep fan-in across the three arms, then ablate the buffer depth."""
    settings = settings or IncastSettings()
    result = IncastResult(settings=settings)
    for fanin in settings.fanins:
        for arm in ARMS:
            result.runs.append(
                run_incast_arm(settings, arm, fanin, settings.switch_buffer_bytes)
            )
    for buffer_bytes in settings.ablation_buffers:
        for arm in ARMS[1:]:  # the UDP arms; DAIET barely touches the buffer
            result.ablation.append(
                run_incast_arm(settings, arm, settings.ablation_fanin, buffer_bytes)
            )
    result.report = _render_report(result)
    return result


_COLUMNS = [
    ("arm", "<10s", lambda run: run.arm),
    ("fanin", ">6d", lambda run: run.fanin),
    ("buf-KB", ">6d", lambda run: run.buffer_bytes // 1024),
    ("exact", ">6s", lambda run: yes_no(run.exact)),
    ("sim-ms", ">8.3f", lambda run: run.sim_seconds * 1e3),
    ("Gbit/s", ">9.3f", lambda run: run.goodput_bps / 1e9),
    ("retrans", ">8d", lambda run: run.retransmissions),
    ("rtx-ovh", ">8.1%", lambda run: run.retransmit_overhead),
    ("marks", ">7d", lambda run: run.ecn_marks),
    ("qdrops", ">7d", lambda run: run.queue_drops),
]


def _render_report(result: IncastResult) -> str:
    settings = result.settings
    lines = [
        "Incast: many-to-one fan-in, adaptive transport vs in-network aggregation",
        "",
        f"Single rack; switch egress buffer {settings.switch_buffer_bytes // 1024} KB, "
        f"ECN mark threshold {settings.ecn_threshold_bytes // 1024} KB.",
        f"Fixed arm pinned at a {settings.fixed_rto:g}s TCP-like minimum RTO; "
        f"adaptive arms use SRTT/RTTVAR with floor {settings.rto_floor:g}s, "
        f"ceiling {settings.rto_ceiling:g}s.",
        "Goodput is unique application payload delivered per second of "
        "simulated time; rtx-ovh is the retransmitted fraction of all "
        "datagrams sent.",
        "",
        render_table(_COLUMNS, result.runs),
    ]
    if result.ablation:
        lines.append("")
        lines.append(
            f"Buffer ablation at fan-in {settings.ablation_fanin} (UDP arms):"
        )
        lines.append(render_table(_COLUMNS, result.ablation))
    lines.append("")
    verdicts = []
    for fanin in settings.fanins:
        fixed = result.run_for("udp-fixed", fanin)
        adaptive = result.run_for("udp-aimd", fanin)
        if fixed.goodput_bps:
            ratio = adaptive.goodput_bps / fixed.goodput_bps
            verdicts.append(
                f"fan-in {fanin}: udp-aimd delivers "
                f"{ratio:.1f}x the fixed-RTO goodput"
            )
        else:
            verdicts.append(
                f"fan-in {fanin}: fixed-RTO arm collapsed outright; "
                f"udp-aimd completed at "
                f"{adaptive.goodput_bps / 1e9:.3f} Gbit/s"
            )
    lines.extend(f"Verdict: {v}." for v in verdicts)
    return "\n".join(lines)
