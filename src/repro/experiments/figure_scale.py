"""Cluster-scale scenario: in-network aggregation from 16 to 1024 workers.

The paper's pitch is that in-network aggregation pays off at rack and cluster
scale, yet its evaluation (and this reproduction's other figures) runs a
dozen workers behind one switch. This experiment sweeps the worker count up
to 256 (1024 via ``repro scale --workers 1024``) on multi-switch fabrics — a
two-tier leaf-spine by default, a k-ary fat-tree optionally — with lossy
host uplinks and the PR 1 reliability layer enabled, and checks that every
run still produces the bit-exact aggregate.

``--compare-baselines`` additionally replays the identical workload over the
two non-aggregating baselines, both with reliability on so every path stays
bit-exact over the same lossy links:

* **UDP baseline** — DAIET-sized datagrams over the reliable datagram layer
  (:class:`~repro.transport.udp.ReliableUdpTransport`); switches only
  forward (the compiled forwarding fast path), the reducer aggregates.
* **TCP baseline** — MSS-sized segments over the same reliable layer
  (modelling TCP's ACK/retransmission machinery); the reducer aggregates.

These scenarios were previously infeasible in reasonable wall-clock time;
the fast-path simulator core plus the calendar-queue scheduler, one-BFS-per-
destination routing and burst injection (see ``src/repro/netsim/README.md``)
make them routine, and the report includes the measured events/sec so scale
runs double as a coarse perf canary.
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
    reliability_knobs,
    reliable_daiet_config,
    run_daiet_round,
    run_datagram_round,
    truth_of,
    wordcount_partitions,
)
from repro.netsim.simulator import NetworkSimulator, SimulatorConfig
from repro.netsim.topology import Topology, fat_tree, leaf_spine
from repro.transport.window import TransportTuning

#: Worker counts swept by the paper-scale run.
DEFAULT_WORKER_COUNTS = (16, 64, 128, 256)

#: The reducer host of every run; the workers are ``h1`` .. ``hN``.
REDUCER = "h0"

#: Destination port of the baseline shuffle streams.
BASELINE_PORT = 9090

#: Bytes per (key, value) pair on a baseline datagram (mirrors the DAIET
#: fixed-width pair encoding).
BASELINE_PAIR_BYTES = 20

#: Effective TCP segment payload for the TCP-like baseline (matches the
#: figure3 container-testbed observation).
BASELINE_TCP_SEGMENT_BYTES = 1024


@dataclass
class ScaleSettings:
    """Scale and protocol knobs for the cluster-scale sweep."""

    worker_counts: tuple[int, ...] = DEFAULT_WORKER_COUNTS
    #: Also run the UDP/TCP baselines (reliability on) for comparison.
    compare_baselines: bool = False
    #: ``"leaf_spine"`` (default) or ``"fat_tree"``.
    fabric: str = "leaf_spine"
    #: Leaf-spine dimensioning (ignored for fat-tree).
    workers_per_leaf: int = 16
    spines: int = 4
    #: Fat-tree arity; hosts = k^3/4 must cover workers + 1 reducer.
    fat_tree_k: int = 8
    #: Per-direction drop probability on every host uplink.
    loss_rate: float = 0.001
    #: Wordcount-shaped workload per worker.
    pairs_per_worker: int = 400
    vocabulary_size: int = 4_000
    register_slots: int = 16 * 1024
    pairs_per_packet: int = 10
    retransmit_timeout: float = 1e-4
    ack_window: int = 8
    max_retransmits: int = 30
    #: RTO floor of the host-to-host baselines. DAIET's hop reliability
    #: keeps per-hop RTTs tiny, but the baselines funnel the whole
    #: cluster's traffic into one reducer NIC, so their end-to-end RTT
    #: includes the full incast backlog: an RTO below the transfer duration
    #: would time out spuriously on every flow, which no sane TCP stack
    #: does. The 2 ms default models a TCP-like minimum RTO at this
    #: scale and keeps prior reports byte-identical.
    rto_floor: float = 2e-3
    loss_seed: int = 17
    seed: int = 2017

    def quick(self) -> "ScaleSettings":
        """A fast variant used by unit tests and smoke runs."""
        return replace(
            self,
            worker_counts=(8, 16),
            workers_per_leaf=4,
            spines=2,
            fat_tree_k=4,
            pairs_per_worker=120,
            vocabulary_size=300,
            register_slots=1024,
        )

    def daiet_config(self) -> DaietConfig:
        """The DAIET configuration implied by these settings."""
        return reliable_daiet_config(self)


@dataclass
class BaselineRun:
    """Measurements of one baseline (non-aggregating) run at one scale."""

    transport: str
    workers: int
    exact: bool
    events: int
    wall_seconds: float
    events_per_sec: float
    link_packets: int
    link_bytes: int
    losses: int
    retransmissions: int
    reducer_packets: int
    sim_seconds: float


@dataclass
class ScaleRun:
    """Measurements of one (fabric, worker count) run."""

    workers: int
    fabric: str
    switches: int
    hosts: int
    exact: bool
    events: int
    wall_seconds: float
    events_per_sec: float
    link_packets: int
    link_bytes: int
    losses: int
    retransmissions: int
    duplicates_filtered: int
    sim_seconds: float
    #: Packets received at the reducer NIC (baseline-comparison metric).
    reducer_packets: int = 0
    #: Baseline runs keyed by transport name (``--compare-baselines`` only).
    baselines: dict[str, BaselineRun] = field(default_factory=dict)


@dataclass
class ScaleResult:
    """All runs of the sweep plus the rendered report."""

    settings: ScaleSettings
    runs: list[ScaleRun] = field(default_factory=list)
    report: str = ""

    @property
    def all_exact(self) -> bool:
        """True when every run reproduced the lossless ground truth."""
        return all(run.exact for run in self.runs)


# ---------------------------------------------------------------------- #
# Topology and workload
# ---------------------------------------------------------------------- #
def _build_fabric(settings: ScaleSettings, num_workers: int) -> Topology:
    """A multi-switch fabric with ``num_workers`` + 1 (reducer) hosts."""
    num_hosts = num_workers + 1
    if settings.fabric == "leaf_spine":
        per_leaf = settings.workers_per_leaf
        num_leaves = -(-num_hosts // per_leaf)  # ceil division
        topo = leaf_spine(
            num_leaves=num_leaves,
            num_spines=settings.spines,
            hosts_per_leaf=per_leaf,
            host_prefix="h",
        )
    elif settings.fabric == "fat_tree":
        k = settings.fat_tree_k
        while (k**3) // 4 < num_hosts:
            k += 2
        topo = fat_tree(k)
    else:
        raise ReproError(f"unknown fabric {settings.fabric!r}")
    for link in topo.host_uplinks():
        link.loss_rate = settings.loss_rate
    return topo


def _workload(
    settings: ScaleSettings, num_workers: int
) -> tuple[list[str], list[Partition], dict[str, int]]:
    """Mapper hosts, their wordcount partitions and the ground truth."""
    partitions = wordcount_partitions(
        settings.seed,
        num_workers,
        settings.pairs_per_worker,
        settings.vocabulary_size,
        digits=5,
    )
    mappers = [f"h{i}" for i in range(1, num_workers + 1)]
    return mappers, partitions, truth_of(partitions)


# ---------------------------------------------------------------------- #
# Runner
# ---------------------------------------------------------------------- #
def run_scale_once(settings: ScaleSettings, num_workers: int) -> ScaleRun:
    """One reliability-on aggregation round with ``num_workers`` mappers."""
    mappers, partitions, truth = _workload(settings, num_workers)
    topology = _build_fabric(settings, num_workers)
    system = DaietSystem(
        topology,
        settings.daiet_config(),
        SimulatorConfig(loss_seed=settings.loss_seed),
    )
    round_ = run_daiet_round(system, mappers, REDUCER, partitions, truth)
    return round_.into(
        ScaleRun,
        workers=num_workers,
        fabric=settings.fabric,
        switches=len(topology.switches()),
        hosts=len(topology.hosts()),
        events_per_sec=round_.events_per_sec,
    )


def run_baseline_once(
    settings: ScaleSettings, num_workers: int, transport: str
) -> BaselineRun:
    """One non-aggregating shuffle round over the reliable datagram layer.

    ``transport`` selects the framing: ``"udp"`` ships DAIET-sized datagrams
    (``pairs_per_packet`` pairs each); ``"tcp"`` ships MSS-sized segments —
    both with ACK/retransmission reliability so the run is bit-exact over the
    same lossy fabric the DAIET run uses. Switches only forward (no
    aggregation trees are installed), exercising the compiled forwarding
    path; the reducer host performs the whole aggregation.
    """
    if transport == "udp":
        pairs_per_packet = settings.pairs_per_packet
    elif transport == "tcp":
        pairs_per_packet = BASELINE_TCP_SEGMENT_BYTES // BASELINE_PAIR_BYTES
    else:
        raise ReproError(f"unknown baseline transport {transport!r}")
    mappers, partitions, truth = _workload(settings, num_workers)
    round_ = run_datagram_round(
        NetworkSimulator(
            _build_fabric(settings, num_workers),
            SimulatorConfig(loss_seed=settings.loss_seed),
        ),
        dict(
            reliability_knobs(settings),
            tuning=TransportTuning(rto_floor=settings.rto_floor),
        ),
        mappers,
        REDUCER,
        partitions,
        truth,
        pairs_per_packet=pairs_per_packet,
        pair_bytes=BASELINE_PAIR_BYTES,
        port=BASELINE_PORT,
    )
    return round_.into(
        BaselineRun,
        transport=transport,
        workers=num_workers,
        events_per_sec=round_.events_per_sec,
    )


def run_scale(settings: ScaleSettings | None = None) -> ScaleResult:
    """Sweep the worker counts and render the scale report."""
    settings = settings or ScaleSettings()
    result = ScaleResult(settings=settings)
    for num_workers in settings.worker_counts:
        run = run_scale_once(settings, num_workers)
        if not run.exact:
            raise ReproError(
                f"the {num_workers}-worker {settings.fabric} run diverged from "
                "the lossless ground truth"
            )
        if settings.compare_baselines:
            for transport in ("udp", "tcp"):
                baseline = run_baseline_once(settings, num_workers, transport)
                if not baseline.exact:
                    raise ReproError(
                        f"the {num_workers}-worker {transport} baseline diverged "
                        "from the lossless ground truth"
                    )
                run.baselines[transport] = baseline
        result.runs.append(run)
    result.report = _render_report(result)
    return result


#: One row per (path, its run, packet reduction vs that run) of the comparison.
_COMPARISON_COLUMNS = [
    ("workers", ">8d", lambda row: row[1].workers),
    ("path", ">6s", lambda row: row[0]),
    ("exact", ">6s", lambda row: yes_no(row[1].exact)),
    ("events", ">9d", lambda row: row[1].events),
    ("wall-s", ">8.2f", lambda row: row[1].wall_seconds),
    ("link-pkts", ">10d", lambda row: row[1].link_packets),
    ("losses", ">7d", lambda row: row[1].losses),
    ("retrans", ">8d", lambda row: row[1].retransmissions),
    ("rx-pkts", ">8d", lambda row: row[1].reducer_packets),
    ("pkt-reduction", ">13.1%", lambda row: row[2], 14),
]

_SWEEP_COLUMNS = [
    ("workers", ">8d", lambda run: run.workers),
    ("switches", ">9d", lambda run: run.switches),
    ("exact", ">6s", lambda run: yes_no(run.exact)),
    ("events", ">9d", lambda run: run.events),
    ("wall-s", ">8.2f", lambda run: run.wall_seconds),
    ("events/s", ">10,.0f", lambda run: run.events_per_sec),
    ("link-pkts", ">10d", lambda run: run.link_packets),
    ("losses", ">7d", lambda run: run.losses),
    ("retrans", ">8d", lambda run: run.retransmissions),
    ("sim-ms", ">8.2f", lambda run: run.sim_seconds * 1e3),
]


def _comparison_rows(result: ScaleResult):
    """The DAIET row of every run, then its baselines with their reduction."""
    for run in result.runs:
        yield "daiet", run, "-"
        for transport, baseline in run.baselines.items():
            packets = baseline.reducer_packets
            yield (
                transport,
                baseline,
                1.0 - run.reducer_packets / packets if packets else 0.0,
            )


def _render_report(result: ScaleResult) -> str:
    settings = result.settings
    lines = [
        "Cluster-scale aggregation sweep (reliability on, lossy host uplinks)",
        "",
        f"Fabric: {settings.fabric}; loss {settings.loss_rate:.2%} per direction "
        f"on every host uplink; {settings.pairs_per_worker} pairs/worker over a "
        f"{settings.vocabulary_size}-word vocabulary.",
        "Every run is checked bit-exact against the lossless ground truth.",
        "",
        render_table(_SWEEP_COLUMNS, result.runs),
    ]
    if settings.compare_baselines:
        lines += [
            "",
            "Baseline comparison (identical workload and lossy fabric, "
            "reliability on for every path):",
            render_table(_COMPARISON_COLUMNS, _comparison_rows(result)),
            "pkt-reduction: fewer packets into the reducer with in-network "
            "aggregation vs the baseline.",
        ]
    lines.append("")
    lines.append(exactness_verdict(result.all_exact))
    return "\n".join(lines)
