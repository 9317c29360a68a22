"""The four workloads of the end-to-end benchmark and their phase-timed runners.

Everything here treats ``repro`` as a black box: inputs and ground truth
are produced with the standard library only (so they exist before the first
``import repro``, which is itself a timed phase), the program is driven
through its public entry points, and every counter is read from objects the
layers already export. Nothing under ``src/`` knows this file exists.

Why these four (the sizes are fixed; later issues cite them by name):

``rack_burst``
    The only workload where unsequenced burst delivery, ``_plan_burst`` and
    the numpy register kernel run. Packetization and ``send_burst`` injection
    do most of the work; transport and routing do none.
``rack_reliable_lossy``
    The same rack, keys and register slots with the reliability layer on and
    1% loss on every link: sequenced packets, the per-pair register loop,
    ``SeenWindow``, ACKs and retransmit timers. A gain for the burst path
    that costs the sequenced path (or the reverse) shows here.
``fabric_1024``
    The only workload where route computation, forwarding-rule install and
    aggregation-tree install are a large share, and where packets cross
    several switches.
``incast_baseline``
    No aggregation at all: the paper's comparison arm and the control for
    every DAIET-path optimisation (prediction: no change).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, replace
from typing import Any

#: UDP port of the incast transfers and application bytes per pair (the
#: values ``repro.experiments.figure_incast`` uses).
INCAST_PORT = 9191
INCAST_PAIR_BYTES = 20

Pair = tuple[str, int]


@dataclass(frozen=True)
class Workload:
    """Static description of one workload (sizes are part of its name)."""

    name: str
    why: str
    senders: int
    pairs_per_sender: int
    vocabulary: int
    #: ``"daiet"`` aggregates in the switches; ``"udp"`` only forwards.
    kind: str = "daiet"
    #: ``"rack"`` (one ToR) or ``"leaf_spine"`` (16 hosts/leaf, 4 spines).
    fabric: str = "rack"
    reliability: bool = False
    #: Drop probability per direction (every link on a rack, host uplinks
    #: only on the leaf-spine fabric).
    loss_rate: float = 0.0
    pairs_per_packet: int = 10
    register_slots: int = 16_384
    #: Sizes of the ``--smoke`` variant: (senders, pairs/sender, vocabulary).
    smoke_sizes: tuple[int, int, int] = (4, 200, 100)

    def smoke(self) -> "Workload":
        """The seconds-scale variant the tier-1 smoke test runs."""
        senders, pairs, vocabulary = self.smoke_sizes
        return replace(
            self,
            senders=senders,
            pairs_per_sender=pairs,
            vocabulary=vocabulary,
            register_slots=1_024,
        )

    @property
    def total_pairs(self) -> int:
        return self.senders * self.pairs_per_sender

    @property
    def inject_span(self) -> str:
        """Name of the injection phase span (the layer doing the work)."""
        return "core.daiet.inject" if self.kind == "daiet" else "transport.udp.inject"


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="rack_burst",
            why="16 mappers to 1 reducer, reliability off: the only user of burst "
            "delivery and the numpy register kernel; injection dominates",
            senders=16,
            pairs_per_sender=60_000,
            vocabulary=8_000,
        ),
        Workload(
            name="rack_reliable_lossy",
            why="same rack with reliability on and 1% loss: sequenced packets, "
            "per-pair loop, ACKs, retransmit timers; the burst path is bypassed",
            senders=16,
            pairs_per_sender=18_000,
            vocabulary=8_000,
            reliability=True,
            loss_rate=0.01,
        ),
        Workload(
            name="fabric_1024",
            why="1024 mappers on a 65-leaf/4-spine fabric: the only workload where "
            "routing, rule install and tree install are a large share of the time",
            senders=1_024,
            pairs_per_sender=400,
            vocabulary=4_000,
            fabric="leaf_spine",
            reliability=True,
            loss_rate=0.001,
            smoke_sizes=(16, 60, 100),
        ),
        Workload(
            name="incast_baseline",
            why="256 senders over adaptive reliable UDP, no aggregation: the paper's "
            "comparison arm and the control for DAIET-path changes (predict no change)",
            senders=256,
            pairs_per_sender=1_200,
            vocabulary=1_000,
            kind="udp",
            smoke_sizes=(8, 150, 100),
        ),
    )
}


# ---------------------------------------------------------------------- #
# Inputs and the independent output check
# ---------------------------------------------------------------------- #
def generate_partitions(workload: Workload, seed: int) -> list[list[Pair]]:
    """Wordcount-shaped ``(word, 1)`` map output, one partition per sender.

    The same ``(workload, seed)`` always yields the same lists; the program
    under test only ever sees these lists.
    """
    rng = random.Random(seed)
    words = [f"word{i:05d}" for i in range(workload.vocabulary)]
    choice = rng.choice
    return [
        [(choice(words), 1) for _ in range(workload.pairs_per_sender)]
        for _ in range(workload.senders)
    ]


def ground_truth(partitions: list[list[Pair]]) -> dict[str, int]:
    """The expected aggregate: a plain dict sum, independent of ``repro``."""
    truth: dict[str, int] = {}
    for partition in partitions:
        for key, value in partition:
            truth[key] = truth.get(key, 0) + value
    return truth


# ---------------------------------------------------------------------- #
# Phase spans
# ---------------------------------------------------------------------- #
class Spans:
    """In-memory span recorder: name, start, end and parent of each phase.

    Times are seconds since the recorder was created. Spans are kept in a
    list and only serialised after the measured region ends. With a
    :class:`~e2e_probe.SpeedProbe`, :meth:`finish` adds to every span its
    wall seconds net of the probe's own time (``wall_s``) and its calibrated
    seconds (``calibrated_s``); a parent's calibrated time is the sum of its
    children's, so the phases add up to ``e2e`` exactly.
    """

    def __init__(self, run_id: str, probe: Any = None) -> None:
        self.run_id = run_id
        self.probe = probe
        self.origin = time.perf_counter()
        self.records: list[dict[str, Any]] = []
        self._open: list[int] = []

    def begin(self, name: str) -> None:
        parent = self.records[self._open[-1]]["name"] if self._open else None
        self._open.append(len(self.records))
        self.records.append(
            {
                "id": self.run_id,
                "name": name,
                "start": time.perf_counter() - self.origin,
                "end": None,
                "parent": parent,
            }
        )

    def end(self) -> None:
        now = time.perf_counter() - self.origin
        self.records[self._open.pop()]["end"] = now

    def finish(self) -> None:
        """Fill in ``wall_s`` (and ``calibrated_s`` when probed) of every span."""
        for record in reversed(self.records):  # children before their parent
            if self.probe is None:
                record["wall_s"] = record["end"] - record["start"]
                continue
            record["wall_s"], record["calibrated_s"] = self.probe.calibrate(
                self.origin + record["start"], self.origin + record["end"]
            )
            children = [r for r in self.records if r["parent"] == record["name"]]
            if children:
                record["calibrated_s"] = sum(r["calibrated_s"] for r in children)

    def seconds(self, name: str, field: str) -> float:
        """``field`` of the span called ``name`` (0.0 when it never ran)."""
        for record in self.records:
            if record["name"] == name:
                return record[field]
        return 0.0


# ---------------------------------------------------------------------- #
# Runners
# ---------------------------------------------------------------------- #
@dataclass
class RunOutcome:
    """What one run hands back: the objects whose counters are read later."""

    verified: bool
    logical_events: int
    simulator: Any
    reducer: str
    #: ``DaietSystem`` on the DAIET workloads, else ``None``.
    system: Any = None
    #: ``ReliableUdpTransport`` on ``incast_baseline``, else ``None``.
    udp: Any = None


def _sender_names(workload: Workload) -> tuple[list[str], str]:
    """Sender host names and the reducer's (``h0`` on the fabric, as in
    ``repro scale``; the last host on a rack, as in the perf benches)."""
    if workload.fabric == "leaf_spine":
        return [f"h{i}" for i in range(1, workload.senders + 1)], "h0"
    return [f"h{i}" for i in range(workload.senders)], f"h{workload.senders}"


def build_topology(workload: Workload) -> Any:
    from repro.netsim.devices import Host
    from repro.netsim.topology import leaf_spine, single_rack

    hosts = workload.senders + 1
    if workload.fabric == "leaf_spine":
        topology = leaf_spine(
            num_leaves=-(-hosts // 16), num_spines=4, hosts_per_leaf=16
        )
        lossy = [
            link
            for link in topology.links
            if isinstance(topology.get(link.a.device), Host)
            or isinstance(topology.get(link.b.device), Host)
        ]
    elif workload.kind == "udp":
        # A 10G rack, so the fan-in actually queues at the reducer port.
        topology = single_rack(hosts, bandwidth_bps=10e9 / 8)
        lossy = []
    else:
        topology = single_rack(hosts)
        lossy = list(topology.links)
    if workload.loss_rate:
        for link in lossy:
            link.loss_rate = workload.loss_rate
    return topology


def run_workload(
    workload: Workload,
    seed: int,
    partitions: list[list[Pair]],
    truth: dict[str, int],
    spans: Spans,
    profiler: Any = None,
) -> RunOutcome:
    """One closed-loop job: set up, inject, run to quiescence, verify.

    The ``e2e`` span covers everything a user pays for once the pairs
    exist, starting just before ``import repro``. A ``profiler`` (the traced
    run's ``cProfile.Profile``) is enabled once the import is over, so a
    module's call count is the calls the job made into it, not the class
    bodies its import executed; the caller disables it.
    """
    runner = _run_daiet if workload.kind == "daiet" else _run_udp
    spans.begin("e2e")
    spans.begin("setup")
    spans.begin("span.import")
    import repro  # noqa: F401  (the timed import)

    # ``import repro`` stops at ``core``; pull in the transport this
    # workload's user would import, so no later phase pays for an import.
    if workload.kind == "udp":
        import repro.transport.udp  # noqa: F401
    elif workload.reliability:
        import repro.transport.reliability  # noqa: F401
    spans.end()
    if profiler is not None:
        profiler.enable()
    spans.begin("netsim.topology.build")
    topology = build_topology(workload)
    spans.end()
    outcome = runner(workload, seed, topology, partitions, truth, spans)
    spans.end()  # e2e
    return outcome


def _run_daiet(
    workload: Workload,
    seed: int,
    topology: Any,
    partitions: list[list[Pair]],
    truth: dict[str, int],
    spans: Spans,
) -> RunOutcome:
    from repro.core.config import DaietConfig
    from repro.core.daiet import DaietSystem
    from repro.netsim.simulator import SimulatorConfig

    mappers, reducer = _sender_names(workload)
    spans.begin("netsim.simulator.construct")
    config = DaietConfig(
        register_slots=workload.register_slots,
        pairs_per_packet=workload.pairs_per_packet,
        reliability=workload.reliability,
        retransmit_timeout=1e-4,
    )
    system = DaietSystem(topology, config, SimulatorConfig(loss_seed=seed))
    spans.end()
    spans.begin("core.controller.install_job")
    system.install_job(mappers=mappers, reducers=[reducer])
    spans.end()
    spans.end()  # setup

    spans.begin(workload.inject_span)
    for mapper, pairs in zip(mappers, partitions):
        system.send_pairs(mapper, reducer, pairs)
    spans.end()

    spans.begin("netsim.simulator.run")
    events = system.run()
    spans.end()

    spans.begin("core.daiet.collect")
    receiver = system.receiver(reducer)
    verified = receiver.done and receiver.result() == truth
    spans.end()
    return RunOutcome(
        verified=verified,
        logical_events=events,
        simulator=system.simulator,
        reducer=reducer,
        system=system,
    )


def _run_udp(
    workload: Workload,
    seed: int,
    topology: Any,
    partitions: list[list[Pair]],
    truth: dict[str, int],
    spans: Spans,
) -> RunOutcome:
    from repro.netsim.simulator import NetworkSimulator, SimulatorConfig
    from repro.transport.packets import MessagePayload
    from repro.transport.udp import ReliableUdpTransport
    from repro.transport.window import TransportTuning

    senders, reducer = _sender_names(workload)
    spans.begin("netsim.simulator.construct")
    simulator = NetworkSimulator(
        topology,
        SimulatorConfig(
            loss_seed=seed, ecn_threshold_bytes=15_000, switch_buffer_bytes=100_000
        ),
    )
    spans.end()
    spans.begin("transport.udp.listen")
    transport = ReliableUdpTransport(
        simulator,
        retransmit_timeout=1e-4,
        ack_window=8,
        max_retransmits=200,
        tuning=TransportTuning(
            adaptive_rto=True,
            rto_floor=5e-5,
            rto_ceiling=2e-3,
            congestion_control="aimd",
            initial_cwnd=10,
            min_cwnd=2,
        ),
    )
    aggregate: dict[str, int] = {}

    def on_message(_src: str, payload: Any) -> None:
        for key, value in payload.data:
            aggregate[key] = aggregate.get(key, 0) + value

    transport.listen_reliable(reducer, INCAST_PORT, on_message)
    spans.end()
    spans.end()  # setup

    per_packet = workload.pairs_per_packet
    spans.begin(workload.inject_span)
    for sender, pairs in zip(senders, partitions):
        for start in range(0, len(pairs), per_packet):
            chunk = pairs[start : start + per_packet]
            transport.send_reliable(
                sender,
                reducer,
                MessagePayload(kind="pairs", data=chunk),
                len(chunk) * INCAST_PAIR_BYTES,
                port=INCAST_PORT,
            )
    spans.end()

    spans.begin("netsim.simulator.run")
    events = simulator.run()
    spans.end()

    spans.begin("core.daiet.collect")
    delivered = all(
        transport.flow_done(sender, reducer, INCAST_PORT) for sender in senders
    )
    verified = delivered and aggregate == truth
    spans.end()
    return RunOutcome(
        verified=verified,
        logical_events=events,
        simulator=simulator,
        reducer=reducer,
        udp=transport,
    )


# ---------------------------------------------------------------------- #
# Counters read after the run
# ---------------------------------------------------------------------- #
def read_counters(outcome: RunOutcome) -> dict[str, float]:
    """Every per-layer counter, read from what the layers already export.

    A simulated statistic must repeat exactly for one ``(workload, seed)``;
    layers a workload does not touch report 0.
    """
    simulator = outcome.simulator
    stats = simulator.stats
    scheduler = simulator.scheduler
    switches = simulator.topology.switches()
    rules = [len(switch.forwarding_table) for switch in switches]
    counters: dict[str, float] = {
        "netsim.simulator.sim_completion_s": simulator.now,
        "netsim.events.events": scheduler.events_executed,
        "netsim.events.calendar_active": int(scheduler.calendar_active),
        "netsim.stats.link_packets": stats.total_link_packets(),
        "netsim.stats.losses": stats.total_losses(),
        "netsim.stats.queue_drops": stats.total_queue_drops(),
        "netsim.stats.ecn_marked": stats.total_ecn_marked(),
        "netsim.routing.rules_installed": sum(rules),
        "netsim.routing.rules_per_switch_max": max(rules),
        "dataplane.switch.packets_in": sum(s.switch.counters.packets_in for s in switches),
        "dataplane.switch.packets_generated": sum(
            s.switch.counters.packets_generated for s in switches
        ),
    }
    trees = (
        list(outcome.system.controller.tree_counters().values()) if outcome.system else []
    )
    for field in (
        "pairs_received",
        "pairs_aggregated",
        "pairs_emitted",
        "collisions",
        "spillover_flushes",
        "duplicate_packets",
        "retransmitted_packets",
    ):
        counters[f"core.aggregation.{field}"] = sum(getattr(t, field) for t in trees)
    received = counters["core.aggregation.pairs_received"]
    counters["core.aggregation.reduction_ratio"] = (
        1.0 - counters["core.aggregation.pairs_emitted"] / received if received else 0.0
    )
    hosts = (
        list(outcome.system.reliability_stats().values()) if outcome.system else []
    )
    for field in ("packets_sent", "retransmissions", "timeouts", "acks_received"):
        counters[f"transport.reliability.{field}"] = sum(h[field] for h in hosts)
    sent = counters["transport.reliability.packets_sent"]
    resent = counters["transport.reliability.retransmissions"]
    counters["transport.reliability.retransmit_ratio"] = (
        resent / (sent + resent) if sent else 0.0
    )
    udp = outcome.udp.stats if outcome.udp else None
    counters["transport.udp.datagrams_sent"] = udp.datagrams_sent if udp else 0
    counters["transport.udp.retransmissions"] = udp.retransmissions if udp else 0
    return counters


def read_sim_metrics(outcome: RunOutcome) -> dict[str, float]:
    """The simulated end-to-end metrics (exact for one workload and seed).

    The simulated completion time is a per-layer counter, not one of these:
    one tail retransmission timeout moves it by half, so across seeds it
    spreads 50% on the lossy workloads and no regression bound fits it.
    """
    simulator = outcome.simulator
    return {
        "sim_link_bytes": simulator.stats.total_link_bytes(),
        "sim_reducer_packets": simulator.host(outcome.reducer).counters.packets_received,
    }


def digest(outcome: RunOutcome, counters: dict[str, float]) -> list[float]:
    """What every repeat of one (workload, seed) must agree on exactly."""
    retransmissions = (
        counters["transport.reliability.retransmissions"]
        + counters["core.aggregation.retransmitted_packets"]
        + counters["transport.udp.retransmissions"]
    )
    return [
        outcome.logical_events,
        counters["netsim.stats.link_packets"],
        outcome.simulator.stats.total_link_bytes(),
        outcome.simulator.now,
        counters["netsim.stats.losses"],
        retransmissions,
    ]
