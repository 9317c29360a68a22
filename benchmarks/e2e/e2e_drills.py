"""Layer drills: direct calls into public functions, on the workload's inputs.

Each drill times one layer in isolation and reports ns/op (or seconds, for
the two routing drills) as the median of three in-process repetitions. The
inputs come from the workload — its topology, its host names, its pairs —
so a drill's number is the cost of that layer *on that workload's data*.
Every timing is bracketed by two slices of the machine-speed probe and
reported in calibrated time, like the end-to-end numbers (see ``e2e_probe``).
Drills never feed the end-to-end numbers; they run after the traced job.
"""

from __future__ import annotations

import random
import statistics
import time
from itertools import chain, islice
from typing import Any, Callable

from e2e_probe import calibrated, slice_seconds
from e2e_workloads import Pair, Workload, build_topology

#: In-process repetitions per drill (the median is reported). Three keeps the
#: traced child of ``fabric_1024``, which rebuilds and routes a 1,041-host
#: fabric per repetition, under a minute on a busy machine.
REPETITIONS = 3


def _calibrated_time(timed: Callable[[], Any]) -> float:
    """Calibrated seconds of one call, from a probe slice on either side."""
    before = slice_seconds()
    start = time.perf_counter()
    timed()
    wall = time.perf_counter() - start
    return calibrated(wall, [before, slice_seconds()])


def _median_time(prepare: Callable[[], Any], timed: Callable[[Any], Any]) -> float:
    """Median calibrated seconds of ``timed(prepare())`` (``prepare`` is untimed)."""
    samples = []
    for _ in range(REPETITIONS):
        state = prepare()
        samples.append(_calibrated_time(lambda: timed(state)))
    return statistics.median(samples)


def _noop() -> None:
    return None


def run_drills(
    workload: Workload, seed: int, partitions: list[list[Pair]], ops: int
) -> dict[str, float]:
    """Every layer drill for one workload; ``ops`` scales the repetition sizes
    (200,000 for a real run, 1,000 under ``--smoke``)."""
    results: dict[str, float] = {}
    results.update(_drill_events(seed, ops))
    results.update(_drill_routing_and_switch(workload, ops))
    pairs = list(islice(chain.from_iterable(partitions), max(ops // 4, 10)))
    results.update(_drill_packet_and_aggregation(workload, pairs))
    results.update(_drill_window(workload))
    return results


# ---------------------------------------------------------------------- #
# netsim.events
# ---------------------------------------------------------------------- #
def _drill_events(seed: int, events: int) -> dict[str, float]:
    from repro.netsim.events import EventScheduler

    rng = random.Random(seed)
    times = [rng.random() * 1e-2 for _ in range(events)]

    def push_and_run(scheduler: Any) -> None:
        push_at = scheduler.push_at
        for when in times:
            push_at(when, _noop, ())
        scheduler.run()

    results = {}
    # A threshold the queue never reaches keeps the heap; a threshold of one
    # entry migrates to the calendar queue on the first push.
    for name, threshold in (("heap", events + 1), ("calendar", 1)):
        seconds = _median_time(
            lambda: EventScheduler(calendar_threshold=threshold), push_and_run
        )
        results[f"netsim.events.{name}_ns_per_event"] = seconds / events * 1e9
    return results


# ---------------------------------------------------------------------- #
# netsim.routing, dataplane.tables, dataplane.switch
# ---------------------------------------------------------------------- #
def _drill_routing_and_switch(workload: Workload, ops: int) -> dict[str, float]:
    from repro.dataplane.actions import ForwardAction
    from repro.dataplane.tables import FlowRule, MatchActionTable
    from repro.netsim.devices import FORWARDING_TABLE
    from repro.netsim.routing import compute_routes, install_forwarding_rules
    from repro.transport.packets import UdpDatagram

    results = {}
    routes_samples, install_samples = [], []
    for _ in range(REPETITIONS):
        topology = build_topology(workload)
        found: list[Any] = []
        routes_samples.append(_calibrated_time(lambda: found.append(compute_routes(topology))))
        install_samples.append(
            _calibrated_time(lambda: install_forwarding_rules(topology, found[0]))
        )
    results["netsim.routing.compute_routes_s"] = statistics.median(routes_samples)
    results["netsim.routing.install_rules_s"] = statistics.median(install_samples)

    hosts = [host.name for host in topology.hosts()]
    rules = [
        FlowRule.create(
            table=FORWARDING_TABLE,
            match={"dst": host},
            action_name="forward",
            action_params={"egress_port": index % 64},
        )
        for index, host in enumerate(hosts)
    ]
    rounds = max(1, ops // 10 // len(rules))

    def fresh_tables() -> list[Any]:
        tables = []
        for _ in range(rounds):
            table = MatchActionTable(FORWARDING_TABLE, match_fields=("dst",))
            table.register_action("forward", ForwardAction)
            tables.append(table)
        return tables

    def install_all(tables: list[Any]) -> None:
        for table in tables:
            install = table.install
            for rule in rules:
                install(rule)

    seconds = _median_time(fresh_tables, install_all)
    results["dataplane.tables.install_ns_per_rule"] = (
        seconds / (rounds * len(rules)) * 1e9
    )

    table = fresh_tables()[0]
    install_all([table])
    keys = [{"dst": hosts[i % len(hosts)]} for i in range(max(ops // 2, 1))]

    def lookup_all(_state: Any) -> None:
        lookup = table.lookup
        for key in keys:
            lookup(key)

    seconds = _median_time(_noop, lookup_all)
    results["dataplane.tables.lookup_ns"] = seconds / len(keys) * 1e9

    # Forwarding only: plain datagrams through the first switch of the
    # workload's own (routed) topology, via the generic pipeline.
    device = topology.switches()[0]
    switch = device.switch
    packets = [
        UdpDatagram(src=hosts[0], dst=hosts[i % len(hosts)], payload_bytes=200)
        for i in range(max(ops // 10, 1))
    ]
    nbytes = packets[0].wire_bytes()

    def receive_all(_state: Any) -> None:
        receive = switch.receive
        for packet in packets:
            receive(packet, 0, nbytes)

    seconds = _median_time(_noop, receive_all)
    results["dataplane.switch.receive_ns_per_packet"] = seconds / len(packets) * 1e9
    return results


# ---------------------------------------------------------------------- #
# core.packet, core.aggregation
# ---------------------------------------------------------------------- #
def _drill_packet_and_aggregation(workload: Workload, pairs: list[Pair]) -> dict[str, float]:
    from repro.core.aggregation import DaietAggregationEngine
    from repro.core.config import DaietConfig
    from repro.core.packet import packetize_pairs

    results = {}
    npairs = len(pairs)

    def config(reliability: bool) -> Any:
        return DaietConfig(
            register_slots=workload.register_slots,
            pairs_per_packet=workload.pairs_per_packet,
            reliability=reliability,
        )

    def packetize(cfg: Any, seq_start: int | None = None) -> list[Any]:
        return list(
            packetize_pairs(
                pairs, tree_id=1, src="m0", dst="r0", config=cfg, seq_start=seq_start
            )
        )

    plain = config(False)
    seconds = _median_time(_noop, lambda _state: packetize(plain))
    results["core.packet.packetize_ns_per_pair"] = seconds / npairs * 1e9

    def vectorize(packets: list[Any]) -> None:
        for packet in packets:
            packet.vector_pairs()

    # Fresh packets per repetition: the vector view is cached per packet.
    seconds = _median_time(lambda: packetize(plain), vectorize)
    results["core.packet.vector_pairs_ns_per_pair"] = seconds / npairs * 1e9

    def engine_and_packets(cfg: Any, seq_start: int | None) -> tuple[Any, list[Any]]:
        engine = DaietAggregationEngine("drill")
        engine.configure_tree(
            tree_id=1,
            function="sum",
            num_children=1,
            egress_port=0,
            next_hop_dst="r0",
            config=cfg,
            child_ports={"m0": 1},
        )
        return engine, packetize(cfg, seq_start)

    def handle_all(state: tuple[Any, list[Any]]) -> None:
        engine, packets = state
        handle = engine.handle_packet
        for packet in packets:
            handle(packet)

    seconds = _median_time(lambda: engine_and_packets(plain, None), handle_all)
    results["core.aggregation.handle_packet_ns_per_pair"] = seconds / npairs * 1e9
    reliable = config(True)
    seconds = _median_time(lambda: engine_and_packets(reliable, 0), handle_all)
    results["core.aggregation.handle_packet_seq_ns_per_pair"] = seconds / npairs * 1e9
    return results


# ---------------------------------------------------------------------- #
# transport.window
# ---------------------------------------------------------------------- #
class _StubTimer:
    """Timer that records arming and never fires."""

    def __init__(self, _callback: Callable[[], None]) -> None:
        self.active = False

    def start(self, _delay: float) -> None:
        self.active = True

    def cancel(self) -> None:
        self.active = False


def _drill_window(workload: Workload) -> dict[str, float]:
    """One sender's whole partition through a ``WindowedSender``.

    The window is the workload's own: a DAIET mapper injects its partition
    as one unlimited burst (fixed RTO), an incast sender paces it through
    AIMD with an adaptive RTO. The receiver's cumulative ACK arrives every
    8 packets, as ``ack_window=8`` makes it.
    """
    from repro.transport.window import (
        TransportTuning,
        WindowedSender,
        make_congestion_controller,
        make_rtt_estimator,
    )

    tuning = (
        TransportTuning(
            adaptive_rto=True,
            rto_floor=5e-5,
            rto_ceiling=2e-3,
            congestion_control="aimd",
        )
        if workload.kind == "udp"
        else TransportTuning()
    )
    npackets = -(-workload.pairs_per_sender // workload.pairs_per_packet) + 1
    items = [(seq, object()) for seq in range(npackets)]
    senders = max(1, min(workload.senders, 20_000 // npackets))
    send_samples, ack_samples = [], []
    for _ in range(REPETITIONS):
        send_seconds = ack_seconds = 0.0
        acks = 0
        before = slice_seconds()
        for _sender in range(senders):
            transmitted = [0]
            clock = [0.0]

            def transmit(packets: list[Any], _retransmit: bool) -> None:
                transmitted[0] += len(packets)

            def tick() -> float:
                clock[0] += 1e-5
                return clock[0]

            def give_up(outstanding: int) -> None:
                raise RuntimeError(f"window drill gave up with {outstanding} outstanding")

            sender = WindowedSender(
                timer_factory=_StubTimer,
                transmit=transmit,
                base_timeout=1e-4,
                max_retransmits=30,
                give_up=give_up,
                clock=tick,
                rtt=make_rtt_estimator(tuning, 1e-4),
                congestion=make_congestion_controller(tuning),
            )
            start = time.perf_counter()
            sender.send(items)
            send_seconds += time.perf_counter() - start
            cumulative = 0
            empty: set[int] = set()
            start = time.perf_counter()
            while not sender.done:
                cumulative = min(cumulative + 8, transmitted[0])
                sender.on_ack(cumulative, empty)
                acks += 1
            ack_seconds += time.perf_counter() - start
        slices = [before, slice_seconds()]
        send_samples.append(calibrated(send_seconds, slices) / (senders * npackets) * 1e9)
        ack_samples.append(calibrated(ack_seconds, slices) / acks * 1e9)
    return {
        "transport.window.send_ns_per_packet": statistics.median(send_samples),
        "transport.window.ns_per_ack": statistics.median(ack_samples),
    }
