"""The network simulator tying topology, devices, links and events together.

The simulator owns the event scheduler and the per-device port maps. Sending a
packet from a host schedules its arrival at the attached switch after the
link's store-and-forward delay; every switch output is likewise scheduled on
the corresponding link until the packet reaches a host, whose application
receiver is then invoked.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Any, Iterable

from repro.checks.registry import fastpath
from repro.core.errors import SimulationError, TableError, TopologyError
from repro.core.packet import DaietPacket, DaietPacketType
from repro.netsim.devices import (
    Device,
    Host,
    SwitchDevice,
    _switch_packet_bytes,
    packet_wire_bytes,
)
from repro.netsim.events import Event, EventScheduler, Timer
from repro.netsim.links import DirectionCounters, Link
from repro.netsim.routing import RoutingState, compute_routes, install_forwarding_rules
from repro.netsim.stats import PerDeviceTraffic, TrafficStats
from repro.netsim.topology import Topology

try:  # The burst delivery fast path needs numpy; the simulator does not.
    import numpy as _np
except ImportError:  # pragma: no cover - the toolchain bakes numpy in
    _np = None

_DAIET_DATA = DaietPacketType.DATA


class _BurstPlan:
    """Send-time precomputation for one burst's delivery fast path.

    Built by :meth:`NetworkSimulator.send_burst` (outside any timed hot
    region) so that the burst delivery handler can batch a whole window of
    DAIET DATA packets without touching the packet objects: per-item
    eligibility, the concatenated interned-key/value arrays, per-packet pair
    extents and exact cumulative mass/byte ledgers are all ready-made. The
    wire-dependent fields (arrival ``times``, the ``seq0`` base, delivery
    ``target``/``ingress``) are filled in by ``_transmit_burst`` when the
    burst hits its uplink.
    """

    __slots__ = (
        "packets",
        "nbytes",
        "shape_ok",
        "tree_id",
        "max_nbytes",
        "max_cost",
        "kids",
        "vals",
        "pair_start",
        "npairs",
        "mass_cum",
        "nbytes_cum",
        "times",
        "seq0",
        "target",
        "ingress",
    )


def _plan_burst(items: list[tuple[Any, int]]) -> _BurstPlan | None:
    """Precompute a :class:`_BurstPlan` for ``items``, or ``None``.

    An item is *shape-eligible* when it is an unsequenced DAIET DATA packet
    of the burst's (single) tree with a usable ``vector_pairs`` cache — the
    same shape predicate the per-entry batch handler applies, minus the
    switch-specific budget checks, which the burst handler applies once per
    burst via the precomputed ``max_nbytes``/``max_cost``. Items of a
    different tree are simply marked ineligible (they replay through the
    per-packet sink), so a mixed burst still fast-paths its majority tree.
    """
    n = len(items)
    if _np is None or n < 2:
        return None
    shape_ok = _np.zeros(n, dtype=_np.bool_)
    kid_list: list[int] = []
    val_list: list[int] = []
    pair_start = _np.zeros(n, dtype=_np.int64)
    npairs = _np.zeros(n, dtype=_np.int64)
    mass_cum = [0] * (n + 1)
    nbytes_cum = [0] * (n + 1)
    tree_id = -1
    max_nbytes = 0
    max_npairs = 1
    any_ok = False
    for i, (packet, nbytes) in enumerate(items):
        nbytes_cum[i + 1] = nbytes_cum[i] + nbytes
        mass = 0
        if (
            type(packet) is DaietPacket
            and packet.seq is None
            and packet.packet_type is _DAIET_DATA
            and (cache := packet.vector_pairs()) is not None
        ):
            if tree_id < 0:
                tree_id = packet.tree_id
            if packet.tree_id == tree_id:
                shape_ok[i] = True
                any_ok = True
                pair_start[i] = len(kid_list)
                kid_list.extend(cache[0])
                val_list.extend(cache[1])
                count = len(cache[0])
                npairs[i] = count
                mass = cache[2]
                if nbytes > max_nbytes:
                    max_nbytes = nbytes
                if count > max_npairs:
                    max_npairs = count
        mass_cum[i + 1] = mass_cum[i] + mass
    if not any_ok:
        return None
    plan = _BurstPlan()
    plan.packets = [packet for packet, _nbytes in items]
    plan.nbytes = [nbytes for _packet, nbytes in items]
    plan.shape_ok = shape_ok
    plan.tree_id = tree_id
    plan.max_nbytes = max_nbytes
    plan.max_cost = 3 + max_npairs
    plan.kids = _np.array(kid_list, dtype=_np.int64)
    plan.vals = _np.array(val_list, dtype=_np.int64)
    plan.pair_start = pair_start
    plan.npairs = npairs
    plan.mass_cum = mass_cum
    plan.nbytes_cum = nbytes_cum
    plan.times = None
    plan.seq0 = -1
    plan.target = None
    plan.ingress = -1
    return plan


@dataclass
class SimulatorConfig:
    """Tunables of a simulation run."""

    #: Safety valve: maximum number of events a single ``run`` may execute.
    max_events: int = 50_000_000
    #: Automatically compute routes and install forwarding rules on start.
    auto_install_routes: bool = True
    #: Seed of the random stream deciding per-link packet drops (only used on
    #: links whose ``loss_rate`` is non-zero).
    loss_seed: int = 0
    #: Run with the runtime invariant sanitizer installed (conservation
    #: ledger, scheduler and register-leak checks). ``None`` defers to the
    #: ``REPRO_SANITIZE`` environment variable; the sanitizer costs nothing
    #: when disabled (no wrapper is installed, no flag is checked per event).
    sanitize: bool | None = None
    #: ECN marking threshold: when a switch egress queue (the serialized-but-
    #: not-yet-sent backlog of one link direction) exceeds this many bytes,
    #: ECN-capable packets passing through it have their CE bit set (DCTCP-
    #: style instantaneous marking). ``None`` disables marking entirely —
    #: the congestion branch is a single boolean check per transmission.
    ecn_threshold_bytes: int | None = None
    #: Finite switch egress buffering: a packet arriving at a switch egress
    #: whose queued backlog already exceeds this many bytes is tail-dropped
    #: (counted in ``TrafficStats.queue_drops``). ``None`` models infinite
    #: buffers — the historical, byte-identical behaviour.
    switch_buffer_bytes: int | None = None


class NetworkSimulator:
    """Discrete-event simulator over a :class:`Topology`."""

    def __init__(self, topology: Topology, config: SimulatorConfig | None = None) -> None:
        topology.validate()
        self.topology = topology
        self.config = config or SimulatorConfig()
        self.scheduler = EventScheduler()
        self.stats = TrafficStats()
        self.routes: RoutingState | None = None
        self._port_links: dict[str, dict[int, Link]] = {}
        #: Hot-path lookup: device -> port -> (link, link name, delivery
        #: callback, delivery target, neighbour port, per-direction byte
        #: counters, busy key, burst delivery callback or ``None``).
        #: Everything static about a hop — including which specialized
        #: delivery routine the far end needs — is resolved once here
        #: instead of on every transmission.
        self._port_info: dict[
            str,
            dict[
                int,
                tuple[Link, str, Any, Any, int, DirectionCounters, tuple[str, str], Any],
            ],
        ] = {}
        #: Direct reference to the topology's device table (hot-path lookup).
        self._devices = topology.devices
        #: Bound references to the hot stats tables. ``TrafficStats.reset``
        #: clears these dicts in place, so the bindings stay valid.
        self._link_stats = self.stats.link_traffic
        self._host_recv_stats = self.stats.host_received
        self._switch_stats = self.stats.switch_traffic
        #: Per-direction link occupancy: (link name, sender) -> time the link
        #: becomes free. Transmissions on the same direction are serialized so
        #: packets cannot overtake each other (FIFO links).
        self._link_busy_until: dict[tuple[str, str], float] = {}
        self._loss_rng = random.Random(self.config.loss_seed)
        #: Congestion modelling (ECN marking, finite egress buffers) only
        #: applies to switch egress queues; host uplinks are the sender's own
        #: NIC, which backpressures rather than drops. The combined flag
        #: keeps the default hot path at one boolean check per transmission.
        self._ecn_threshold = self.config.ecn_threshold_bytes
        self._switch_buffer = self.config.switch_buffer_bytes
        self._congestion_enabled = (
            self._ecn_threshold is not None or self._switch_buffer is not None
        )
        self._switch_names = frozenset(
            name
            for name, device in topology.devices.items()
            if isinstance(device, SwitchDevice)
        )
        #: Extra logical events carried by burst transmissions: a burst of N
        #: packets is ONE scheduler event whose callback performs N
        #: injections, and the N-1 "saved" events are accounted here so
        #: ``run()`` keeps returning the same event count a per-packet
        #: schedule would have produced (reports and benches stay
        #: comparable across PRs).
        self._synthetic_events = 0
        #: Installed :class:`~repro.checks.sanitize.SimulatorSanitizer`, or
        #: ``None`` on an ordinary (unsanitized) simulator.
        self.sanitizer = None
        #: Installed :class:`~repro.netsim.faults.FaultInjector`, or ``None``
        #: on a fault-free simulator. Set by ``FaultInjector.install``.
        self.fault_injector = None
        self._build_port_maps()
        if self.config.auto_install_routes:
            self.install_routes()
        sanitize = self.config.sanitize
        if sanitize is None:
            from repro.checks.sanitize import sanitize_enabled_in_env

            sanitize = sanitize_enabled_in_env()
        if sanitize:
            from repro.checks.sanitize import install_sanitizer

            install_sanitizer(self)

    def _build_port_maps(self) -> None:
        for name in self.topology.devices:
            self._port_links[name] = {}
            self._port_info[name] = {}
        # The vectorized fast machinery (batch delivery handlers, the inlined
        # burst transmit) bypasses ``self._transmit`` and per-packet sink
        # dispatch, so it must stand down whenever any observer is watching
        # individual transmissions: the sanitizer, the fault injector and the
        # error tracker all install an instance-level ``_transmit`` wrapper
        # (and rebuild these maps), which this gate detects.
        batch_ok = (
            "_transmit" not in self.__dict__
            and self.sanitizer is None
            and self.fault_injector is None
        )
        self._fast_burst = batch_ok
        batch_handlers = self.scheduler._batch_handlers
        batch_handlers.clear()
        # One compiled sink per receiving device (not per link end): the
        # batch delivery path collects consecutive queue entries by callback
        # identity, so all links into one switch must share its sink (and
        # its burst sink).
        sinks: dict[str, Any] = {}
        burst_sinks: dict[str, Any] = {}
        for link in self.topology.links:
            for end, other in ((link.a, link.b), (link.b, link.a)):
                self._port_links[end.device][end.port] = link
                # The delivery callback is compiled per receiver at build
                # time — a closure binding the receiver's stats slot and
                # delivery routine — so per-packet delivery needs no device
                # lookup, type dispatch or simulator attribute traffic.
                # Subclassed devices use the generic path.
                device = self.topology.devices[other.device]
                device_type = type(device)
                if device_type is Host:
                    callback = sinks.get(other.device)
                    if callback is None:
                        callback = sinks[other.device] = self._compile_host_sink(device)
                    target: Any = device
                elif device_type is SwitchDevice:
                    callback = sinks.get(other.device)
                    if callback is None:
                        callback = sinks[other.device] = self._compile_switch_sink(
                            device
                        )
                        if batch_ok:
                            batch_handlers[callback] = self._compile_switch_batch(
                                device, callback
                            )
                            bsink = self._compile_burst_sink(device, callback)
                            burst_sinks[other.device] = bsink
                            batch_handlers[bsink] = self._compile_switch_burst(
                                device, callback, bsink
                            )
                    target = device
                else:
                    callback = self._deliver
                    target = other.device
                self._port_info[end.device][end.port] = (
                    link,
                    link.name,
                    callback,
                    target,
                    other.port,
                    link.counters(end.device),
                    (link.name, end.device),
                    burst_sinks.get(other.device),
                )

    def _compile_host_sink(self, host: Host) -> Any:
        """A delivery closure for one host: stats recording + app delivery.

        The per-packet ``self`` attribute loads are resolved at build time.
        The stats *dict* is bound (not the per-host counter object), so
        ``TrafficStats.reset`` keeps working — counters are re-created on
        the next packet.
        """
        host_received = self._host_recv_stats
        name = host.name
        deliver = host.deliver

        def sink(_target: Any, _ingress_port: int, packet: Any, nbytes: int) -> None:
            traffic = host_received.get(name)
            if traffic is None:
                traffic = host_received[name] = PerDeviceTraffic()
            traffic.packets += 1
            traffic.bytes += nbytes
            deliver(packet, nbytes)

        return sink

    def _compile_switch_sink(self, device: SwitchDevice) -> Any:
        """A delivery closure for one switch: stats + deliver + re-transmit."""
        switch_traffic = self._switch_stats
        name = device.name
        deliver = device.deliver
        transmit = self._transmit

        def sink(_target: Any, ingress_port: int, packet: Any, nbytes: int) -> None:
            traffic = switch_traffic.get(name)
            if traffic is None:
                traffic = switch_traffic[name] = PerDeviceTraffic()
            traffic.packets += 1
            traffic.bytes += nbytes
            outputs = deliver(packet, ingress_port, nbytes)
            if outputs:
                for egress_port, out_packet in outputs:
                    transmit(
                        name, egress_port, out_packet, packet_wire_bytes(out_packet)
                    )

        return sink

    @fastpath("switch-batch-delivery", oracle="tests/netsim/test_batch_delivery.py")
    def _compile_switch_batch(self, device: SwitchDevice, sink: Any) -> Any:
        """A batch delivery handler for one switch (vectorized hot path).

        Registered in the scheduler's ``_batch_handlers`` under the switch's
        compiled sink. When the scheduler pops a delivery for this switch, the
        handler collects every consecutive queue-head entry that is (a) the
        same sink, (b) an unsequenced DAIET DATA packet for the same ``_vec``
        tree within op/parse budgets, and (c) within the run's ``until``/
        ``max_events`` bounds, then applies the whole burst through
        ``DaietAggregationEngine._process_data_batch`` with *batched* stats
        updates. Spillover-flush emissions are transmitted at their packet's
        delivery time, preserving busy-chain times and loss-draw order
        exactly. Ineligible heads fall through to the per-packet sink.
        """
        scheduler = self.scheduler
        switch_traffic = self._switch_stats
        name = device.name
        transmit = self._transmit
        resolve = device._batch_tree_state
        num_ports = device.switch.num_ports
        max_ops = device._max_ops
        max_parse = device._max_parse
        counters = device._sw_counters
        parser = device._sw_parser
        pipeline = device._sw_pipeline
        daiet_tbl = device._daiet_tbl

        def handler(
            time: float, args: tuple, until: float | None, budget: int | None
        ) -> int:
            packet = args[2]
            if (
                type(packet) is not DaietPacket
                or packet.seq is not None
                or packet.packet_type is not _DAIET_DATA
                or args[3] > max_parse
                or not 0 <= args[1] < num_ports
                or packet.vector_pairs() is None
            ):
                sink(*args)
                return 1
            npairs = len(packet.pairs)
            if 3 + (npairs if npairs > 1 else 1) > max_ops:
                sink(*args)
                return 1
            resolved = resolve(packet)
            if resolved is None:
                sink(*args)
                return 1
            engine, state = resolved
            tree_id = packet.tree_id
            entries: list[tuple[float, tuple]] = [(time, args)]
            limit = budget if budget is not None else 1 << 62
            cal = scheduler._cal
            if cal is None:
                queue = scheduler._queue
                while len(entries) < limit and queue:
                    head = queue[0]
                    if head[2] is not sink:
                        break
                    if until is not None and head[0] > until:
                        break
                    a = head[3]
                    p = a[2]
                    if (
                        type(p) is not DaietPacket
                        or p.tree_id != tree_id
                        or p.seq is not None
                        or p.packet_type is not _DAIET_DATA
                        or a[3] > max_parse
                        or not 0 <= a[1] < num_ports
                        or p.vector_pairs() is None
                    ):
                        break
                    npairs = len(p.pairs)
                    if 3 + (npairs if npairs > 1 else 1) > max_ops:
                        break
                    heappop(queue)
                    entries.append((head[0], a))
            else:
                cancelled = scheduler._cancelled
                while len(entries) < limit:
                    entry = cal.pop(until, cancelled)
                    if entry is None:
                        break
                    a = entry[3]
                    p = a[2]
                    if (
                        entry[2] is not sink
                        or type(p) is not DaietPacket
                        or p.tree_id != tree_id
                        or p.seq is not None
                        or p.packet_type is not _DAIET_DATA
                        or a[3] > max_parse
                        or not 0 <= a[1] < num_ports
                        or p.vector_pairs() is None
                        or 3 + (len(p.pairs) if len(p.pairs) > 1 else 1) > max_ops
                    ):
                        cal.push(entry)
                        break
                    entries.append((entry[0], a))
            n = len(entries)
            if n == 1:
                sink(*args)
                return 1
            result = engine._process_data_batch(state, [a[2] for _t, a in entries])
            if result is None:
                # int64 overflow guard tripped on this burst: replay it
                # through the per-packet path, which is exact for any mass.
                for t, a in entries:
                    scheduler.now = t
                    sink(*a)
                return n
            nbytes_total = 0
            for _t, a in entries:
                nbytes_total += a[3]
            traffic = switch_traffic.get(name)
            if traffic is None:
                traffic = switch_traffic[name] = PerDeviceTraffic()
            traffic.packets += n
            traffic.bytes += nbytes_total
            counters.packets_in += n
            counters.bytes_in += nbytes_total
            # DaietPacket.parse_depth_bytes() equals its wire size, which is
            # what travels in the entry (and max_parse was checked above).
            parser.packets_parsed += n
            parser.bytes_parsed += nbytes_total
            pipeline.packets_processed += n
            daiet_tbl.hit_count += n
            if result:
                for pkt_i, port, out_packet in result:
                    scheduler.now = entries[pkt_i][0]
                    counters.packets_generated += 1
                    counters.packets_out += 1
                    counters.bytes_out += _switch_packet_bytes(out_packet, counters)
                    transmit(name, port, out_packet, packet_wire_bytes(out_packet))
            scheduler.now = entries[-1][0]
            return n

        return handler

    def _compile_burst_sink(self, device: SwitchDevice, sink: Any) -> Any:
        """The standalone callback of a burst delivery entry.

        Normally a burst entry is intercepted by the scheduler's batch
        dispatch (``_compile_switch_burst`` below). This plain callback is
        the safety net for the one way that interception can disappear —
        the handler registry being rebuilt mid-run — and simply replays
        every remaining item through the per-packet sink at its own
        arrival time.
        """
        scheduler = self.scheduler
        sim = self

        def burst_sink(plan: _BurstPlan, offset: int) -> None:
            packets = plan.packets
            nbytes = plan.nbytes
            times = plan.times
            target = plan.target
            ingress = plan.ingress
            last = len(packets)
            for i in range(offset, last):
                scheduler.now = times[i]
                sink(target, ingress, packets[i], nbytes[i])
            sim._synthetic_events += last - offset - 1

        return burst_sink

    @fastpath("switch-burst-delivery", oracle="tests/netsim/test_batch_delivery.py")
    def _compile_switch_burst(self, device: SwitchDevice, sink: Any, burst_sink: Any) -> Any:
        """The burst-entry delivery handler for one switch.

        A burst entry stands for a whole send window: its plan carries the
        send-time precomputed eligibility mask, pair arrays and exact
        cumulative ledgers, and ``_transmit_burst`` filled in per-item
        arrival times plus the reserved sequence-number range. The handler
        collects every consecutive queue-head burst entry bound for this
        switch, merges their items into global ``(time, seq)`` order with
        one lexsort, applies the merged eligible prefix through the
        vectorized register kernel, and re-enqueues each burst's
        un-consumed tail at its own position — so foreign events (END
        markers, ``until`` bounds, event budgets, other trees' traffic)
        interleave exactly as they would against a per-packet schedule.
        """
        scheduler = self.scheduler
        switch_traffic = self._switch_stats
        name = device.name
        transmit = self._transmit
        resolve = device._batch_tree_state
        num_ports = device.switch.num_ports
        max_ops = device._max_ops
        max_parse = device._max_parse
        counters = device._sw_counters
        parser = device._sw_parser
        pipeline = device._sw_pipeline
        daiet_tbl = device._daiet_tbl

        def push_entry(entry: tuple) -> None:
            cal = scheduler._cal
            if cal is not None:
                cal.push(entry)
            else:
                queue = scheduler._queue
                heappush(queue, entry)
                if len(queue) >= scheduler._threshold:
                    scheduler._activate_calendar()

        def fall_back(plan: _BurstPlan, offset: int) -> int:
            # Head item is not kernel-eligible: deliver it through the
            # per-packet sink and re-enqueue the rest of the burst.
            sink(plan.target, plan.ingress, plan.packets[offset], plan.nbytes[offset])
            nxt = offset + 1
            if nxt < len(plan.packets):
                push_entry((plan.times[nxt], plan.seq0 + nxt, burst_sink, (plan, nxt)))
            return 1

        def handler(
            time: float, args: tuple, until: float | None, budget: int | None
        ) -> int:
            plan, offset = args
            if not plan.shape_ok[offset]:
                return fall_back(plan, offset)
            resolved = resolve(plan.packets[offset])
            if (
                resolved is None
                or plan.max_nbytes > max_parse
                or plan.max_cost > max_ops
                or not 0 <= plan.ingress < num_ports
            ):
                return fall_back(plan, offset)
            engine, state = resolved
            tree_id = plan.tree_id
            bursts: list[tuple[_BurstPlan, int]] = [(plan, offset)]
            cutoff = None  # first queue entry NOT collected, or None
            cal = scheduler._cal
            if cal is None:
                queue = scheduler._queue
                while queue:
                    head = queue[0]
                    if head[2] is not burst_sink or (
                        until is not None and head[0] > until
                    ):
                        cutoff = head
                        break
                    p2, o2 = head[3]
                    if (
                        p2.tree_id != tree_id
                        or p2.max_nbytes > max_parse
                        or p2.max_cost > max_ops
                        or not 0 <= p2.ingress < num_ports
                    ):
                        cutoff = head
                        break
                    heappop(queue)
                    bursts.append((p2, o2))
            else:
                cancelled = scheduler._cancelled
                while True:
                    entry = cal.pop(until, cancelled)
                    if entry is None:
                        break
                    if entry[2] is not burst_sink:
                        cal.push(entry)
                        cutoff = entry
                        break
                    p2, o2 = entry[3]
                    if (
                        p2.tree_id != tree_id
                        or p2.max_nbytes > max_parse
                        or p2.max_cost > max_ops
                        or not 0 <= p2.ingress < num_ports
                    ):
                        cal.push(entry)
                        cutoff = entry
                        break
                    bursts.append((p2, o2))
            # Merge the collected bursts' remaining items by (time, seq).
            # Each burst's internal order is already sorted, so the stable
            # lexsort preserves it and every burst's consumed share is a
            # prefix of its remaining items.
            k = len(bursts)
            if k == 1:
                p0, o0 = bursts[0]
                times_m = _np.array(p0.times[o0:], dtype=_np.float64)
                seqs_m = _np.arange(
                    p0.seq0 + o0, p0.seq0 + len(p0.packets), dtype=_np.int64
                )
                ok_m = p0.shape_ok[o0:]
                perm = None
                bid = None
            else:
                times_m = _np.concatenate(
                    [_np.array(p.times[o:], dtype=_np.float64) for p, o in bursts]
                )
                seqs_m = _np.concatenate(
                    [
                        _np.arange(p.seq0 + o, p.seq0 + len(p.packets), dtype=_np.int64)
                        for p, o in bursts
                    ]
                )
                ok_m = _np.concatenate([p.shape_ok[o:] for p, o in bursts])
                bid = _np.concatenate(
                    [
                        _np.full(len(p.packets) - o, j, dtype=_np.int64)
                        for j, (p, o) in enumerate(bursts)
                    ]
                )
                perm = _np.lexsort((seqs_m, times_m))
                times_m = times_m[perm]
                seqs_m = seqs_m[perm]
                ok_m = ok_m[perm]
            eligible = ok_m
            if until is not None:
                eligible = eligible & (times_m <= until)
            if cutoff is not None:
                ct = cutoff[0]
                cs = cutoff[1]
                eligible = eligible & (
                    (times_m < ct) | ((times_m == ct) & (seqs_m < cs))
                )
            if eligible.all():
                cut = len(eligible)
            else:
                cut = int(_np.argmax(~eligible))
            if budget is not None and cut > budget:
                cut = budget
            if cut == 0:
                # Unreachable in practice: the scheduler dispatched this
                # entry as the global minimum, so its head item is eligible.
                return fall_back(plan, offset)
            if k == 1:
                counts = [cut]
                starts_m = bursts[0][0].pair_start[o0 : o0 + cut]
                lens_m = bursts[0][0].npairs[o0 : o0 + cut]
                kids_g = bursts[0][0].kids
                vals_g = bursts[0][0].vals
            else:
                sel = perm[:cut]
                counts = _np.bincount(bid[sel], minlength=k).tolist()
                base = 0
                starts_parts = []
                for p, o in bursts:
                    starts_parts.append(p.pair_start[o:] + base)
                    base += len(p.kids)
                starts_m = _np.concatenate(starts_parts)[sel]
                lens_m = _np.concatenate([p.npairs[o:] for p, o in bursts])[sel]
                kids_g = _np.concatenate([p.kids for p, _o in bursts])
                vals_g = _np.concatenate([p.vals for p, _o in bursts])
            bounds = _np.cumsum(lens_m)
            total_pairs = int(bounds[-1])
            pair_idx = _np.repeat(starts_m - (bounds - lens_m), lens_m) + _np.arange(
                total_pairs, dtype=_np.int64
            )
            mass = 0
            for j in range(k):
                p, o = bursts[j]
                c = counts[j]
                if c:
                    mass += p.mass_cum[o + c] - p.mass_cum[o]
            result = engine._vector_apply(
                state, kids_g[pair_idx], vals_g[pair_idx], mass, cut, bounds
            )
            if result is None:
                # int64 overflow guard tripped: replay the consumed prefix
                # through the per-packet path, which is exact for any mass.
                if k == 1:
                    p0, o0 = bursts[0]
                    for i in range(o0, o0 + cut):
                        scheduler.now = p0.times[i]
                        sink(p0.target, p0.ingress, p0.packets[i], p0.nbytes[i])
                else:
                    loc = _np.concatenate(
                        [
                            _np.arange(o, len(p.packets), dtype=_np.int64)
                            for p, o in bursts
                        ]
                    )
                    for b, i in zip(bid[sel].tolist(), loc[sel].tolist()):
                        p = bursts[b][0]
                        scheduler.now = p.times[i]
                        sink(p.target, p.ingress, p.packets[i], p.nbytes[i])
            else:
                nbytes_total = 0
                for j in range(k):
                    p, o = bursts[j]
                    c = counts[j]
                    if c:
                        nbytes_total += p.nbytes_cum[o + c] - p.nbytes_cum[o]
                traffic = switch_traffic.get(name)
                if traffic is None:
                    traffic = switch_traffic[name] = PerDeviceTraffic()
                traffic.packets += cut
                traffic.bytes += nbytes_total
                counters.packets_in += cut
                counters.bytes_in += nbytes_total
                parser.packets_parsed += cut
                parser.bytes_parsed += nbytes_total
                pipeline.packets_processed += cut
                daiet_tbl.hit_count += cut
                if result:
                    for pkt_i, port, out_packet in result:
                        scheduler.now = times_m[pkt_i].item()
                        counters.packets_generated += 1
                        counters.packets_out += 1
                        counters.bytes_out += _switch_packet_bytes(
                            out_packet, counters
                        )
                        transmit(name, port, out_packet, packet_wire_bytes(out_packet))
            # Re-enqueue every burst's un-consumed tail at its own position.
            for j in range(k):
                p, o = bursts[j]
                nxt = o + counts[j]
                if nxt < len(p.packets):
                    push_entry((p.times[nxt], p.seq0 + nxt, burst_sink, (p, nxt)))
            scheduler.now = times_m[cut - 1].item()
            return cut

        return handler

    # ------------------------------------------------------------------ #
    # Control plane
    # ------------------------------------------------------------------ #
    def install_routes(self) -> int:
        """Compute shortest-path routes and populate every forwarding table.

        Every switch gets one entry per host, so a forwarding table too small
        for the fabric fails here, before a route is computed or a switch
        programmed.
        """
        needed = len(self.topology.hosts())
        for switch in self.topology.switches():
            table = switch.forwarding_table
            if needed > table.max_entries:
                raise TableError(
                    f"switch {switch.name!r}: table {table.name!r} holds at most "
                    f"{table.max_entries} entries but routing needs {needed}, "
                    "one per host"
                )
        self.routes = compute_routes(self.topology)
        return install_forwarding_rules(self.topology, self.routes)

    # ------------------------------------------------------------------ #
    # Data plane
    # ------------------------------------------------------------------ #
    def send(self, src_host: str, packet: Any, delay: float = 0.0) -> None:
        """Inject a packet from a host NIC into the network."""
        device = self._devices.get(src_host)
        if device is None:
            raise TopologyError(f"unknown device {src_host!r}")
        if not isinstance(device, Host):
            raise SimulationError(f"send() source {src_host!r} is not a host")
        if 0 not in self._port_info[src_host]:
            raise TopologyError(f"host {src_host!r} has no uplink")
        if delay < 0:
            raise SimulationError(f"cannot schedule an event in the past (delay={delay})")
        # The wire size is computed once here and threaded through every hop
        # (``_transmit``/``_deliver`` below) instead of being re-derived 3-5
        # times per hop as before.
        nbytes = packet_wire_bytes(packet)
        device.note_sent(packet, nbytes)
        self.stats.record_host_sent(src_host, nbytes)
        self.scheduler.push_at(
            self.scheduler.now + delay, self._transmit, (src_host, 0, packet, nbytes)
        )

    def send_burst(self, src_host: str, packets: Iterable[Any], delay: float = 0.0) -> int:
        """Inject a window of packets from one host as a single wire event.

        Semantically identical to calling :meth:`send` once per packet — the
        packets hit the wire in list order at the same simulated time, with
        identical loss draws, link serialization and statistics — but the
        whole window costs one scheduler entry instead of N. Senders with
        bursty windows (map-output packetization, retransmission rounds)
        use this to keep the event queue proportional to in-flight traffic
        rather than to send-call volume.

        Each burst member still counts as one logical event in the totals
        reported by :meth:`run`. Returns the number of packets injected.
        """
        device = self._devices.get(src_host)
        if device is None:
            raise TopologyError(f"unknown device {src_host!r}")
        if not isinstance(device, Host):
            raise SimulationError(f"send_burst() source {src_host!r} is not a host")
        if 0 not in self._port_info[src_host]:
            raise TopologyError(f"host {src_host!r} has no uplink")
        if delay < 0:
            raise SimulationError(f"cannot schedule an event in the past (delay={delay})")
        record_sent = self.stats.record_host_sent
        items: list[tuple[Any, int]] = []
        for packet in packets:
            nbytes = packet_wire_bytes(packet)
            device.note_sent(packet, nbytes)
            record_sent(src_host, nbytes)
            items.append((packet, nbytes))
        if not items:
            return 0
        # The burst plan is computed here — at send time, outside any timed
        # hot region — so the delivery fast path pays nothing per packet.
        plan = _plan_burst(items) if self._fast_burst else None
        self.scheduler.push_at(
            self.scheduler.now + delay, self._transmit_burst, (src_host, items, plan)
        )
        return len(items)

    def _transmit_burst(
        self,
        src_host: str,
        items: list[tuple[Any, int]],
        plan: _BurstPlan | None = None,
    ) -> None:
        """Put a whole window of packets on a host's uplink, in order.

        When no observer needs to see individual transmissions (see the
        ``_fast_burst`` gate in ``_build_port_maps``) and the uplink is
        lossless, the per-packet ``_transmit`` calls are inlined into one
        loop with batched stats: the busy-chain arithmetic, entry tuples and
        backend migration checks are operation-for-operation the ones
        ``_transmit`` performs, so arrival times and event order are
        bit-identical. Hosts are never congestion-modelled, so the congestion
        branch is statically dead here.
        """
        n = len(items)
        if n > 1 and self._fast_burst:
            info = self._port_info[src_host].get(0)
            if info is not None and info[0].loss_rate == 0.0:
                (
                    link,
                    link_name,
                    callback,
                    target,
                    other_port,
                    direction,
                    busy_key,
                    burst_sink,
                ) = info
                total_bytes = 0
                for _packet, nbytes in items:
                    total_bytes += nbytes
                direction.packets += n
                direction.bytes += total_bytes
                link_traffic = self._link_stats
                traffic = link_traffic.get(link_name)
                if traffic is None:
                    traffic = link_traffic[link_name] = PerDeviceTraffic()
                traffic.packets += n
                traffic.bytes += total_bytes
                busy = self._link_busy_until
                scheduler = self.scheduler
                now = scheduler.now
                busy_end = busy.get(busy_key, 0.0)
                if now > busy_end:
                    busy_end = now
                bandwidth = link.bandwidth_bps
                propagation = link.propagation_s
                seq = scheduler._seq
                threshold = scheduler._threshold
                if plan is not None and burst_sink is not None:
                    # Burst delivery entry: ONE queue entry stands for the
                    # whole window. Arrival times come from the same
                    # busy-chain arithmetic as the per-packet schedule, and
                    # the window consumes the same sequence-number range, so
                    # global event order is bit-identical; the burst handler
                    # re-expands any tail that foreign events interleave.
                    times: list[float] = []
                    for _packet, nbytes in items:
                        busy_end = busy_end + nbytes / bandwidth
                        times.append(busy_end + propagation)
                    plan.times = times
                    plan.seq0 = seq
                    plan.target = target
                    plan.ingress = other_port
                    entry = (times[0], seq, burst_sink, (plan, 0))
                    scheduler._seq = seq + n
                    cal = scheduler._cal
                    if cal is not None:
                        cal.push(entry)
                    else:
                        queue = scheduler._queue
                        heappush(queue, entry)
                        if len(queue) >= threshold:
                            scheduler._activate_calendar()
                    busy[busy_key] = busy_end
                    self._synthetic_events += n - 1
                    return
                for packet, nbytes in items:
                    busy_end = busy_end + nbytes / bandwidth
                    entry = (
                        busy_end + propagation,
                        seq,
                        callback,
                        (target, other_port, packet, nbytes),
                    )
                    seq += 1
                    cal = scheduler._cal
                    if cal is not None:
                        cal.push(entry)
                    else:
                        queue = scheduler._queue
                        heappush(queue, entry)
                        if len(queue) >= threshold:
                            scheduler._activate_calendar()
                scheduler._seq = seq
                busy[busy_key] = busy_end
                self._synthetic_events += n - 1
                return
        transmit = self._transmit
        for packet, nbytes in items:
            transmit(src_host, 0, packet, nbytes)
        self._synthetic_events += n - 1

    def _transmit(self, from_device: str, egress_port: int, packet: Any, nbytes: int) -> None:
        """Put a packet on the link attached to ``(from_device, egress_port)``."""
        info = self._port_info[from_device].get(egress_port)
        if info is None:
            # Transmissions towards unconnected ports are counted as drops.
            self.stats.record_drop(from_device)
            return
        link, link_name, callback, target, other_port, direction, busy_key, _burst = info
        if self._congestion_enabled and from_device in self._switch_names:
            # Switch egress queue model: the backlog is the serialization
            # time already committed to this link direction, expressed in
            # bytes. Over the buffer limit the packet is tail-dropped before
            # it ever occupies the link; over the ECN threshold, ECN-capable
            # packets are CE-marked in flight (False->True transitions only,
            # so retransmitted already-marked packets are not re-counted).
            backlog_s = self._link_busy_until.get(busy_key, 0.0) - self.scheduler.now
            if backlog_s > 0.0:
                backlog_bytes = backlog_s * link.bandwidth_bps
                limit = self._switch_buffer
                if limit is not None and backlog_bytes > limit:
                    self.stats.record_queue_drop(link_name)
                    return
                threshold = self._ecn_threshold
                if (
                    threshold is not None
                    and backlog_bytes > threshold
                    and getattr(packet, "ecn", None) is False
                ):
                    object.__setattr__(packet, "ecn", True)
                    self.stats.record_ecn_mark(link_name)
        direction.packets += 1
        direction.bytes += nbytes
        # stats.record_link, inlined (one call per packet per hop).
        link_traffic = self._link_stats
        traffic = link_traffic.get(link_name)
        if traffic is None:
            traffic = link_traffic[link_name] = PerDeviceTraffic()
        traffic.packets += 1
        traffic.bytes += nbytes
        # Serialize transmissions per link direction (FIFO): a packet starts
        # transmitting only once the previous one has left the NIC. The busy
        # time is charged before the loss draw: a packet dropped in flight
        # still occupied the sender's NIC and the link for its serialization
        # time, so losses contribute to congestion like any other packet.
        busy = self._link_busy_until
        now = self.scheduler.now
        start = busy.get(busy_key, 0.0)
        if now > start:
            start = now
        serialization = nbytes / link.bandwidth_bps
        busy[busy_key] = start + serialization
        if link.loss_rate > 0.0 and self._loss_rng.random() < link.loss_rate:
            # The packet is lost in flight: it never reaches the other end.
            self.stats.record_loss(link_name)
            return
        # scheduler.push_at, inlined (one schedule per packet per hop); the
        # calendar branch mirrors EventScheduler.push_at exactly.
        scheduler = self.scheduler
        seq = scheduler._seq
        scheduler._seq = seq + 1
        entry = (
            start + serialization + link.propagation_s,
            seq,
            callback,
            (target, other_port, packet, nbytes),
        )
        cal = scheduler._cal
        if cal is not None:
            cal.push(entry)
        else:
            queue = scheduler._queue
            heappush(queue, entry)
            if len(queue) >= scheduler._threshold:
                scheduler._activate_calendar()

    def _deliver(self, device_name: str, ingress_port: int, packet: Any, nbytes: int) -> None:
        device = self._devices[device_name]
        device_type = type(device)
        if device_type is Host:
            # Hosts never forward; deliver straight to the application.
            # stats.record_host_received, inlined.
            host_received = self._host_recv_stats
            traffic = host_received.get(device_name)
            if traffic is None:
                traffic = host_received[device_name] = PerDeviceTraffic()
            traffic.packets += 1
            traffic.bytes += nbytes
            device.deliver(packet, nbytes)
            return
        if device_type is SwitchDevice:
            # Direct dispatch into the switch model, skipping the
            # handle_packet wrapper and re-derived packet sizing.
            # stats.record_switch, inlined.
            switch_traffic = self._switch_stats
            traffic = switch_traffic.get(device_name)
            if traffic is None:
                traffic = switch_traffic[device_name] = PerDeviceTraffic()
            traffic.packets += 1
            traffic.bytes += nbytes
            outputs = device.deliver(packet, ingress_port, nbytes)
        else:
            if isinstance(device, Host):
                self.stats.record_host_received(device_name, nbytes)
            elif isinstance(device, SwitchDevice):
                self.stats.record_switch(device_name, nbytes)
            outputs = device.handle_packet(packet, ingress_port)
        for egress_port, out_packet in outputs:
            self._transmit(
                device_name, egress_port, out_packet, packet_wire_bytes(out_packet)
            )

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def run(self, until: float | None = None) -> int:
        """Run the simulation until the event queue drains (or ``until``).

        Returns the number of logical events executed: scheduler dispatches
        plus the extra injections carried by burst events (see
        :meth:`send_burst`), so event totals are independent of whether a
        sender batched its window.
        """
        executed = self.scheduler.run(until=until, max_events=self.config.max_events)
        extra = self._synthetic_events
        if extra:
            self._synthetic_events = 0
            executed += extra
        return executed

    # ------------------------------------------------------------------ #
    # Timer hooks (used by the end-host reliability layer)
    # ------------------------------------------------------------------ #
    def schedule_timer(self, delay: float, callback: Any, *args: Any) -> Event:
        """Schedule an application callback (e.g. a retransmit check)."""
        return self.scheduler.schedule(delay, callback, *args)

    def timer(self, callback: Any) -> Timer:
        """A restartable one-shot :class:`Timer` on this simulation's clock."""
        return Timer(self.scheduler, callback)

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self.scheduler.now

    def device(self, name: str) -> Device:
        """Convenience accessor for a topology device."""
        return self.topology.get(name)

    def host(self, name: str) -> Host:
        """Return a host device, or raise if ``name`` is not a host."""
        device = self.topology.get(name)
        if not isinstance(device, Host):
            raise SimulationError(f"{name!r} is not a host")
        return device

    def switch(self, name: str) -> SwitchDevice:
        """Return a switch device, or raise if ``name`` is not a switch."""
        device = self.topology.get(name)
        if not isinstance(device, SwitchDevice):
            raise SimulationError(f"{name!r} is not a switch")
        return device
