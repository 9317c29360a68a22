"""The network simulator tying topology, devices, links and events together.

The simulator owns the event scheduler and the per-device port maps. Sending a
packet from a host schedules its arrival at the attached switch after the
link's store-and-forward delay; every switch output is likewise scheduled on
the corresponding link until the packet reaches a host, whose application
receiver is then invoked.

Checkers (the conservation sanitizer, the fault gate, the error-bound
tracker) attach through one seam, :meth:`NetworkSimulator.add_observer`. An
observer is any object defining some of the hooks in :data:`OBSERVER_HOOKS`.
The simulator fixes the order they run in, whatever order they were added
in: a host's ``on_send`` notice, then the vetoes, then the transmission or
delivery itself, then the notices of what became of the packet. With no
observer attached none of this exists on the per-packet path.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from operator import itemgetter
from typing import Any, Iterable

from repro.checks.registry import fastpath
from repro.core.errors import SimulationError, TableError, TopologyError
from repro.core.packet import DaietAck, PacketWindow, PairColumns, packets_of
from repro.netsim.devices import (
    Host,
    SwitchDevice,
    packet_wire_bytes,
)
from repro.netsim.events import EventScheduler, Timer
from repro.netsim.links import Link
from repro.netsim.routing import (
    RoutingState,
    compute_routes,
    install_forwarding_rules,
    planned_forwarding_entries,
)
from repro.netsim.stats import LinkTraffic, TrafficStats
from repro.netsim.topology import Topology

try:  # The burst delivery fast path needs numpy; the simulator does not.
    import numpy as _np
except ImportError:  # pragma: no cover - the toolchain bakes numpy in
    _np = None

#: Safety valve: the most events a single ``run`` may execute.
MAX_EVENTS = 50_000_000

#: Every hook an observer may define (``src/repro/netsim/README.md`` lists
#: who consumes each). ``veto_transmit(from_device, link)`` names the device
#: or link a transmission dies at (or ``None``) and ``veto_deliver(device)``
#: says whether a device is down; the rest return nothing.
OBSERVER_HOOKS = (
    "veto_transmit",
    "veto_deliver",
    "on_send",
    "on_deliver",
    "on_switch",
    "on_drop",
    "on_mark",
    "on_wipe",
)


class _BurstPlan:
    """Send-time precomputation for one window's burst delivery fast path.

    Built from a :class:`~repro.core.packet.PacketWindow` a host sends
    (:meth:`NetworkSimulator.send_burst`) or a switch flushes towards a
    switch (``_transmit_window``), so that the burst delivery
    handler can batch the window's DATA packets without building them:
    per-item eligibility (a DATA packet carries pairs, the END does not),
    the window's interned-key/value arrays (views of its partition's
    columns), per-item pair extents and exact cumulative mass/byte ledgers
    all come from the window's arithmetic. ``items`` are the window indexes
    the plan still carries; ``packet(k)`` builds one only for a consumer
    that needs it. The wire-dependent fields (arrival ``times``, the
    ``seq0`` base, delivery ``target``/``ingress``) are filled in by
    ``_transmit_burst`` when the burst hits its link, which also drops the
    items lost or tail-dropped on it. Items before ``next`` are delivered; a
    batch stores what such an item emitted in ``deferred`` until the queue
    reaches the item's own position.
    """

    __slots__ = (
        "window",
        "items",
        "nbytes",
        "shape_ok",
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
        "next",
        "deferred",
    )

    def __init__(self, window: PacketWindow, columns: PairColumns) -> None:
        n = len(window)
        per = columns.per
        first = window.first
        # The window's DATA items, then (at most) its END.
        data_stop = min(first + n, -(-len(window.pairs) // per))
        ndata = data_stop - first
        self.npairs = npairs = _np.full(n, per, dtype=_np.int64)
        npairs[ndata - 1] = min(per, len(window.pairs) - (data_stop - 1) * per)
        npairs[ndata:] = 0
        self.shape_ok = npairs > 0
        self.pair_start = _np.arange(0, n * per, per, dtype=_np.int64)
        lo = first * per
        hi = lo + (ndata - 1) * per + int(npairs[ndata - 1])
        self.kids = columns.kids[lo:hi]
        self.vals = columns.vals[lo:hi]
        ledger = columns.mass_cum
        self.mass_cum = ledger[first : data_stop + 1] + [ledger[data_stop]] * (n - ndata)
        self.window = window
        self.items: Any = range(n)
        self.nbytes = window.sizes
        self.nbytes_cum = list(accumulate(self.nbytes, initial=0))
        self.max_nbytes = max(self.nbytes[:ndata])
        self.max_cost = 3 + int(npairs[0])
        self.times = None
        self.seq0 = -1
        self.target = None
        self.ingress = -1
        self.next = 0
        self.deferred = {}

    def packet(self, offset: int) -> Any:
        """The packet of item ``offset``, built if nothing built it yet."""
        return self.window[self.items[offset]]

    def kernel_input(self, offset: int, count: int) -> tuple[Any, Any, int, int, Any]:
        """``_vector_apply``'s arguments for items ``offset .. offset + count``.

        ``(kids, vals, mass, count, bounds)``; every item in the range must
        be shape-eligible. Their pairs are one slice of the plan's arrays
        unless a lost item sat between them.
        """
        end = offset + count
        lens = self.npairs[offset:end]
        starts = self.pair_start[offset:end]
        mass = self.mass_cum[end] - self.mass_cum[offset]
        bounds = _np.cumsum(lens)
        lo = int(starts[0])
        hi = lo + int(bounds[-1])
        if starts[-1] + lens[-1] == hi:
            return self.kids[lo:hi], self.vals[lo:hi], mass, count, bounds
        kids, vals, bounds = _gather_pairs(self.kids, self.vals, starts, lens)
        return kids, vals, mass, count, bounds

    def drop(self, lost: list[int]) -> None:
        """Remove the items at the ascending indexes ``lost`` (lost in flight).

        The survivors keep their pair extents in the plan's arrays.
        """
        keep = _np.ones(len(self.items), dtype=bool)
        keep[lost] = False
        kept = _np.flatnonzero(keep).tolist()
        masses = [self.mass_cum[i + 1] - self.mass_cum[i] for i in kept]
        self.items = [self.items[i] for i in kept]
        self.nbytes = [self.nbytes[i] for i in kept]
        self.npairs = self.npairs[keep]
        self.shape_ok = self.shape_ok[keep]
        self.pair_start = self.pair_start[keep]
        self.mass_cum = list(accumulate(masses, initial=0))
        self.nbytes_cum = list(accumulate(self.nbytes, initial=0))


def _gather_pairs(kids: Any, vals: Any, starts: Any, lens: Any) -> tuple[Any, Any, Any]:
    """Pull packets' pairs out of concatenated plan arrays, in packet order.

    ``starts``/``lens`` are each packet's extent in ``kids``/``vals``.
    Returns the gathered key ids and values plus the cumulative per-packet
    pair counts (``bounds``) the register kernel tags emissions with.
    """
    bounds = _np.cumsum(lens)
    pair_idx = _np.repeat(starts - (bounds - lens), lens) + _np.arange(
        int(bounds[-1]), dtype=_np.int64
    )
    return kids[pair_idx], vals[pair_idx], bounds


def _plan_burst(window: PacketWindow) -> _BurstPlan | None:
    """A :class:`_BurstPlan` for ``window``, or ``None``.

    Every DATA item of a window is *shape-eligible* when its partition has
    columns (``PairColumns.ready``); sequenced or not, the engine decides at
    delivery whether its stream lets the kernel take it
    (``DaietAggregationEngine._fresh_run``). The switch-specific budget
    checks are applied once per burst by the burst handler via the
    precomputed ``max_nbytes``/``max_cost``. ``None`` for a window without
    DATA, for a partition with an ineligible pair and when numpy is missing.
    """
    columns = window.columns
    if _np is None or window.first * columns.per >= len(window.pairs) or not columns.ready():
        return None
    return _BurstPlan(window, columns)


@dataclass
class SimulatorConfig:
    """Tunables of a simulation run."""

    #: Seed of the random stream deciding per-link packet drops (only used on
    #: links whose ``loss_rate`` is non-zero).
    loss_seed: int = 0
    #: Run with the runtime invariant sanitizer installed (conservation
    #: ledger, scheduler and register-leak checks). ``None`` defers to the
    #: ``REPRO_SANITIZE`` environment variable; the sanitizer costs nothing
    #: when disabled (no observer is attached, no flag is checked per event).
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
        #: callback, delivery target, neighbour port, the link's traffic
        #: record, busy key, burst delivery callback or ``None``).
        #: Everything static about a hop — including which specialized
        #: delivery routine the far end needs — is resolved once here
        #: instead of on every transmission.
        self._port_info: dict[
            str,
            dict[
                int,
                tuple[Link, str, Any, Any, int, LinkTraffic, tuple[str, str], Any],
            ],
        ] = {}
        #: Direct reference to the topology's device table (hot-path lookup).
        self._devices = topology.devices
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
        #: Attached observers and, per hook name, their bound hooks (see
        #: :meth:`add_observer`).
        self._observers: list[Any] = []
        self._hooks: dict[str, list[Any]] = {name: [] for name in OBSERVER_HOOKS}
        stats = self.stats
        self._drop_recorders = {
            "loss": stats.record_loss,
            "queue": stats.record_queue_drop,
            "unconnected": stats.record_drop,
            "fault": stats.record_fault_drop,
        }
        #: tree id -> reliability policy, filled by ``DaietSystem``: lets an
        #: observer that only sees the simulator classify a dropped packet.
        self.tree_policies: dict[int, str] = {}
        #: The installed :class:`~repro.checks.sanitize.SimulatorSanitizer`
        #: and :class:`~repro.netsim.faults.FaultInjector`, for callers that
        #: want their ledgers and logs; ``None`` when not installed.
        self.sanitizer = None
        self.fault_injector = None
        self._build_port_maps()
        self.install_routes()
        sanitize = self.config.sanitize
        if sanitize is None:
            from repro.checks.sanitize import sanitize_enabled_in_env

            sanitize = sanitize_enabled_in_env()
        if sanitize:
            from repro.checks.sanitize import install_sanitizer

            install_sanitizer(self)

    def add_observer(self, observer: Any) -> None:
        """Attach ``observer``: each :data:`OBSERVER_HOOKS` method it defines.

        Attach before injecting traffic: events already queued keep the
        callbacks they were scheduled with.
        """
        self._observers.append(observer)
        for name, hooks in self._hooks.items():
            hook = getattr(observer, name, None)
            if hook is not None:
                hooks.append(hook)
        self._build_port_maps()

    def _build_port_maps(self) -> None:
        for name in self.topology.devices:
            self._port_links[name] = {}
            self._port_info[name] = {}
        # The one place that decides what being observed costs. Observers see
        # individual transmissions and deliveries, so with any attached every
        # device is delivered through ``_deliver``, transmissions enter
        # through ``_observed_transmit``, and burst delivery (which bypasses
        # both) stands down. With none, nothing below consults an observer.
        observed = bool(self._observers)
        self._fast_burst = not observed
        self._transmit_entry = self._observed_transmit if observed else self._transmit
        link_traffic = self.stats.link_traffic
        batch_handlers: dict[Any, Any] = {}
        # One compiled sink per receiving device (not per link end): the
        # burst handler collects consecutive queue entries by burst-sink
        # identity, so all links into one switch must share its sinks.
        sinks: dict[str, Any] = {}
        burst_sinks: dict[str, Any] = {}
        #: The callbacks a burst handler may batch past (see
        #: ``_compile_switch_burst``): every compiled delivery (its own
        #: excepted), every host transmission and every switch's emissions.
        transparent: set[Any] = {self._transmit, self._transmit_burst}
        for link in self.topology.links:
            # The link's one traffic record, bound into both directions' port
            # info and kept across rebuilds.
            traffic = link_traffic.get(link.name)
            if traffic is None:
                traffic = link_traffic[link.name] = LinkTraffic()
            for end, other in ((link.a, link.b), (link.b, link.a)):
                self._port_links[end.device][end.port] = link
                # The delivery callback is compiled per receiver at build
                # time — a closure binding the receiver's delivery routine —
                # so per-packet delivery needs no device lookup, type
                # dispatch or simulator attribute traffic.
                device = self.topology.devices[other.device]
                target: Any = device
                callback = sinks.get(other.device)
                if observed:
                    callback = self._deliver
                    target = other.device
                elif callback is None:
                    if isinstance(device, Host):
                        callback = self._compile_host_sink(device)
                    else:
                        callback = self._compile_switch_sink(device)
                        bsink, batch_handlers[bsink] = self._compile_switch_burst(
                            device, callback, transparent
                        )
                        burst_sinks[other.device] = bsink
                    sinks[other.device] = callback
                self._port_info[end.device][end.port] = (
                    link,
                    link.name,
                    callback,
                    target,
                    other.port,
                    traffic,
                    (link.name, end.device),
                    burst_sinks.get(other.device),
                )
        transparent.update(sinks.values(), burst_sinks.values())
        self.scheduler.set_batch_handlers(batch_handlers)

    def _compile_host_sink(self, host: Host) -> Any:
        """A delivery closure for one host (which counts what it receives)."""
        deliver = host.deliver

        def sink(_target: Any, _ingress_port: int, packet: Any, nbytes: int) -> None:
            deliver(packet, nbytes)

        return sink

    def _compile_switch_sink(self, device: SwitchDevice) -> Any:
        """A delivery closure for one switch: deliver + re-transmit.

        Forwarded traffic shares it, so only an output without ``wire_bytes()``
        (a flush window, a packet sized by ``length``) is asked what it is.
        """
        name = device.name
        deliver = device.deliver
        transmit = self._transmit
        transmit_window = self._transmit_window

        def sink(_target: Any, ingress_port: int, packet: Any, nbytes: int) -> None:
            outputs = deliver(packet, ingress_port, nbytes)
            if outputs:
                for egress_port, out_packet in outputs:
                    try:
                        size = out_packet.wire_bytes()
                    except AttributeError:
                        if type(out_packet) is PacketWindow:
                            transmit_window(name, egress_port, out_packet)
                            continue
                        size = packet_wire_bytes(out_packet)
                    transmit(name, egress_port, out_packet, size)

        return sink

    @fastpath("switch-burst-delivery", oracle="tests/netsim/test_batch_delivery.py")
    def _compile_switch_burst(
        self, device: SwitchDevice, sink: Any, transparent: set
    ) -> tuple[Any, Any]:
        """The burst-entry callback and delivery handler for one switch.

        The callback (``burst_sink``) takes one item at its own queue
        position. An item a batch already delivered (before ``plan.next``)
        only transmits what it emitted. Otherwise the entry's head item goes
        through the per-packet sink and the rest of the window is
        re-enqueued at its own ``(time, seq)``, so foreign events interleave
        exactly as they would against a per-packet schedule. The handler
        calls it for items the kernel cannot take; the scheduler calls it
        directly when the handler registry was rebuilt while burst entries
        were queued.

        A burst entry stands for a whole window, a host's partition or a
        child switch's flush alike: its plan carries the eligibility mask,
        pair arrays and exact cumulative ledgers computed when the window
        was sent, and ``_transmit_burst`` filled in per-item arrival times
        plus the reserved sequence-number range. The handler
        takes a *batch*: the items of this switch's burst entries that
        arrive within one lookahead of the head, the shortest propagation
        delay of the switch's links. Anything not yet queued for this switch
        arrives later than that, so the queue already holds every event that
        could touch the switch within the batch. The batch is cut before the
        first of them (an END, a retransmission, a pull, other trees'
        traffic, a timer or anything else not in ``transparent``: deliveries
        to other devices and transmissions, which never read this switch,
        and plain ACKs, which only release flushes sent before them), before
        the first item that is not shape-eligible or that its
        source's stream refuses (``DaietAggregationEngine._fresh_run``) and
        past ``until``. Within reach of the event budget there is no batch:
        the head goes alone, so a run cut by the budget stops between whole
        per-packet events. The merged ``(time, seq)``
        prefix goes through the vectorized register kernel and each source's
        stream advances over its share (``_accept_run``). What an item emits
        (spillover flushes, then its ACK, as ``_process_data`` emits them) is
        transmitted by an entry at that item's own ``(time, seq)``, so
        transmissions, their loss draws and everything they cause interleave
        with the other devices' events exactly as in a per-packet schedule.
        Each burst's un-consumed tail is re-enqueued at its own position.
        """
        scheduler = self.scheduler
        name = device.name
        transmit = self._transmit
        transmit_window = self._transmit_window
        count_emitted = device._count_emitted
        resolve = device._batch_tree_state
        links = self._port_links[name]
        num_ports = device.switch.num_ports
        max_ops = device._max_ops
        max_parse = device._max_parse
        counters = device._sw_counters
        parser = device._sw_parser
        daiet_tbl = device._daiet_tbl

        def within_budgets(plan: _BurstPlan) -> bool:
            return (
                plan.max_nbytes <= max_parse
                and plan.max_cost <= max_ops
                and 0 <= plan.ingress < num_ports
            )

        def burst_sink(plan: _BurstPlan, offset: int) -> None:
            if offset < plan.next:
                emitted = plan.deferred.pop(offset)
                if emitted:
                    count_emitted(emitted)
                    for port, out in emitted:
                        if type(out) is PacketWindow:
                            transmit_window(name, port, out)
                        else:
                            transmit(name, port, out, out.wire_bytes())
                return
            sink(plan.target, plan.ingress, plan.packet(offset), plan.nbytes[offset])
            nxt = plan.next = offset + 1
            if nxt < len(plan.items):
                scheduler.push_entry(
                    (plan.times[nxt], plan.seq0 + nxt, burst_sink, (plan, nxt))
                )

        def handler(
            time: float, args: tuple, until: float | None, budget: int | None
        ) -> int:
            plan, offset = args
            if offset < plan.next:
                burst_sink(plan, offset)
                return 1
            resolved = resolve(plan.window.tree_id) if plan.shape_ok[offset] else None
            if (
                resolved is None
                or not within_budgets(plan)
                or not resolved[0]._fresh_run(
                    resolved[1], plan.window, plan.items[offset : offset + 1]
                )
            ):
                # Head item is not kernel-eligible: per-packet delivery.
                burst_sink(plan, offset)
                return 1
            engine, state = resolved
            tree_id = plan.window.tree_id
            limit = time + min(link.propagation_s for link in links.values())
            if until is not None and until < limit:
                limit = until
            # The earliest entry due by the limit that could touch the switch
            # bounds the batch; so does a source's later window, which
            # queues behind its earlier one on the same uplink.
            cutoff = None
            mergeable = []
            queued = scheduler.entries_through(limit)
            for entry in queued:
                callback = entry[2]
                if callback is burst_sink:
                    p2, o2 = entry[3]
                    if o2 < p2.next:
                        continue  # a delivered item's emissions
                    if p2.window.tree_id == tree_id and within_budgets(p2):
                        mergeable.append(entry)
                        continue
                elif callback is sink:
                    packet = entry[3][2]
                    if type(packet) is DaietAck and not packet.pull:
                        continue  # releases flushes the batch cannot have sent
                elif callback in transparent:
                    continue
                if cutoff is None or entry[:2] < cutoff[:2]:
                    cutoff = entry
            bursts: list[tuple[_BurstPlan, int]] = [(plan, offset)]
            sources = {plan.window.src}
            mergeable.sort(key=itemgetter(0, 1))
            for entry in mergeable:
                if cutoff is not None and entry[:2] > cutoff[:2]:
                    break
                p2, o2 = entry[3]
                if p2.window.src in sources:
                    cutoff = entry
                    break
                bursts.append((p2, o2))
                sources.add(p2.window.src)
            stops = [bisect_right(p.times, limit, o) for p, o in bursts]
            # The event budget must not run out inside the batch, where its
            # items are applied but their entries still wait in the queue. It
            # must cover the items, every entry batched past and one more
            # event each of those may schedule within the lookahead; short of
            # that, the head goes alone.
            if budget is not None and budget < 2 * (
                len(queued) + sum(stops) - sum(o for _p, o in bursts)
            ):
                burst_sink(plan, offset)
                return 1
            # Merge the collected bursts' candidate items by (time, seq).
            # Each burst's internal order is already sorted, so the stable
            # lexsort preserves it and every burst's consumed share is a
            # prefix of its remaining items.
            k = len(bursts)
            if k == 1:
                stop = stops[0]
                times_m = _np.array(plan.times[offset:stop], dtype=_np.float64)
                seqs_m = _np.arange(plan.seq0 + offset, plan.seq0 + stop, dtype=_np.int64)
                ok_m = plan.shape_ok[offset:stop]
                bid = None
            else:
                times_m = _np.concatenate(
                    [
                        _np.array(p.times[o:e], dtype=_np.float64)
                        for (p, o), e in zip(bursts, stops)
                    ]
                )
                seqs_m = _np.concatenate(
                    [
                        _np.arange(p.seq0 + o, p.seq0 + e, dtype=_np.int64)
                        for (p, o), e in zip(bursts, stops)
                    ]
                )
                ok_m = _np.concatenate(
                    [p.shape_ok[o:e] for (p, o), e in zip(bursts, stops)]
                )
                bid = _np.concatenate(
                    [
                        _np.full(e - o, j, dtype=_np.int64)
                        for j, ((p, o), e) in enumerate(zip(bursts, stops))
                    ]
                )
                perm = _np.lexsort((seqs_m, times_m))
                times_m = times_m[perm]
                seqs_m = seqs_m[perm]
                ok_m = ok_m[perm]
                bid = bid[perm]
            eligible = ok_m
            if cutoff is not None:
                ct = cutoff[0]
                cs = cutoff[1]
                eligible = eligible & (
                    (times_m < ct) | ((times_m == ct) & (seqs_m < cs))
                )
            cut = len(eligible) if eligible.all() else int(_np.argmax(~eligible))
            # Each source's stream takes a prefix of its share: cut before
            # the first item one refuses. The head item was admitted and is
            # the earliest, so the cut keeps at least one item.
            counts = [cut] if k == 1 else _np.bincount(bid[:cut], minlength=k).tolist()
            refused = cut
            for j, (p, o) in enumerate(bursts):
                c = counts[j]
                fresh = engine._fresh_run(state, p.window, p.items[o : o + c]) if c else 0
                if fresh < c:
                    at = fresh if k == 1 else int(_np.flatnonzero(bid[:cut] == j)[fresh])
                    refused = min(refused, at)
            if refused < cut:
                cut = refused
                counts = [cut] if k == 1 else _np.bincount(bid[:cut], minlength=k).tolist()
            if k == 1:
                kernel_input = plan.kernel_input(offset, cut)
                shares = None
            else:
                # Each burst's consumed items, by merged position.
                shares = [bid[:cut] == j for j in range(k)]
                local = _np.empty(cut, dtype=_np.int64)
                kid_parts, val_parts, len_parts = [], [], []
                mass = 0
                base = 0
                for (p, o), c, share in zip(bursts, counts, shares):
                    if c:
                        kids_j, vals_j, mass_j, _c, _bounds = p.kernel_input(o, c)
                        kid_parts.append(kids_j)
                        val_parts.append(vals_j)
                        len_parts.append(p.npairs[o : o + c])
                        mass += mass_j
                        local[share] = _np.arange(base, base + c, dtype=_np.int64)
                        base += c
                lens = _np.concatenate(len_parts)
                starts = _np.cumsum(lens) - lens
                kids, vals, bounds = _gather_pairs(
                    _np.concatenate(kid_parts),
                    _np.concatenate(val_parts),
                    starts[local],
                    lens[local],
                )
                kernel_input = (kids, vals, mass, cut, bounds)
            result = engine._vector_apply(state, *kernel_input)
            if result is None:
                # int64 overflow guard tripped: the head item goes through the
                # per-packet path, which is exact for any mass, and the rest
                # stays queued where it was.
                burst_sink(plan, offset)
                return 1
            nbytes_total = 0
            for (p, o), c in zip(bursts, counts):
                if c:
                    nbytes_total += p.nbytes_cum[o + c] - p.nbytes_cum[o]
                    nxt = p.next = o + c
                    if nxt < len(p.items):
                        scheduler.push_entry(
                            (p.times[nxt], p.seq0 + nxt, burst_sink, (p, nxt))
                        )
            counters.packets_in += cut
            counters.bytes_in += nbytes_total
            parser.bytes_parsed += nbytes_total
            daiet_tbl.hit_count += cut
            # What each item emits, by merged position: spillover flushes,
            # then its ACK.
            emitted: dict[int, list[tuple[int, Any]]] = {}
            for pkt_i, port, out in result:
                emitted.setdefault(pkt_i, []).append((port, out))
            for j, (p, o) in enumerate(bursts):
                acks = engine._accept_run(state, p.window, p.items[o : o + counts[j]])
                if acks:
                    at = range(cut) if k == 1 else _np.flatnonzero(shares[j]).tolist()
                    for i, port, ack in acks:
                        emitted.setdefault(at[i], []).append((port, ack))
            # An item that emits transmits at its own queue position, as the
            # batch's last item does (so the clock ends where a per-packet
            # schedule leaves it); that item's event is counted there. A
            # collected burst's entry already sits at its first item's
            # position.
            emitted.setdefault(cut - 1, [])
            waiting = 0
            for j in range(1, k):
                if counts[j]:
                    first = int(_np.argmax(shares[j]))
                    bursts[j][0].deferred[bursts[j][1]] = emitted.pop(first, [])
                    waiting += 1
            for pkt_i, emissions in emitted.items():
                if k == 1:
                    p, i = plan, offset + pkt_i
                else:
                    j = int(bid[pkt_i])
                    p, i = bursts[j][0], int(seqs_m[pkt_i]) - bursts[j][0].seq0
                p.deferred[i] = emissions
                scheduler.push_entry((p.times[i], p.seq0 + i, burst_sink, (p, i)))
            return cut - waiting - len(emitted)

        return burst_sink, handler

    # ------------------------------------------------------------------ #
    # Control plane
    # ------------------------------------------------------------------ #
    def install_routes(self) -> int:
        """Compute shortest-path routes and populate every forwarding table.

        A forwarding table too small for its switch's planned entries (its
        attached hosts, the multi-homed hosts and the remote racks) fails
        here, before a route is computed or a switch programmed.
        """
        planned = planned_forwarding_entries(self.topology)
        for switch in self.topology.switches():
            table = switch.forwarding_table
            needed = planned[switch.name]
            if needed > table.max_entries:
                raise TableError(
                    f"switch {switch.name!r}: table {table.name!r} holds at most "
                    f"{table.max_entries} entries but routing needs {needed}"
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
        self.scheduler.push_at(
            self.scheduler.now + delay,
            self._transmit_entry,
            (src_host, 0, packet, nbytes),
        )

    def send_burst(self, src_host: str, packets: Iterable[Any], delay: float = 0.0) -> int:
        """Inject a window of packets from one host as a single wire event.

        Semantically identical to calling :meth:`send` once per packet — the
        packets hit the wire in order at the same simulated time, with
        identical loss draws, link serialization and statistics — but the
        whole window costs one scheduler entry instead of N. Senders with
        bursty windows (map-output packetization, retransmission rounds)
        use this to keep the event queue proportional to in-flight traffic
        rather than to send-call volume.

        ``packets`` is a :class:`~repro.core.packet.PacketWindow` (what the
        packetizer returns) or any iterable of packets. A window is sized by
        its own arithmetic and gets the burst plan of the delivery fast
        path, computed here, at send time, with no per-packet walk; its
        packets are built only where a per-packet consumer needs one. A
        plain list (datagrams, retransmissions) gets no plan.

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
        plan = None
        if isinstance(packets, PacketWindow):
            sizes = packets.sizes
            if self._fast_burst and len(sizes) > 1:
                plan = _plan_burst(packets)
        else:
            packets = list(packets)
            sizes = [packet_wire_bytes(packet) for packet in packets]
        if not sizes:
            return 0
        # The window is accounted once (integer counters, so exactly what
        # per-packet accounting would add up to).
        device.counters.packets_sent += len(sizes)
        device.counters.bytes_sent += sum(sizes)
        self.scheduler.push_at(
            self.scheduler.now + delay,
            self._transmit_burst,
            (src_host, 0, packets, sizes, plan, len(sizes) - 1),
        )
        return len(sizes)

    def _transmit_window(self, from_device: str, egress_port: int, window: PacketWindow) -> None:
        """Put a switch's flush window on its egress link, planned if a switch takes it."""
        plan = None
        if self._fast_burst:
            info = self._port_info[from_device].get(egress_port)
            if info is not None and info[7] is not None:
                plan = _plan_burst(window)
        self._transmit_burst(from_device, egress_port, window, window.sizes, plan)

    def _transmit_burst(
        self,
        from_device: str,
        egress_port: int,
        packets: Any,
        sizes: list[int],
        plan: _BurstPlan | None = None,
        carried: int = 0,
    ) -> None:
        """Put a whole window of packets on one link (a host's or a switch's), in order.

        ``carried`` counts the extra logical events the call stands for: a
        host's burst entry replaces one ``_transmit`` event per packet.

        A window with a burst plan, into a switch that still has its burst
        sink (no observer is watching individual transmissions, see
        ``_build_port_maps``), becomes ONE queue entry: arrival times come
        from the same busy-chain arithmetic ``_transmit`` performs, the loss
        decisions are drawn back to back exactly as its per-packet loop draws
        them (nothing else runs inside this callback), each lost item is
        charged its serialization and dropped from the plan, and the
        survivors consume the sequence-number range their per-packet pushes
        would have, so global event order is bit-identical to a per-packet
        schedule; the burst handler re-expands any tail that foreign events
        interleave. On a switch egress it applies ``_transmit``'s congestion
        model per item: a tail drop leaves the plan as a loss does, and a CE
        mark builds and marks the packet, which ``_fresh_run`` then refuses.
        Every other window goes through the per-packet transmit.
        """
        n = len(sizes)
        self._synthetic_events += carried
        info = self._port_info[from_device].get(egress_port)
        if plan is not None and info is not None and info[7] is not None:
            link, link_name, _callback, target, other_port, traffic, busy_key, burst_sink = info
            busy = self._link_busy_until
            scheduler = self.scheduler
            now = scheduler.now
            busy_end = busy.get(busy_key, 0.0)
            if now > busy_end:
                busy_end = now
            bandwidth = link.bandwidth_bps
            propagation = link.propagation_s
            loss_rate = link.loss_rate
            draw = self._loss_rng.random
            congested = self._congestion_enabled and from_device in self._switch_names
            limit = self._switch_buffer
            threshold = self._ecn_threshold
            times: list[float] = []
            lost: list[int] = []
            tail_dropped = tail_dropped_bytes = 0
            for i, nbytes in enumerate(sizes):
                if congested and busy_end > now:
                    backlog_bytes = (busy_end - now) * bandwidth
                    if limit is not None and backlog_bytes > limit:
                        lost.append(i)
                        tail_dropped += 1
                        tail_dropped_bytes += nbytes
                        self._drop("queue", link_name, packets[i])
                        continue
                    if threshold is not None and backlog_bytes > threshold:
                        packet = packets[i]
                        if packet.ecn is False:
                            self._mark(link_name, packet)
                busy_end = busy_end + nbytes / bandwidth
                if loss_rate > 0.0 and draw() < loss_rate:
                    lost.append(i)
                    self._drop("loss", link_name, packets[i])
                else:
                    times.append(busy_end + propagation)
            traffic.packets += n - tail_dropped
            traffic.bytes += plan.nbytes_cum[n] - tail_dropped_bytes
            busy[busy_key] = busy_end
            if times:
                if lost:
                    plan.drop(lost)
                plan.times = times
                plan.seq0 = seq = scheduler.reserve_seqs(len(times))
                plan.target = target
                plan.ingress = other_port
                scheduler.push_entry((times[0], seq, burst_sink, (plan, 0)))
            return
        transmit = self._transmit_entry
        for i, nbytes in enumerate(sizes):
            transmit(from_device, egress_port, packets[i], nbytes)

    def _observed_transmit(
        self, from_device: str, egress_port: int, packet: Any, nbytes: int
    ) -> None:
        """The transmit entry while observers are attached.

        A transmission by anything but a switch is a host handing the packet
        to its NIC, the ``on_send`` notice. A veto naming where the packet
        dies makes it a ``fault`` drop; otherwise ``_transmit`` runs and
        reports what became of the packet through ``_drop`` / ``_mark``.
        """
        hooks = self._hooks
        if from_device not in self._switch_names:
            for on_send in hooks["on_send"]:
                on_send(packet)
        for veto in hooks["veto_transmit"]:
            where = veto(from_device, self._port_links[from_device].get(egress_port))
            if where is not None:
                self._drop("fault", where, packet)
                return
        self._transmit(from_device, egress_port, packet, nbytes)

    def _drop(self, reason: str, where: str, packet: Any) -> None:
        """Count a packet that leaves the network at ``where``, and tell why.

        Every way a packet can die reports here: ``loss`` (the link's loss
        draw), ``queue`` (a full switch egress buffer), ``unconnected`` (no
        link on the egress port) and ``fault`` (a crashed device or downed
        link, see ``veto_transmit`` / ``veto_deliver``).
        """
        self._drop_recorders[reason](where)
        for on_drop in self._hooks["on_drop"]:
            on_drop(reason, where, packet)

    def _mark(self, link_name: str, packet: Any) -> None:
        """Set the CE bit of ``packet`` on the congested ``link_name``."""
        object.__setattr__(packet, "ecn", True)
        self.stats.record_ecn_mark(link_name)
        for on_mark in self._hooks["on_mark"]:
            on_mark(link_name, packet)

    def notify_wipe(self, device: SwitchDevice) -> None:
        """Tell observers ``device`` is about to lose its volatile state.

        Called by whoever clears it (the fault injector on a switch crash),
        *before* clearing, so ``on_wipe`` hooks can still read the registers.
        """
        for on_wipe in self._hooks["on_wipe"]:
            on_wipe(device)

    def _transmit(self, from_device: str, egress_port: int, packet: Any, nbytes: int) -> None:
        """Put a packet on the link attached to ``(from_device, egress_port)``."""
        info = self._port_info[from_device].get(egress_port)
        if info is None:
            self._drop("unconnected", from_device, packet)
            return
        link, link_name, callback, target, other_port, traffic, busy_key, _burst = info
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
                    self._drop("queue", link_name, packet)
                    return
                threshold = self._ecn_threshold
                if (
                    threshold is not None
                    and backlog_bytes > threshold
                    and getattr(packet, "ecn", None) is False
                ):
                    self._mark(link_name, packet)
        traffic.packets += 1
        traffic.bytes += nbytes
        # Serialize transmissions per link direction (FIFO): a packet starts
        # transmitting only once the previous one has left the NIC. The busy
        # time is charged before the loss draw: a packet dropped in flight
        # still occupied the sender's NIC and the link for its serialization
        # time, so losses contribute to congestion like any other packet.
        busy = self._link_busy_until
        scheduler = self.scheduler
        now = scheduler.now
        start = busy.get(busy_key, 0.0)
        if now > start:
            start = now
        serialization = nbytes / link.bandwidth_bps
        busy[busy_key] = start + serialization
        if link.loss_rate > 0.0 and self._loss_rng.random() < link.loss_rate:
            # The packet is lost in flight: it never reaches the other end.
            self._drop("loss", link_name, packet)
            return
        scheduler.push_at(
            start + serialization + link.propagation_s,
            callback,
            (target, other_port, packet, nbytes),
        )

    def _deliver(self, device_name: str, ingress_port: int, packet: Any, nbytes: int) -> None:
        """Delivery while observers are attached, through the observer hooks.

        Calls the same ``deliver`` a compiled sink calls. A packet reaching a
        device a ``veto_deliver`` hook reports down dies there as a ``fault``
        drop; the device never sees it, so it does not count it.
        """
        hooks = self._hooks
        for is_down in hooks["veto_deliver"]:
            if is_down(device_name):
                self._drop("fault", device_name, packet)
                return
        device = self._devices[device_name]
        if isinstance(device, Host):
            device.deliver(packet, nbytes)
            for on_deliver in hooks["on_deliver"]:
                on_deliver(packet)
            return
        outputs = packets_of(device.deliver(packet, ingress_port, nbytes))
        for on_switch in hooks["on_switch"]:
            on_switch(packet, outputs)
        transmit = self._transmit_entry
        for egress_port, out_packet in outputs:
            transmit(device_name, egress_port, out_packet, packet_wire_bytes(out_packet))

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
        executed = self.scheduler.run(until=until, max_events=MAX_EVENTS)
        extra = self._synthetic_events
        if extra:
            self._synthetic_events = 0
            executed += extra
        return executed

    # ------------------------------------------------------------------ #
    # Timer hooks (used by the end-host reliability layer)
    # ------------------------------------------------------------------ #
    def timer(self, callback: Any) -> Timer:
        """A restartable one-shot :class:`Timer` on this simulation's clock."""
        return Timer(self.scheduler, callback)

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self.scheduler.now

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
