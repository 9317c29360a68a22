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
from dataclasses import dataclass
from itertools import accumulate
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

_DAIET_DATA = DaietPacketType.DATA

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
    """Send-time precomputation for one burst's delivery fast path.

    Built by :meth:`NetworkSimulator.send_burst` so that the burst delivery
    handler can batch a whole window of DAIET DATA packets without touching
    the packet objects: per-item eligibility, the window's interned-key/value
    arrays (views of the sender's partition columns where the window is one
    run of them), per-packet pair extents and exact cumulative mass/byte
    ledgers are all ready-made. The
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

    def kernel_input(self, offset: int, count: int) -> tuple[Any, Any, int, int, Any]:
        """``_vector_apply``'s arguments for items ``offset .. offset + count``.

        ``(kids, vals, mass, count, bounds)``; every item in the range must
        be shape-eligible, so their pairs are one slice of the plan's arrays.
        """
        end = offset + count
        bounds = _np.cumsum(self.npairs[offset:end])
        lo = self.pair_start[offset]
        hi = lo + bounds[-1]
        mass = self.mass_cum[end] - self.mass_cum[offset]
        return self.kids[lo:hi], self.vals[lo:hi], mass, count, bounds


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


def _plan_burst(items: list[tuple[Any, int]]) -> _BurstPlan | None:
    """Precompute a :class:`_BurstPlan` for ``items``, or ``None``.

    An item is *shape-eligible* when it is an unsequenced DAIET DATA packet
    of the burst's (single) tree whose pairs have columns
    (``DaietPacket.vector_columns``). The plan's pair arrays are stitched
    from those columns run by run; a window that is one contiguous run of
    one partition, which is what a mapper sends, takes them as views. The
    switch-specific budget checks are applied once per burst by the burst
    handler via the precomputed ``max_nbytes``/``max_cost``. Items of a
    different tree are simply marked ineligible (they replay through the
    per-packet sink), so a mixed burst still fast-paths its majority tree.
    ``None`` means no item is eligible (or numpy is missing).
    """
    n = len(items)
    if _np is None:
        return None
    npairs = [0] * n
    masses = [0] * n
    #: Maximal runs of consecutive packets of one partition:
    #: ``[columns, first pair, one past the last pair]``.
    runs: list[list[Any]] = []
    tree_id = -1
    for i, (packet, _nbytes) in enumerate(items):
        if (
            type(packet) is DaietPacket
            and packet.seq is None
            and packet.packet_type is _DAIET_DATA
            and (tree_id < 0 or packet.tree_id == tree_id)
            and (view := packet.vector_columns()) is not None
        ):
            tree_id = packet.tree_id
            columns, at = view
            npairs[i] = count = len(packet.pairs)
            lo = at * columns.per
            if runs and runs[-1][0] is columns and runs[-1][2] == lo:
                runs[-1][2] = lo + count
            else:
                runs.append([columns, lo, lo + count])
            ledger = columns.mass_cum
            masses[i] = ledger[at + 1] - ledger[at]
    if not runs:
        return None
    plan = _BurstPlan()
    plan.packets = [packet for packet, _nbytes in items]
    plan.nbytes = [nbytes for _packet, nbytes in items]
    plan.npairs = _np.array(npairs, dtype=_np.int64)
    # An eligible packet carries at least one pair, and the pairs of the
    # eligible packets sit in the plan's arrays back to back.
    plan.shape_ok = plan.npairs > 0
    plan.pair_start = _np.cumsum(plan.npairs) - plan.npairs
    plan.tree_id = tree_id
    plan.max_nbytes = int(_np.array(plan.nbytes)[plan.shape_ok].max())
    plan.max_cost = 3 + int(plan.npairs.max())
    kid_parts = [columns.kids[lo:hi] for columns, lo, hi in runs]
    val_parts = [columns.vals[lo:hi] for columns, lo, hi in runs]
    plan.kids = kid_parts[0] if len(runs) == 1 else _np.concatenate(kid_parts)
    plan.vals = val_parts[0] if len(runs) == 1 else _np.concatenate(val_parts)
    plan.mass_cum = list(accumulate(masses, initial=0))
    plan.nbytes_cum = list(accumulate(plan.nbytes, initial=0))
    plan.times = None
    plan.seq0 = -1
    plan.target = None
    plan.ingress = -1
    return plan


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
                        bsink = self._compile_burst_sink(callback)
                        burst_sinks[other.device] = bsink
                        batch_handlers[bsink] = self._compile_switch_burst(
                            device, callback, bsink
                        )
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
        self.scheduler.set_batch_handlers(batch_handlers)

    def _compile_host_sink(self, host: Host) -> Any:
        """A delivery closure for one host (which counts what it receives)."""
        deliver = host.deliver

        def sink(_target: Any, _ingress_port: int, packet: Any, nbytes: int) -> None:
            deliver(packet, nbytes)

        return sink

    def _compile_switch_sink(self, device: SwitchDevice) -> Any:
        """A delivery closure for one switch: deliver + re-transmit."""
        name = device.name
        deliver = device.deliver
        transmit = self._transmit

        def sink(_target: Any, ingress_port: int, packet: Any, nbytes: int) -> None:
            outputs = deliver(packet, ingress_port, nbytes)
            if outputs:
                for egress_port, out_packet in outputs:
                    transmit(
                        name, egress_port, out_packet, packet_wire_bytes(out_packet)
                    )

        return sink

    def _compile_burst_sink(self, sink: Any) -> Any:
        """The callback of a burst entry: one item through the per-packet sink.

        Delivers the entry's head item and re-enqueues the rest of the window
        at its own ``(time, seq)``, so foreign events interleave exactly as
        they would against a per-packet schedule. The burst handler
        (``_compile_switch_burst`` below) calls it for items the kernel
        cannot take; the scheduler calls it directly when the handler
        registry was rebuilt while burst entries were queued.
        """
        scheduler = self.scheduler

        def burst_sink(plan: _BurstPlan, offset: int) -> None:
            sink(plan.target, plan.ingress, plan.packets[offset], plan.nbytes[offset])
            nxt = offset + 1
            if nxt < len(plan.packets):
                scheduler.push_entry(
                    (plan.times[nxt], plan.seq0 + nxt, burst_sink, (plan, nxt))
                )

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

        def within_budgets(plan: _BurstPlan) -> bool:
            return (
                plan.max_nbytes <= max_parse
                and plan.max_cost <= max_ops
                and 0 <= plan.ingress < num_ports
            )

        def handler(
            time: float, args: tuple, until: float | None, budget: int | None
        ) -> int:
            plan, offset = args
            resolved = resolve(plan.tree_id) if plan.shape_ok[offset] else None
            if resolved is None or not within_budgets(plan):
                # Head item is not kernel-eligible: per-packet delivery.
                burst_sink(plan, offset)
                return 1
            engine, state = resolved
            tree_id = plan.tree_id
            bursts: list[tuple[_BurstPlan, int]] = [(plan, offset)]
            while True:
                cutoff = scheduler.peek_entry()  # first entry NOT collected
                if (
                    cutoff is None
                    or cutoff[2] is not burst_sink
                    or (until is not None and cutoff[0] > until)
                ):
                    break
                p2, o2 = cutoff[3]
                if p2.tree_id != tree_id or not within_budgets(p2):
                    break
                scheduler.pop_entry()
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
                burst_sink(plan, offset)
                return 1
            if k == 1:
                counts = [cut]
                kernel_input = p0.kernel_input(o0, cut)
            else:
                sel = perm[:cut]
                counts = _np.bincount(bid[sel], minlength=k).tolist()
                base = 0
                starts_parts = []
                for p, o in bursts:
                    starts_parts.append(p.pair_start[o:] + base)
                    base += len(p.kids)
                kids, vals, bounds = _gather_pairs(
                    _np.concatenate([p.kids for p, _o in bursts]),
                    _np.concatenate([p.vals for p, _o in bursts]),
                    _np.concatenate(starts_parts)[sel],
                    _np.concatenate([p.npairs[o:] for p, o in bursts])[sel],
                )
                mass = 0
                for (p, o), c in zip(bursts, counts):
                    mass += p.mass_cum[o + c] - p.mass_cum[o]
                kernel_input = (kids, vals, mass, cut, bounds)
            result = engine._vector_apply(state, *kernel_input)
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
                    scheduler.push_entry(
                        (p.times[nxt], p.seq0 + nxt, burst_sink, (p, nxt))
                    )
            scheduler.now = times_m[cut - 1].item()
            return cut

        return handler

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
        items = [(packet, packet_wire_bytes(packet)) for packet in packets]
        if not items:
            return 0
        # The window is accounted once (integer counters, so exactly what
        # per-packet accounting would add up to).
        total = sum(nbytes for _packet, nbytes in items)
        device.counters.packets_sent += len(items)
        device.counters.bytes_sent += total
        # The burst plan is computed here, at send time, so the delivery
        # fast path pays nothing per packet.
        plan = _plan_burst(items) if self._fast_burst and len(items) > 1 else None
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

        A window with a burst plan, on a lossless uplink into a switch that
        still has its burst sink (no observer is watching individual
        transmissions, see ``_build_port_maps``), becomes ONE queue entry:
        arrival times come from the same busy-chain arithmetic ``_transmit``
        performs and the window consumes the same sequence-number range, so
        global event order is bit-identical to a per-packet schedule; the
        burst handler re-expands any tail that foreign events interleave.
        Hosts are never congestion-modelled, so that branch of ``_transmit``
        is statically dead here. Every other window goes through
        ``_transmit`` packet by packet.
        """
        n = len(items)
        if plan is not None:
            (
                link,
                _link_name,
                _callback,
                target,
                other_port,
                traffic,
                busy_key,
                burst_sink,
            ) = self._port_info[src_host][0]
            if burst_sink is not None and link.loss_rate == 0.0:
                traffic.packets += n
                traffic.bytes += plan.nbytes_cum[n]
                busy = self._link_busy_until
                scheduler = self.scheduler
                now = scheduler.now
                busy_end = busy.get(busy_key, 0.0)
                if now > busy_end:
                    busy_end = now
                bandwidth = link.bandwidth_bps
                propagation = link.propagation_s
                times: list[float] = []
                for nbytes in plan.nbytes:
                    busy_end = busy_end + nbytes / bandwidth
                    times.append(busy_end + propagation)
                busy[busy_key] = busy_end
                plan.times = times
                plan.seq0 = seq = scheduler.reserve_seqs(n)
                plan.target = target
                plan.ingress = other_port
                scheduler.push_entry((times[0], seq, burst_sink, (plan, 0)))
                self._synthetic_events += n - 1
                return
        transmit = self._transmit_entry
        for packet, nbytes in items:
            transmit(src_host, 0, packet, nbytes)
        self._synthetic_events += n - 1

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
        outputs = device.deliver(packet, ingress_port, nbytes)
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
