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
delivery itself, then the notices of what became of the packet. The hooks
are compiled into the sinks and transmits when the port maps are built, so
attaching an observer changes which hooks they call, not which code a
packet or a window runs; with none attached they are the plain closures.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any, Iterable

import numpy as _np

from repro.checks.registry import fastpath
from repro.core.errors import SimulationError, TableError, TopologyError
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


@dataclass(slots=True, eq=False)
class _Burst:
    """One window in flight to a switch's burst handler, as ONE queue entry.

    ``plan`` (``PacketWindow.burst_plan()``) is opaque here; the wire adds
    the surviving items' arrival ``times`` (a float array: a time enters a
    queue entry as a Python float, ``.item()``), the ``seq0`` base of their
    reserved sequence numbers and the ``ingress`` port. Items before
    ``next`` are delivered; ``deferred`` holds what a batch made such an
    item emit until the queue reaches the item's own position.
    """

    plan: Any
    times: Any
    seq0: int
    ingress: int
    next: int = 0
    deferred: dict[int, Any] = field(default_factory=dict)


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
        #: callback, neighbour port, the link's traffic record, busy key,
        #: burst delivery callback or ``None``). Everything static about a
        #: hop — including which specialized delivery routine the far end
        #: needs — is resolved once here instead of on every transmission.
        self._port_info: dict[
            str,
            dict[int, tuple[Link, str, Any, int, LinkTraffic, tuple[str, str], Any]],
        ] = {}
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
        #: The same model for a window: per switch, the backlog in bytes
        #: above which an item is tail-dropped, and above which it is marked.
        limits = tuple(
            _np.inf if bound is None else bound
            for bound in (self._switch_buffer, self._ecn_threshold)
        )
        self._egress_limits = dict.fromkeys(
            self._switch_names if self._congestion_enabled else (), limits
        )
        #: Extra logical events carried by burst transmissions: a burst of N
        #: packets is ONE scheduler event, and the N-1 events it saves are
        #: counted here, so ``run()`` returns a per-packet schedule's count.
        self._synthetic_events = 0
        #: Per hook name, the attached observers' bound hooks (see
        #: :meth:`add_observer`).
        self._hooks: dict[str, list[Any]] = {name: [] for name in OBSERVER_HOOKS}
        stats = self.stats
        self._drop_recorders = {
            "loss": stats.record_loss,
            "queue": stats.record_queue_drop,
            "unconnected": stats.record_drop,
            "fault": stats.record_fault_drop,
        }
        #: Each switch's burst sink -> its entry callback for a packet it
        #: steers, which has the switch's packet batch handler; and packet
        #: type -> whether switches steer packets of it
        #: (``SwitchDevice.steers``). ``_transmit`` picks the entry callback
        #: with one lookup by type.
        self._lone_sinks: dict[Any, Any] = {}
        self._steered: dict[type, bool] = {}
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
        from repro.checks.sanitize import install_sanitizer, sanitize_enabled_in_env

        sanitize = self.config.sanitize
        if sanitize or (sanitize is None and sanitize_enabled_in_env()):
            install_sanitizer(self)

    def add_observer(self, observer: Any) -> None:
        """Attach ``observer``: each :data:`OBSERVER_HOOKS` method it defines.

        Attach before injecting traffic: events already queued keep the
        callbacks they were scheduled with.
        """
        for name, hooks in self._hooks.items():
            hook = getattr(observer, name, None)
            if hook is not None:
                hooks.append(hook)
        self._build_port_maps()

    def _build_port_maps(self) -> None:
        for name in self.topology.devices:
            self._port_links[name] = {}
            self._port_info[name] = {}
        # Observers bind here: each hook one defines is compiled into the
        # sinks, the batch handlers and the transmit that need it (a window
        # asks ``_vetoed``).
        transmit = self._gated_transmit = self._compile_transmit()
        link_traffic = self.stats.link_traffic
        batch_handlers: dict[Any, Any] = {}
        # One compiled sink per receiving device (not per link end): the
        # burst handler collects consecutive queue entries by burst-sink
        # identity, so all links into one switch must share its sinks.
        sinks: dict[str, Any] = {}
        burst_sinks: dict[str, Any] = {}
        lone_sinks = self._lone_sinks
        lone_sinks.clear()
        #: The callbacks a burst handler may batch past (see
        #: ``_compile_switch_burst``): every compiled delivery (its own
        #: excepted), every host transmission and every switch's emissions.
        transparent: set[Any] = {transmit, self._transmit_burst}
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
                callback = sinks.get(other.device)
                if callback is None:
                    if isinstance(device, Host):
                        callback = self._compile_host_sink(device)
                    else:
                        callback = self._compile_switch_sink(device, transmit)
                        bsink, handler, lone, lone_handler = self._compile_switch_burst(
                            device, callback, transmit, transparent
                        )
                        batch_handlers[bsink] = handler
                        batch_handlers[lone] = lone_handler
                        lone_sinks[bsink] = lone
                        burst_sinks[other.device] = bsink
                    sinks[other.device] = callback
                self._port_info[end.device][end.port] = (
                    link,
                    link.name,
                    callback,
                    other.port,
                    traffic,
                    (link.name, end.device),
                    burst_sinks.get(other.device),
                )
        transparent.update(sinks.values(), burst_sinks.values(), lone_sinks.values())
        self.scheduler.set_batch_handlers(batch_handlers)

    def _compile_transmit(self) -> Any:
        """The per-packet transmit the sinks and :meth:`send` bind:
        ``_transmit`` itself, or behind :meth:`_vetoed` when an observer
        defines ``on_send`` or ``veto_transmit``."""
        transmit = self._transmit
        if not (self._hooks["on_send"] or self._hooks["veto_transmit"]):
            return transmit
        vetoed = self._vetoed

        def gated(from_device: str, egress_port: int, packet: Any, nbytes: int) -> None:
            if not vetoed(from_device, egress_port, (packet,)):
                transmit(from_device, egress_port, packet, nbytes)

        return gated

    def _vetoed(self, from_device: str, egress_port: int, packets: Any) -> bool:
        """Whether the observers stop ``packets`` leaving ``from_device``.

        A host's packets are first told to the ``on_send`` notices: a window
        once, a list packet by packet. A ``veto_transmit`` hook naming where
        they die makes each a ``fault`` drop, in order, and no loss is drawn
        for them.
        """
        hooks = self._hooks
        if hooks["on_send"] and from_device not in self._switch_names:
            for packet in (packets,) if hasattr(packets, "sizes") else packets:
                for on_send in hooks["on_send"]:
                    on_send(packet)
        link = self._port_links[from_device].get(egress_port)
        for veto in hooks["veto_transmit"]:
            where = veto(from_device, link)
            if where is not None:
                for packet in packets:
                    self._drop("fault", where, packet)
                return True
        return False

    def _gated_sink(self, name: str, sink: Any) -> Any:
        """``sink`` behind the ``veto_deliver`` hooks when any is attached: a
        packet reaching a device a veto reports down dies there as a
        ``fault`` drop, and the device never sees (or counts) it."""
        vetoes = tuple(self._hooks["veto_deliver"])
        if not vetoes:
            return sink
        drop = self._drop

        def gated(ingress_port: int, packet: Any, nbytes: int) -> None:
            for is_down in vetoes:
                if is_down(name):
                    drop("fault", name, packet)
                    return
            sink(ingress_port, packet, nbytes)

        return gated

    def _compile_host_sink(self, host: Host) -> Any:
        """A delivery closure for one host (which counts what it receives)."""
        deliver = host.deliver
        notices = tuple(self._hooks["on_deliver"])

        def sink(_ingress_port: int, packet: Any, nbytes: int) -> None:
            deliver(packet, nbytes)

        def noticed(_ingress_port: int, packet: Any, nbytes: int) -> None:
            deliver(packet, nbytes)
            for on_deliver in notices:
                on_deliver(packet)

        return self._gated_sink(host.name, noticed if notices else sink)

    def _compile_switch_sink(self, device: SwitchDevice, transmit: Any) -> Any:
        """A delivery closure for one switch: deliver + re-transmit.

        Forwarded traffic shares it, so only an output without ``wire_bytes()``
        (a flush window, a packet sized by ``length``) is asked what it is.
        Each pass is told to the ``on_switch`` notices with its outputs as
        they leave (a flush window as one output).
        """
        name = device.name
        deliver = device.deliver
        transmit_window = self._transmit_window
        notices = tuple(self._hooks["on_switch"])
        if notices:
            passes = deliver

            def deliver(packet: Any, ingress_port: int, nbytes: int) -> Any:
                outputs = passes(packet, ingress_port, nbytes)
                for on_switch in notices:
                    on_switch(packet, outputs)
                return outputs

        def sink(ingress_port: int, packet: Any, nbytes: int) -> None:
            outputs = deliver(packet, ingress_port, nbytes)
            if outputs:
                for egress_port, out_packet in outputs:
                    try:
                        size = out_packet.wire_bytes()
                    except AttributeError:
                        if hasattr(out_packet, "sizes"):
                            transmit_window(name, egress_port, out_packet)
                            continue
                        size = packet_wire_bytes(out_packet)
                    transmit(name, egress_port, out_packet, size)

        return self._gated_sink(name, sink)

    @fastpath("switch-burst-delivery", oracle="tests/netsim/test_batch_delivery.py")
    def _compile_switch_burst(
        self, device: SwitchDevice, sink: Any, transmit: Any, transparent: set
    ) -> tuple[Any, Any, Any, Any]:
        """The burst-entry and lone-entry callbacks of one switch, each with
        its batch handler.

        A burst entry (a :class:`_Burst`) stands for a whole window, a
        host's partition or a child switch's flush alike. The callback
        (``burst_sink``) takes one item at its own queue position: an item a
        batch already delivered (before ``burst.next``) only transmits what
        it emitted; otherwise the item goes through the per-packet sink and
        the rest of the window is re-enqueued at its own ``(time, seq)``, so
        foreign events interleave exactly as against a per-packet schedule.
        A packet the switch steers (``SwitchDevice.steers``) that arrives
        alone (a spillover flush, a one-packet flush, a resend, an ACK) is a
        ``lone_sink`` entry, with a handler of its own (``lone_handler``),
        so a batch may start at either; ``_transmit`` picks that callback by
        the packet's type. Any other packet (a datagram, a segment) is a
        plain ``sink`` entry, which no handler sees.

        A batch takes what arrives within one lookahead of the head (the
        shortest propagation delay of the switch's links, and no further
        than ``until``): anything not yet queued for the switch arrives
        later, so the queue already holds every event that could touch it.
        Deliveries to other devices and transmissions (``transparent``)
        never do; any other foreign entry cuts the batch. It asks the switch
        three questions: may the head start a batch
        (``SwitchDevice.start_batch`` for a window's item,
        ``start_packet_batch`` for a lone packet); in ``(time, seq)`` order,
        may each window and each lone packet queued for it join and each
        other packet be passed (the batch's ``join`` / ``join_packet`` /
        ``passes``, the first refusal cuts the batch); and, given the merged
        ``(time, seq)`` candidates up to the cut, how many it took and what
        each emitted (``SwitchDevice.take_batch``). An item's emissions
        leave from an entry at its own ``(time, seq)``, so they and
        everything they cause interleave as in a per-packet schedule: a
        window's item through ``burst.deferred``, a lone packet's entry
        through ``taken``, keyed by its queue key (a window memoises its
        packets, so a resend can be the very object still queued). Within
        reach of the event budget the head goes alone, so a run cut by the
        budget stops between whole per-packet events. A switch a
        ``veto_deliver`` hook reports down starts no batch (the sink drops
        the head); fault events are not ``transparent``, so they cut
        batches. A batch is told to the ``on_switch`` notices once, as the
        number of items taken and every emission (a flush window as one
        output).
        """
        scheduler = self.scheduler
        name = device.name
        vetoes = tuple(self._hooks["veto_deliver"])
        notices = tuple(self._hooks["on_switch"])
        transmit_window = self._transmit_window
        links = self._port_links[name]
        start_batch = device.start_batch
        start_packet_batch = device.start_packet_batch
        take_batch = device.take_batch
        count_emitted = device.count_emitted
        #: ``(time, seq)`` of a lone entry a batch took -> what it emitted,
        #: transmitted when the entry surfaces.
        taken: dict[tuple[float, int], list] = {}

        def emit(emitted: list) -> None:
            if emitted:
                count_emitted(emitted)
                for port, out in emitted:
                    try:
                        size = out.wire_bytes()
                    except AttributeError:
                        transmit_window(name, port, out)
                    else:
                        transmit(name, port, out, size)

        def burst_sink(burst: _Burst, offset: int) -> None:
            if offset < burst.next:
                emit(burst.deferred.pop(offset))
                return
            plan = burst.plan
            sink(burst.ingress, plan[offset], plan.sizes[offset])
            nxt = burst.next = offset + 1
            if nxt < len(plan):
                scheduler.push_entry(
                    (burst.times[nxt].item(), burst.seq0 + nxt, burst_sink, (burst, nxt))
                )

        def handler(
            time: float, seq: int, args: tuple, until: float | None, budget: int | None
        ) -> int:
            head, offset = args
            alone = offset < head.next or (vetoes and any(down(name) for down in vetoes))
            batch = None if alone else start_batch(head.plan, offset, head.ingress)
            if batch is not None:
                events = run_batch(time, batch, [args], [], until, budget)
                if events is not None:
                    return events
            burst_sink(head, offset)
            return 1

        def lone_sink(ingress_port: int, packet: Any, nbytes: int) -> None:
            sink(ingress_port, packet, nbytes)

        def lone_handler(
            time: float, seq: int, args: tuple, until: float | None, budget: int | None
        ) -> int:
            if taken:
                emitted = taken.pop((time, seq), None)
                if emitted is not None:
                    emit(emitted)
                    return 1
            if not (vetoes and any(down(name) for down in vetoes)):
                batch = start_packet_batch(args[1], args[0])
                if batch is not None:
                    events = run_batch(
                        time, batch, [], [(time, seq, lone_sink, args)], until, budget
                    )
                    if events is not None:
                        return events
            lone_sink(*args)
            return 1

        def run_batch(
            time: float,
            batch: Any,
            bursts: list,
            lones: list,
            until: float | None,
            budget: int | None,
        ) -> int | None:
            """Take the batch the head (``bursts[0]`` or ``lones[0]``)
            opened; the events it stands for, or ``None`` when the head must
            go alone."""
            lone_head = not bursts
            limit = time + min(link.propagation_s for link in links.values())
            if until is not None and until < limit:
                limit = until
            # The earliest foreign entry due by the limit that could touch
            # the switch bounds the batch; the switch's own entries are
            # offered to it below.
            cutoff = None
            own = []
            queued = scheduler.entries_through(limit)
            for entry in queued:
                callback = entry[2]
                if callback is burst_sink:
                    if entry[3][1] >= entry[3][0].next:
                        own.append(entry)
                    # else: a delivered item's emissions
                elif callback is lone_sink:
                    if entry[:2] not in taken:
                        own.append(entry)
                    # else: a taken packet's emissions
                elif callback is sink:
                    own.append(entry)
                elif callback not in transparent and (
                    cutoff is None or entry[:2] < cutoff[:2]
                ):
                    cutoff = entry
            join, join_packet, passes = batch.join, batch.join_packet, batch.passes
            own.sort(key=itemgetter(0, 1))
            for entry in own:
                if cutoff is not None and entry[:2] > cutoff[:2]:
                    break
                args = entry[3]
                if entry[2] is burst_sink:
                    burst, at = args
                    if join(burst.plan, at, burst.ingress):
                        bursts.append(args)
                        continue
                elif join_packet(args[1], args[0]):
                    lones.append(entry)
                    continue
                elif passes(args[1]):
                    continue
                cutoff = entry
                break
            stops = [max(o, int(b.times.searchsorted(limit, "right"))) for b, o in bursts]
            # The event budget must not run out inside the batch, where its
            # items are applied but their entries still wait in the queue. It
            # must cover the items, every entry batched past and one more
            # event each of those may schedule within the lookahead; short of
            # that, the head goes alone.
            items = sum(stops) - sum(o for _b, o in bursts) + len(lones)
            if budget is not None and budget < 2 * (len(queued) + items):
                return None
            # Merge the members' candidate items by (time, seq): each
            # window's next items, then the lone packets. Each window's
            # internal order is already sorted, so the stable lexsort keeps it
            # and every window's share is a prefix of its remaining items.
            spans = [(b, o, e) for (b, o), e in zip(bursts, stops)]
            times_m = _np.concatenate(
                [b.times[o:e] for b, o, e in spans]
                + [_np.array([entry[0] for entry in lones])]
            )
            seqs_m = _np.concatenate(
                [_np.arange(b.seq0 + o, b.seq0 + e) for b, o, e in spans]
                + [_np.array([entry[1] for entry in lones], dtype=_np.int64)]
            )
            nwin = len(spans)
            bid = _np.repeat(
                _np.arange(nwin + len(lones)), [e - o for _b, o, e in spans] + [1] * len(lones)
            )
            perm = _np.lexsort((seqs_m, times_m))
            times_m, seqs_m, bid = times_m[perm], seqs_m[perm], bid[perm]
            if cutoff is not None:
                ct, cs = cutoff[:2]
                bid = bid[: _np.count_nonzero((times_m < ct) | ((times_m == ct) & (seqs_m < cs)))]
            counts, emitted = take_batch(batch, bid)
            cut = sum(counts)
            if notices:
                outputs = [out for emissions in emitted.values() for out in emissions]
                for on_switch in notices:
                    on_switch(cut, outputs)
            for (b, o), c in zip(bursts, counts):
                if c:
                    nxt = b.next = o + c
                    if nxt < len(b.plan):
                        scheduler.push_entry(
                            (b.times[nxt].item(), b.seq0 + nxt, burst_sink, (b, nxt))
                        )
            # An item that emits transmits at its own queue position, as the
            # batch's last item does (so the clock ends where a per-packet
            # schedule leaves it); that item's event is counted there. A
            # member other than the head already has an entry at its first
            # item's position.
            emitted.setdefault(cut - 1, [])
            waiting = 0
            for j in range(1 - lone_head, nwin):
                if counts[j]:
                    b, o = bursts[j]
                    b.deferred[o] = emitted.pop(int(_np.argmax(bid == j)), [])
                    waiting += 1
            if len(lones) > lone_head:
                lone_at = _np.flatnonzero(bid >= nwin)
                for at, k in zip(lone_at.tolist(), (bid[lone_at] - nwin).tolist()):
                    if (k or not lone_head) and counts[nwin + k]:
                        taken[lones[k][:2]] = emitted.pop(at, [])
                        waiting += 1
            for at, emissions in emitted.items():
                j = int(bid[at])
                if j < nwin:
                    b = bursts[j][0]
                    i = int(seqs_m[at]) - b.seq0
                    b.deferred[i] = emissions
                    scheduler.push_entry((b.times[i].item(), b.seq0 + i, burst_sink, (b, i)))
                else:  # the lone head
                    entry = lones[j - nwin]
                    taken[entry[:2]] = emissions
                    scheduler.push_entry(entry)
            return cut - waiting - len(emitted)

        return burst_sink, handler, lone_sink, lone_handler

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
    def _sender(self, src_host: str, delay: float, entry: str) -> Host:
        """The host ``src_host``, checked as the source of an injection."""
        device = self.topology.devices.get(src_host)
        if device is None:
            raise TopologyError(f"unknown device {src_host!r}")
        if not isinstance(device, Host):
            raise SimulationError(f"{entry}() source {src_host!r} is not a host")
        if 0 not in self._port_info[src_host]:
            raise TopologyError(f"host {src_host!r} has no uplink")
        if delay < 0:
            raise SimulationError(f"cannot schedule an event in the past (delay={delay})")
        return device

    def send(self, src_host: str, packet: Any, delay: float = 0.0) -> None:
        """Inject a packet from a host NIC into the network."""
        device = self._sender(src_host, delay, "send")
        # The wire size is computed once here and threaded through every hop
        # (``_transmit`` and the compiled sinks) instead of being re-derived
        # at each one.
        nbytes = packet_wire_bytes(packet)
        device.note_sent(packet, nbytes)
        self.scheduler.push_at(
            self.scheduler.now + delay,
            self._gated_transmit,
            (src_host, 0, packet, nbytes),
        )

    def send_burst(self, src_host: str, packets: Iterable[Any], delay: float = 0.0) -> int:
        """Inject a window of packets from one host as a single wire event.

        Semantically identical to calling :meth:`send` once per packet (the
        packets hit the wire in order at the same simulated time, with
        identical loss draws, link serialization and statistics), but the
        whole window costs one scheduler entry instead of N.

        ``packets`` is a :class:`~repro.core.packet.PacketWindow` (what the
        packetizer returns) or any iterable of packets. A window is sized by
        its own arithmetic and gets the burst plan of the delivery fast
        path, computed here, at send time, with no per-packet walk; its
        packets are built only where a per-packet consumer needs one. A
        plain list (datagrams, retransmissions) gets no plan.

        Each burst member still counts as one logical event in the totals
        reported by :meth:`run`. Returns the number of packets injected.
        """
        device = self._sender(src_host, delay, "send_burst")
        plan = None
        sizes = getattr(packets, "sizes", None)
        if sizes is None:
            packets = list(packets)
            sizes = [packet_wire_bytes(packet) for packet in packets]
        elif len(sizes) > 1:
            plan = packets.burst_plan()
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

    def _transmit_window(self, from_device: str, egress_port: int, window: Any) -> None:
        """Put a switch's flush window on its egress link, planned if a switch takes it."""
        info = self._port_info[from_device].get(egress_port)
        plan = None if info is None or info[6] is None else window.burst_plan()
        self._transmit_burst(from_device, egress_port, window, window.sizes, plan)

    def _transmit_burst(
        self,
        from_device: str,
        egress_port: int,
        packets: Any,
        sizes: list[int],
        plan: Any = None,
        carried: int = 0,
    ) -> None:
        """Put a whole window of packets on one link (a host's or a switch's), in order.

        ``carried`` counts the extra logical events the call stands for: a
        host's burst entry replaces one ``_transmit`` event per packet.

        Nothing else runs inside this callback, and a window has one sender,
        one link and one instant: the observers are asked once per window
        (:meth:`_vetoed`), and loss is drawn back to back exactly as the
        per-packet loop draws it. A window with a burst plan, into a switch,
        becomes ONE queue entry, and its link arithmetic is array work that
        gives ``_transmit``'s results bit for bit: arrival times are one
        sequential accumulation from the busy end. On a switch egress the
        congestion model applies per item; the clock stands still and the
        busy end only grows, so a tail drop is the window's suffix, and a CE
        mark builds and marks the packet (the switch then refuses to batch
        it). Loss draws, drops and marks come in item order, a lost item
        leaves the plan, and the survivors consume the sequence-number range
        their per-packet pushes would have, so event order is bit-identical
        to a per-packet schedule; the burst handler re-expands any tail that
        foreign events interleave. Every other window goes through the
        per-packet transmit.
        """
        n = len(sizes)
        self._synthetic_events += carried
        hooks = self._hooks
        if (hooks["on_send"] or hooks["veto_transmit"]) and self._vetoed(
            from_device, egress_port, packets
        ):
            return
        info = self._port_info[from_device].get(egress_port)
        if plan is not None and info is not None and info[6] is not None:
            link, link_name, _callback, other_port, traffic, busy_key, burst_sink = info
            busy = self._link_busy_until
            scheduler = self.scheduler
            now = scheduler.now
            start = busy.get(busy_key, 0.0)
            if now > start:
                start = now
            bandwidth = link.bandwidth_bps
            # chain[i] is the busy end before item i, chain[i + 1] after it.
            chain = _np.empty(n + 1)
            chain[0] = start
            chain[1:] = sizes
            chain[1:] /= bandwidth
            chain = _np.add.accumulate(chain)
            limit, threshold = self._egress_limits.get(from_device, (_np.inf, _np.inf))
            queued = chain[:n] > now
            backlog = (chain[:n] - now) * bandwidth
            over = _np.flatnonzero(queued & (backlog > limit))
            kept = int(over[0]) if len(over) else n
            marked = queued[:kept] & (backlog[:kept] > threshold)
            if link.loss_rate > 0.0:
                draw = self._loss_rng.random
                lost = _np.array([draw() for _ in range(kept)]) < link.loss_rate
            else:
                lost = _np.zeros(kept, dtype=bool)
            for i in _np.flatnonzero(marked | lost).tolist():
                if marked[i]:
                    packet = packets[i]
                    if packet.ecn is False:
                        self._mark(link_name, packet)
                if lost[i]:
                    self._drop("loss", link_name, packets[i])
            for i in range(kept, n):
                self._drop("queue", link_name, packets[i])
            traffic.packets += kept
            traffic.bytes += sum(sizes[:kept])
            busy[busy_key] = chain[kept].item()
            times = chain[1 : kept + 1][~lost] + link.propagation_s
            if len(times):
                if len(times) < n:
                    plan.drop(_np.concatenate((_np.flatnonzero(lost), _np.arange(kept, n))))
                seq = scheduler.reserve_seqs(len(times))
                burst = _Burst(plan, times, seq, other_port)
                scheduler.push_entry((times[0].item(), seq, burst_sink, (burst, 0)))
            return
        transmit = self._transmit
        for i, nbytes in enumerate(sizes):
            transmit(from_device, egress_port, packets[i], nbytes)

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
        link, link_name, callback, other_port, traffic, busy_key, burst = info
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
        if burst is not None:
            # Into a switch: a packet it steers is a lone entry, which its
            # batch handler may take with others.
            steered = self._steered.get(type(packet))
            if steered is None:
                steered = self._steered[type(packet)] = SwitchDevice.steers(packet)
            if steered:
                callback = self._lone_sinks[burst]
        scheduler.push_at(
            start + serialization + link.propagation_s,
            callback,
            (other_port, packet, nbytes),
        )

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def run(self, until: float | None = None) -> int:
        """Run the simulation until the event queue drains (or ``until``).

        Returns the number of logical events executed: scheduler dispatches
        plus the extra injections carried by burst events (see
        :meth:`send_burst`), so event totals are independent of whether a
        sender batched its window. With a sanitizer installed, its checks
        run once the scheduler stops.
        """
        executed = self.scheduler.run(until=until, max_events=MAX_EVENTS)
        executed += self._synthetic_events
        self._synthetic_events = 0
        if self.sanitizer is not None:
            self.sanitizer.check()
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
