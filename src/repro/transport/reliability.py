"""End-host reliability for DAIET aggregation traffic.

The paper ships map output over raw UDP and leans on "lightweight reliability
mechanisms at the end-hosts" to survive loss; this module supplies them for
the reproduction. The protocol is hop-scoped along the aggregation tree,
because in-network aggregation *consumes* packets — a mapper's packet cannot
be acknowledged end-to-end by the reducer when a switch has already folded it
into a register:

* every child-to-parent hop (mapper -> first switch, switch -> switch,
  switch -> reducer) numbers its DATA/END packets with a per-(tree, sender)
  sequence number (:class:`~repro.core.packet.DaietPacket.seq`);
* the parent deduplicates via a :class:`~repro.core.packet.SeenWindow` and
  answers with cumulative+selective :class:`~repro.core.packet.DaietAck`
  packets (every ``ack_window`` packets, plus immediately on duplicates,
  END markers and the arrival that opens a hole or closes one; gaps ride in
  those ACKs' SACK fields);
* host senders keep unacknowledged packets in a retransmit buffer, fill the
  holes an ACK proves, and on a timeout
  (:class:`~repro.netsim.events.Timer`, exponential backoff that ACK
  progress ends) resend two probes, the lowest and the highest
  unacknowledged packet, never the whole window;
* switches have no timers, so their buffered flush packets are retransmitted
  reactively — the *receiving host* runs a pull timer that re-ACKs (with
  ``pull=True``) while its streams are incomplete, and the switch answers
  as a host answers its own timeout: the proven holes plus the two probes
  (see :meth:`~repro.core.aggregation.DaietAggregationEngine.handle_ack`).

END markers carry the final sequence number of their stream, so a parent
never counts a child as finished while any of its DATA packets are missing —
the property that turns "mostly right under loss" into bit-identical results.

This mirrors the selective-integrity idea of SAP (Ransford & Ceze): only the
aggregation traffic that needs protection pays for it, and only in proportion
to the loss actually experienced.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import repeat
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterable

from repro.core.config import DaietConfig
from repro.core.errors import TransportError
from repro.core.packet import (
    DaietAck,
    DaietPacket,
    DaietPacketType,
    PacketWindow,
    SeenWindow,
    packetize_pairs,
)
from repro.transport.window import (
    MAX_BACKOFF_FACTOR,
    TransportTuning,
    WindowedSender,
    sender_on,
)

__all__ = [
    "MAX_BACKOFF_FACTOR",
    "HostReliabilityAgent",
    "ReliabilityStats",
    "ReliableSenderChannel",
]


@dataclass
class ReliabilityStats:
    """Accounting for one host's reliability agent (senders + receivers)."""

    packets_sent: int = 0
    retransmissions: int = 0
    timeouts: int = 0
    acks_sent: int = 0
    acks_received: int = 0
    duplicates_received: int = 0
    pulls_sent: int = 0
    wire_bytes_sent: int = 0
    wire_bytes_retransmitted: int = 0
    #: Packets a degraded (non-exact policy) sender stopped retransmitting
    #: after exhausting its retries: the stream terminates with a measured
    #: deficit instead of raising (see ``reliability_policy``).
    abandoned_packets: int = 0

    def snapshot(self) -> dict[str, int]:
        """The counters as a plain dictionary."""
        return dict(self.__dict__)


class ReliableSenderChannel:
    """Sender side of one (host, tree) stream over a :class:`WindowedSender`.

    The channel assigns consecutive sequence numbers and owns the DAIET
    packet framing and statistics; buffering, ACK processing, gap-fill,
    timeout retransmission, RTT estimation and congestion-window pacing all
    live in the shared :class:`~repro.transport.window.WindowedSender`
    engine (the same one driving the reliable-UDP baseline flows). The
    default :class:`~repro.transport.window.TransportTuning` is a fixed RTO
    with capped exponential backoff and an unlimited window.
    """

    def __init__(
        self,
        simulator: Any,
        host: str,
        tree_id: int,
        *,
        retransmit_timeout: float,
        max_retransmits: int,
        stats: ReliabilityStats,
        retain_for_replay: bool = False,
        tuning: TransportTuning | None = None,
        policy: str = "exact",
    ) -> None:
        if retransmit_timeout <= 0:
            raise TransportError("retransmit_timeout must be positive")
        self.simulator = simulator
        self.host = host
        self.tree_id = tree_id
        #: Reliability policy of the tree this channel feeds. Non-exact
        #: policies degrade on give-up (drop the outstanding packets and
        #: count them) instead of raising: an approximate tree must never
        #: abort the run over loss it has chosen to tolerate.
        self.policy = policy
        self.tuning = tuning if tuning is not None else TransportTuning()
        self.max_retransmits = max_retransmits
        self.stats = stats
        #: Keep every packet ever sent (not just the unacknowledged ones) so
        #: the failover manager can replay a mapper's whole stream through a
        #: re-planned tree. The map-output buffer is the recovery log.
        self.retain_for_replay = retain_for_replay
        self._next_seq = 0
        self._engine = sender_on(
            simulator,
            self.tuning,
            retransmit_timeout=retransmit_timeout,
            max_retransmits=max_retransmits,
            transmit=self._transmit,
            give_up=self._give_up,
            on_timeout_stat=self._count_timeout,
            retain_history=retain_for_replay,
        )
        #: The engine's base timeout (a fixed-mode ``rto_floor`` raises it).
        self.retransmit_timeout = self._engine.base_timeout

    @property
    def done(self) -> bool:
        """True once every sent packet has been acknowledged."""
        return self._engine.done

    def take_seq(self) -> int:
        """Reserve the next sequence number."""
        seq = self._next_seq
        self._next_seq += 1
        return seq

    def packetize(
        self,
        pairs: Iterable[tuple[str, int]],
        dst: str,
        config: DaietConfig,
        include_end: bool = True,
    ) -> PacketWindow:
        """Frame ``pairs`` as this stream's next packets, numbered as cut."""
        window = packetize_pairs(
            pairs,
            tree_id=self.tree_id,
            src=self.host,
            dst=dst,
            config=config,
            include_end=include_end,
            seq_start=self._next_seq,
        )
        self._next_seq += len(window)
        return window

    def send(self, packets: Iterable[DaietPacket]) -> int:
        """Buffer sequenced packets and inject them up to the send window.

        ``packets`` is a window from :meth:`packetize`, whose numbering is
        checked once, or sequenced packets (the failover replay), all
        checked before anything is buffered. The engine buffers each
        packet's slot, ``(window, index)``: a packet is built from it only
        when it is resent, replayed or watched. Without a congestion
        controller the whole window is injected as one burst event (see
        :meth:`~repro.netsim.simulator.NetworkSimulator.send_burst`); with
        one, packets beyond the congestion window queue in the engine and
        follow as acknowledgements open it.
        """
        if isinstance(packets, PacketWindow):
            source, start = packets, packets.seq_start
            seqs: Any = None if start is None else range(start, start + len(source))
        else:
            source = list(packets)
            seqs = [packet.seq for packet in source]
            if None in seqs:
                seqs = None
        if seqs is None:
            raise TransportError("reliable channels require packets with sequence numbers")
        return self._engine.send(zip(seqs, zip(repeat(source), range(len(seqs)))))

    def on_ack(self, ack: DaietAck) -> None:
        """Drop acknowledged packets; gap-fill when the ACK proves a hole."""
        self.stats.acks_received += 1
        self._engine.on_ack(ack.cumulative, set(ack.sack))

    def _transmit(self, slots: list[tuple[Any, int]], retransmit: bool) -> None:
        """Engine callback: account one batch and put it on the wire.

        Fresh consecutive slots of one window (all of it, unless a
        congestion window paces it) go out as a view of that window, sized
        by its arithmetic; anything else, retransmissions included, as the
        packets themselves.
        """
        stats = self.stats
        source, lo = slots[0]
        last, hi = slots[-1]
        contiguous = last is source and hi - lo == len(slots) - 1
        if not retransmit and contiguous and isinstance(source, PacketWindow):
            burst: Any = source[lo : hi + 1]
            wire_bytes = sum(burst.sizes)
        else:
            burst = [source[index] for source, index in slots]
            wire_bytes = sum(packet.wire_bytes() for packet in burst)
        stats.wire_bytes_sent += wire_bytes
        if retransmit:
            stats.retransmissions += len(slots)
            stats.wire_bytes_retransmitted += wire_bytes
        else:
            stats.packets_sent += len(slots)
        self.simulator.send_burst(self.host, burst)

    def _count_timeout(self) -> None:
        self.stats.timeouts += 1

    def _give_up(self, outstanding: int) -> None:
        if self.policy != "exact":
            # Degraded mode: stop retransmitting, count the abandoned
            # packets and let the aggregate close with a reported deficit.
            self.stats.abandoned_packets += outstanding
            self._engine.close()
            return
        raise TransportError(
            f"host {self.host!r} gave up on tree {self.tree_id} after "
            f"{self.max_retransmits} consecutive retransmission timeouts "
            f"({outstanding} packets still unacknowledged)"
        )

    def sent_packets(self) -> list[DaietPacket]:
        """Every packet ever sent on this channel, in sequence order.

        Empty unless the channel was created with ``retain_for_replay``.
        """
        return [source[index] for source, index in self._engine.history()]

    def close(self) -> None:
        """Cancel the retransmit timer and drop the buffers.

        Called when the channel's tree epoch ends (failover re-plan): the
        replacement channel owns the stream from then on, and a closed
        channel must never fire a timeout for the dead epoch.
        """
        self._engine.close()


@dataclass
class _TreeReceiveState:
    """Receiver side of one tree at a host: dedup windows plus the pull timer."""

    tree_id: int
    children: tuple[str, ...]
    inner: Callable[[Any], None]
    #: Reliability policy of this tree (``"exact"`` | ``"sampled"`` |
    #: ``"best_effort"``).
    policy: str = "exact"
    #: ``sampled_ack_stride`` on a sampled tree, else 1: stretches the steady
    #: ACK cadence and the pull timer alike.
    stride: int = 1
    #: One stream window per child, made on first use: dedup, the ACK
    #: cadence and the gap-episode flag live there.
    windows: defaultdict[str, SeenWindow] = field(
        default_factory=lambda: defaultdict(SeenWindow)
    )
    ended: set[str] = field(default_factory=set)
    pending_end: dict[str, DaietPacket] = field(default_factory=dict)
    pull_timer: Any = None
    pulls_without_progress: int = 0

    @property
    def done(self) -> bool:
        """True once every child's stream completed (END seen, no gaps)."""
        return set(self.children) <= self.ended


class HostReliabilityAgent:
    """Per-host reliability endpoint multiplexing every tree the host touches.

    A host may simultaneously be a mapper (sender channels) and a reducer
    (receive states) for different trees; the agent owns the host's receiver
    callback and dispatches ACKs to sender channels, sequenced DAIET packets
    to the dedup/ACK path, and unsequenced DAIET packets to the per-tree
    application receiver; anything else is ignored.
    """

    def __init__(
        self,
        simulator: Any,
        host: str,
        *,
        retransmit_timeout: float,
        ack_window: int,
        max_retransmits: int,
        retain_for_replay: bool = False,
        tuning: TransportTuning | None = None,
        sampled_ack_stride: int = 4,
    ) -> None:
        if ack_window <= 0:
            raise TransportError("ack_window must be positive")
        if sampled_ack_stride <= 0:
            raise TransportError("sampled_ack_stride must be positive")
        self.simulator = simulator
        self.host = host
        self.retransmit_timeout = retransmit_timeout
        self.ack_window = ack_window
        self.sampled_ack_stride = sampled_ack_stride
        self.max_retransmits = max_retransmits
        self.retain_for_replay = retain_for_replay
        self.tuning = tuning if tuning is not None else TransportTuning()
        self.stats = ReliabilityStats()
        self._senders: dict[int, ReliableSenderChannel] = {}
        self._recv: dict[int, _TreeReceiveState] = {}
        simulator.host(host).set_receiver(self.receive)

    @classmethod
    def from_config(cls, simulator: Any, host: str, config: Any) -> "HostReliabilityAgent":
        """Build an agent from a :class:`~repro.core.config.DaietConfig`.

        Keeps the knob plumbing in one place for every caller wiring
        reliability (:class:`~repro.core.daiet.DaietSystem`, the DAIET
        shuffle, ad-hoc experiment harnesses).
        """
        return cls(
            simulator,
            host,
            retransmit_timeout=config.retransmit_timeout,
            ack_window=config.ack_window,
            max_retransmits=config.max_retransmits,
            retain_for_replay=config.retain_for_replay,
            tuning=config.tuning,
            sampled_ack_stride=config.sampled_ack_stride,
        )

    # ------------------------------------------------------------------ #
    # Wiring
    # ------------------------------------------------------------------ #
    def sender(self, tree_id: int, policy: str = "exact") -> ReliableSenderChannel:
        """The (created-on-demand) sender channel for one tree.

        ``policy`` is the tree's reliability policy; it only matters on the
        call that creates the channel (non-exact policies degrade instead
        of raising when the sender exhausts its retries).
        """
        if tree_id not in self._senders:
            # The parent is a switch, which acknowledges on its cadence and
            # has no delayed-ACK timer: a congestion window below the cadence
            # would wait out a retransmission timeout every round.
            cadence = self.ack_window * (
                self.sampled_ack_stride if policy == "sampled" else 1
            )
            tuning = replace(
                self.tuning,
                min_cwnd=max(self.tuning.min_cwnd, cadence),
                initial_cwnd=max(self.tuning.initial_cwnd, cadence),
            )
            self._senders[tree_id] = ReliableSenderChannel(
                self.simulator,
                self.host,
                tree_id,
                retransmit_timeout=self.retransmit_timeout,
                max_retransmits=self.max_retransmits,
                stats=self.stats,
                retain_for_replay=self.retain_for_replay,
                tuning=tuning,
                policy=policy,
            )
        return self._senders[tree_id]

    def attach_tree(
        self,
        tree_id: int,
        children: Iterable[str],
        inner: Callable[[Any], None],
        policy: str = "exact",
    ) -> None:
        """Install the application receiver for one tree rooted at this host."""
        state = _TreeReceiveState(
            tree_id=tree_id,
            children=tuple(children),
            inner=inner,
            policy=policy,
            stride=self.sampled_ack_stride if policy == "sampled" else 1,
        )
        state.pull_timer = self.simulator.timer(lambda: self._on_pull(tree_id))
        self._recv[tree_id] = state

    def detach_tree(self, tree_id: int) -> None:
        """Remove one tree's receive state and stop its pull timer.

        Used on failover: the old tree epoch's dedup windows must not be
        consulted for the replacement tree (its sequence space restarts),
        and a dangling pull timer would keep ACKing the dead epoch forever.
        Unknown ids are ignored.
        """
        state = self._recv.pop(tree_id, None)
        if state is not None and state.pull_timer is not None:
            state.pull_timer.cancel()

    def drop_sender(self, tree_id: int) -> ReliableSenderChannel | None:
        """Close and remove one tree's sender channel (failover teardown).

        Returns the closed channel so the caller can still read its
        retained history. Unknown ids return ``None``.
        """
        channel = self._senders.pop(tree_id, None)
        if channel is not None:
            channel.close()
        return channel

    def arm(self, tree_id: int) -> None:
        """Start the pull timer for a tree expecting traffic.

        Called when a round begins; without it a receiver whose *entire*
        input was lost would never notice. Idempotent while already armed.
        """
        state = self._recv.get(tree_id)
        if state is None or state.done or state.pull_timer.active:
            return
        state.pull_timer.start(self._pull_interval(state))

    def sender_channels(self) -> dict[int, ReliableSenderChannel]:
        """The sender channels keyed by tree id (diagnostics)."""
        return dict(self._senders)

    # ------------------------------------------------------------------ #
    # Receive path
    # ------------------------------------------------------------------ #
    def receive(self, packet: Any) -> None:
        """Host receiver callback installed on the simulated NIC."""
        if isinstance(packet, DaietAck):
            channel = self._senders.get(packet.tree_id)
            if channel is not None and packet.dst == self.host:
                channel.on_ack(packet)
            return
        if isinstance(packet, DaietPacket):
            state = self._recv.get(packet.tree_id)
            if state is not None:
                if packet.seq is None:
                    # Legacy sender without reliability: deliver as-is.
                    state.inner(packet)
                else:
                    self._receive_sequenced(state, packet)

    def _receive_sequenced(self, state: _TreeReceiveState, packet: DaietPacket) -> None:
        src = packet.src
        window = state.windows[src]
        if not window.observe(packet.seq):
            self.stats.duplicates_received += 1
            self._send_ack(state, src)
            return
        state.pulls_without_progress = 0
        if packet.packet_type is DaietPacketType.END:
            window.end_seq = packet.seq
            state.pending_end[src] = packet
        else:
            state.inner(packet)
            window.count_arrival()
        if window.complete and src not in state.ended:
            # The child's stream is whole: deliver its END exactly once.
            state.ended.add(src)
            window.end_seq = None
            end = state.pending_end.pop(src, None)
            if end is not None:
                state.inner(end)
            self._send_ack(state, src)
        elif (
            packet.packet_type is DaietPacketType.END
            or packet.ecn
            or window.edge
            or window.since_ack >= self.ack_window * state.stride
        ):
            # ENDs, CE-marked arrivals and arrivals that open or close a
            # hole never wait for the cadence.
            self._send_ack(state, src)
        if state.done:
            state.pull_timer.cancel()
        elif not state.pull_timer.active:
            # Traffic is flowing: keep a pull pending so a lost tail (or a
            # lost switch flush) is eventually re-requested.
            state.pull_timer.start(self._pull_interval(state))

    # ------------------------------------------------------------------ #
    # ACK/pull generation
    # ------------------------------------------------------------------ #
    def _pull_interval(self, state: _TreeReceiveState) -> float:
        return 2 * self.retransmit_timeout * state.stride

    def _send_ack(self, state: _TreeReceiveState, src: str, pull: bool = False) -> None:
        cumulative, sack = state.windows[src].take_ack()
        ack = DaietAck(
            tree_id=state.tree_id,
            src=self.host,
            dst=src,
            cumulative=cumulative,
            sack=sack,
            pull=pull,
        )
        self.simulator.send(self.host, ack)
        self.stats.acks_sent += 1
        if pull:
            self.stats.pulls_sent += 1

    def _on_pull(self, tree_id: int) -> None:
        state = self._recv.get(tree_id)
        if state is None or state.done:
            return
        state.pulls_without_progress += 1
        if state.pulls_without_progress > self.max_retransmits:
            # Give up pulling so the simulation terminates; the caller's
            # correctness check reports the unrecovered loss.
            return
        for child in state.children:
            if child not in state.ended:
                self._send_ack(state, child, pull=True)
        state.pull_timer.start(self._pull_interval(state))
