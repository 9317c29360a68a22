"""In-switch aggregation engine (Algorithm 1 of the paper).

For each aggregation tree a switch keeps one register file in kid space
(interned key ids, see ``dataplane/interning.py``): a key register and a
value register, two int64 arrays managed as a hash table with single-element
buckets, an index stack of used slots, and a spillover bucket of colliding
pairs (kid -> value, in insertion order). One walker updates it: the
register kernel (:meth:`DaietAggregationEngine._vector_apply`) applies every
DATA packet's pairs: a batch's (queued windows and lone packets,
:class:`WindowBatch`) in one call, a packet its stream refuses to a batch
as a call of one. An END packet decrements the remaining-children counter and,
when it reaches zero, the aggregated state is flushed towards the next node
of the tree, as one :class:`~repro.core.packet.PacketWindow`.

:class:`DaietAggregationEngine` hosts the per-tree state of one switch; the
controller binds it as the ``aggregate`` action of the switch's
``daiet_steer`` table, the extern steered packets are handed to.
"""

from __future__ import annotations

import zlib
from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import repeat
from typing import Any

import numpy as _np

from repro.checks.registry import fastpath
from repro.core.config import DaietConfig
from repro.core.errors import AggregationError
from repro.core.functions import (
    BITWISE_AND,
    BITWISE_OR,
    COUNT,
    MAX,
    MIN,
    SUM,
    AggregationFunction,
    get as get_function,
)
from repro.core.packet import (
    BurstPlan,
    DaietAck,
    DaietPacket,
    DaietPacketType,
    PacketWindow,
    RetransmitBuffer,
    SeenWindow,
    gather_pairs,
    packetize_columns,
    packets_of,
)
from repro.dataplane import interning as _interning
from repro.dataplane.actions import Extern
from repro.dataplane.registers import IndexStack

#: Kid -> slot memo sentinel: key id not yet judged in the current round.
_KID_UNKNOWN = -3
#: Kid -> slot memo sentinel: the key collides with a resident key this round.
_KID_COLLIDING = -1
#: What an empty key register cell holds (no kid is negative).
_EMPTY = -1

#: Hoisted enum member for the DATA/END dispatch.
_DATA = DaietPacketType.DATA

#: The numpy ufunc each registered function applies to a value register. A
#: claimed cell starts at the function's ``identity``; MIN, MAX and AND have
#: none, so their cells start at the first value, which is idempotent under
#: them (applying it again changes nothing). The registers hold no other
#: function.
_UFUNCS = {
    SUM: _np.add,
    COUNT: _np.add,
    MIN: _np.minimum,
    MAX: _np.maximum,
    BITWISE_OR: _np.bitwise_or,
    BITWISE_AND: _np.bitwise_and,
}


def hash_key(key: str | bytes, slots: int) -> int:
    """Deterministic hash of a key into a register index.

    CRC32 stands in for the hardware hash units of a programmable switch: it is
    cheap, stable across processes (unlike Python's randomized ``hash``), and
    spreads typical word keys evenly.
    """
    if slots <= 0:
        raise AggregationError("slots must be positive")
    data = key.encode() if isinstance(key, str) else bytes(key)
    return zlib.crc32(data) % slots


@dataclass
class TreeCounters:
    """Per-tree statistics exported to the evaluation harness."""

    packets_received: int = 0
    end_packets_received: int = 0
    pairs_received: int = 0
    pairs_aggregated: int = 0
    pairs_inserted: int = 0
    collisions: int = 0
    spillover_flushes: int = 0
    spillover_merges: int = 0
    final_flushes: int = 0
    packets_emitted: int = 0
    pairs_emitted: int = 0
    duplicate_packets: int = 0
    acks_sent: int = 0
    acks_received: int = 0
    retransmitted_packets: int = 0
    ack_port_misses: int = 0

    def snapshot(self) -> dict[str, int]:
        """Counters as a plain dictionary."""
        return dict(self.__dict__)


@dataclass
class TreeState:
    """Per-tree aggregation state held in switch SRAM."""

    tree_id: int
    function: AggregationFunction
    config: DaietConfig
    num_children: int
    egress_port: int
    next_hop_dst: str
    switch_name: str
    #: Egress port towards each direct child (device name -> port), used to
    #: route reliability ACKs back down the tree.
    child_ports: dict[str, int] = field(default_factory=dict)
    #: Direct children that are switches, in sorted order. Pull ACKs are
    #: forwarded to these when this switch has nothing left to resend: a
    #: tail loss above this hop is invisible here (no SACK gap ever forms),
    #: so the pull must climb the tree until it reaches the buffer that
    #: still holds the lost flush.
    switch_children: tuple[str, ...] = ()
    #: Reliability policy of this tree (``"exact"`` | ``"sampled"`` |
    #: ``"best_effort"``): ``sampled`` strides the switch's ACK cadence,
    #: ``best_effort`` emits plain unsequenced flushes with no buffering.
    policy: str = "exact"
    #: The kid (interned key id, see ``dataplane/interning.py``) each slot
    #: holds, ``_EMPTY`` (-1) when the slot is free.
    key_register: Any = field(init=False)
    #: Each slot's aggregated value, as int64; 0 when the slot is free.
    value_register: Any = field(init=False)
    index_stack: IndexStack = field(init=False)
    #: Colliding pairs, kid -> value in first-insertion order: the paper's
    #: spillover bucket. It flushes as one packet the moment it holds a
    #: packet's worth (``pairs_per_packet``), so it never holds that many.
    spillover: dict[int, int] = field(init=False, default_factory=dict)
    remaining_children: int = field(init=False)
    counters: TreeCounters = field(default_factory=TreeCounters)
    #: Children whose END was accepted in the current round (idempotence).
    _ended_sources: set[str] = field(default_factory=set, repr=False)
    #: One stream window per child, made on first use: the duplicate filter
    #: over sequence numbers plus what the next ACK for the child owes (the
    #: cadence count and the gap-episode flag).
    _seen: defaultdict[str, SeenWindow] = field(
        default_factory=lambda: defaultdict(SeenWindow), repr=False
    )
    #: Flush packets emitted towards the parent and not yet acknowledged, as
    #: ``(window, index)`` slots: ``window[index]`` is the packet that went
    #: out (built then, or on a resend).
    _sent: RetransmitBuffer = field(default_factory=RetransmitBuffer, repr=False)
    #: Next sequence number for the switch's own emissions towards the parent.
    _next_seq: int = field(default=0, repr=False)
    #: Steady in-order ACK cadence (ack_window, strided under ``sampled``).
    _ack_every: int = field(default=0, repr=False)
    #: Whether emissions towards the parent are sequenced and buffered.
    _reliable_emit: bool = field(default=False, repr=False)
    #: The tree function's ufunc (``_UFUNCS``).
    _ufunc: Any = field(init=False, repr=False)
    #: The kernel's memo for the current round: kid -> the register slot
    #: that holds it, ``_KID_COLLIDING`` when another key holds its slot, or
    #: ``_KID_UNKNOWN``. A verdict cannot change within a round (cells are
    #: only freed by :meth:`rearm`, which resets the memo), so a repeated
    #: key (the whole point of aggregation) costs one lookup.
    _kid_slot: Any = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.num_children <= 0:
            raise AggregationError(
                f"tree {self.tree_id} on switch {self.switch_name!r} must have "
                "at least one child"
            )
        self._ufunc = _UFUNCS.get(self.function)
        if self._ufunc is None:
            raise AggregationError(
                f"tree {self.tree_id} on switch {self.switch_name!r}: the registers "
                f"apply only the registered functions, not {self.function.name!r}"
            )
        slots = self.config.register_slots
        self.key_register = _np.full(slots, _EMPTY, dtype=_np.int64)
        self.value_register = _np.zeros(slots, dtype=_np.int64)
        self.index_stack = IndexStack(capacity=slots)
        self.remaining_children = self.num_children
        stride = self.config.sampled_ack_stride if self.policy == "sampled" else 1
        self._ack_every = self.config.ack_window * stride
        self._reliable_emit = self.config.reliability and self.policy != "best_effort"
        self._kid_slot = _np.full(max(64, _interning.pool_size()), _KID_UNKNOWN, dtype=_np.int64)

    def window(self, src: str) -> SeenWindow:
        """The sequence-number window tracking one child's stream."""
        return self._seen[src]

    def memo(self) -> Any:
        """The kid -> slot memo, grown to cover every kid interned so far."""
        memo = self._kid_slot
        size = _interning.pool_size()
        if size > len(memo):
            grown = _np.full(max(size, 2 * len(memo)), _KID_UNKNOWN, dtype=_np.int64)
            grown[: len(memo)] = memo
            self._kid_slot = memo = grown
        return memo

    def rearm(self) -> None:
        """Reset the tree state for the next aggregation round.

        Slot reuse: only the cells still recorded in the index stack are
        cleared, instead of reallocating the two full register arrays. After
        a final flush the stack is already empty, so the common rearm is
        O(1) — with the paper's 16K-slot registers the old full reset
        dominated multi-round (e.g. ML training) runs.

        Sequence windows and the unacknowledged-flush buffer deliberately
        survive rearming: sequence numbers are monotonic across rounds, and
        flush packets from the finished round may still need retransmitting.
        """
        held = list(self.index_stack.drain())
        self.key_register[held] = _EMPTY
        self.value_register[held] = 0
        self.spillover.clear()
        self.remaining_children = self.num_children
        self._ended_sources.clear()
        # Cells were just released, so every kid -> slot verdict is stale.
        self._kid_slot.fill(_KID_UNKNOWN)


class DaietAggregationEngine(Extern):
    """The DAIET extern of one switch: per-tree state plus Algorithm 1."""

    def __init__(self, switch_name: str) -> None:
        self.switch_name = switch_name
        self._trees: dict[int, TreeState] = {}

    # ------------------------------------------------------------------ #
    # Control-plane configuration
    # ------------------------------------------------------------------ #
    def configure_tree(
        self,
        tree_id: int,
        function: AggregationFunction | str,
        num_children: int,
        egress_port: int,
        next_hop_dst: str,
        config: DaietConfig | None = None,
        child_ports: dict[str, int] | None = None,
        switch_children: tuple[str, ...] = (),
        policy: str | None = None,
    ) -> TreeState:
        """Install (or replace) the state for one aggregation tree.

        ``policy`` overrides the config's ``reliability_policy`` for this
        tree (per-tree selective reliability); ``None`` inherits it. A
        function outside the registry (``core/functions.py``) is refused
        with :class:`AggregationError`: the registers apply only those.
        """
        if isinstance(function, str):
            function = get_function(function)
        cfg = config or DaietConfig()
        state = TreeState(
            tree_id=tree_id,
            function=function,
            config=cfg,
            num_children=num_children,
            egress_port=egress_port,
            next_hop_dst=next_hop_dst,
            switch_name=self.switch_name,
            child_ports=dict(child_ports or {}),
            switch_children=tuple(sorted(switch_children)),
            policy=policy if policy is not None else cfg.reliability_policy,
        )
        self._trees[tree_id] = state
        return state

    def remove_tree(self, tree_id: int) -> None:
        """Remove a tree's state (controller teardown)."""
        self._trees.pop(tree_id, None)

    def tree(self, tree_id: int) -> TreeState:
        """State of a configured tree."""
        try:
            return self._trees[tree_id]
        except KeyError as exc:
            raise AggregationError(
                f"switch {self.switch_name!r} has no state for tree {tree_id}"
            ) from exc

    def counters(self) -> dict[int, TreeCounters]:
        """Per-tree counters."""
        return {tree_id: state.counters for tree_id, state in self._trees.items()}

    def trees(self) -> list[tuple[int, TreeState]]:
        """Every configured tree as ``(tree_id, state)``, in id order."""
        return [(tree_id, self._trees[tree_id]) for tree_id in sorted(self._trees)]

    def wipe(self) -> None:
        """Lose every tree's state, as a crashed switch's SRAM does."""
        self._trees.clear()

    # ------------------------------------------------------------------ #
    # Data-plane entry points
    # ------------------------------------------------------------------ #
    def consume(self, packet: DaietPacket | DaietAck) -> list[tuple[int, Any]]:
        """Consume one steered packet or ACK; return ``(egress_port, out)`` emissions.

        This is the full data-plane behaviour: parent-bound flushes, each as
        one window, plus any child-bound reliability ACKs.
        """
        if type(packet) is DaietAck:
            return self.handle_ack(packet)
        state = self.tree(packet.tree_id)
        state.counters.packets_received += 1
        if packet.packet_type is _DATA:
            return self._process_data(state, packet)
        return self._process_end(state, packet)

    def handle_packet(self, packet: DaietPacket) -> list[tuple[int, Any]]:
        """:meth:`consume`, each flush window cut into its packets."""
        return packets_of(self.consume(packet))

    def start_batch(
        self, plan: BurstPlan, offset: int, ingress: int, fits: Any
    ) -> "WindowBatch | None":
        """A :class:`WindowBatch` headed by item ``offset`` of ``plan``, or ``None``.

        ``None`` unless the plan's tree is configured here, the window fits
        the switch's budgets (``fits(nbytes, cost, ingress)``, the switch's
        test for whatever asks to join), the item is shape-eligible and its
        source's stream admits it (:meth:`_fresh_run`).
        """
        window = plan.window
        state = self._trees.get(window.tree_id)
        if state is None or not plan.shape_ok[offset]:
            return None
        batch = WindowBatch(self, state, fits)
        if not batch.join(plan, offset, ingress) or self._fresh_run(
            state, window.src, [_window_run(plan, offset, (0,))]
        ) is not None:
            return None
        return batch

    def start_packet_batch(
        self, packet: Any, ingress: int, fits: Any
    ) -> "WindowBatch | None":
        """:meth:`start_batch` for a lone DATA packet at the head: ``None``
        unless it may join a batch of its tree (:meth:`WindowBatch.join_packet`)
        and its source's stream admits it."""
        if type(packet) is not DaietPacket:
            return None
        state = self._trees.get(packet.tree_id)
        if state is None:
            return None
        batch = WindowBatch(self, state, fits)
        if not batch.join_packet(packet, ingress) or self._fresh_run(
            state, packet.src, [_packet_run(packet, 0)]
        ) is not None:
            return None
        return batch

    def handle_ack(self, ack: DaietAck) -> list[tuple[int, Any]]:
        """Process a reliability ACK arriving at this switch.

        ACKs addressed to this switch release buffered flush packets and
        trigger retransmissions: the holes a selective ACK proves, and on a
        ``pull`` ACK also the two ends of what is still buffered (a switch
        has no timer; the receiver's pull is its timeout). ACKs addressed
        elsewhere are forwarded towards the child when a port is known, or
        silently dropped otherwise.
        """
        state = self._trees.get(ack.tree_id)
        if state is None:
            return []
        if ack.dst != self.switch_name:
            port = state.child_ports.get(ack.dst)
            return [(port, ack)] if port is not None else []
        state.counters.acks_received += 1
        sent = state._sent
        sacked = set(ack.sack)
        sent.acknowledge(ack.cumulative, sacked)
        if ack.pull:
            # Tail losses leave no SACK gap: the probes make one, and the
            # holes this pull already proves go out with them. Probes first:
            # they leave ``resent``, so a proven hole among them is marked
            # again and the next plain ACK does not fill it twice.
            probes = sent.probes()
            missing = sorted({*probes, *sent.holes(sacked)})
        else:
            missing = sent.holes(sacked)
        state.counters.retransmitted_packets += len(missing)
        out: list[tuple[int, Any]] = [
            (state.egress_port, window[index])
            for window, index in map(sent.unacked.__getitem__, missing)
        ]
        if ack.pull and not sent.unacked:
            # Nothing buffered here, yet the receiver is still missing data:
            # the hole is above this switch (e.g. a whole flush burst lost on
            # a downed trunk link, which leaves no SACK gap anywhere below
            # it). Recurse the pull towards the switch children so whichever
            # ancestor still buffers the flush resends it. Host children are
            # skipped — their sender channels run their own retransmit
            # timers.
            for child in state.switch_children:
                port = state.child_ports.get(child)
                if port is not None:
                    state.counters.acks_sent += 1
                    out.append(
                        (
                            port,
                            DaietAck(
                                tree_id=ack.tree_id,
                                src=self.switch_name,
                                dst=child,
                                pull=True,
                            ),
                        )
                    )
        return out

    # ------------------------------------------------------------------ #
    # Algorithm 1
    # ------------------------------------------------------------------ #
    def _process_data(self, state: TreeState, packet: DaietPacket) -> list[tuple[int, Any]]:
        if packet.seq is not None:
            window = state.window(packet.src)
            if not window.observe(packet.seq):
                # Retransmission of something already aggregated: idempotent.
                state.counters.duplicate_packets += 1
                return self._ack_child(state, packet.src, window)
        pairs = packet.vector_pairs()
        emitted = (
            []
            if pairs is None
            else [(port, out) for _i, port, out in self._vector_apply(state, *pairs, 1, None)]
        )
        if packet.seq is not None:
            src = packet.src
            # A CE-marked fresh packet is acknowledged immediately: the
            # sender's timer and window hear of the queue one cadence
            # earlier. An arrival that opens or closes a hole does not wait
            # for the cadence either, strided or not.
            if (
                window.count_arrival() >= state._ack_every
                or packet.ecn
                or window.edge
            ):
                emitted.extend(self._ack_child(state, src, window))
            if window.complete and src not in state._ended_sources:
                # A retransmitted DATA packet filled the last gap before a
                # previously stashed END: the child's stream is now complete.
                emitted.extend(self._accept_end(state, src))
        return emitted

    @fastpath(
        "vector-register-kernel",
        oracle="tests/core/test_vector_kernel_equivalence.py",
    )
    def _vector_apply(
        self,
        state: TreeState,
        kids: Any,
        vals: Any,
        n: int,
        bounds: Any,
    ) -> list[tuple[int, int, Any]]:
        """Algorithm 1 over the pairs of ``n`` DATA packets, as array work.

        ``kids``/``vals`` are the packets' interned key ids and values as
        integer arrays in packet order (a host's ``int32`` columns, a
        switch flush's ``int64`` ones), ``bounds`` their cumulative pair
        counts (so emissions can be tagged with the packet index they
        followed; unread when ``n`` is 1). A refused packet's columns
        (``vector_pairs()``) come from :meth:`_process_data`; a batch's come
        from :meth:`WindowBatch.take`: each window's assembled at send time
        (``BurstPlan.kernel_input``), each lone packet's its own column
        extent (``pair_columns()``), gathered in arrival order. The batch
        takes only DATA packets of this tree that :meth:`_fresh_run`
        admitted and advances their streams with :meth:`_accept_run` once
        this returns. Whoever receives the packets counts them.

        The columns resolve to register slots through the tree's kid ->
        slot memo in one gather. When some kid has no verdict yet, those
        kids claim slots, are found resident or collide (:meth:`_claim_slots`)
        and the columns gather again. The resident pairs then land in one
        call of the tree function's ufunc (``ufunc.at``), and the colliding
        ones, in pair order, go through the spillover bucket
        (:meth:`_spill_columns`): claims never read a value and collisions
        never touch a cell, so the order of the verdicts is all the kernel
        must keep. ``ufunc.at`` gets the values widened to the register's
        dtype: given narrower ones it takes NumPy's casting loop (about 25x
        slower on a 6,000-pair call). ``tests/core/register_walk_model.py``
        states the same rule pair by pair; it is this kernel's oracle.

        Returns emissions as ``(packet_index, egress_port, packet)`` so the
        caller can restore each spillover flush (an item of the call's one
        flush window) to its packet's delivery time.
        """
        memo = state.memo()
        slot = memo[kids]
        counters = state.counters
        emissions: list[tuple[int, int, Any]] = []
        total = len(kids)
        inserted = spilled = 0
        # (argmin and item cost about half of min's fixed cost on a packet.)
        lowest = slot.item(slot.argmin())
        if lowest < 0:
            if lowest == _KID_UNKNOWN:
                unjudged = slot < _KID_COLLIDING  # the one sentinel below it
                inserted = self._claim_slots(state, kids[unjudged], vals[unjudged])
                slot = memo[kids]
            colliding = slot < 0
            spill_kids = kids[colliding].tolist()
            spilled = len(spill_kids)
            if spilled:
                at = (
                    [0] * spilled
                    if n == 1
                    else _np.searchsorted(bounds, colliding.nonzero()[0], side="right").tolist()
                )
                emissions = self._spill_columns(state, spill_kids, vals[colliding].tolist(), at)
                counters.collisions += spilled
                resident = ~colliding
                slot, vals = slot[resident], vals[resident]
        register = state.value_register
        state._ufunc.at(register, slot, vals.astype(register.dtype, copy=False))
        counters.pairs_received += total
        counters.pairs_inserted += inserted
        counters.pairs_aggregated += total - spilled - inserted
        return emissions

    def _claim_slots(self, state: TreeState, fresh: Any, fresh_vals: Any) -> int:
        """Phase A of :meth:`_vector_apply`: verdicts for kids the memo lacks.

        ``fresh`` holds the occurrences of those kids in pair order, and
        ``fresh_vals`` their values. Every occurrence wants its kid's home
        slot (crc modulo the slots). A home that holds the kid makes it
        resident. Of the occurrences that want an empty home, the first
        claims it for its kid: as Algorithm 1 walks the pairs in order, the
        first pair that reaches an empty cell takes it, and a later kid that
        wants it collides. A verdict cannot change within a round: cells are
        only freed by ``rearm()``, which also resets the memo. The claimed
        slots go onto the index stack in claim order, in one push; their
        value cells start at the function's identity, or at the claimant's
        value when it has none (see ``_UFUNCS``), and every occurrence then
        applies as a resident one. Records every verdict in the memo and
        returns the number of claims.
        """
        register = state.key_register
        home = _interning.crcs_of(fresh) % state.config.register_slots
        wanted = (register[home] == _EMPTY).nonzero()[0]
        claims = len(wanted)
        if claims:
            # The first occurrence that wants each empty cell, by a
            # min-scatter of ascending codes below every kid into the cells
            # themselves: the occurrence whose code stuck claims the cell.
            # The cells are emptied again before the push, which refuses
            # an overflow with nothing claimed.
            cells = home[wanted]
            codes = _np.arange(-claims - 2, -2, dtype=_np.int64)
            _np.minimum.at(register, cells, codes)
            winners = wanted[register[cells] == codes]
            register[cells] = _EMPTY
            claimed = home[winners]
            state.index_stack.push_many(claimed.tolist())
            register[claimed] = fresh[winners]
            identity = state.function.identity
            state.value_register[claimed] = fresh_vals[winners] if identity is None else identity
            claims = len(winners)
        home[register[home] != fresh] = _KID_COLLIDING  # now each occurrence's verdict
        state._kid_slot[fresh] = home
        return claims

    def _spill_columns(
        self, state: TreeState, kids: list[int], vals: list[int], at: list[int]
    ) -> list[tuple[int, int, Any]]:
        """Phase C of :meth:`_vector_apply`: the colliding pairs, through the bucket.

        ``kids``/``vals`` are the call's colliding pairs in pair order,
        ``at`` the index of the packet each came in. A kid the bucket
        already holds merges into its entry with the tree's function; a new
        one is appended, and the pair that fills the bucket (one packet's
        worth) flushes it. The bucket is edited in place and keeps what is
        left over for the next call. The call's flushes are cut by one
        :func:`packetize_columns` into one window; flush ``j`` leaves as
        ``window[j]``, tagged with the packet whose pair filled it. A
        flushed value outside the value field's range refuses the round
        there (the register-overflow rule).
        """
        bucket = state.spillover
        capacity = state.config.pairs_per_packet
        combine = state.function.combine
        cut_kids: list[int] = []
        cut_vals: list[int] = []
        cut_at: list[int] = []
        merges = 0
        for kid, value, pkt_i in zip(kids, vals, at):
            held = bucket.get(kid)
            if held is not None:
                bucket[kid] = combine(held, value)
                merges += 1
            else:
                bucket[kid] = value
                if len(bucket) == capacity:
                    cut_kids += bucket
                    cut_vals += bucket.values()
                    cut_at.append(pkt_i)
                    bucket.clear()
        state.counters.spillover_merges += merges
        if not cut_at:
            return []
        window = self._packetize(
            state,
            False,
            _np.array(cut_kids, dtype=_np.int64),
            _np.array(cut_vals, dtype=_np.int64),
        )
        state.counters.spillover_flushes += len(cut_at)
        port = state.egress_port
        return [(cut_at[j], port, window[j]) for j in range(len(cut_at))]

    def _fresh_run(self, state: TreeState, src: str, runs: list[tuple]) -> int | None:
        """Where the kernel must stop taking ``src``'s arrivals in a batch:
        the merged position of the first one its stream refuses, or ``None``.

        ``runs`` are the source's members of the batch (a window's
        candidate items, a lone packet) in arrival order, each as
        :func:`_window_run` or :func:`_packet_run` gives it: ``(positions,
        seq of item 0 or None, item indexes, admitted)``. ``admitted``
        counts the items from the first that are shape-eligible and, when
        sequenced, not CE-marked.
        An unsequenced run qualifies up to there. A sequenced packet
        qualifies while it is not CE-marked, its number is above every
        number the source's stream has seen (its high-water mark, raised by
        the source's earlier arrivals in the batch) and the stream holds no
        stashed END: then the stream side of :meth:`_process_data` only
        records it, counts it towards the cadence and owes an ACK on the
        cadence or a fresh hole, which :meth:`_accept_run` does for the
        source's whole share. A window's numbers ascend, so only its first
        item can fall behind the mark; a run that starts among an earlier
        run's items is refused there too. Duplicates, gap-fills and the
        arrivals that complete a stream stay with :meth:`_process_data`.
        """
        stream = state._seen.get(src)
        floor = -1 if stream is None else stream.high_water
        stashed = stream is not None and stream.end_seq is not None
        last = -1
        for positions, base, items, admitted in runs:
            if base is not None:
                if stashed or positions[0] < last or base + items[0] <= floor:
                    return int(positions[0])
                floor = base + items[-1]
                last = positions[-1]
            if admitted < len(positions):
                return int(positions[admitted])
        return None

    def _accept_run(
        self, state: TreeState, src: str, seqs: list[int]
    ) -> list[tuple[int, int, DaietAck]]:
        """Advance ``src``'s stream over the arrivals the kernel just applied.

        ``seqs`` are their sequence numbers in arrival order, as
        :meth:`_fresh_run` admitted them. Returns the ACKs
        :meth:`_process_data` would have emitted for them, as ``(position in
        seqs, port, ack)``.
        """
        if not seqs:
            return []
        owed = state._seen[src].accept_run(seqs, state._ack_every)
        port = state.child_ports.get(src)
        counters = state.counters
        if port is None:
            counters.ack_port_misses += len(owed)
            return []
        counters.acks_sent += len(owed)
        tree_id = state.tree_id
        name = self.switch_name
        return [
            (
                at,
                port,
                DaietAck(tree_id=tree_id, src=name, dst=src, cumulative=cumulative, sack=sack),
            )
            for at, cumulative, sack in owed
        ]

    def _process_end(self, state: TreeState, packet: DaietPacket) -> list[tuple[int, Any]]:
        state.counters.end_packets_received += 1
        if packet.seq is not None:
            window = state.window(packet.src)
            if window.observe(packet.seq):
                window.end_seq = packet.seq
            else:
                state.counters.duplicate_packets += 1
            emitted = self._ack_child(state, packet.src, window)
            if window.complete and packet.src not in state._ended_sources:
                emitted.extend(self._accept_end(state, packet.src))
            # An incomplete stream stashes the END: the decrement happens
            # when retransmissions fill the gaps (see _process_data).
            return emitted
        # Unsequenced END: idempotent, a duplicate never double-decrements.
        return self._accept_end(state, packet.src)

    def _accept_end(self, state: TreeState, src: str) -> list[tuple[int, Any]]:
        """Count one child's END exactly once; flush when it was the last."""
        if src in state._ended_sources:
            return []
        state._ended_sources.add(src)
        window = state._seen.get(src)
        if window is not None:
            # The END marker is consumed; the window keeps counting across
            # rounds, so late duplicates are still filtered.
            window.end_seq = None
        return self._count_end(state)

    def _count_end(self, state: TreeState) -> list[tuple[int, Any]]:
        """Decrement the remaining-children counter; flush on the last END."""
        if state.remaining_children <= 0:
            raise AggregationError(
                f"switch {self.switch_name!r} received an unexpected END packet "
                f"for tree {state.tree_id} (all children already ended)"
            )
        state.remaining_children -= 1
        if state.remaining_children > 0:
            return []
        emitted = self._flush_all(state)
        state.rearm()
        return emitted

    def _ack_child(
        self, state: TreeState, src: str, window: SeenWindow
    ) -> list[tuple[int, Any]]:
        """Build the cumulative+selective ACK for one child's stream."""
        port = state.child_ports.get(src)
        if port is None:
            # No known port towards the child (e.g. a tree configured without
            # child ports): the sender's own timeout still recovers losses.
            window.restart_cadence()
            state.counters.ack_port_misses += 1
            return []
        cumulative, sack = window.take_ack()
        state.counters.acks_sent += 1
        ack = DaietAck(
            tree_id=state.tree_id,
            src=self.switch_name,
            dst=src,
            cumulative=cumulative,
            sack=sack,
        )
        return [(port, ack)]

    # ------------------------------------------------------------------ #
    # Flushing
    # ------------------------------------------------------------------ #
    def _flush_all(self, state: TreeState) -> list[tuple[int, Any]]:
        """Flush spillover first, then the aggregated registers, then END."""
        state.counters.final_flushes += 1
        return self._emit_pairs(state, True, *self._drain_columns(state))

    def _drain_columns(self, state: TreeState) -> tuple[Any, Any]:
        """The final flush's pairs as int64 columns: the spillover bucket's
        first, then each occupied slot from the last one claimed down.

        Kids are the key register's cells, values the value register's, read
        along the index stack. Drains the bucket and the registers.
        """
        index_stack = state.index_stack
        at = _np.array(index_stack.peek_all()[::-1], dtype=_np.int64)
        held = state.key_register[at]
        if (held == _EMPTY).any():
            raise AggregationError(
                f"index stack of tree {state.tree_id} pointed at an empty slot"
            )
        bucket = state.spillover
        kids = _np.concatenate((_np.fromiter(bucket, _np.int64, len(bucket)), held))
        vals = _np.concatenate(
            (_np.fromiter(bucket.values(), _np.int64, len(bucket)), state.value_register[at])
        )
        bucket.clear()
        state.key_register[at] = _EMPTY
        state.value_register[at] = 0
        index_stack.clear()
        return kids, vals

    def _emit_pairs(
        self, state: TreeState, include_end: bool, kids: Any, vals: Any
    ) -> list[tuple[int, Any]]:
        """Cut one flush (its kid and value columns) into ``[(port, window)]``.

        A one-packet flush gets no burst plan, so it leaves as its packet.
        """
        window = self._packetize(state, include_end, kids, vals)
        return [(state.egress_port, window[0] if len(window) == 1 else window)]

    def _packetize(
        self, state: TreeState, include_end: bool, kids: Any, vals: Any
    ) -> PacketWindow:
        """Cut a flush's columns into one window; count and buffer it.

        The window is never iterated: its counts are arithmetic, and it is
        buffered as ``(window, index)`` slots, which give back the packet
        that went out, or build it for a resend.
        """
        # The switch is itself a reliable sender towards its parent: its
        # emissions carry sequence numbers and stay buffered until the
        # parent acknowledges them (retransmission is ACK/pull-driven
        # because switches have no timers). Best-effort trees skip this
        # entirely: plain unsequenced flushes, nothing buffered.
        seq_start = state._next_seq if state._reliable_emit else None
        window = packetize_columns(
            kids, vals, state.tree_id, self.switch_name, state.next_hop_dst,
            state.config, include_end, seq_start,
        )
        count = len(window)
        state.counters.packets_emitted += count
        state.counters.pairs_emitted += len(kids)
        if seq_start is not None:
            state._next_seq += count
            state._sent.unacked.update(
                zip(range(seq_start, seq_start + count), zip(repeat(window), range(count)))
            )
        return window


class WindowBatch:
    """What one register-kernel call of a switch takes together: queued
    windows of one tree and the tree's lone DATA packets.

    A switch's burst handler opens a batch for its head, a window's item
    (:meth:`DaietAggregationEngine.start_batch`) or a lone packet
    (:meth:`DaietAggregationEngine.start_packet_batch`), and offers it, in
    ``(time, seq)`` order, what else is queued for the switch: a window asks
    to :meth:`join`, a lone packet to :meth:`join_packet`, any other packet
    whether the batch :meth:`passes` it. The first refusal cuts the batch,
    which then :meth:`take` s a prefix of its members' merged candidate
    items. Members are numbered windows first, then lone packets, each in
    the order they joined. A source may have several members (a spine's
    hundreds of spillover flushes into the reducer's leaf): its stream
    takes them in arrival order, as :meth:`DaietAggregationEngine._fresh_run`
    states.
    """

    __slots__ = ("engine", "state", "fits", "plans", "offsets", "packets", "extents")

    def __init__(self, engine: Any, state: TreeState, fits: Any) -> None:
        self.engine, self.state, self.fits = engine, state, fits
        self.plans: list[BurstPlan] = []
        self.offsets: list[int] = []
        self.packets: list[DaietPacket] = []
        #: Each lone packet's ``pair_columns()``: its kernel input.
        self.extents: list[tuple[Any, Any, int, int]] = []

    def join(self, plan: BurstPlan, offset: int, ingress: int) -> bool:
        """Add ``plan``'s items from ``offset`` on (arriving on ``ingress``) if
        they are this tree's and within the switch's budgets."""
        if plan.window.tree_id != self.state.tree_id or not self.fits(
            plan.max_nbytes, plan.max_cost, ingress
        ):
            return False
        self.plans.append(plan)
        self.offsets.append(offset)
        return True

    def join_packet(self, packet: Any, ingress: int) -> bool:
        """Add a lone packet (arriving on ``ingress``) if it is a DATA packet
        of this tree that carries pairs and fits the switch's budgets.
        Anything else goes through ``_process_data`` or the forwarding
        stage on its own."""
        if (
            type(packet) is not DaietPacket
            or packet.packet_type is not _DATA
            or packet.tree_id != self.state.tree_id
            or not self.fits(packet.parse_depth_bytes(), packet.op_cost(), ingress)
        ):
            return False
        extent = packet.pair_columns()
        if extent[3] <= extent[2]:
            return False
        self.packets.append(packet)
        self.extents.append(extent)
        return True

    @staticmethod
    def passes(packet: Any) -> bool:
        """Whether a batch may pass ``packet``: a plain ACK only releases
        flushes sent before it, which the batch cannot have sent."""
        return type(packet) is DaietAck and not packet.pull

    def take(self, merged: Any) -> tuple[list[int], int, dict[int, list[tuple[int, Any]]]]:
        """Apply a prefix of the merged candidates through the register kernel.

        ``merged`` holds, in ``(time, seq)`` order, the member number of the
        item each candidate is; a window's candidates are its next items
        from its offset on, a lone packet is one. The kernel takes them up
        to the first one that is not shape-eligible or that its source's
        stream refuses (:meth:`DaietAggregationEngine._fresh_run`); the
        head was admitted, so it takes at least one. Each source's stream
        then advances over its share
        (:meth:`DaietAggregationEngine._accept_run`).

        Returns each member's count of taken items, their wire bytes, and
        what each taken item emitted, by merged position: spillover flushes,
        then its ACK, as ``_process_data`` emits them.
        """
        engine, state = self.engine, self.state
        plans, offsets, packets = self.plans, self.offsets, self.packets
        nwin = len(plans)
        shares = [_np.flatnonzero(merged == j) for j in range(nwin)]
        lone_at: list[int] = []
        if packets:
            lone = _np.flatnonzero(merged >= nwin)
            at_of = _np.full(len(packets), len(merged), dtype=_np.int64)
            at_of[merged[lone] - nwin] = lone
            lone_at = at_of.tolist()
        runs: defaultdict[str, list[tuple]] = defaultdict(list)
        for plan, offset, share in zip(plans, offsets, shares):
            runs[plan.window.src].append(_window_run(plan, offset, share))
        for packet, at in zip(packets, lone_at):
            runs[packet.src].append(_packet_run(packet, at))
        cut = len(merged)
        for src, held in runs.items():
            if len(held) > 1:
                held.sort(key=lambda run: run[0][0])  # arrival order
            refused = engine._fresh_run(state, src, held)
            if refused is not None and refused < cut:
                cut = refused
        counts = [int(_np.searchsorted(share, cut)) for share in shares]
        counts += [int(at < cut) for at in lone_at]
        kid_parts, val_parts, len_parts = [], [], []
        local = _np.empty(cut, dtype=_np.int64)
        nbytes = base = 0
        for plan, offset, share, count in zip(plans, offsets, shares, counts):
            if count:
                kids, vals, _count, _bounds = plan.kernel_input(offset, count)
                kid_parts.append(kids)
                val_parts.append(vals)
                len_parts.append(plan.npairs[offset : offset + count])
                local[share[:count]] = _np.arange(base, base + count, dtype=_np.int64)
                base += count
                nbytes += (plan.nbytes_cum[offset + count] - plan.nbytes_cum[offset]).item()
        lone_lens = []
        for packet, (kids, vals, lo, hi), at in zip(packets, self.extents, lone_at):
            if at < cut:
                kid_parts.append(kids[lo:hi])
                val_parts.append(vals[lo:hi])
                lone_lens.append(hi - lo)
                local[at] = base
                base += 1
                nbytes += packet.wire_bytes()
        if lone_lens:
            len_parts.append(_np.array(lone_lens, dtype=_np.int64))
        lens = _np.concatenate(len_parts)
        starts = _np.cumsum(lens) - lens
        kids, vals, bounds = gather_pairs(
            _np.concatenate(kid_parts), _np.concatenate(val_parts), starts[local], lens[local]
        )
        state.counters.packets_received += cut
        emitted: dict[int, list[tuple[int, Any]]] = {}
        for pkt_i, port, out in engine._vector_apply(state, kids, vals, cut, bounds):
            emitted.setdefault(pkt_i, []).append((port, out))
        for src, held in runs.items():
            if held[0][1] is None:  # an unsequenced source owes no ACK
                continue
            seqs: list[int] = []
            at: list[int] = []
            for positions, first, items, _admitted in held:
                if positions[0] >= cut:
                    break
                count = (
                    len(positions)
                    if positions[-1] < cut
                    else int(_np.searchsorted(positions, cut))
                )
                if count == 1:
                    seqs.append(first + items[0])
                    at.append(positions[0])
                else:
                    seqs += [first + i for i in items[:count]]
                    at += positions[:count].tolist()
            for i, port, ack in engine._accept_run(state, src, seqs):
                emitted.setdefault(int(at[i]), []).append((port, ack))
        return counts, nbytes, emitted


def _window_run(plan: BurstPlan, offset: int, positions: Any) -> tuple:
    """A window's candidate items from ``offset`` on, at merged
    ``positions``, as :meth:`DaietAggregationEngine._fresh_run` reads a run.

    Its items are admitted while shape-eligible and, when sequenced, not
    CE-marked: only a packet already built can carry the CE bit.
    """
    window = plan.window
    count = len(positions)
    items = plan.items[offset : offset + count]
    ok = plan.shape_ok[offset : offset + count]
    admitted = count if ok.all() else int(ok.argmin())
    if window.seq_start is not None:
        marked = (i - window.first for i, packet in window.built.items() if packet.ecn)
        for index in sorted(marked):
            at = bisect_left(items, index, 0, admitted)
            if at < admitted and items[at] == index:
                admitted = at
                break
    return positions, window.seq_start, items, admitted


def _packet_run(packet: DaietPacket, at: int) -> tuple:
    """A lone DATA packet at merged position ``at``, as a run of one."""
    seq = packet.seq
    return (at,), seq, (0,), int(seq is None or not packet.ecn)

