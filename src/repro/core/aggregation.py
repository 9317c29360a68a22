"""In-switch aggregation engine (Algorithm 1 of the paper).

For each aggregation tree a switch keeps two register arrays (keys and values)
managed as a hash table with single-element buckets, an index stack of used
slots, and a spillover bucket for colliding pairs. Each received DATA packet
updates this state pair by pair; an END packet decrements the
remaining-children counter and, when it reaches zero, the aggregated state is
flushed towards the next node of the tree, as one
:class:`~repro.core.packet.PacketWindow`.

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
from typing import Any, Iterable

from repro.checks.registry import fastpath
from repro.core.config import DaietConfig
from repro.core.errors import AggregationError
from repro.core.functions import SUM, AggregationFunction, get as get_function

#: The sum combiner: only trees that merge with it (integer ``+``) are
#: eligible for the vectorized scatter-add kernel.
_SUM_COMBINE = SUM.combine
from repro.core.packet import (
    DaietAck,
    DaietPacket,
    DaietPacketType,
    PacketWindow,
    RetransmitBuffer,
    SeenWindow,
    packetize_columns,
    packetize_pairs,
    packets_of,
)
from repro.dataplane import interning as _interning
from repro.dataplane.actions import Extern
from repro.dataplane.registers import IndexStack, RegisterArray, SpilloverBucket

try:  # The vectorized register kernel needs numpy; Algorithm 1 does not.
    import numpy as _np
except ImportError:  # pragma: no cover - the toolchain bakes numpy in
    _np = None

#: Overflow guard for the vectorized kernel's int64 delta array: once the
#: accumulated absolute mass of applied values reaches this bound the deltas
#: are folded into the (unbounded Python int) register cells, and a single
#: burst this massive is rejected outright so the per-pair path handles it.
_VEC_MASS_LIMIT = 1 << 62

#: ``_vec_kid_slot`` sentinel: key id not yet resolved for the current round.
_KID_UNKNOWN = -3
#: ``_vec_kid_slot`` sentinel: key id collides with a resident key this round.
_KID_COLLIDING = -1


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
    key_register: RegisterArray = field(init=False)
    value_register: RegisterArray = field(init=False)
    index_stack: IndexStack = field(init=False)
    spillover: SpilloverBucket = field(init=False)
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
    #: Memo of ``hash_key(key, register_slots)`` — the hash is deterministic
    #: and ``register_slots`` is fixed per tree, so repeated keys (the whole
    #: point of aggregation) skip the encode+CRC32 on every later packet.
    _hash_cache: dict[Any, int] = field(default_factory=dict, repr=False)
    #: True when this tree accepts the vectorized batch kernel (SUM function
    #: and numpy available). The per-pair path stays valid either way.
    _vec: bool = field(default=False, repr=False)
    #: int64 per-slot value deltas pending materialization into the cells.
    _vec_delta: Any = field(default=None, repr=False)
    #: kid -> register slot memo for the current round (``_KID_UNKNOWN`` /
    #: ``_KID_COLLIDING`` sentinels); reset by :meth:`rearm`.
    _vec_kid_slot: Any = field(default=None, repr=False)
    #: Sum of absolute values scatter-added since the last materialization
    #: (int64 overflow guard; doubles as the "deltas pending" dirty flag).
    _vec_mass: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        if self.num_children <= 0:
            raise AggregationError(
                f"tree {self.tree_id} on switch {self.switch_name!r} must have "
                "at least one child"
            )
        slots = self.config.register_slots
        self.key_register = RegisterArray(slots, name=f"tree{self.tree_id}.keys")
        self.value_register = RegisterArray(slots, name=f"tree{self.tree_id}.values")
        self.index_stack = IndexStack(capacity=slots)
        self.spillover = SpilloverBucket(capacity=self.config.pairs_per_packet)
        self.remaining_children = self.num_children
        stride = self.config.sampled_ack_stride if self.policy == "sampled" else 1
        self._ack_every = self.config.ack_window * stride
        self._reliable_emit = self.config.reliability and self.policy != "best_effort"
        if _np is not None and self.function.combine is _SUM_COMBINE:
            self._vec = True
            self._vec_delta = _np.zeros(slots, dtype=_np.int64)
            self._vec_kid_slot = _np.full(
                max(64, _interning.pool_size()), _KID_UNKNOWN, dtype=_np.int64
            )

    def window(self, src: str) -> SeenWindow:
        """The sequence-number window tracking one child's stream."""
        return self._seen[src]

    def materialize(self) -> None:
        """Fold pending vectorized value deltas into the register cells.

        The batch kernel scatter-adds into :attr:`_vec_delta` instead of the
        per-slot cells, so any reader of cell *values* — the final flush, the
        error tracker, the sanitizer-era direct readers, tests — must fold
        first. No-op when nothing is pending; the per-pair path never dirties
        the delta array, so mixed traffic stays exact (integer addition is
        associative, and only SUM trees are vectorized).
        """
        if self._vec_mass == 0:
            return
        delta = self._vec_delta
        cells = self.value_register._cells
        touched = _np.flatnonzero(delta).tolist()
        for idx, pending in zip(touched, delta[touched].tolist()):
            cells[idx] = cells[idx] + pending
        delta.fill(0)
        self._vec_mass = 0

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
        for idx in self.index_stack.drain():
            self.key_register.clear(idx)
            self.value_register.clear(idx)
        self.spillover.flush()
        self.remaining_children = self.num_children
        self._ended_sources.clear()
        if self._vec:
            # Cells were just released, so every kid -> slot memo is stale;
            # discarded deltas (a rearm outside the flush path) die with them.
            if self._vec_mass:
                self._vec_delta.fill(0)
                self._vec_mass = 0
            self._vec_kid_slot.fill(_KID_UNKNOWN)


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
        tree (per-tree selective reliability); ``None`` inherits it.
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

    # ------------------------------------------------------------------ #
    # Data-plane entry points
    # ------------------------------------------------------------------ #
    def handle_packet(self, packet: DaietPacket) -> list[tuple[int, Any]]:
        """Consume one packet; return ``(egress_port, packet)`` emissions.

        This is the full data-plane behaviour: parent-bound flushes plus any
        child-bound reliability ACKs, each flush window cut into its packets.
        """
        state = self.tree(packet.tree_id)
        state.counters.packets_received += 1
        if packet.packet_type is DaietPacketType.DATA:
            return packets_of(self._process_data(state, packet))
        return packets_of(self._process_end(state, packet))

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
        emitted: list[tuple[int, Any]] = []
        if packet.seq is not None:
            window = state.window(packet.src)
            if not window.observe(packet.seq):
                # Retransmission of something already aggregated: idempotent.
                state.counters.duplicate_packets += 1
                return self._ack_child(state, packet.src, window)
        # Hot loop of Algorithm 1. Register cells are accessed directly (the
        # hash already guarantees a valid index), the per-key CRC32 is
        # memoized on the tree, and ``combine`` skips the AggregationFunction
        # __call__ indirection — this loop runs once per pair per hop.
        counters = state.counters
        key_cells = state.key_register._cells
        value_cells = state.value_register._cells
        slots = state.config.register_slots
        hash_cache = state._hash_cache
        combine = state.function.combine
        index_stack = state.index_stack
        spillover = state.spillover
        pairs = packet.pairs
        inserted = 0
        aggregated = 0
        # Hit first: repeated keys are the whole point of aggregation, and
        # key->slot resolution is a plain subscript (the KeyError path only
        # runs on a key's first appearance).
        for key, value in pairs:
            try:
                idx = hash_cache[key]
            except KeyError:
                idx = hash_cache[key] = hash_key(key, slots)
            cell_key = key_cells[idx]
            if cell_key == key:
                value_cells[idx] = combine(value_cells[idx], value)
                aggregated += 1
            elif cell_key is None:
                key_cells[idx] = key
                value_cells[idx] = value
                index_stack.push(idx)
                inserted += 1
            else:
                counters.collisions += 1
                if spillover.store(key, value, state.function):
                    if spillover.is_full:
                        emitted.extend(self._flush_spillover(state))
                else:
                    counters.spillover_merges += 1
        counters.pairs_received += len(pairs)
        counters.pairs_inserted += inserted
        counters.pairs_aggregated += aggregated
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
        mass: int,
        n: int,
        bounds: Any,
    ) -> list[tuple[int, int, Any]] | None:
        """Apply the pairs of a burst of DATA packets as one vectorized op.

        ``kids``/``vals`` are the burst's interned key ids and values as
        int64 arrays in packet order, ``n`` the number of packets, ``bounds``
        their cumulative pair counts (so emissions can be tagged with the
        packet index they followed), ``mass`` the exact sum of absolute
        values. The simulator's burst plan assembles these at send time
        (``_BurstPlan.kernel_input``); the caller guarantees every packet is
        a DATA packet of this ``_vec`` tree that :meth:`_fresh_run` admitted,
        and advances the streams with :meth:`_accept_run` once this returns.

        Resident keys resolve to register slots through the ``_vec_kid_slot``
        memo and are scatter-added into ``_vec_delta`` in one ``np.add.at``.
        Unresolved occurrences take an ordered Python walk that replicates
        the per-pair loop exactly — same insertion winners, same collision
        counters — and the colliding ones replay the ``SpilloverBucket``'s
        store/flush order over kids (:meth:`_spill_columns`).

        Returns emissions as ``(packet_index, egress_port, packet)`` so the
        caller can restore each spillover flush (an item of the call's one
        flush window) to its packet's delivery time, or ``None`` when the
        burst's value mass alone could overflow the int64 delta array — the
        caller then replays the burst through the per-pair oracle path.
        """
        if state._vec_mass + mass >= _VEC_MASS_LIMIT:
            state.materialize()
            if mass >= _VEC_MASS_LIMIT:
                return None
        kid_slot = state._vec_kid_slot
        size = kid_slot.shape[0]
        top = int(kids.max())
        if top >= size:
            while size <= top:
                size *= 2
            grown = _np.full(size, _KID_UNKNOWN, dtype=_np.int64)
            grown[: kid_slot.shape[0]] = kid_slot
            state._vec_kid_slot = kid_slot = grown
        st = kid_slot[kids]
        counters = state.counters
        emissions: list[tuple[int, int, Any]] = []
        inserted = 0
        spilled = 0
        neg_pos = _np.flatnonzero(st < 0)
        if len(neg_pos):
            key_cells = state.key_register._cells
            value_cells = state.value_register._cells
            slots = state.config.register_slots
            index_stack = state.index_stack
            crc_of = _interning.crc_of
            key_of = _interning.key_of
            # Phase A: resolve each distinct unknown kid exactly once, in
            # first-occurrence order. That order is what the per-pair loop
            # uses to pick insertion winners, and a kid's verdict (claimed
            # slot vs colliding) cannot change mid-round: cells are only
            # freed by rearm(), which also resets the memo. First-occurrence
            # positions come from a min-scatter (cheaper than a sort-based
            # np.unique at this size, and ufunc.at is well-defined under
            # duplicate indices).
            neg_kids = kids[neg_pos]
            nneg = len(neg_pos)
            first_at = _np.full(size, nneg, dtype=_np.int64)
            _np.minimum.at(first_at, neg_kids, _np.arange(nneg, dtype=_np.int64))
            uniq = _np.flatnonzero(first_at < nneg)
            for kid in uniq[_np.argsort(first_at[uniq])].tolist():
                if kid_slot[kid] != _KID_UNKNOWN:
                    continue
                idx = crc_of(kid) % slots
                cell_key = key_cells[idx]
                if cell_key is None:
                    key_cells[idx] = key_of(kid)
                    value_cells[idx] = 0
                    index_stack.push(idx)
                    kid_slot[kid] = idx
                    inserted += 1
                elif cell_key == key_of(kid):
                    kid_slot[kid] = idx
                else:
                    kid_slot[kid] = _KID_COLLIDING
            # Phase B: re-gather — every formerly unknown occurrence now
            # maps to its slot or to _KID_COLLIDING.
            st_neg = kid_slot[neg_kids]
            st[neg_pos] = st_neg
            # Phase C: the true collisions, in original pair order, through
            # the spillover bucket. The resident scatter-add and this stream
            # are independent: claims never read the spillover, collisions
            # never touch the cells.
            coll_rel = _np.flatnonzero(st_neg == _KID_COLLIDING)
            spilled = len(coll_rel)
            if spilled:
                coll_pos = neg_pos[coll_rel]
                coll_kids = neg_kids[coll_rel].tolist()
                coll_vals = vals[coll_pos].tolist()
                if n == 1:
                    coll_pkt = [0] * spilled
                else:
                    coll_pkt = _np.searchsorted(
                        bounds, coll_pos, side="right"
                    ).tolist()
                emissions = self._spill_columns(state, coll_kids, coll_vals, coll_pkt)
                if emissions is None:
                    emissions = self._spill_pairs(state, coll_kids, coll_vals, coll_pkt)
                counters.collisions += spilled
            resident = st >= 0
            _np.add.at(state._vec_delta, st[resident], vals[resident])
        else:
            _np.add.at(state._vec_delta, st, vals)
        state._vec_mass += mass
        total = int(bounds[-1])
        counters.packets_received += n
        counters.pairs_received += total
        counters.pairs_inserted += inserted
        counters.pairs_aggregated += total - spilled - inserted
        return emissions

    def _spill_columns(
        self, state: TreeState, kids: list[int], vals: list[int], at: list[int]
    ) -> list[tuple[int, int, Any]] | None:
        """Phase C of :meth:`_vector_apply` in kid space.

        Replays the colliding pairs (``kids``/``vals`` in pair order, ``at``
        the index of the packet each came in) as ``SpilloverBucket.store``
        does for a SUM tree: a kid already held merges into its entry, a new
        one is appended, and the pair that fills the bucket (one packet's
        worth) flushes it. The replay starts from what the tree's bucket
        holds, stores of the per-pair loop included, and leaves the bucket
        holding what is left over, so both paths keep sharing it. The
        call's flushes are cut by one :func:`packetize_columns` into one
        window; flush ``j`` leaves as ``window[j]``, tagged with the packet
        whose pair filled it.

        ``None``, touching nothing, when the bucket holds a key the pool
        never interned or a value that is not a plain ``int`` within
        ±2**62, or when a flushed sum reaches ±2**62: :meth:`_spill_pairs`
        replays the stream instead.
        """
        spillover = state.spillover
        held = spillover.peek()
        order = [_interning.kid_of(key) for key, _value in held]
        sums = [value for _key, value in held]
        if held and (
            min(order) < 0
            or set(map(type, sums)) != {int}
            or max(map(abs, sums)) >= _VEC_MASS_LIMIT
        ):
            return None
        slot = dict(zip(order, range(len(order))))
        capacity = spillover.capacity
        cut_kids: list[int] = []
        cut_vals: list[int] = []
        cut_at: list[int] = []
        merges = 0
        for kid, value, pkt_i in zip(kids, vals, at):
            i = slot.get(kid)
            if i is not None:
                sums[i] += value
                merges += 1
                continue
            slot[kid] = len(order)
            order.append(kid)
            sums.append(value)
            if len(order) == capacity:
                cut_kids += order
                cut_vals += sums
                cut_at.append(pkt_i)
                order, sums, slot = [], [], {}
        if cut_at:
            # A flushed sum is a held value plus this call's values, each
            # part below 2**62 in magnitude (the kernel's mass guard): the
            # int64 conversion cannot overflow.
            flushed = _np.array(cut_vals, dtype=_np.int64)
            if flushed.min() <= -_VEC_MASS_LIMIT or flushed.max() >= _VEC_MASS_LIMIT:
                return None
        spillover.flush()
        for key, value in zip(_interning.keys_of(order), sums):
            spillover.store(key, value)
        state.counters.spillover_merges += merges
        if not cut_at:
            return []
        columns = (_np.array(cut_kids, dtype=_np.int64), flushed)
        window = self._packetize(state, False, columns=columns)
        state.counters.spillover_flushes += len(cut_at)
        port = state.egress_port
        return [(cut_at[j], port, window[j]) for j in range(len(cut_at))]

    def _spill_pairs(
        self, state: TreeState, kids: list[int], vals: list[int], at: list[int]
    ) -> list[tuple[int, int, Any]]:
        """Phase C over keys, one store and one flush at a time, as the
        per-pair loop does it: for a bucket :meth:`_spill_columns` refuses."""
        spillover = state.spillover
        function = state.function
        key_of = _interning.key_of
        emissions = []
        merges = 0
        for kid, value, pkt_i in zip(kids, vals, at):
            if not spillover.store(key_of(kid), value, function):
                merges += 1
            elif spillover.is_full:
                for port, out in self._flush_spillover(state):
                    emissions.append((pkt_i, port, out))
        state.counters.spillover_merges += merges
        return emissions

    def _fresh_run(self, state: TreeState, window: PacketWindow, items: Any) -> int:
        """How many of ``window``'s DATA items ``items`` the kernel may take.

        ``items`` are ascending window indexes, in arrival order; the kernel
        may take the prefix of the length returned. An unsequenced run
        always qualifies. A sequenced packet qualifies while it is not
        CE-marked, its number is above every number the source's stream has
        seen (its high-water mark) and the stream holds no stashed END: then
        the stream side of :meth:`_process_data` only records it, counts it
        towards the cadence and owes an ACK on the cadence or a fresh hole,
        which :meth:`_accept_run` does for the run. A window's numbers
        ascend, so only its first item can fall behind the high-water mark,
        and only a packet already built can carry the CE bit. Duplicates,
        gap-fills and the arrivals that complete a stream stay with
        :meth:`_process_data`.
        """
        if window.seq_start is None or not items:
            return len(items)
        stream = state._seen.get(window.src)
        if stream is not None and (
            stream.end_seq is not None or window.seq_start + items[0] <= stream.high_water
        ):
            return 0
        marked = (i - window.first for i, packet in window.built.items() if packet.ecn)
        for index in sorted(marked):
            at = bisect_left(items, index)
            if at < len(items) and items[at] == index:
                return at
        return len(items)

    def _accept_run(
        self, state: TreeState, window: PacketWindow, items: Any
    ) -> list[tuple[int, int, DaietAck]]:
        """Advance the source's stream over ``window``'s items the kernel just applied.

        ``items`` are their window indexes, as :meth:`_fresh_run` admitted
        them. Returns the ACKs :meth:`_process_data` would have emitted for
        them, as ``(position in items, port, ack)``.
        """
        first, src = window.seq_start, window.src
        if first is None or not items:
            return []
        owed = state._seen[src].accept_run([first + i for i in items], state._ack_every)
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
    def _flush_spillover(self, state: TreeState) -> list[tuple[int, Any]]:
        pairs = state.spillover.flush()
        if not pairs:
            return []
        state.counters.spillover_flushes += 1
        return self._emit_pairs(state, pairs, include_end=False)

    def _flush_all(self, state: TreeState) -> list[tuple[int, Any]]:
        """Flush spillover first, then the aggregated registers, then END."""
        state.counters.final_flushes += 1
        pairs: list[tuple[Any, Any]] = state.spillover.flush()
        columns = self._drain_columns(state, pairs) if state._vec else None
        if columns is not None:
            return self._emit_pairs(state, (), include_end=True, columns=columns)
        state.materialize()
        key_cells = state.key_register._cells
        value_cells = state.value_register._cells
        for idx in state.index_stack.drain():
            key = key_cells[idx]
            if key is None:
                raise AggregationError(
                    f"index stack of tree {state.tree_id} pointed at an empty slot"
                )
            pairs.append((key, value_cells[idx]))
            key_cells[idx] = None
            value_cells[idx] = None
        return self._emit_pairs(state, pairs, include_end=True)

    def _drain_columns(
        self, state: TreeState, spilled: list[tuple[Any, Any]]
    ) -> tuple[Any, Any] | None:
        """The walk's pairs of :meth:`_flush_all`, in its order, as int64 columns.

        Values are cells plus pending kernel deltas; a slot's kid comes from
        the kernel's kid -> slot memo (a slot only the per-pair loop claimed
        looks its key up). Drains the registers; ``None``, touching nothing,
        when a value is not a plain ``int`` within ±2**62 or a key was never
        interned.
        """
        index_stack = state.index_stack
        key_cells = state.key_register._cells
        value_cells = state.value_register._cells
        slots = index_stack.peek_all()[::-1]
        values = [value for _key, value in spilled]
        values += map(value_cells.__getitem__, slots)
        if not values or set(map(type, values)) != {int}:
            return None
        try:
            spilled_kids = _interning.intern_keys([key for key, _value in spilled])[0]
            vals = _np.array(values, dtype=_np.int64)
        except (TypeError, OverflowError):
            return None
        if vals.min() <= -_VEC_MASS_LIMIT or vals.max() >= _VEC_MASS_LIMIT:
            return None
        at = _np.array(slots, dtype=_np.int64)
        kid_slot = state._vec_kid_slot
        seen = _np.flatnonzero(kid_slot >= 0)
        slot_kid = _np.full(state.config.register_slots, -1, dtype=_np.int64)
        slot_kid[kid_slot[seen]] = seen
        kids = _np.concatenate((spilled_kids, slot_kid[at]))
        unseen = _np.flatnonzero(kids < 0)
        if len(unseen):
            first = len(spilled)
            kids[unseen] = [
                _interning.kid_of(key_cells[slots[i - first]]) for i in unseen.tolist()
            ]
            if kids.min() < 0:
                return None
        if state._vec_mass:
            # Cells and deltas are each below 2**62 in magnitude: no overflow.
            vals[len(spilled) :] += state._vec_delta[at]
            if vals.min() <= -_VEC_MASS_LIMIT or vals.max() >= _VEC_MASS_LIMIT:
                return None
            state._vec_delta[at] = 0
            state._vec_mass = 0
        for idx in slots:
            key_cells[idx] = None
            value_cells[idx] = None
        index_stack.clear()
        return kids, vals

    def _emit_pairs(
        self,
        state: TreeState,
        pairs: Iterable[tuple[str, int]],
        include_end: bool,
        columns: tuple[Any, Any] | None = None,
    ) -> list[tuple[int, Any]]:
        """Cut one flush (``pairs``, or ``columns``) into ``[(port, window)]``.

        A one-packet flush gets no burst plan, so it leaves as its packet.
        """
        window = self._packetize(state, include_end, pairs, columns)
        return [(state.egress_port, window[0] if len(window) == 1 else window)]

    def _packetize(
        self,
        state: TreeState,
        include_end: bool,
        pairs: Iterable[tuple[str, int]] = (),
        columns: tuple[Any, Any] | None = None,
    ) -> PacketWindow:
        """Cut flushed ``pairs`` (or ``columns``) into one window; count and buffer it.

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
        header = (state.tree_id, self.switch_name, state.next_hop_dst, state.config)
        if columns is not None:
            window = packetize_columns(*columns, *header, include_end, seq_start)
        else:
            window = packetize_pairs(pairs, *header, include_end, seq_start)
        count = len(window)
        state.counters.packets_emitted += count
        state.counters.pairs_emitted += len(window.pairs)
        if seq_start is not None:
            state._next_seq += count
            state._sent.unacked.update(
                zip(range(seq_start, seq_start + count), zip(repeat(window), range(count)))
            )
        return window
