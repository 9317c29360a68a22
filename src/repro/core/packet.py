"""DAIET wire format.

Section 4 of the paper: intermediate map output "partitions are sent to the
reducer using UDP packets containing a small preamble and a sequence of
key-value pairs"; the preamble specifies the number of pairs and the tree id;
pairs use a fixed-size representation (16-byte keys, 4-byte integer values in
the prototype) so that packetization never needs to deserialize the data; the
end of a partition is marked by a special END packet.

The header is the contract. A pair is an exact ``str``/``bytes`` key of at
most ``key_width`` encoded bytes and an exact ``int`` value in the signed
:data:`~repro.core.config.VALUE_WIDTH`-byte range; :func:`check_pair` states
the rule once. The constructor applies it pair by pair, a map task to each
pair it emits, and the packetizers once per value column, at send: a pair
the header cannot carry never becomes a packet. A switch flush's values are
register contents, so there the same check is the register-overflow rule: a
round whose flushed value leaves the range is refused.

:class:`DaietPacket` models one such UDP packet. It exposes

* ``wire_bytes()`` — full frame size including Ethernet/IP/UDP encapsulation,
* ``parse_depth_bytes()`` — how deep the bounded-depth switch parser must
  read: the whole frame, preamble and every pair header, which is exactly
  why the pair count per packet is limited on real hardware,
* no byte codec: sizes are arithmetic over the fixed-size pair format, and
  the tests check them against a reference encoder
  (``tests/core/daiet_codec.py``).

:func:`packetize_pairs` takes the paper at its word: a partition becomes a
:class:`PacketWindow`, whose sizes, sequence numbers and pair columns are
arithmetic over the partition. A ``DaietPacket`` is built from it only for a
consumer that needs one. A switch flush leaves as such a window too.
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass, field, fields, replace
from typing import Any, Iterable, Iterator

import numpy as _np

from repro.core.config import (
    DAIET_PREAMBLE_BYTES,
    ETHERNET_HEADER_BYTES,
    IP_HEADER_BYTES,
    UDP_HEADER_BYTES,
    VALUE_WIDTH,
    DaietConfig,
)
from repro.core.errors import PacketFormatError
from repro.dataplane import interning as _interning

#: Sentinel marking a packet that belongs to no partition's columns (yet).
_VEC_UNSET = object()

#: The signed range a ``VALUE_WIDTH``-byte value field carries:
#: ``VALUE_MIN <= value < VALUE_LIMIT``.
VALUE_LIMIT = 1 << (8 * VALUE_WIDTH - 1)
VALUE_MIN = -VALUE_LIMIT


def check_pair(key: Any, value: Any, key_width: int) -> bool:
    """Refuse a pair the header cannot carry; whether its key ends in NUL.

    The key must be an exact ``str`` or ``bytes`` of at most ``key_width``
    encoded bytes, the value an exact ``int`` in ``[VALUE_MIN,
    VALUE_LIMIT)`` (a ``bool`` or a ``float`` is refused: the value field
    holds neither). Raises :class:`PacketFormatError` otherwise. A key that
    ends in a NUL byte is legal but costs an explicit length byte on the
    wire, hence the answer.
    """
    if type(key) is str and key.isascii():
        encoded_len = len(key)
        ends_nul = encoded_len > 0 and key[-1] == "\x00"
    else:
        if type(key) is str:
            encoded = key.encode()
        elif type(key) is bytes:
            encoded = key
        else:
            # A switch's key register holds interned kids, and only exact
            # str/bytes keys are interned.
            raise PacketFormatError(
                f"key {key!r} is a {type(key).__name__}; keys are str or bytes"
            )
        encoded_len = len(encoded)
        ends_nul = encoded.endswith(b"\x00")
    if encoded_len > key_width:
        raise PacketFormatError(
            f"key {key!r} is {encoded_len} B, exceeding the fixed key "
            f"width of {key_width} B"
        )
    if type(value) is not int:
        raise PacketFormatError(
            f"value {value!r} is a {type(value).__name__}; values are int"
        )
    if not VALUE_MIN <= value < VALUE_LIMIT:
        raise PacketFormatError(f"value {value} does not fit in {VALUE_WIDTH} bytes")
    return ends_nul


#: The value field as a column dtype: a 4-byte value is an ``int32``.
_VALUE_DTYPE = _np.dtype(f"int{8 * VALUE_WIDTH}")


def _fits(vals: Any) -> bool:
    """Whether every value of the register column ``vals`` fits the value field."""
    return not len(vals) or (vals.min() >= VALUE_MIN and vals.max() < VALUE_LIMIT)


def _value_column(values: list[Any]) -> Any:
    """``values`` as a value-field column; ``None`` when one breaks the contract.

    The bulk form of :func:`check_pair`'s value rule: one type scan and one
    conversion per partition. The column is as wide as the value field, so
    the conversion is the range test: NumPy refuses a value the field cannot
    hold.
    """
    if values and set(map(type, values)) != {int}:
        return None
    try:
        return _np.fromiter(values, dtype=_VALUE_DTYPE, count=len(values))
    except OverflowError:
        return None


class PairColumns:
    """One partition's pairs as the register kernel reads them.

    ``kids`` and ``vals`` are arrays over the partition's pairs in order
    (interned key ids, see :mod:`repro.dataplane.interning`, and values,
    each within the value field's range); packet ``i`` of the partition
    owns the ``per`` pairs from ``i * per`` on (fewer in the last packet).
    A host's partition holds the ``int32`` kid column the packetizer
    interned and the ``int32`` value column it checked: four bytes a pair
    each, the width of the header's value field. A switch's flush holds the
    register kernel's own ``int64`` kids and values, range-checked at the
    cut.
    """

    __slots__ = ("kids", "vals", "per")

    def __init__(self, kids: Any, vals: Any, per: int) -> None:
        self.kids = kids
        self.vals = vals
        #: Pairs per packet (the last packet may carry fewer).
        self.per = per


class _ColumnPairs(Sequence):
    """A column window's pairs, read back from its columns as asked.

    Nothing is kept: a packet built from the window reads only its own
    slice, keys from the intern pool and values as Python ints.
    """

    __slots__ = ("_kids", "_vals")

    def __init__(self, kids: Any, vals: Any) -> None:
        self._kids = kids
        self._vals = vals

    def __len__(self) -> int:
        return len(self._kids)

    def __getitem__(self, index: Any) -> Any:
        if isinstance(index, slice):
            return tuple(
                zip(_interning.keys_of(self._kids[index].tolist()), self._vals[index].tolist())
            )
        return _interning.keys_of((self._kids[index].item(),))[0], self._vals[index].item()


#: Ethernet + IPv4 + UDP: what every frame carries besides its DAIET payload.
_FRAME_BYTES = ETHERNET_HEADER_BYTES + IP_HEADER_BYTES + UDP_HEADER_BYTES

#: UDP destination port reserved for DAIET traffic in the simulation.
DAIET_UDP_PORT = 5555

#: Serialized size of the optional per-tree sequence number.
SEQ_BYTES = 4

#: Serialized size of a DAIET ACK payload before its SACK list (preamble-sized
#: header plus 32-bit cumulative ACK, 16-bit SACK count and an 8-bit pull flag).
DAIET_ACK_BASE_BYTES = DAIET_PREAMBLE_BYTES + 7

#: Serialized size of one SACK entry in a DAIET ACK.
DAIET_ACK_SACK_BYTES = 4

#: Maximum SACK entries one ACK may carry: the ACK must stay within the
#: switch parser's bounded parse depth (~300 B), exactly like DATA packets
#: are limited to ~10 pairs. Receivers report the lowest out-of-order
#: sequence numbers first; anything beyond the cap is recovered by later
#: ACKs or the pull path.
DAIET_ACK_MAX_SACK = 32


def steer_ops(npairs: int) -> int:
    """The op cost of a steered packet carrying ``npairs`` pairs.

    Parsing 1, the ``daiet_steer`` lookup 1, the bound action 1, and one per
    pair, at least one: a DATA packet costs ``3 + max(1, npairs)``, an END
    or an ACK 4 (see :mod:`repro.dataplane.switch`).
    """
    return 3 + (npairs if npairs > 1 else 1)


class DaietPacketType(enum.Enum):
    """The two packet kinds of the DAIET protocol."""

    DATA = 1
    END = 2


@dataclass(frozen=True, slots=True)
class DaietPacket:
    """One DAIET protocol packet (DATA with key-value pairs, or END marker).

    Instances are immutable, so every derived quantity that the hot paths
    need repeatedly — payload/wire sizes, the key-length flag, the parser's
    size profile — is computed once in ``__post_init__`` (or lazily, for the
    parser profile) and cached in slots. ``wire_bytes()`` in particular is
    read on every hop, every stats record and every retransmission.

    A packet its :class:`PacketWindow` built holds no pair tuple: its pairs
    are its slice of the partition's columns (:meth:`pair_columns`), which
    is all a switch's kernel, a switch's budget check and the reducer's
    :class:`~repro.core.daiet.DaietReceiver` read. ``pairs`` comes back as
    tuples (keys from the intern pool) the first time something reads it,
    and is kept; equality, ``hash``, ``repr`` and ``dataclasses.replace``
    read it too, so they see what the constructor-built twin holds.
    """

    tree_id: int
    src: str
    dst: str
    packet_type: DaietPacketType = DaietPacketType.DATA
    pairs: tuple[tuple[str, int], ...] = ()
    config: DaietConfig = field(default_factory=DaietConfig)
    #: Optional per-(tree, sender) sequence number used by the reliability
    #: layer; ``None`` keeps the original, unreliable wire format byte-for-byte.
    seq: int | None = None
    #: ECN congestion-experienced bit. The packet is otherwise immutable, but
    #: a congested switch egress queue sets this in flight (the simulator uses
    #: ``object.__setattr__``, mirroring a real CE re-mark) — it is excluded
    #: from equality so a marked packet still deduplicates against its
    #: unmarked retransmission. The bit rides in the IP header, so it never
    #: changes any wire size.
    ecn: bool = field(default=False, compare=False)
    #: Cached: True when fixed-width keys need explicit length bytes on the wire.
    _keylen_needed: bool = field(init=False, repr=False, compare=False)
    #: Cached DAIET payload size (preamble + pairs).
    _payload_bytes: int = field(init=False, repr=False, compare=False)
    #: The :class:`PairColumns` this packet's pairs are part of and the
    #: packet's index in it (see ``vector_pairs()``).
    _vec_cache: Any = field(init=False, repr=False, compare=False)
    _vec_at: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.tree_id < 0:
            raise PacketFormatError("tree_id must be non-negative")
        if self.seq is not None and not 0 <= self.seq < 2**32:
            raise PacketFormatError("seq must fit an unsigned 32-bit field")
        pairs = _get_pairs(self)
        if self.packet_type is DaietPacketType.END and pairs:
            raise PacketFormatError("END packets must not carry key-value pairs")
        config = self.config
        if len(pairs) > config.pairs_per_packet:
            raise PacketFormatError(
                f"packet carries {len(pairs)} pairs but the configuration "
                f"allows at most {config.pairs_per_packet}"
            )
        # One pass over the pairs checks each one against the contract and
        # finds whether any key needs its explicit length byte.
        key_width = config.key_width
        keylen_needed = False
        for key, value in pairs:
            if check_pair(key, value, key_width):
                keylen_needed = True
        num_pairs = len(pairs)
        pair_bytes = num_pairs * config.pair_bytes
        if keylen_needed:
            pair_bytes += num_pairs
        extra = SEQ_BYTES if self.seq is not None else 0
        object.__setattr__(self, "_keylen_needed", keylen_needed)
        object.__setattr__(
            self, "_payload_bytes", DAIET_PREAMBLE_BYTES + extra + pair_bytes
        )
        object.__setattr__(self, "_vec_cache", _VEC_UNSET)
        object.__setattr__(self, "_vec_at", 0)

    # ------------------------------------------------------------------ #
    # Vectorized-kernel view
    # ------------------------------------------------------------------ #
    def pair_columns(self) -> tuple[Any, Any, int, int]:
        """``(kids, vals, lo, hi)``: the packet's pairs as the extent
        ``[lo, hi)`` of its partition's kid and value columns.

        A packet its window built points into the partition's
        :class:`PairColumns`; any other packet is a partition of one, built
        here on first use from pairs the constructor checked. Consecutive
        packets of one window hold consecutive extents of the same columns.
        """
        columns = self._vec_cache
        if columns is _VEC_UNSET:
            pairs = _get_pairs(self)
            columns = PairColumns(
                _interning.intern_keys([key for key, _value in pairs])[0],
                _np.array([value for _key, value in pairs], dtype=_VALUE_DTYPE),
                len(pairs),
            )
            _set_vec_cache(self, columns)
        lo = self._vec_at * columns.per
        hi = lo + columns.per
        end = len(columns.kids)
        return columns.kids, columns.vals, lo, hi if hi < end else end

    def vector_pairs(self):
        """The packet's pairs as ``(kids, vals)``, or ``None`` when it has none.

        ``kids`` and ``vals`` are this packet's slices of its partition's
        columns (views, not copies, see :meth:`pair_columns`). Pairs come
        back as tuples only where something reads :attr:`pairs`.
        """
        if self._vec_cache is _VEC_UNSET and not _get_pairs(self):
            return None
        kids, vals, lo, hi = self.pair_columns()
        return (kids[lo:hi], vals[lo:hi]) if hi > lo else None

    def restamped(self, tree_id: int, seq: int) -> "DaietPacket":
        """This packet under another tree id and sequence number.

        Failover replay sends a retained packet again through a re-planned
        tree. The pairs are unchanged, so the copy keeps the measured sizes
        and the vector view (a packet its window built stays without a pair
        tuple); only the sequence field may be new on the wire.
        """
        if tree_id < 0:
            raise PacketFormatError("tree_id must be non-negative")
        if not 0 <= seq < 2**32:
            raise PacketFormatError("seq must fit an unsigned 32-bit field")
        unsequenced = self.seq is None
        return _assemble(
            tree_id,
            self.src,
            self.dst,
            self.packet_type,
            _get_pairs(self),
            self.config,
            seq,
            self.ecn,
            self._keylen_needed,
            self._payload_bytes + (SEQ_BYTES if unsequenced else 0),
            self._vec_cache,
            self._vec_at,
        )

    # ------------------------------------------------------------------ #
    # Sizes
    # ------------------------------------------------------------------ #
    def payload_bytes(self) -> int:
        """DAIET payload size: preamble plus the serialized pairs (cached)."""
        return self._payload_bytes

    def wire_bytes(self) -> int:
        """Full frame size (Ethernet + IPv4 + UDP + DAIET payload)."""
        return _FRAME_BYTES + self._payload_bytes

    def parse_depth_bytes(self) -> int:
        """Total bytes a switch parser must inspect for this packet.

        Every header of a DAIET packet — encapsulation, preamble *and* all
        pair headers — is parseable, so the parse depth equals the frame
        size (see ``HeaderParser.charge``).
        """
        return _FRAME_BYTES + self._payload_bytes

    def op_cost(self) -> int:
        """Operations a switch spends on this packet when it steers it."""
        columns = self._vec_cache
        if columns is _VEC_UNSET:
            return steer_ops(len(_get_pairs(self)))
        left = len(columns.kids) - self._vec_at * columns.per
        return steer_ops(left if left < columns.per else columns.per)


#: Each slot's own setter, in field order. A frozen dataclass refuses
#: ``setattr`` and ``object.__setattr__`` looks the name up on every call;
#: :func:`_assemble` runs once per packet of every partition.
(
    _set_tree_id,
    _set_src,
    _set_dst,
    _set_packet_type,
    _set_pairs,
    _set_config,
    _set_seq,
    _set_ecn,
    _set_keylen_needed,
    _set_payload_bytes,
    _set_vec_cache,
    _set_vec_at,
) = (vars(DaietPacket)[spec.name].__set__ for spec in fields(DaietPacket))
#: The ``pairs`` slot as stored: a tuple, or ``None`` in a packet its window
#: built until something reads :attr:`DaietPacket.pairs`.
_get_pairs = vars(DaietPacket)["pairs"].__get__


def _read_pairs(packet: DaietPacket) -> tuple[tuple[Any, int], ...]:
    pairs = _get_pairs(packet)
    if pairs is None:
        kids, vals, lo, hi = packet.pair_columns()
        pairs = _ColumnPairs(kids, vals)[lo:hi]
        _set_pairs(packet, pairs)
    return pairs


DaietPacket.pairs = property(  # type: ignore[assignment]
    _read_pairs, _set_pairs, doc="The packet's pairs, built from its columns on first read."
)


def _assemble(
    tree_id: int,
    src: str,
    dst: str,
    packet_type: DaietPacketType,
    pairs: tuple[tuple[str, int], ...] | None,
    config: DaietConfig,
    seq: int | None,
    ecn: bool,
    keylen_needed: bool,
    payload_bytes: int,
    vec_cache: Any = _VEC_UNSET,
    vec_at: int = 0,
) -> DaietPacket:
    """Build a packet without ``__post_init__``.

    For callers that already hold what validation would establish and
    measurement would compute: every field is taken as given. ``pairs``
    is ``None`` for a packet whose pairs are its extent of ``vec_cache``.
    """
    packet = object.__new__(DaietPacket)
    _set_tree_id(packet, tree_id)
    _set_src(packet, src)
    _set_dst(packet, dst)
    _set_packet_type(packet, packet_type)
    _set_pairs(packet, pairs)
    _set_config(packet, config)
    _set_seq(packet, seq)
    _set_ecn(packet, ecn)
    _set_keylen_needed(packet, keylen_needed)
    _set_payload_bytes(packet, payload_bytes)
    _set_vec_cache(packet, vec_cache)
    _set_vec_at(packet, vec_at)
    return packet


# ---------------------------------------------------------------------- #
# Packetization helpers
# ---------------------------------------------------------------------- #
@dataclass(eq=False, repr=False, slots=True)
class PacketWindow(Sequence):
    """A partition cut into DAIET packets that are built only when asked for.

    What :func:`packetize_pairs` returns: the partition's DATA packets, then
    its END if it has one, as a read-only sequence. Every DATA packet carries
    ``pairs_per_packet`` pairs except the last, and item ``i`` is numbered
    ``seq_start + i``, so what the send path needs is arithmetic: ``sizes``
    holds each item's wire size, ``columns`` the partition's pairs as the
    register kernel reads them. ``window[i]`` builds packet ``i`` the first
    time and returns that same object afterwards: the simulator sets the CE
    bit on a packet in flight, and a retransmission resends the marked one.
    A slice is a view over the same packets.
    """

    tree_id: int
    src: str
    dst: str
    config: DaietConfig
    #: The partition's pairs, read back from the columns when asked.
    pairs: Sequence[tuple[Any, int]]
    columns: PairColumns
    #: Sequence number of item 0 (``None``: an unsequenced window).
    seq_start: int | None
    #: Wire size of each item.
    sizes: list[int]
    #: Partition index -> the packet built for it, shared by every view.
    built: dict[int, DaietPacket]
    #: The partition's index of item 0 (non-zero in a view).
    first: int = 0

    def __len__(self) -> int:
        return len(self.sizes)

    def __getitem__(self, index: Any) -> Any:
        count = len(self.sizes)
        if isinstance(index, slice):
            lo, hi, step = index.indices(count)
            if step != 1:
                raise ValueError("a packet window slices contiguously")
            if lo == 0 and hi >= count:
                return self
            start = self.seq_start
            return replace(
                self, sizes=self.sizes[lo:hi], first=self.first + lo,
                seq_start=None if start is None else start + lo,
            )
        if index < 0:
            index += count
        if not 0 <= index < count:
            raise IndexError("packet window index out of range")
        at = self.first + index
        packet = self.built.get(at)
        if packet is None:
            # Only a vouched window gets here: the validating constructor
            # built every DATA packet of any other.
            packet = self.built[at] = _assemble(
                self.tree_id, self.src, self.dst, DaietPacketType.DATA, None, self.config,
                None if self.seq_start is None else self.seq_start + index,
                False, False, self.sizes[index] - _FRAME_BYTES, self.columns, at,
            )
        return packet

    def __iter__(self) -> Iterator[DaietPacket]:
        get = self.built.get
        for index in range(len(self.sizes)):
            yield get(self.first + index) or self[index]

    def payload_bytes(self) -> int:
        """Total DAIET payload size of the window's packets."""
        return sum(self.sizes) - _FRAME_BYTES * len(self.sizes)

    def burst_plan(self) -> "BurstPlan | None":
        """This window's :class:`BurstPlan`, or ``None`` for a window without DATA.

        Every DATA item is shape-eligible (the packetizer checked the columns
        at send); the engine decides at delivery whether its stream admits it.
        """
        columns = self.columns
        if self.first * columns.per >= len(self.pairs):
            return None
        return BurstPlan(self, columns)


class BurstPlan:
    """A window's items as a switch's register kernel takes them, planned at send.

    To the simulator a plan is a window of the items still in flight:
    ``len(plan)``, ``plan.sizes`` and ``plan[i]`` (built only for a consumer
    that needs the packet); :meth:`drop` removes the items a link lost. To
    the engine it is the kernel's input, all from the window's arithmetic:
    per-item shape eligibility (a DATA packet carries pairs, the END does
    not), each item's pair extent in the window's kid/value arrays (views of
    its partition's columns), the cumulative byte ledger (an array) and the
    most any item needs of a switch's budgets (``max_nbytes`` parsed,
    ``max_cost`` operations). ``items`` are the window indexes the plan still carries.
    """

    __slots__ = (
        "window", "items", "sizes", "nbytes_cum", "shape_ok", "max_nbytes", "max_cost",
        "kids", "vals", "pair_start", "npairs",
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
        self.window = window
        self.items: Any = range(n)
        self.sizes = window.sizes
        self.nbytes_cum = _np.cumsum([0, *self.sizes])
        self.max_nbytes = max(self.sizes[:ndata])
        self.max_cost = steer_ops(int(npairs[0]))

    def __len__(self) -> int:
        return len(self.items)

    def __getitem__(self, offset: int) -> Any:
        """The packet of item ``offset``, built if nothing built it yet."""
        return self.window[self.items[offset]]

    def kernel_input(self, offset: int, count: int) -> tuple[Any, Any, int, Any]:
        """``_vector_apply``'s arguments for items ``offset .. offset + count``.

        ``(kids, vals, count, bounds)``; every item in the range must
        be shape-eligible. Their pairs are one slice of the plan's arrays
        unless a lost item sat between them.
        """
        end = offset + count
        lens = self.npairs[offset:end]
        starts = self.pair_start[offset:end]
        bounds = _np.cumsum(lens)
        lo = int(starts[0])
        hi = lo + int(bounds[-1])
        if starts[-1] + lens[-1] == hi:
            return self.kids[lo:hi], self.vals[lo:hi], count, bounds
        kids, vals, bounds = gather_pairs(self.kids, self.vals, starts, lens)
        return kids, vals, count, bounds

    def drop(self, lost: Any) -> None:
        """Remove the items at the ascending indexes ``lost`` (lost in flight).

        The survivors keep their pair extents in the plan's arrays.
        """
        keep = _np.ones(len(self.items), dtype=bool)
        keep[lost] = False
        kept = _np.flatnonzero(keep).tolist()
        self.items = [self.items[i] for i in kept]
        self.sizes = [self.sizes[i] for i in kept]
        self.npairs = self.npairs[keep]
        self.shape_ok = self.shape_ok[keep]
        self.pair_start = self.pair_start[keep]
        self.nbytes_cum = _np.cumsum([0, *self.sizes])


def gather_pairs(kids: Any, vals: Any, starts: Any, lens: Any) -> tuple[Any, Any, Any]:
    """Pull packets' pairs out of concatenated pair arrays, in packet order.

    ``starts``/``lens`` are each packet's extent in ``kids``/``vals``.
    Returns the gathered key ids and values plus the cumulative per-packet
    pair counts (``bounds``) the register kernel tags emissions with.
    """
    bounds = _np.cumsum(lens)
    pair_idx = _np.repeat(starts - (bounds - lens), lens) + _np.arange(
        int(bounds[-1]), dtype=_np.int64
    )
    return kids[pair_idx], vals[pair_idx], bounds


def packetize_pairs(
    pairs: Iterable[tuple[str, int]],
    tree_id: int,
    src: str,
    dst: str,
    config: DaietConfig | None = None,
    include_end: bool = True,
    seq_start: int | None = None,
) -> PacketWindow:
    """Split a partition of key-value pairs into DAIET DATA packets (plus END).

    This is the mapper-side packetization described in the paper: the map
    output is written so that packets always carry complete pairs; the final
    END packet marks the end of the partition. When ``seq_start`` is given,
    the packets (END included) carry consecutive sequence numbers starting
    there, as required by the reliability layer.

    The one packetizer for pairs: hosts (reliable or not) and the UDP
    baseline cut their packets here; a switch, which holds columns, cuts
    every flush in :func:`packetize_columns`. The keys are interned in
    one pass into the partition's kid column and the values checked in one
    pass into its value column; the window's :class:`PairColumns` holds
    both. When the intern pool can vouch for every key (a key is measured
    once, when the pool first interns it) and every value fits, sizes follow
    arithmetically and the DATA packets are built later, if anything asks,
    each holding its extent of the columns: the window keeps no pair list,
    and a packet's pairs come back as tuples (keys from the pool) only when
    something reads them. Otherwise (a pair the header cannot carry, a negative tree id, a
    sequence number that would not fit, a NUL-suffixed key) the validating
    :class:`DaietPacket` constructor builds them here: it refuses the first
    offending pair with :func:`check_pair`'s message, before anything is
    sent, and measures the rest. A list ``pairs`` is read, not copied.
    """
    config = config or DaietConfig()
    if type(pairs) is not list:
        pairs = list(pairs)
    try:
        kids, widest, any_nul = _interning.intern_keys([key for key, _value in pairs])
        vals = _value_column([value for _key, value in pairs])
    except (TypeError, ValueError):
        kids = vals = None
    vouched = vals is not None and widest <= config.key_width and not any_nul
    return _window(
        kids, vals, tree_id, src, dst, config, include_end, seq_start, None if vouched else pairs
    )


def packetize_columns(
    kids: Any,
    vals: Any,
    tree_id: int,
    src: str,
    dst: str,
    config: DaietConfig,
    include_end: bool = True,
    seq_start: int | None = None,
) -> PacketWindow:
    """:func:`packetize_pairs` for pairs held as a switch's ``int64``
    columns (interned kids, values): a switch's final flush, or the
    spillover flushes of one register-kernel call, cut without building a
    pair.

    The values are register contents, so the value check here is the
    register-overflow rule: a flushed value outside the value field's range
    (a SUM that outgrew it) raises :class:`PacketFormatError`, which refuses
    the round.
    """
    widest, any_nul = _interning.measure_kids(kids)
    vouched = _fits(vals) and widest <= config.key_width and not any_nul
    pairs = None if vouched else _ColumnPairs(kids, vals)
    return _window(kids, vals, tree_id, src, dst, config, include_end, seq_start, pairs)


def _window(
    kids: Any,
    vals: Any,
    tree_id: int,
    src: str,
    dst: str,
    config: DaietConfig,
    include_end: bool,
    seq_start: int | None,
    pairs: Sequence[tuple[Any, int]] | None = None,
) -> PacketWindow:
    """The window over a partition's columns, sized by arithmetic.

    Its pairs are read back from the columns, and only where asked.
    ``pairs`` is given when the columns could not vouch for every pair:
    then, as when the header fields refuse the window (a negative tree id,
    DATA sequence numbers past the 32-bit field), the validating
    constructor builds the DATA packets here, refusing the first offending
    pair or field. The window keeps no reference to ``pairs``.
    """
    read_back = _ColumnPairs(kids, vals)
    vouched = pairs is None
    if vouched:
        pairs = read_back
    per_packet = config.pairs_per_packet
    count = -(-len(pairs) // per_packet)
    if not vouched or tree_id < 0 or not 0 <= (seq_start or 0) <= 2**32 - count:
        built = {
            at: DaietPacket(
                tree_id, src, dst, DaietPacketType.DATA,
                tuple(pairs[at * per_packet : at * per_packet + per_packet]), config,
                None if seq_start is None else seq_start + at,
            )
            for at in range(count)
        }
        sizes = [packet.wire_bytes() for packet in built.values()]
    else:
        built = {}
        base = _FRAME_BYTES + DAIET_PREAMBLE_BYTES + (0 if seq_start is None else SEQ_BYTES)
        sizes = [base + per_packet * config.pair_bytes] * count
        if count:
            sizes[-1] = base + (len(pairs) - (count - 1) * per_packet) * config.pair_bytes
    if include_end:
        built[count] = end = end_packet(
            tree_id, src, dst, config, None if seq_start is None else seq_start + count
        )
        sizes.append(end.wire_bytes())
    columns = PairColumns(kids, vals, per_packet)
    return PacketWindow(tree_id, src, dst, config, read_back, columns, seq_start, sizes, built)


def packets_of(emissions: Iterable[tuple[int, Any]]) -> list[tuple[int, Any]]:
    """``(port, packet)`` emissions with each window cut into its packets."""
    return [
        (port, packet)
        for port, out in emissions
        for packet in (out if type(out) is PacketWindow else (out,))
    ]


def end_packet(
    tree_id: int,
    src: str,
    dst: str,
    config: DaietConfig | None = None,
    seq: int | None = None,
) -> DaietPacket:
    """Build an END packet for the given tree."""
    return DaietPacket(
        tree_id=tree_id,
        src=src,
        dst=dst,
        packet_type=DaietPacketType.END,
        pairs=(),
        config=config or DaietConfig(),
        seq=seq,
    )


# ---------------------------------------------------------------------- #
# Reliability primitives (sequence tracking and ACK packets)
# ---------------------------------------------------------------------- #
class SeenWindow:
    """Receiver-side state of one (tree, sender) sequence-number stream.

    Tracks the cumulative ACK point (every sequence number below
    ``cumulative`` has been received) plus the out-of-order sequence numbers
    above it, which is what the selective-ACK field of :class:`DaietAck`
    reports back to the sender. The window also remembers the END packet's
    sequence number so END handling can be deferred until the stream has no
    gaps — the property that makes aggregation loss-survivable rather than
    merely loss-tolerant.

    The out-of-order numbers are kept ascending in one list: a fresh arrival
    above everything seen (the common case) is an append, the SACK is its
    first :data:`DAIET_ACK_MAX_SACK` entries and the high-water mark its last.

    It is also the one place that decides what the next ACK for the stream
    says and when one is owed: the arrivals counted since the last ACK (the
    cadence) and whether the last arrival opened a hole or closed one. The
    switch engine, the host agent and the reliable datagram transport each
    keep one window per source and add only what is theirs: which arrivals
    they count, reading the CE bit, what they do with an END, which timer
    recovers a lost tail and how the ACK is framed.
    """

    __slots__ = ("cumulative", "out_of_order", "end_seq", "since_ack", "edge")

    def __init__(self) -> None:
        self.cumulative = 0
        #: Received sequence numbers above ``cumulative``, ascending.
        self.out_of_order: list[int] = []
        self.end_seq: int | None = None
        #: Arrivals counted towards the ACK cadence since the last ACK.
        self.since_ack = 0
        #: The arrival :meth:`observe` saw last opened a hole or closed one.
        self.edge = False

    def observe(self, seq: int) -> bool:
        """Record one received sequence number; ``False`` for duplicates.

        Sets :attr:`edge`, the one rule for an ACK ahead of the cadence: the
        arrival opened a hole (out of order with nothing buffered, so the
        sender's gap-fill need not wait for the cadence) or closed one (the
        cumulative point jumped over buffered arrivals, so the sender learns
        at once that its repair landed and which hole is next). The
        out-of-order arrivals in between tell the sender nothing new.
        """
        if seq < 0:
            raise PacketFormatError("sequence numbers must be non-negative")
        cumulative = self.cumulative
        buffered = self.out_of_order
        if seq == cumulative:
            cumulative += 1
            closed = 0
            while closed < len(buffered) and buffered[closed] == cumulative:
                closed += 1
                cumulative += 1
            if closed:
                del buffered[:closed]
            self.cumulative = cumulative
            self.edge = closed > 0
        elif seq < cumulative:
            self.edge = False
            return False
        elif not buffered or seq > buffered[-1]:
            self.edge = not buffered
            buffered.append(seq)
        else:
            at = bisect_left(buffered, seq)
            self.edge = False
            if buffered[at] == seq:
                return False
            buffered.insert(at, seq)
        return True

    @property
    def high_water(self) -> int:
        """The highest sequence number seen so far (``-1`` before the first)."""
        buffered = self.out_of_order
        return buffered[-1] if buffered else self.cumulative - 1

    def accept_run(self, seqs: list[int], every: int) -> list[tuple[int, int, tuple[int, ...]]]:
        """Observe a run of fresh arrivals at once; the ACKs they owe.

        ``seqs`` ascend and start above :attr:`high_water`, so each one
        either extends ``cumulative`` or is appended to the out-of-order
        list, and only the first jump can open a hole. The result is what
        :meth:`observe`, :meth:`count_arrival` and, whenever the count
        reaches ``every`` or the arrival opened a hole, :meth:`take_ack`
        would give arrival by arrival: one ``(index in seqs, cumulative,
        sack)`` per ACK owed.
        """
        owed = []
        cumulative = self.cumulative
        buffered = self.out_of_order
        since = self.since_ack
        edge = self.edge
        for index, seq in enumerate(seqs):
            if seq == cumulative:
                cumulative += 1
                edge = False
            else:
                edge = not buffered
                buffered.append(seq)
            since += 1
            if since >= every or edge:
                owed.append((index, cumulative, tuple(buffered[:DAIET_ACK_MAX_SACK])))
                since = 0
        self.cumulative = cumulative
        self.since_ack = since
        self.edge = edge
        return owed

    @property
    def complete(self) -> bool:
        """True once the END marker and every packet before it have arrived."""
        return self.end_seq is not None and self.cumulative > self.end_seq

    def count_arrival(self) -> int:
        """Count one arrival towards the cadence; the count since the last ACK."""
        self.since_ack += 1
        return self.since_ack

    def restart_cadence(self) -> None:
        """Start counting arrivals afresh (an ACK went out, or could not)."""
        self.since_ack = 0

    def ack_state(self, max_sack: int = DAIET_ACK_MAX_SACK) -> tuple[int, tuple[int, ...]]:
        """The ``(cumulative, sack)`` pair an ACK for this stream carries.

        The SACK list is truncated to ``max_sack`` entries (lowest first) so
        the ACK always fits the switch parser's parse-depth budget.
        """
        return self.cumulative, tuple(self.out_of_order[:max_sack])

    def take_ack(self) -> tuple[int, tuple[int, ...]]:
        """The ``(cumulative, sack)`` of the ACK going out now; restarts the cadence."""
        self.since_ack = 0
        return self.ack_state()


class RetransmitBuffer:
    """Sender-side state of one sequence-number stream: what is still owed.

    ``unacked`` maps each sent and not yet acknowledged sequence number to
    its (opaque) packet, in the order sent, which is ascending: a stream
    numbers its packets as it sends them. ``resent`` holds the sequence
    numbers whose gap-fill is on its way; a number leaves it when it is
    acknowledged or when a timeout probes it, so ACKs that report the same
    hole again cannot cause a retransmission storm.
    Host senders (``WindowedSender``) and switches (which resend their
    buffered flushes without timers) apply every ACK through
    :meth:`acknowledge` and :meth:`holes` and answer a timeout or a pull
    with :meth:`probes`. Both containers are only ever mutated in place, so
    an owner may hold on to them.
    """

    __slots__ = ("unacked", "resent")

    def __init__(self) -> None:
        self.unacked: dict[int, Any] = {}
        self.resent: set[int] = set()

    def acknowledge(self, cumulative: int, sacked: set[int]) -> list[int]:
        """Drop everything the ACK covers; the sequence numbers dropped.

        The acknowledged prefix comes off the front of ``unacked`` and the
        selectively acknowledged numbers are looked up, so an ACK costs what
        it acknowledges, not what is outstanding.
        """
        unacked = self.unacked
        acked = []
        for seq in unacked:
            if seq >= cumulative:
                break
            acked.append(seq)
        for seq in acked:
            del unacked[seq]
        for seq in sorted(sacked):
            if seq in unacked:
                del unacked[seq]
                acked.append(seq)
        if acked and self.resent:
            self.resent.difference_update(acked)
        return acked

    def holes(self, sacked: set[int]) -> list[int]:
        """Gap-fill: what the receiver provably overtook, each at most once.

        Everything unacknowledged below the highest selectively acknowledged
        sequence number is missing at the receiver (the SACK list is the
        *lowest* out-of-order numbers, so nothing below its top was left
        out); it is returned in order and marked resent. A lost tail leaves
        no such proof: :meth:`probes` turns it into one.
        """
        if not sacked:
            return []
        horizon = max(sacked)
        resent = self.resent
        missing = []
        for seq in self.unacked:
            if seq >= horizon:
                break
            if seq not in resent:
                missing.append(seq)
        resent.update(missing)
        return missing

    def probes(self) -> list[int]:
        """What a timeout (or a pull) resends: the two ends of what is owed.

        The lowest number repairs a hole whose gap-fill was itself lost; the
        highest turns a lost tail into a SACK-proven gap that :meth:`holes`
        then fills in one burst. Both leave ``resent``: links deliver in
        order, so an ACK drawn by the high probe that still reports the low
        one missing proves the low probe lost, and :meth:`holes` may fill it
        again.
        """
        unacked = self.unacked
        if not unacked:
            return []
        low = next(iter(unacked))
        high = next(reversed(unacked))
        self.resent.difference_update((low, high))
        return [low] if low == high else [low, high]


@dataclass(frozen=True, slots=True)
class DaietAck:
    """Reliability control packet flowing parent-to-child along a tree.

    ACKs are addressed to the device (host or switch) named ``dst``; on-tree
    switches consume ACKs destined to them and forward any other. ``pull``
    marks timeout-driven ACKs sent by a receiver that is still missing data —
    the addressee answers as a sender answers its own timeout, with the holes
    the ACK proves plus the two ends of what it still buffers, which is how
    tail losses are recovered without switch-side timers.
    """

    tree_id: int
    src: str
    dst: str
    cumulative: int = 0
    sack: tuple[int, ...] = ()
    pull: bool = False

    def __post_init__(self) -> None:
        if self.tree_id < 0:
            raise PacketFormatError("tree_id must be non-negative")
        if self.cumulative < 0:
            raise PacketFormatError("cumulative ACK must be non-negative")

    def payload_bytes(self) -> int:
        """Serialized ACK payload size."""
        return DAIET_ACK_BASE_BYTES + DAIET_ACK_SACK_BYTES * len(self.sack)

    def wire_bytes(self) -> int:
        """Full frame size (Ethernet + IPv4 + UDP + ACK payload)."""
        return _FRAME_BYTES + self.payload_bytes()

    def parse_depth_bytes(self) -> int:
        """Total parseable bytes (every ACK header is parseable)."""
        return self.wire_bytes()

    def op_cost(self) -> int:
        """Operations a switch spends on this ACK when it steers it."""
        return steer_ops(0)
