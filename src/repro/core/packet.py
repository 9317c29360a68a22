"""DAIET wire format.

Section 4 of the paper: intermediate map output "partitions are sent to the
reducer using UDP packets containing a small preamble and a sequence of
key-value pairs"; the preamble specifies the number of pairs and the tree id;
pairs use a fixed-size representation (16-byte keys, 4-byte integer values in
the prototype) so that packetization never needs to deserialize the data; the
end of a partition is marked by a special END packet.

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

from repro.core.config import (
    DAIET_PREAMBLE_BYTES,
    ETHERNET_HEADER_BYTES,
    IP_HEADER_BYTES,
    UDP_HEADER_BYTES,
    DaietConfig,
)
from repro.core.errors import PacketFormatError
from repro.dataplane import interning as _interning

try:  # The vectorized kernel needs numpy; everything else works without it.
    import numpy as _np
except ImportError:  # pragma: no cover - the toolchain bakes numpy in
    _np = None

#: Sentinel marking a packet that belongs to no partition's columns (yet).
_VEC_UNSET = object()

#: Values outside this open interval make a packet ineligible for the
#: vectorized kernel: the per-tree delta array accumulates in int64, and the
#: kernel's overflow guard (see ``TreeState._vec_mass``) needs per-value
#: magnitudes comfortably below 2**63.
_VEC_VALUE_LIMIT = 1 << 62


class PairColumns:
    """One partition's pairs as the register kernel reads them.

    ``kids`` and ``vals`` are int64 arrays over the partition's pairs in
    order (interned key ids, see :mod:`repro.dataplane.interning`, and
    values); packet ``i`` of the partition owns the ``per`` pairs from
    ``i * per`` on (fewer in the last packet). ``mass_cum[i]`` is the exact
    sum of ``|value|`` over the packets before ``i`` (Python ints: the
    kernel's int64-overflow guard then costs one subtraction per window,
    whatever the values).

    A host's partition adopts the kid column the packetizer interned and
    converts its values for the first reader, not in the packetizer: the
    burst planner asks for a window whose next hop is a switch. A switch's
    flushes already hold both arrays (:meth:`of`: the register kernel's own
    kids and values, for its final flush and for the spillover flushes of
    one kernel call). ``ready()`` is ``False``, permanently, when any pair
    is ineligible: a key the intern pool rejects (not exact ``str``/
    ``bytes``) or a value that is not a plain ``int`` within ±2**62 (bools
    and floats must keep their exact types through the per-pair oracle
    path). Such a window gets no burst plan; asked one by one, its packets
    (and a packet built by the constructor) are each a partition of its own
    (see :meth:`DaietPacket.vector_pairs`).
    """

    __slots__ = ("kids", "vals", "mass_cum", "per", "_source")

    def __init__(self, pairs: Any, kids: Any, per: int) -> None:
        #: ``(pairs, kids)`` until the first reader asks; ``kids`` (the int64
        #: kid column) is ``None`` when the keys were not interned yet.
        self._source: Any = (pairs, kids)
        #: Pairs per packet (the last packet may carry fewer).
        self.per = per
        self.kids: Any = None

    @classmethod
    def of(cls, kids: Any, vals: Any, per: int) -> "PairColumns":
        """Columns over int64 arrays the caller vouches for (values within ±2**62)."""
        columns = cls((), None, per)
        columns._source = None
        columns._adopt(kids, vals)
        return columns

    def ready(self) -> bool:
        """Build the columns on the first call; ``True`` when they exist."""
        if self._source is not None:
            source, self._source = self._source, None
            self._build(*source)
        return self.kids is not None

    def _build(self, pairs: Any, kids: Any) -> None:
        values = [value for _key, value in pairs]
        if _np is None or not values or set(map(type, values)) != {int}:
            return
        try:
            if kids is None:
                kids = _interning.intern_keys([key for key, _value in pairs])[0]
            vals = _np.fromiter(values, dtype=_np.int64, count=len(values))
        except (TypeError, OverflowError):
            return
        if vals.min() <= -_VEC_VALUE_LIMIT or vals.max() >= _VEC_VALUE_LIMIT:
            return
        self._adopt(kids, vals)

    def _adopt(self, kids: Any, vals: Any) -> None:
        # An int64 running sum could overflow near the ±2**62 edge, so the
        # ledger sums 31-bit limbs (exact below 2**32 pairs) and recombines
        # them as Python ints, at packet boundaries only.
        magnitude = _np.abs(vals)
        ends = _np.append(_np.arange(self.per, len(vals), self.per), len(vals)) - 1
        highs = _np.cumsum(magnitude >> 31)[ends].tolist()
        lows = _np.cumsum(magnitude & 0x7FFFFFFF)[ends].tolist()
        self.mass_cum = [0, *((high << 31) + low for high, low in zip(highs, lows))]
        self.vals = vals
        self.kids = kids


class _ColumnPairs(Sequence):
    """A column window's pairs, read back from the columns when first asked.

    All at once: a flush whose packets are built (a spillover flush, one
    towards a host) builds every one of them.
    """

    __slots__ = ("_kids", "_vals", "_pairs")

    def __init__(self, kids: Any, vals: Any) -> None:
        self._kids = kids
        self._vals = vals
        self._pairs: list[tuple[Any, int]] | None = None

    def __len__(self) -> int:
        return len(self._kids)

    def __getitem__(self, index: Any) -> Any:
        pairs = self._pairs
        if pairs is None:
            keys = _interning.keys_of(self._kids.tolist())
            pairs = self._pairs = list(zip(keys, self._vals.tolist()))
        return pairs[index]


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
    #: packet's index in it (see ``vector_pairs()``); ``None`` once the
    #: packet is known to be ineligible.
    _vec_cache: Any = field(init=False, repr=False, compare=False)
    _vec_at: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.tree_id < 0:
            raise PacketFormatError("tree_id must be non-negative")
        if self.seq is not None and not 0 <= self.seq < 2**32:
            raise PacketFormatError("seq must fit an unsigned 32-bit field")
        if self.packet_type is DaietPacketType.END and self.pairs:
            raise PacketFormatError("END packets must not carry key-value pairs")
        config = self.config
        if len(self.pairs) > config.pairs_per_packet:
            raise PacketFormatError(
                f"packet carries {len(self.pairs)} pairs but the configuration "
                f"allows at most {config.pairs_per_packet}"
            )
        # One pass over the pairs computes everything the old code derived in
        # three separate loops (width validation, the key-length flag and the
        # serialized pair bytes). ASCII ``str`` keys — the overwhelmingly
        # common case — never touch ``str.encode``.
        key_width = config.key_width
        keylen_needed = False
        for key, _value in self.pairs:
            if type(key) is str and key.isascii():
                encoded_len = len(key)
                ends_nul = encoded_len > 0 and key[-1] == "\x00"
            else:
                encoded = key.encode() if isinstance(key, str) else bytes(key)
                encoded_len = len(encoded)
                ends_nul = encoded.endswith(b"\x00")
            if encoded_len > key_width:
                raise PacketFormatError(
                    f"key {key!r} is {encoded_len} B, exceeding the fixed key "
                    f"width of {key_width} B"
                )
            if ends_nul:
                keylen_needed = True
        num_pairs = len(self.pairs)
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
    def vector_pairs(self):
        """The packet's pairs as ``(kids, vals, mass)``, or ``None``.

        ``kids`` and ``vals`` are this packet's slices of its partition's
        int64 columns (views, not copies) and ``mass`` is the exact sum of
        absolute values. A packet its window built points into the
        partition's :class:`PairColumns`; any other packet, and every packet
        of a partition whose columns refused an ineligible pair, is a
        partition of one, built here on first use. ``None``, permanently,
        when the packet has no pairs or an ineligible one.
        """
        columns = self._vec_cache
        if columns is not None and (columns is _VEC_UNSET or not columns.ready()):
            columns = PairColumns(self.pairs, None, max(len(self.pairs), 1))
            if not columns.ready():
                columns = None
            object.__setattr__(self, "_vec_cache", columns)
            object.__setattr__(self, "_vec_at", 0)
        if columns is None:
            return None
        at = self._vec_at
        lo = at * columns.per
        hi = lo + len(self.pairs)
        ledger = columns.mass_cum
        return columns.kids[lo:hi], columns.vals[lo:hi], ledger[at + 1] - ledger[at]

    def restamped(self, tree_id: int, seq: int) -> "DaietPacket":
        """This packet under another tree id and sequence number.

        Failover replay sends a retained packet again through a re-planned
        tree. The pairs are unchanged, so the copy keeps the measured sizes
        and the vector view; only the sequence field may be new on the wire.
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
            self.pairs,
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


def _assemble(
    tree_id: int,
    src: str,
    dst: str,
    packet_type: DaietPacketType,
    pairs: tuple[tuple[str, int], ...],
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
    measurement would compute: every field is taken as given.
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
    #: The partition's pairs (read back from the columns, if cut from them).
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
            per = self.config.pairs_per_packet
            packet = self.built[at] = _assemble(
                self.tree_id, self.src, self.dst, DaietPacketType.DATA,
                tuple(self.pairs[at * per : at * per + per]), self.config,
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

    The one packetizer: hosts (reliable or not), the UDP baseline and the
    switch flush path all cut their packets here (or, holding columns, in
    :func:`packetize_columns`). The keys are interned in one pass into the
    partition's kid column, which its :class:`PairColumns` adopts. When the
    intern pool can vouch for every key (a key is measured once, when the
    pool first interns it), sizes follow arithmetically and the DATA packets
    are built later, if anything asks. Otherwise (a negative tree id, a sequence
    number that would not fit, malformed pairs, keys outside the pool's
    domain, an over-wide or NUL-suffixed key) the validating
    :class:`DaietPacket` constructor builds them here: it is the oracle for
    packets and for errors.
    """
    config = config or DaietConfig()
    pairs = list(pairs)
    per_packet = config.pairs_per_packet
    count = -(-len(pairs) // per_packet)
    try:
        kids, widest, any_nul = _interning.intern_keys([key for key, _value in pairs])
        vouched = widest <= config.key_width and not any_nul
    except (TypeError, ValueError):
        kids, vouched = None, False
    built = None
    if not vouched or tree_id < 0 or not 0 <= (seq_start or 0) <= 2**32 - count:
        built = {
            at: DaietPacket(
                tree_id, src, dst, DaietPacketType.DATA,
                tuple(pairs[at * per_packet : at * per_packet + per_packet]), config,
                None if seq_start is None else seq_start + at,
            )
            for at in range(count)
        }
    columns = PairColumns(pairs, kids, per_packet)
    return _window(pairs, columns, tree_id, src, dst, config, include_end, seq_start, built)


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
    """:func:`packetize_pairs` for pairs held as int64 columns (interned
    kids, values within ±2**62): a switch's final flush, or the spillover
    flushes of one register-kernel call, cut without building a pair. What
    the size arithmetic cannot vouch for goes through :func:`packetize_pairs`.
    """
    count = -(-len(kids) // config.pairs_per_packet)
    widest, any_nul = _interning.measure_kids(kids)
    pairs = _ColumnPairs(kids, vals)
    if (
        not count
        or widest > config.key_width
        or any_nul
        or tree_id < 0
        or not 0 <= (seq_start or 0) <= 2**32 - count
    ):
        return packetize_pairs(pairs[:], tree_id, src, dst, config, include_end, seq_start)
    columns = PairColumns.of(kids, vals, config.pairs_per_packet)
    return _window(pairs, columns, tree_id, src, dst, config, include_end, seq_start)


def _window(
    pairs: Sequence[tuple[Any, int]],
    columns: PairColumns,
    tree_id: int,
    src: str,
    dst: str,
    config: DaietConfig,
    include_end: bool,
    seq_start: int | None,
    built: dict[int, DaietPacket] | None = None,
) -> PacketWindow:
    """The window over ``pairs``; sized by arithmetic unless the constructor ``built`` it."""
    if built is not None:
        sizes = [packet.wire_bytes() for packet in built.values()]
    else:
        built = {}
        per_packet = config.pairs_per_packet
        count = -(-len(pairs) // per_packet)
        base = _FRAME_BYTES + DAIET_PREAMBLE_BYTES + (0 if seq_start is None else SEQ_BYTES)
        sizes = [base + per_packet * config.pair_bytes] * count
        if count:
            sizes[-1] = base + (len(pairs) - (count - 1) * per_packet) * config.pair_bytes
    count = len(sizes)
    if include_end:
        built[count] = end = end_packet(
            tree_id, src, dst, config, None if seq_start is None else seq_start + count
        )
        sizes.append(end.wire_bytes())
    return PacketWindow(tree_id, src, dst, config, pairs, columns, seq_start, sizes, built)


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
