"""A reference byte codec for DAIET packets, for the size and identity tests.

The simulator never serializes a packet: ``DaietPacket.payload_bytes()`` is
arithmetic over the fixed-size pair format. This module writes that format
out, byte by byte, so the tests can check the arithmetic against real bytes
(``len(encode(p)) == p.payload_bytes()``) and compare two packets by their
wire form.

Layout: the preamble ``!IHBB`` (tree id, pair count, packet type, flags),
then a 32-bit sequence number when :data:`FLAG_SEQ` is set, then one
key-length byte per pair when :data:`FLAG_KEYLEN` is set, then each pair as
its key NUL-padded to ``key_width`` and its value as a signed big-endian
``value_width``-byte integer.
"""

from __future__ import annotations

import struct

from repro.core.config import DAIET_PREAMBLE_BYTES, DaietConfig
from repro.core.errors import PacketFormatError
from repro.core.packet import SEQ_BYTES, DaietPacket, DaietPacketType

#: Preamble flag: a 32-bit per-tree sequence number follows the preamble.
FLAG_SEQ = 0x01

#: Preamble flag: one key-length byte per pair follows the (optional) sequence
#: number. Only set for packets whose keys end in NUL bytes, which
#: padding-stripping alone cannot round-trip (the packet's ``_keylen_needed``,
#: which its size already counts).
FLAG_KEYLEN = 0x02


def _key_bytes(key: str | bytes) -> bytes:
    return key.encode() if isinstance(key, str) else bytes(key)


def _encode_value(value: int, width: int) -> bytes:
    if not isinstance(value, int):
        raise PacketFormatError(
            f"fixed-width serialization supports integer values only, got {type(value).__name__}"
        )
    try:
        return value.to_bytes(width, "big", signed=True)
    except OverflowError as exc:
        raise PacketFormatError(f"value {value} does not fit in {width} bytes") from exc


def encode(packet: DaietPacket) -> bytes:
    """Serialize the DAIET payload (preamble + pairs) to bytes."""
    config = packet.config
    needs_keylens = packet._keylen_needed
    flags = (FLAG_SEQ if packet.seq is not None else 0) | (
        FLAG_KEYLEN if needs_keylens else 0
    )
    chunks = [
        struct.pack(
            "!IHBB", packet.tree_id, len(packet.pairs), packet.packet_type.value, flags
        )
    ]
    if packet.seq is not None:
        chunks.append(struct.pack("!I", packet.seq))
    if needs_keylens:
        chunks.append(bytes(len(_key_bytes(key)) for key, _ in packet.pairs))
    for key, value in packet.pairs:
        chunks.append(_key_bytes(key).ljust(config.key_width, b"\x00"))
        chunks.append(_encode_value(value, config.value_width))
    return b"".join(chunks)


def decode(
    data: bytes, src: str, dst: str, config: DaietConfig | None = None
) -> DaietPacket:
    """Rebuild a packet from bytes produced by :func:`encode`."""
    config = config or DaietConfig()
    if len(data) < DAIET_PREAMBLE_BYTES:
        raise PacketFormatError("payload shorter than the DAIET preamble")
    tree_id, num_pairs, type_value, flags = struct.unpack(
        "!IHBB", data[:DAIET_PREAMBLE_BYTES]
    )
    try:
        packet_type = DaietPacketType(type_value)
    except ValueError as exc:
        raise PacketFormatError(f"unknown DAIET packet type {type_value}") from exc
    offset = DAIET_PREAMBLE_BYTES
    seq: int | None = None
    if flags & FLAG_SEQ:
        if len(data) < offset + SEQ_BYTES:
            raise PacketFormatError("truncated sequence number")
        (seq,) = struct.unpack("!I", data[offset : offset + SEQ_BYTES])
        offset += SEQ_BYTES
    key_lens: bytes | None = None
    if flags & FLAG_KEYLEN:
        key_lens = data[offset : offset + num_pairs]
        if len(key_lens) != num_pairs:
            raise PacketFormatError("truncated key-length table")
        offset += num_pairs
    pairs: list[tuple[str, int]] = []
    for i in range(num_pairs):
        key_bytes = data[offset : offset + config.key_width]
        if len(key_bytes) != config.key_width:
            raise PacketFormatError("truncated fixed-size key")
        offset += config.key_width
        if key_lens is not None:
            # The exact key length travelled with the packet: strip only the
            # padding ``ljust`` appended, keeping keys that end in NUL bytes.
            if key_lens[i] > config.key_width:
                raise PacketFormatError("key length exceeds the key width")
            key_bytes = key_bytes[: key_lens[i]]
        else:
            key_bytes = key_bytes.rstrip(b"\x00")
        value_bytes = data[offset : offset + config.value_width]
        if len(value_bytes) != config.value_width:
            raise PacketFormatError("truncated value")
        offset += config.value_width
        pairs.append((key_bytes.decode(), int.from_bytes(value_bytes, "big", signed=True)))
    return DaietPacket(
        tree_id=tree_id,
        src=src,
        dst=dst,
        packet_type=packet_type,
        pairs=tuple(pairs),
        config=config,
        seq=seq,
    )
