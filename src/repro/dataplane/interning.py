"""Global key interning for the vectorized register kernel.

The vectorized data plane (see ``dataplane/README.md``) operates on *key
ids* — small dense integers — instead of the key objects themselves, so a
whole burst of key-value pairs can be hashed, occupancy-checked and
scatter-added with numpy array operations. This module owns the process-wide
``key -> kid`` mapping and the per-key metadata the fast paths need:

* ``crc``      — ``zlib.crc32`` of the encoded key, so a register index is
  one modulo away (``crc % slots``) without re-encoding the key,
* ``enc_len``  — encoded byte length (packet sizing),
* ``ends_nul`` — whether the encoded key ends in a NUL byte (the condition
  that forces per-pair key-length bytes on the wire).

Interning is append-only and process-global: kids are stable for the
lifetime of the process, which is what lets a partition keep its kid column
and per-tree state memoize ``kid -> register slot``. Only exact
``str``/``bytes`` keys are interned — anything else makes a packet
ineligible for the vectorized path and it falls back, per pair, to the
bit-exact Algorithm 1 loop.

Two callers. The packetizer (``core/packet.py::packetize_pairs``) interns a
whole partition through :func:`intern_keys`, which also answers the two
questions a window's size arithmetic asks (widest key, any NUL suffix) from
the metadata of each *distinct* key, and keeps the kids in the partition's
columns; a lone packet's columns intern through the same function. The
register kernel (``core/aggregation.py``) reads ``crc`` and the key object back
by kid; its final flush measures kids it holds and looks up keys only the
per-pair loop saw. The containers below are named nowhere else
(``tests/checks/test_lint_gate.py`` holds that), so the pool can be re-homed
by editing this file alone.
"""

from __future__ import annotations

import zlib
from typing import Any, Iterable, Sequence

#: key object -> kid (dense, append-only).
_key_to_kid: dict[Any, int] = {}
#: kid -> the interned key object (first object interned for that key).
_kid_key: list[Any] = []
#: kid -> crc32 of the encoded key.
_kid_crc: list[int] = []
#: kid -> encoded byte length of the key.
_kid_enc_len: list[int] = []
#: kid -> True when the encoded key ends in a NUL byte.
_kid_ends_nul: list[bool] = []


def intern_key(key: Any) -> int:
    """Return the stable kid of ``key``, interning it on first sight.

    Raises ``TypeError`` for keys that are not exact ``str``/``bytes`` —
    callers treat that as "not vectorizable" and fall back to the per-pair
    path, which supports anything the wire format supports.
    """
    kid = _key_to_kid.get(key)
    if kid is not None:
        return kid
    if type(key) is str:
        encoded = key.encode()
    elif type(key) is bytes:
        encoded = key
    else:
        raise TypeError(f"only str/bytes keys are interned, got {type(key).__name__}")
    kid = len(_kid_key)
    _key_to_kid[key] = kid
    _kid_key.append(key)
    _kid_crc.append(zlib.crc32(encoded))
    _kid_enc_len.append(len(encoded))
    _kid_ends_nul.append(encoded.endswith(b"\x00"))
    return kid


def intern_keys(keys: Sequence[Any]) -> tuple[list[int], int, bool]:
    """Intern a partition's keys in one pass: ``(kids, widest, any_nul)``.

    ``kids`` are the keys' ids in order; ``widest`` is the largest encoded
    length and ``any_nul`` whether any encoded key ends in a NUL byte, both
    read once per *distinct* key. A key is encoded and hashed only the first
    time the process sees it. Raises ``TypeError`` like :func:`intern_key`,
    and for an unhashable key.
    """
    lookup = _key_to_kid.__getitem__
    try:
        kids = list(map(lookup, keys))
    except KeyError:  # first sight of some key: intern each distinct key once
        for key in dict.fromkeys(keys):
            intern_key(key)
        kids = list(map(lookup, keys))
    return (kids, *measure_kids(dict.fromkeys(kids)))


def measure_kids(kids: Iterable[int]) -> tuple[int, bool]:
    """``(widest, any_nul)`` over kids already interned (see :func:`intern_keys`)."""
    kids = list(kids)
    widest = max(map(_kid_enc_len.__getitem__, kids), default=0)
    return widest, any(map(_kid_ends_nul.__getitem__, kids))


def kid_of(key: Any) -> int:
    """The kid of ``key`` if the pool holds it, else ``-1`` (nothing is interned)."""
    return _key_to_kid.get(key, -1)


def key_of(kid: int) -> Any:
    """The key object a kid stands for."""
    return _kid_key[kid]


def keys_of(kids: Iterable[int]) -> list[Any]:
    """The key objects of ``kids``, in order."""
    return list(map(_kid_key.__getitem__, kids))


def crc_of(kid: int) -> int:
    """``zlib.crc32`` of a kid's encoded key (register index = crc % slots)."""
    return _kid_crc[kid]


def pool_size() -> int:
    """Number of kids interned so far (exclusive upper bound of every kid)."""
    return len(_kid_key)
