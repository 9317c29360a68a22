"""Global key interning for the switch register file.

The data plane (see ``dataplane/README.md``) operates on *key ids* — small
dense integers — instead of the key objects themselves, so a whole burst of
key-value pairs can be hashed, occupancy-checked and applied to the
registers with numpy array operations. This module owns the process-wide
``key -> kid`` mapping and the per-key metadata the fast paths need:

* ``crc``      — ``zlib.crc32`` of the encoded key, so a register index is
  one modulo away (``crc % slots``) without re-encoding the key; an int64
  column, so the register kernel hashes a whole column of kids at once,
* ``enc_len``  — encoded byte length (packet sizing),
* ``ends_nul`` — whether the encoded key ends in a NUL byte (the condition
  that forces per-pair key-length bytes on the wire).

Interning is append-only and process-global: kids are stable for the
lifetime of the process, which is what lets a partition keep its kid column
and a switch's key register hold kids instead of key objects. Only exact
``str``/``bytes`` keys are interned, which is exactly what a
``DaietPacket`` may carry: every key that reaches a switch has a kid.

Keys are interned where they become packets. The packetizer
(``core/packet.py::packetize_pairs``) interns a whole partition in one pass
through :func:`intern_keys`, which returns the partition's kid column as an
``int32`` array (kids stay below ``2**31``) and answers the two questions a
window's size arithmetic asks (widest key, any NUL suffix) by array lookups
in the pool's per-kid metadata; a lone packet's columns
(``DaietPacket.vector_pairs()``) intern through the same function. A switch
(``core/aggregation.py``) interns nothing: its register kernel reads a
packet's (or a burst's) kid column and hashes it with :func:`crcs_of`, and
its registers and spillover bucket hold only kids. Every flush it cuts (a
spillover flush, a final flush) is measured by :func:`measure_kids`. A
window, a host's or a switch's, keeps no key objects, and neither does a
packet it builds: keys come back (:func:`keys_of`) only where something
reads a packet's ``pairs``, and at the reducer, once per key, when
``DaietReceiver.result()`` folds what arrived. The containers
below are named nowhere else (``tests/checks/test_lint_gate.py`` holds
that), so the pool can be re-homed by editing this file alone.
"""

from __future__ import annotations

import zlib
from typing import Any, Iterable, Sequence

import numpy as _np

#: key object -> kid (dense, append-only).
_key_to_kid: dict[Any, int] = {}
#: kid -> the interned key object (first object interned for that key).
_kid_key: list[Any] = []
#: kid -> crc32 of the encoded key, as an int64 array whose capacity
#: doubles when the pool outgrows it (entries past the pool size are unused).
_kid_crc: Any = _np.zeros(1024, dtype=_np.int64)
#: kid -> encoded byte length of the key (same capacity).
_kid_enc_len: Any = _np.zeros(1024, dtype=_np.int64)
#: kid -> True when the encoded key ends in a NUL byte (same capacity).
_kid_ends_nul: Any = _np.zeros(1024, dtype=bool)


def intern_key(key: Any) -> int:
    """Return the stable kid of ``key``, interning it on first sight.

    Raises ``TypeError`` for keys that are not exact ``str``/``bytes``: the
    packetizer then leaves the pairs to the ``DaietPacket`` constructor,
    which refuses them.
    """
    global _kid_crc, _kid_enc_len, _kid_ends_nul
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
    if kid == len(_kid_enc_len):
        _kid_crc = _np.concatenate((_kid_crc, _np.zeros_like(_kid_crc)))
        _kid_enc_len = _np.concatenate((_kid_enc_len, _np.zeros_like(_kid_enc_len)))
        _kid_ends_nul = _np.concatenate((_kid_ends_nul, _np.zeros_like(_kid_ends_nul)))
    _key_to_kid[key] = kid
    _kid_key.append(key)
    _kid_crc[kid] = zlib.crc32(encoded)
    _kid_enc_len[kid] = len(encoded)
    _kid_ends_nul[kid] = encoded.endswith(b"\x00")
    return kid


def intern_keys(keys: Sequence[Any]) -> tuple[Any, int, bool]:
    """Intern a partition's keys in one pass: ``(kids, widest, any_nul)``.

    ``kids`` is the keys' ``int32`` kid column, in order; ``widest`` is the
    largest encoded length and ``any_nul`` whether any encoded key ends in a
    NUL byte (see :func:`measure_kids`). A key is encoded and hashed only the
    first time the process sees it. Raises ``TypeError`` like
    :func:`intern_key`, and for an unhashable key.
    """
    lookup = _key_to_kid.__getitem__
    try:
        kids = _np.fromiter(map(lookup, keys), dtype=_np.int32, count=len(keys))
    except KeyError:  # first sight of some key: intern each unseen key once
        for key in dict.fromkeys(keys):
            if key not in _key_to_kid:
                intern_key(key)
        kids = _np.fromiter(map(lookup, keys), dtype=_np.int32, count=len(keys))
    return (kids, *measure_kids(kids))


def measure_kids(kids: Any) -> tuple[int, bool]:
    """``(widest, any_nul)`` over a column of interned kids.

    Two array lookups in the per-kid metadata: no key is encoded again.
    """
    if not len(kids):
        return 0, False
    return int(_kid_enc_len[kids].max()), bool(_kid_ends_nul[kids].any())


def keys_of(kids: Iterable[int]) -> list[Any]:
    """The key objects of ``kids``, in order."""
    return list(map(_kid_key.__getitem__, kids))


def crcs_of(kids: Any) -> Any:
    """``zlib.crc32`` of each kid's encoded key, as an int64 column."""
    return _kid_crc[kids]


def pool_size() -> int:
    """Number of kids interned so far (exclusive upper bound of every kid)."""
    return len(_kid_key)
