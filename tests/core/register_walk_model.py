"""A reference model of the register kernel: Algorithm 1, pair by pair.

A switch applies every DATA packet's pairs through one function,
``DaietAggregationEngine._vector_apply``: array gathers over a kid -> slot
memo, one claim pass, one ``ufunc.at`` and a replay of the colliding pairs
through the spillover bucket. This module states the same rule once more,
plainly, from public pieces only: the tree's key and value registers, its
index stack, its spillover bucket (a ``dict`` of kid -> value in insertion
order), the pool's ``crcs_of`` for each kid's home slot, the tree function's
``combine`` and the engine's ``_packetize``. It keeps no memo.

For each pair, in order: the home slot holds the kid, so the value combines
into the cell; the slot is empty, so the kid claims it (pushed on the index
stack, the cell starts at the value); or another kid holds it, so the pair
collides. A colliding pair merges into the bucket's entry for its kid, or
is appended, and the pair that fills the bucket (one packet's worth) flushes
it towards the parent as one packet.

:func:`walk_pairs` has ``_vector_apply``'s signature and return value, so an
oracle patches it in for the kernel on one twin (:func:`walking_engine`) and
drives both twins through the same entry points.
"""

from __future__ import annotations

from types import MethodType
from typing import Any

import numpy as np

from repro.core.aggregation import DaietAggregationEngine
from repro.dataplane.interning import crcs_of

#: What an empty key register cell holds.
EMPTY = -1


def walk_pairs(
    engine: DaietAggregationEngine, state: Any, kids: Any, vals: Any, n: int, bounds: Any
) -> list[tuple[int, int, Any]]:
    """Algorithm 1 over the pairs of ``n`` DATA packets, one pair at a time.

    ``kids``/``vals`` are the packets' int64 columns in packet order and
    ``bounds`` their cumulative pair counts (unread when ``n`` is 1).
    Returns each spillover flush as ``(packet_index, egress_port, packet)``,
    tagged with the packet whose pair filled the bucket.
    """
    slots = state.config.register_slots
    capacity = state.config.pairs_per_packet
    combine = state.function.combine
    keys, values = state.key_register, state.value_register
    bucket = state.spillover
    counters = state.counters
    ends = [len(kids)] if n == 1 else [int(end) for end in bounds]
    homes = (crcs_of(kids) % slots).tolist()
    emissions: list[tuple[int, int, Any]] = []
    packet = 0
    for at, (kid, value, home) in enumerate(zip(kids.tolist(), vals.tolist(), homes)):
        while at >= ends[packet]:
            packet += 1
        held = keys.item(home)
        if held == kid:
            values[home] = combine(values.item(home), value)
            counters.pairs_aggregated += 1
        elif held == EMPTY:
            state.index_stack.push_many([home])
            keys[home] = kid
            values[home] = value
            counters.pairs_inserted += 1
        else:
            counters.collisions += 1
            if kid in bucket:
                bucket[kid] = combine(bucket[kid], value)
                counters.spillover_merges += 1
                continue
            bucket[kid] = value
            if len(bucket) == capacity:
                emissions.append((packet, state.egress_port, _flush_bucket(engine, state)))
    counters.pairs_received += len(homes)
    return emissions


def _flush_bucket(engine: DaietAggregationEngine, state: Any) -> Any:
    """Send the full bucket towards the parent as one packet, and empty it."""
    bucket = state.spillover
    kids = np.array(list(bucket), dtype=np.int64)
    vals = np.array(list(bucket.values()), dtype=np.int64)
    bucket.clear()
    state.counters.spillover_flushes += 1
    return engine._packetize(state, False, kids, vals)[0]


def walking_engine(engine: DaietAggregationEngine) -> DaietAggregationEngine:
    """``engine``, its register kernel replaced by :func:`walk_pairs`."""
    engine._vector_apply = MethodType(walk_pairs, engine)
    return engine
