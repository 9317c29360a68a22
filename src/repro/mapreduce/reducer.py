"""Reduce-task execution and its processing-time model.

The reducer receives intermediate pairs either as sorted runs (one per mapper,
as in the original TCP shuffle) or as an unsorted stream (the DAIET and UDP
paths, because in-network aggregation cannot preserve ordering). ``finish()``
does the real work in-process — merging or sorting, grouping and applying the
user reduce function — and reports the reduce time of Figure 3.

The reported ``reduce_seconds`` comes from a **simulated cost model**, not a
wall-clock timer: the model charges the comparisons of the sort/merge, the
per-pair grouping walk and the per-key reduce call at constants calibrated
against CPython wall-clock runs, so the figure3 reduce-time row is
bit-reproducible under a fixed seed (the measured wall time jittered with
machine load). The actual wall time is still measured and reported separately
as ``reduce_wall_seconds`` for anyone comparing the model against reality.
"""

from __future__ import annotations

import heapq
import time
from math import log2
from operator import itemgetter
from typing import Any, Sequence

from repro.core.errors import JobError
from repro.mapreduce.job import JobSpec, ReducerMetrics

#: Simulated seconds per comparison of the in-memory sort (C timsort).
SIM_SORT_SECONDS_PER_COMPARISON = 6e-8

#: Simulated seconds per pair streamed through the k-way ``heapq.merge``
#: (charged per log2(k) to model the per-item heap sift).
SIM_MERGE_SECONDS_PER_PAIR = 2.5e-7

#: Simulated seconds per pair of a single-run linear scan (no merge heap).
SIM_SCAN_SECONDS_PER_PAIR = 1.2e-7

#: Simulated seconds per pair of the grouping walk.
SIM_GROUP_SECONDS_PER_PAIR = 1.2e-7

#: Simulated seconds per output key (one user reduce-function call).
SIM_REDUCE_SECONDS_PER_KEY = 2e-7


def simulated_reduce_seconds(
    sorted_run_sizes: Sequence[int],
    unsorted_pairs: int,
    output_keys: int,
) -> float:
    """Deterministic processing-time model of one reduce task.

    Charges: an n·log2(n) comparison sort when an unsorted buffer exists
    (the DAIET/UDP paths), a per-pair·log2(k) streaming cost for the k-way
    merge of sorted runs (the TCP path), a linear scan when only one run
    remains, plus the per-pair grouping walk and one reduce call per key.
    """
    total = sum(sorted_run_sizes) + unsorted_pairs
    cost = 0.0
    runs = len(sorted_run_sizes)
    if unsorted_pairs:
        cost += (
            unsorted_pairs
            * log2(max(unsorted_pairs, 2))
            * SIM_SORT_SECONDS_PER_COMPARISON
        )
        runs += 1
    if runs > 1:
        cost += total * log2(runs) * SIM_MERGE_SECONDS_PER_PAIR
    elif runs == 1:
        cost += total * SIM_SCAN_SECONDS_PER_PAIR
    cost += total * SIM_GROUP_SECONDS_PER_PAIR
    cost += output_keys * SIM_REDUCE_SECONDS_PER_KEY
    return cost


class ReduceTask:
    """One reduce task bound to a host of the simulated cluster."""

    def __init__(self, reducer_id: int, host: str, spec: JobSpec) -> None:
        if reducer_id < 0:
            raise JobError("reducer_id must be non-negative")
        self.reducer_id = reducer_id
        self.host = host
        self.spec = spec
        self.metrics = ReducerMetrics(reducer_id=reducer_id, host=host)
        self._sorted_runs: list[list[tuple[str, int]]] = []
        self._unsorted: list[tuple[str, int]] = []
        self._finished = False
        self.output: dict[str, Any] = {}

    # ------------------------------------------------------------------ #
    # Input collection
    # ------------------------------------------------------------------ #
    def add_sorted_run(self, pairs: list[tuple[str, int]], from_network: bool = True) -> None:
        """Add one mapper's pre-sorted partition (original shuffle path)."""
        self._check_open()
        if pairs:
            self._sorted_runs.append(list(pairs))
        self._account_pairs(len(pairs), from_network)

    def add_unsorted_pairs(self, pairs: list[tuple[str, int]], from_network: bool = True) -> None:
        """Add unordered pairs (DAIET flushes or the UDP baseline)."""
        self._check_open()
        self._unsorted.extend(pairs)
        self._account_pairs(len(pairs), from_network)

    def _account_pairs(self, count: int, from_network: bool) -> None:
        if from_network:
            self.metrics.pairs_received += count
        else:
            self.metrics.local_pairs += count

    def _check_open(self) -> None:
        if self._finished:
            raise JobError(f"reduce task {self.reducer_id} already finished")

    # ------------------------------------------------------------------ #
    # Reduce phase
    # ------------------------------------------------------------------ #
    def finish(self) -> dict[str, Any]:
        """Sort/merge the buffered pairs, apply the reduce function, cost it."""
        self._check_open()
        start = time.perf_counter()
        runs = [run for run in self._sorted_runs if run]
        run_sizes = [len(run) for run in runs]
        unsorted_pairs = len(self._unsorted)
        if self._unsorted:
            # DAIET delivers unordered results: the reducer must perform the
            # full sort itself (Section 4: "the intermediate results must be
            # sorted at the reducer rather than at the mapper").
            runs.append(sorted(self._unsorted))
        if len(runs) == 1:
            merged = iter(runs[0])
        else:
            merged = heapq.merge(*runs, key=itemgetter(0))

        output: dict[str, Any] = {}
        current_key: str | None = None
        current_values: list[int] = []
        for key, value in merged:
            if key != current_key:
                if current_key is not None:
                    output[current_key] = self.spec.reduce_function(current_key, current_values)
                current_key = key
                current_values = [value]
            else:
                current_values.append(value)
        if current_key is not None:
            output[current_key] = self.spec.reduce_function(current_key, current_values)

        self.metrics.reduce_wall_seconds = time.perf_counter() - start
        self.metrics.reduce_seconds = simulated_reduce_seconds(
            run_sizes, unsorted_pairs, len(output)
        )
        self.metrics.output_keys = len(output)
        self.output = output
        self._finished = True
        return output
