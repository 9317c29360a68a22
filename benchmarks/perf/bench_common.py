"""Shared workload definitions for the legacy perf harness.

The macro-bench mirrors the paper's WordCount shuffle shape: every mapper
host streams its (word, count) partition towards one reducer behind a single
ToR switch, the switch aggregates in-flight, and the reducer collects the
final aggregate. The workload is purely simulator-bound (corpus generation
happens outside the timed region), so events/sec measures the discrete-event
core, not the MapReduce scaffolding.

Results are byte-identical across runs under a fixed seed; the determinism
tests in ``tests/netsim/test_determinism.py`` guard that property while the
perf tests here guard the throughput trajectory.
"""

from __future__ import annotations

import gc
import json
import os
import random
import resource
import sys
import time
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from repro.core.config import DaietConfig
from repro.core.daiet import DaietSystem
from repro.core.functions import SUM, aggregate_pairs
from repro.netsim.simulator import SimulatorConfig
from repro.netsim.topology import single_rack

#: Where the perf trajectory is recorded (repo root, one JSON per bench family).
BENCH_JSON = Path(__file__).resolve().parents[2] / "BENCH_simcore.json"

#: The clock of every floor-gated bench: CPU seconds of this process. A
#: sandbox that deschedules the process for half the wall time halves a
#: wall-clock throughput (8.7k-18k events/s seen on ``approx_sweep``) and
#: leaves this one where it was.
bench_clock = time.process_time


@contextmanager
def frozen_heap() -> Iterator[None]:
    """Hide every object alive on entry from the garbage collector.

    Inside a full ``pytest`` run the process still holds some 650k objects
    from earlier tests; one full collection that lands in a 20 ms timed
    region walks them all and can double the sample. Frozen, they are out
    of the collector's view, so a collection costs what the bench itself
    allocated, as it would in a fresh process.
    """
    gc.collect()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


def recorded_floor(name: str) -> float:
    """The floor of bench ``name``: half its committed ``BENCH_simcore.json``
    throughput (events/s)."""
    return json.loads(BENCH_JSON.read_text())[name]["events_per_sec"] / 2


@dataclass
class MacroBenchResult:
    """Measured numbers of one wordcount macro-bench run."""

    events: int
    packets: int
    #: Seconds of the timed region on :data:`bench_clock` (the field keeps
    #: the name it has in ``BENCH_simcore.json``).
    wall_seconds: float
    events_per_sec: float
    packets_per_sec: float
    #: Resident-set size sampled immediately before / after the bench ran.
    #: Per-bench samples keep every BENCH entry independently meaningful —
    #: a process-wide peak would let earlier benches in the same pytest
    #: process inflate every later entry to one shared high-water mark.
    rss_before_bytes: int
    rss_after_bytes: int
    exact: bool

    @property
    def rss_delta_bytes(self) -> int:
        """Memory this bench grew the process by (its own footprint)."""
        return self.rss_after_bytes - self.rss_before_bytes


def wordcount_partitions(
    num_mappers: int, pairs_per_mapper: int, vocabulary: int, seed: int
) -> list[list[tuple[str, int]]]:
    """Deterministic wordcount-shaped map output, one partition per mapper."""
    rng = random.Random(seed)
    words = [f"word{i:05d}" for i in range(vocabulary)]
    return [
        [(rng.choice(words), 1) for _ in range(pairs_per_mapper)]
        for _ in range(num_mappers)
    ]


def run_wordcount_macro(
    num_mappers: int = 16,
    pairs_per_mapper: int = 2_000,
    vocabulary: int = 2_000,
    register_slots: int = 4_096,
    reliability: bool = False,
    loss_rate: float = 0.0,
    seed: int = 2017,
) -> MacroBenchResult:
    """Run the wordcount macro-bench once and measure simulator throughput.

    Only ``system.run()`` is timed: topology construction, tree installation
    and packet injection happen outside the timed region, so the number is a
    clean events/sec figure for the discrete-event hot path.
    """
    rss_before = current_rss_bytes()
    partitions = wordcount_partitions(num_mappers, pairs_per_mapper, vocabulary, seed)
    truth = aggregate_pairs(
        [pair for partition in partitions for pair in partition], SUM
    )
    topo = single_rack(num_hosts=num_mappers + 1)
    if loss_rate:
        for link in topo.links:
            link.loss_rate = loss_rate
    config = DaietConfig(
        register_slots=register_slots,
        reliability=reliability,
        retransmit_timeout=1e-4,
    )
    system = DaietSystem(topo, config, SimulatorConfig(loss_seed=seed))
    reducer = f"h{num_mappers}"
    mappers = [f"h{i}" for i in range(num_mappers)]
    system.install_job(mappers=mappers, reducers=[reducer])
    for mapper, pairs in zip(mappers, partitions):
        system.send_pairs(mapper, reducer, pairs)

    t0 = bench_clock()
    events = system.run()
    wall = bench_clock() - t0

    stats = system.simulator.stats
    packets = stats.total_link_packets()
    receiver = system.receiver(reducer)
    exact = receiver.done and receiver.result() == truth
    return MacroBenchResult(
        events=events,
        packets=packets,
        wall_seconds=wall,
        events_per_sec=events / wall if wall > 0 else 0.0,
        packets_per_sec=packets / wall if wall > 0 else 0.0,
        rss_before_bytes=rss_before,
        rss_after_bytes=current_rss_bytes(),
        exact=exact,
    )


def peak_rss_bytes() -> int:
    """Peak resident-set size of this process, in bytes.

    The process-wide high-water mark — only meaningful as a whole-process
    number (``ru_maxrss`` is KiB on Linux, bytes on macOS). Bench entries
    record :func:`current_rss_bytes` before/after samples instead.
    """
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak * 1024 if sys.platform != "darwin" else peak


def current_rss_bytes() -> int:
    """Resident-set size right now, in bytes.

    Unlike :func:`peak_rss_bytes` this can go down again, so sampling it
    immediately before and after one bench yields that bench's own
    footprint even when an earlier bench in the same process peaked higher.
    Falls back to the high-water mark where ``/proc`` is unavailable.
    """
    try:
        with open("/proc/self/statm") as statm:
            return int(statm.read().split()[1]) * resource.getpagesize()
    except (OSError, ValueError, IndexError):
        return peak_rss_bytes()


def record_bench(name: str, result: MacroBenchResult, **extra: float) -> None:
    """Merge one bench result into ``BENCH_simcore.json`` (trajectory file).

    Only with ``REPRO_BENCH_RECORD=1``: a plain ``pytest`` run leaves the
    tracked file alone, so the "half of recorded" floors compare against the
    committed numbers and not against whatever the previous run wrote.
    """
    if os.environ.get("REPRO_BENCH_RECORD") != "1":
        return
    payload: dict = {}
    if BENCH_JSON.exists():
        try:
            payload = json.loads(BENCH_JSON.read_text())
        except json.JSONDecodeError:
            payload = {}
    payload[name] = {
        "events": result.events,
        "packets": result.packets,
        "wall_seconds": round(result.wall_seconds, 4),
        "events_per_sec": round(result.events_per_sec, 1),
        "packets_per_sec": round(result.packets_per_sec, 1),
        "rss_before_bytes": result.rss_before_bytes,
        "rss_after_bytes": result.rss_after_bytes,
        "rss_delta_bytes": result.rss_delta_bytes,
        "exact": result.exact,
        **{key: round(value, 2) for key, value in extra.items()},
    }
    BENCH_JSON.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
