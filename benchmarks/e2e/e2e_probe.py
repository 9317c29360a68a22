"""Machine-speed probe: what makes host times comparable across noisy minutes.

The sandbox this benchmark runs in shares its core with other tenants:
measured while sizing it, the *same* child took anywhere from 1.0x to 2.2x
its quiet time, in bursts lasting from seconds to minutes, so neither a
median nor a minimum over the repeats of one invocation is steady (ten
invocations of ``rack_reliable_lossy`` spread 38% between quartiles).

The probe measures the machine while the job runs. Every ``INTERVAL_S`` a
timer signal pauses the job for one *slice* — a fixed, short piece of
interpreter work of the kind the simulator does (dict updates on string
keys, heap pushes and pops of tuples, attribute updates, small
allocations) — and times it. A slice that takes twice as long means the
machine is, right now, running this kind of code at half speed. A span of
wall time is then reported in **calibrated seconds**::

    calibrated = (wall - time spent in slices) * NOMINAL_SLICE_S * mean(1 / slice time)

i.e. the seconds the span would have taken on a machine that runs one slice
in exactly ``NOMINAL_SLICE_S``. On the same child-by-child samples this cut
the interquartile spread from 20-35% to 4-9%. The raw wall time and the
slowdown the probe saw are reported beside it, never hidden.

``probe_slice``, ``NOMINAL_SLICE_S`` and ``INTERVAL_S`` define the unit of
every host-time metric of the benchmark: changing any of them invalidates
every recorded number.
"""

from __future__ import annotations

import signal
import time
from heapq import heappop, heappush

#: Seconds between probe slices while a job runs (about 3% overhead, which
#: is subtracted from every span it falls into). Part of the unit: slices
#: taken more often stay warmer in the cache and cool the job's, so at 10 ms
#: the same job reads 25% more calibrated seconds than at 50 ms.
INTERVAL_S = 0.05

#: The slice time that defines one calibrated second (close to what the
#: sizing machine needs when nothing else runs on its core).
NOMINAL_SLICE_S = 1e-3

#: A span with fewer slices than this inside it borrows the rate measured
#: over the whole job.
MIN_SLICES = 3

_WORDS = [f"word{i:05d}" for i in range(4_000)]


class _Cell:
    __slots__ = ("count", "last")

    def __init__(self) -> None:
        self.count = 0
        self.last = 0


def probe_slice() -> None:
    """One fixed slice of simulator-like interpreter work (never change it)."""
    counts: dict[str, int] = {}
    heap: list[tuple] = []
    done: list[tuple] = []
    cell = _Cell()
    words = _WORDS
    nwords = len(words)
    for i in range(1_000):
        key = words[(i * 7919) % nwords]
        counts[key] = counts.get(key, 0) + 1
        heappush(heap, (i * 0.37 % 1.0, i, key, (cell, i)))
        cell.count += 1
        if i & 1:
            entry = heappop(heap)
            cell.last = entry[1]
            done.append(entry[3])


def slice_seconds() -> float:
    """Run one slice now and return how long it took."""
    start = time.perf_counter()
    probe_slice()
    return time.perf_counter() - start


def calibrated(wall_seconds: float, slice_times: list[float]) -> float:
    """``wall_seconds`` rescaled by the machine speed the slices measured."""
    rate = sum(1.0 / t for t in slice_times) / len(slice_times)
    return wall_seconds * NOMINAL_SLICE_S * rate


class SpeedProbe:
    """Timer-driven slices interleaved with whatever the process is doing.

    Python runs signal handlers in the main thread between bytecodes, so
    the job is paused, never run in parallel with a slice.
    """

    def __init__(self) -> None:
        #: ``(perf_counter at slice start, slice seconds)`` per slice.
        self.samples: list[tuple[float, float]] = []

    def _tick(self, _signum: int, _frame: object) -> None:
        start = time.perf_counter()
        probe_slice()
        self.samples.append((start, time.perf_counter() - start))

    def start(self) -> None:
        self._tick(0, None)
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._tick(0, None)

    def calibrate(self, start: float, end: float) -> tuple[float, float]:
        """``(wall, calibrated)`` seconds of the interval ``[start, end)``.

        ``wall`` excludes the time the probe itself took inside the
        interval.
        """
        inside = [t for at, t in self.samples if start <= at < end]
        wall = end - start - sum(inside)
        if len(inside) < MIN_SLICES:
            inside = [t for _at, t in self.samples]
        return wall, calibrated(wall, inside)
