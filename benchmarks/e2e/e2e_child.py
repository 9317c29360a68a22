"""One fresh process = one operation of the end-to-end benchmark.

``run.py`` starts this file once per timed repeat, the way a user starts
``python -m repro ...``: a fresh interpreter, so process-global key interning
and heap growth cannot leak from one repeat into the next. The child
generates the inputs (untimed), runs one workload once with phase spans
around every call it makes into ``repro``, verifies the aggregate against
its own ground truth, reads the layers' counters, and prints ONE JSON
object on its last line of standard output.

Modes: ``run`` (the timed repeat, with the machine-speed probe of
``e2e_probe`` running so its host times are in calibrated seconds) and
``trace`` (the traced run: the same job under ``cProfile`` and without the
probe, then the layer drills on the same inputs).
"""

from __future__ import annotations

import argparse
import cProfile
import json
import pstats
import resource
import sys

from e2e_probe import SpeedProbe
from e2e_workloads import (
    WORKLOADS,
    Spans,
    digest,
    generate_partitions,
    ground_truth,
    read_counters,
    read_sim_metrics,
    run_workload,
)

#: ``repro`` modules the traced run rolls the profile up into (the layers).
PROFILE_MODULES = (
    "netsim.events",
    "netsim.simulator",
    "netsim.devices",
    "netsim.links",
    "netsim.routing",
    "netsim.stats",
    "netsim.topology",
    "dataplane.tables",
    "dataplane.registers",
    "dataplane.switch",
    "dataplane.pipeline",
    "dataplane.parser",
    "dataplane.interning",
    "core.packet",
    "core.aggregation",
    "core.controller",
    "core.tree",
    "core.daiet",
    "transport.window",
    "transport.reliability",
    "transport.udp",
    "transport.packets",
)

#: Operation count of the layer drills (``--smoke`` uses 1,000).
DRILL_OPS = 200_000
SMOKE_DRILL_OPS = 1_000


def _module_of(filename: str) -> str | None:
    """``netsim.events`` for ``.../repro/netsim/events.py``; else ``None``."""
    marker = "/repro/"
    index = filename.rfind(marker)
    if index < 0 or not filename.endswith(".py"):
        return None
    return filename[index + len(marker) : -3].replace("/", ".")


def roll_up_profile(profiler: cProfile.Profile) -> dict[str, dict[str, float]]:
    """Self time and call count per ``repro`` module.

    A function defined outside ``repro`` (a C builtin, ``heapq``,
    ``dataclasses``, numpy, networkx) has its self time charged to the
    modules that called it, in proportion to the time each caller's calls
    took; chains of outside callers are followed up to the first ``repro``
    frame. What never reaches one (interpreter start-up) lands in ``other``.
    """
    stats = pstats.Stats(profiler).stats  # type: ignore[attr-defined]
    owners_memo: dict[tuple, dict[str, float]] = {}

    def owners(func: tuple) -> dict[str, float]:
        if func in owners_memo:
            return owners_memo[func]
        owners_memo[func] = {}  # breaks caller cycles among outside functions
        callers = stats[func][4]
        use_time = sum(edge[2] for edge in callers.values()) > 0
        weights = {
            caller: (edge[2] if use_time else edge[1]) for caller, edge in callers.items()
        }
        total = sum(weights.values())
        shares: dict[str, float] = {}
        for caller, weight in weights.items():
            if total <= 0:
                break
            module = _module_of(caller[0])
            parts = {module: 1.0} if module else owners(caller)
            for name, part in parts.items():
                shares[name] = shares.get(name, 0.0) + weight / total * part
        shares["other"] = shares.get("other", 0.0) + max(0.0, 1.0 - sum(shares.values()))
        owners_memo[func] = shares
        return shares

    self_time: dict[str, float] = {}
    calls: dict[str, int] = {}
    for func, (_cc, ncalls, tottime, _ct, _callers) in stats.items():
        module = _module_of(func[0])
        if module:
            self_time[module] = self_time.get(module, 0.0) + tottime
            calls[module] = calls.get(module, 0) + ncalls
        else:
            for name, part in owners(func).items():
                self_time[name] = self_time.get(name, 0.0) + tottime * part
    total = sum(self_time.values()) or 1.0
    return {
        module: {
            "self_share": self_time.get(module, 0.0) / total,
            "calls": calls.get(module, 0),
        }
        for module in PROFILE_MODULES
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("run", "trace"), default="run")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    if args.smoke:
        workload = workload.smoke()
    partitions = generate_partitions(workload, args.seed)
    truth = ground_truth(partitions)
    profiler = cProfile.Profile() if args.mode == "trace" else None
    probe = None if profiler else SpeedProbe()
    spans = Spans(run_id=f"{workload.name}/{args.seed}/{args.mode}", probe=probe)
    if probe:
        probe.start()
    outcome = run_workload(workload, args.seed, partitions, truth, spans, profiler)
    if profiler:
        profiler.disable()
    if probe:
        probe.stop()
    spans.finish()

    counters = read_counters(outcome)
    result = {
        "verified": bool(outcome.verified),
        "pairs": workload.total_pairs,
        "e2e_wall_s": spans.seconds("e2e", "wall_s"),
        "logical_events": outcome.logical_events,
        "spans": spans.records,
        "sim": read_sim_metrics(outcome),
        "counters": counters,
        "digest": digest(outcome, counters),
        # ``ru_maxrss`` is KiB on Linux: the child's high-water mark at exit.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if probe:
        result["e2e_s"] = spans.seconds("e2e", "calibrated_s")
        result["setup_s"] = spans.seconds("setup", "calibrated_s")
    if profiler:
        from e2e_drills import run_drills

        result["profile"] = roll_up_profile(profiler)
        del outcome, profiler  # the drills start from a heap without the job
        ops = SMOKE_DRILL_OPS if args.smoke else DRILL_OPS
        result["drills"] = run_drills(workload, args.seed, partitions, ops)
    print(json.dumps(result))
    return 0 if result["verified"] else 1


if __name__ == "__main__":
    sys.exit(main())
