"""The benchmark of record: end-to-end and per-layer numbers for four workloads.

One command measures what a user of this simulator pays in *host* seconds
from "have pairs" to "have verified result", next to what the simulated
network did (completion time, link bytes, reducer packets)::

    python3 benchmarks/e2e/run.py                       # all four workloads, traced too
    python3 benchmarks/e2e/run.py --workload rack_burst --seed 7919 --trace 0
    python3 benchmarks/e2e/run.py --compare A.json B.json
    python3 benchmarks/e2e/run.py --selfcheck

Every timed repeat is a fresh child process (``e2e_child.py``), children run
one at a time, and repeats of several workloads are interleaved round-robin
so machine drift spreads evenly. Host times are in *calibrated* seconds: a
probe interleaved with the job measures how fast the machine is running
while it runs (``e2e_probe.py``). ``BENCHMARK.json`` at the repository root
declares the workloads, the metrics, their units and their regression
bounds; this file prints exactly those names. See ``README.md`` beside this
file for the glossary and for how the numbers interact.

Output: one line per workload and metric (``workload metric value unit
[spread]``), then one JSON object per workload with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. Nothing is written to disk
unless ``--out`` or ``--record`` is given.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
CHILD = HERE / "e2e_child.py"
HISTORY = HERE / "history.jsonl"

#: A child that runs longer than this is killed and counted as a failed
#: operation (the slowest healthy one, the traced ``fabric_1024``, takes
#: about 35 s).
CHILD_TIMEOUT_S = 150

#: Fewest timed repeats of a workload, whatever ``--seconds`` says: below
#: three a median is a single sample.
MIN_REPEATS = 3

#: End-to-end metrics measured in host time or memory: they are noisy, so
#: they carry quartiles and a bound. The ``sim_*`` metrics are simulated
#: statistics: they repeat exactly for one (workload, seed).
HOST_METRICS = ("e2e_s", "e2e_pairs_per_s", "setup_s", "peak_rss_mb")

#: Units of the per-layer metrics that are counts made by the program (or
#: ratios of such counts): they too repeat exactly.
EXACT_UNITS = ("count", "ratio", "sim_s")

#: Leaf phase spans and the per-layer metric each one feeds.
SPAN_METRICS = {
    "span.import": "span.import_s",
    "netsim.topology.build": "netsim.topology.build_s",
    "netsim.simulator.construct": "netsim.simulator.construct_s",
    "core.controller.install_job": "core.controller.install_job_s",
    "core.daiet.inject": "core.daiet.inject_s",
    "transport.udp.inject": "transport.udp.inject_s",
    "netsim.simulator.run": "netsim.simulator.run_s",
    "core.daiet.collect": "core.daiet.collect_s",
}


def load_declaration() -> dict[str, Any]:
    """``BENCHMARK.json``: the single declaration of names, units and bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------- #
# Children
# ---------------------------------------------------------------------- #
def run_child(workload: str, seed: int, mode: str, smoke: bool) -> tuple[dict | None, str, float]:
    """Run one child to completion; returns (result, failure reason, wall s).

    ``subprocess.run`` kills the child on timeout and waits for it, so no
    process outlives this call.
    """
    command = [sys.executable, str(CHILD), "--workload", workload, "--seed", str(seed), "--mode", mode]
    if smoke:
        command.append("--smoke")
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    # No bytecode caches: a run leaves no file behind, and every child pays
    # the same import cost whatever ran in this checkout before.
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    start = time.perf_counter()
    try:
        done = subprocess.run(
            command, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return None, f"timed out after {CHILD_TIMEOUT_S}s", time.perf_counter() - start
    wall = time.perf_counter() - start
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        tail = done.stderr.strip().splitlines()[-1:] or ["no output"]
        return None, f"exit {done.returncode}: {tail[0]}", wall
    if done.returncode != 0:
        return None, f"exit {done.returncode}: aggregate differs from ground truth", wall
    return result, "", wall


# ---------------------------------------------------------------------- #
# Measuring
# ---------------------------------------------------------------------- #
class WorkloadRun:
    """Everything measured for one workload in one invocation."""

    def __init__(self) -> None:
        self.repeats: list[dict] = []  # results of the timed (untraced) children
        self.traced: dict | None = None  # result of the traced child
        self.failures: list[str] = []
        self.attempted = 0
        self.spent = 0.0  # wall seconds of the timed children so far

    def wants_repeat(self, repeats: int | None, seconds: float) -> bool:
        done = len(self.repeats) + len(self.failures)
        if repeats is not None:
            return done < repeats
        if done < MIN_REPEATS:
            return True
        return self.spent + self.spent / done <= seconds

    def add(self, result: dict | None, reason: str, what: str) -> dict | None:
        """Count one child as an operation; returns its result unless it failed.

        A child fails by exiting non-zero, timing out, printing a wrong
        aggregate, or simulating something other than the first repeat did.
        """
        self.attempted += 1
        if result is None:
            self.failures.append(f"{what}: {reason}")
        elif self.repeats and result["digest"] != self.repeats[0]["digest"]:
            self.failures.append(
                f"{what}: simulated statistics {result['digest']} differ from "
                f"the first repeat's {self.repeats[0]['digest']}"
            )
            result = None
        return result


def measure(args: argparse.Namespace, names: list[str]) -> dict[str, WorkloadRun]:
    """Run the children of every selected workload, one at a time."""
    runs = {name: WorkloadRun() for name in names}
    if not args.smoke:
        # Discarded warm-up: a smoke-sized child imports every module the
        # timed ones will, so the page cache is warm.
        for name in names:
            run_child(name, args.seed, "run", smoke=True)
    # A traced-only invocation still needs one untraced repeat: the spans,
    # the counters and the base of ``trace_overhead_ratio`` come from it.
    repeats = 1 if args.trace == 1 and args.repeats is None else args.repeats
    pending = list(names)
    while pending:
        for name in list(pending):
            run = runs[name]
            if not run.wants_repeat(repeats, args.seconds):
                pending.remove(name)
                continue
            result, reason, wall = run_child(name, args.seed, "run", args.smoke)
            run.spent += wall
            result = run.add(result, reason, f"repeat {run.attempted + 1}")
            if result is not None:
                run.repeats.append(result)
    if args.trace != 0:
        for name in names:
            run = runs[name]
            result, reason, _wall = run_child(name, args.seed, "trace", args.smoke)
            run.traced = run.add(result, reason, "traced run")
    return runs


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _median, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def summarize(run: WorkloadRun, seed: int, declaration: dict[str, Any], trace: int | None) -> dict[str, Any]:
    """Turn one workload's children into the declared, named metrics."""
    summary: dict[str, Any] = {
        "seed": seed,
        "ops": run.attempted,
        "failed_ops": len(run.failures),
        "failures": run.failures,
        "end_to_end": {},
        "per_layer": {},
    }
    repeats = run.repeats
    if not repeats:
        return summary
    first = repeats[0]
    summary["digest"] = first["digest"]
    samples = {
        "e2e_s": [r["e2e_s"] for r in repeats],
        "e2e_pairs_per_s": [r["pairs"] / r["e2e_s"] for r in repeats],
        "setup_s": [r["setup_s"] for r in repeats],
        "peak_rss_mb": [r["peak_rss_mb"] for r in repeats],
    }
    for metric in declaration["end_to_end"]:
        name = metric["name"]
        if name in samples:
            values = samples[name]
            q1, q3 = quartiles(values)
            entry = {
                "value": statistics.median(values),
                "unit": metric["unit"],
                "q1": q1,
                "q3": q3,
                "min": min(values),
                "n": len(values),
                "samples": values,
            }
        else:
            entry = {"value": first["sim"][name], "unit": metric["unit"], "n": len(repeats)}
        summary["end_to_end"][name] = entry
    if trace == 0:
        return summary

    def span_median(span: str) -> float:
        return statistics.median(
            next((s["calibrated_s"] for s in r["spans"] if s["name"] == span), 0.0)
            for r in repeats
        )

    layer: dict[str, float] = {metric: span_median(span) for span, metric in SPAN_METRICS.items()}
    layer["span.e2e_wall_s"] = statistics.median(r["e2e_wall_s"] for r in repeats)
    layer["span.probe_slowdown"] = statistics.median(r["e2e_wall_s"] / r["e2e_s"] for r in repeats)
    run_s = layer["netsim.simulator.run_s"]
    layer["core.daiet.inject_ns_per_pair"] = layer["core.daiet.inject_s"] / first["pairs"] * 1e9
    layer["netsim.simulator.run_events_per_s"] = first["logical_events"] / run_s
    layer["netsim.simulator.run_ns_per_link_packet"] = (
        run_s / first["counters"]["netsim.stats.link_packets"] * 1e9
    )
    layer.update(first["counters"])
    if run.traced is not None:
        layer.update(run.traced["drills"])
        for module, rolled in run.traced["profile"].items():
            layer[f"prof.{module}.self_share"] = rolled["self_share"]
            layer[f"prof.{module}.calls"] = rolled["calls"]
        layer["trace_overhead_ratio"] = run.traced["e2e_wall_s"] / layer["span.e2e_wall_s"]
        summary["trace"] = run.traced["spans"]
    for metric in declaration["per_layer"]:
        if metric["name"] in layer:
            summary["per_layer"][metric["name"]] = {
                "value": layer[metric["name"]],
                "unit": metric["unit"],
            }
    return summary


# ---------------------------------------------------------------------- #
# Reporting
# ---------------------------------------------------------------------- #
def spread(entry: dict[str, Any]) -> float:
    """Interquartile range as a share of the median (0 for exact metrics)."""
    if "q1" not in entry or not entry["value"]:
        return 0.0
    return (entry["q3"] - entry["q1"]) / abs(entry["value"])


def print_report(results: dict[str, dict], declaration: dict[str, Any]) -> None:
    bounds = {m["name"]: m["bound"] for m in declaration["end_to_end"]}
    for workload, summary in results.items():
        for name, entry in summary["end_to_end"].items():
            line = f"{workload} {name} {entry['value']:.6g} {entry['unit']}"
            if "q1" in entry:
                line += (
                    f" q1={entry['q1']:.6g} q3={entry['q3']:.6g}"
                    f" min={entry['min']:.6g} n={entry['n']}"
                )
                if spread(entry) > bounds[name]:
                    line += " unresolved"
            print(line)
        for name, entry in summary["per_layer"].items():
            print(f"{workload} {name} {entry['value']:.6g} {entry['unit']}")
        print(f"{workload} ops {summary['ops']} count")
        print(f"{workload} failed_ops {summary['failed_ops']} count")
        for failure in summary["failures"]:
            print(f"# {workload} FAILED {failure}")


def result_line(summary: dict[str, Any], trace: int | None) -> str:
    """The contract's JSON object: end-to-end metrics untraced, per-layer traced."""
    metrics: dict[str, dict] = {}
    if trace != 1:
        metrics.update(summary["end_to_end"])
    if trace != 0:
        metrics.update(summary["per_layer"])
    return json.dumps(
        {
            "correct": summary["failed_ops"] == 0,
            "attempted": summary["ops"],
            "failed": summary["failed_ops"],
            "metrics": {
                name: {"value": entry["value"], "unit": entry["unit"]}
                for name, entry in metrics.items()
            },
        }
    )


def calibration_seconds() -> float:
    """Wall time of a fixed pure-Python loop: how fast this machine is today."""
    start = time.perf_counter()
    total = 0
    for i in range(2_000_000):
        total += i * i
    return time.perf_counter() - start


def provenance() -> dict[str, Any]:
    """Where and on what a result was measured."""

    def git(*command: str) -> str:
        try:
            done = subprocess.run(
                ["git", *command], cwd=ROOT, capture_output=True, text=True, timeout=30
            )
        except (OSError, subprocess.TimeoutExpired):
            return ""
        return done.stdout.strip() if done.returncode == 0 else ""

    cpu = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "absent"
    return {
        "commit": git("rev-parse", "HEAD") or "unknown",
        "dirty": bool(git("status", "--porcelain")),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "cpu": cpu or platform.processor() or "unknown",
        "nproc": os.cpu_count(),
        "calibration_s": calibration_seconds(),
        "measured_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def run_suite(args: argparse.Namespace, declaration: dict[str, Any]) -> dict[str, Any]:
    names = args.workload or [w["name"] for w in declaration["workloads"]]
    runs = measure(args, names)
    return {
        "provenance": provenance(),
        "seed": args.seed,
        "smoke": args.smoke,
        "workloads": {
            name: summarize(runs[name], args.seed, declaration, args.trace) for name in names
        },
    }


# ---------------------------------------------------------------------- #
# Comparing two result files
# ---------------------------------------------------------------------- #
def verdict(metric: dict[str, Any], base: dict[str, Any], other: dict[str, Any]) -> str:
    """``better``/``same``/``worse``/``unresolved`` for one metric and workload."""
    a, b = base["value"], other["value"]
    worse_by = (b - a) / abs(a) if a else 0.0
    if metric["better"] == "higher":
        worse_by = -worse_by
    if metric["name"] not in HOST_METRICS:
        # Simulated statistics repeat exactly: any change is a change.
        return "same" if a == b else ("worse" if worse_by > 0 else "better")
    if max(spread(base), spread(other)) > metric["bound"]:
        return "unresolved"
    if worse_by > metric["bound"]:
        return "worse"
    return "better" if worse_by < -metric["bound"] else "same"


def compare(base: dict[str, Any], other: dict[str, Any], declaration: dict[str, Any]) -> list[dict]:
    """One row per workload and end-to-end metric present on both sides."""
    rows = []
    for workload, summary in base["workloads"].items():
        theirs = other["workloads"].get(workload)
        if theirs is None:
            continue
        for metric in declaration["end_to_end"]:
            a = summary["end_to_end"].get(metric["name"])
            b = theirs["end_to_end"].get(metric["name"])
            if a is None or b is None:
                continue
            rows.append(
                {
                    "workload": workload,
                    "metric": metric["name"],
                    "unit": metric["unit"],
                    "base": a,
                    "other": b,
                    "ratio": b["value"] / a["value"] if a["value"] else float("nan"),
                    "verdict": verdict(metric, a, b),
                }
            )
    return rows


def print_comparison(rows: list[dict]) -> None:
    def cell(entry: dict) -> str:
        text = f"{entry['value']:.6g}"
        if "q1" in entry:
            text += f" [{entry['q1']:.6g}..{entry['q3']:.6g}] n={entry['n']}"
        return text

    for row in rows:
        print(
            f"{row['workload']} {row['metric']} ({row['unit']}): base {cell(row['base'])}"
            f" | other {cell(row['other'])} | other/base {row['ratio']:.4f}"
            f" of {row['base']['value']:.6g} | {row['verdict']}"
        )


def exact_differences(base: dict[str, Any], other: dict[str, Any]) -> list[str]:
    """Simulated statistics, counters and call counts that differ at all."""
    differences = []
    for workload, summary in base["workloads"].items():
        theirs = other["workloads"][workload]
        if summary.get("digest") != theirs.get("digest"):
            differences.append(f"{workload} digest {summary.get('digest')} != {theirs.get('digest')}")
        for section in ("end_to_end", "per_layer"):
            for name, entry in summary[section].items():
                exact = (
                    name not in HOST_METRICS
                    if section == "end_to_end"
                    else entry["unit"] in EXACT_UNITS
                )
                if exact and entry["value"] != theirs[section][name]["value"]:
                    differences.append(
                        f"{workload} {name} {entry['value']} != {theirs[section][name]['value']}"
                    )
    return differences


def selfcheck(args: argparse.Namespace, declaration: dict[str, Any]) -> int:
    """Two full sets of runs of the working tree must agree with each other.

    Host-time medians must agree within the metric's bound; simulated
    statistics, counters and call counts must be identical.
    """
    first = run_suite(args, declaration)
    second = run_suite(args, declaration)
    rows = compare(first, second, declaration)
    print_comparison(rows)
    bounds = {m["name"]: m["bound"] for m in declaration["end_to_end"]}
    problems = exact_differences(first, second)
    problems += [
        f"{row['workload']} {row['metric']} medians differ by {abs(row['ratio'] - 1):.1%}"
        for row in rows
        if row["metric"] in HOST_METRICS and abs(row["ratio"] - 1) > bounds[row["metric"]]
    ]
    for side in (first, second):
        for workload, summary in side["workloads"].items():
            problems += [f"{workload} {failure}" for failure in summary["failures"]]
    for problem in problems:
        print(f"# SELFCHECK FAILED {problem}")
    print(f"selfcheck {'failed' if problems else 'passed'}")
    return 1 if problems else 0


# ---------------------------------------------------------------------- #
# Entry point
# ---------------------------------------------------------------------- #
def main(argv: list[str] | None = None) -> int:
    declaration = load_declaration()
    declared = [w["name"] for w in declaration["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", action="append", choices=declared,
                        help="workload to run (repeatable; default: all four)")
    parser.add_argument("--seed", type=int, default=2017, help="workload seed (default 2017)")
    parser.add_argument("--seconds", type=float, default=float(declaration["run_seconds"]),
                        help="time budget of the timed repeats of one workload")
    parser.add_argument("--repeats", type=int, default=None,
                        help="exact number of timed repeats (overrides --seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end only; 1: per-layer only; default: both")
    parser.add_argument("--smoke", action="store_true", help="seconds-scale sizes (tier-1 smoke test)")
    parser.add_argument("--out", type=Path, help="write the full result (with the trace) here")
    parser.add_argument("--record", action="store_true",
                        help=f"append one line to {HISTORY.relative_to(ROOT)}")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A.json", "B.json"),
                        help="compare two --out files instead of measuring")
    parser.add_argument("--selfcheck", action="store_true",
                        help="measure twice and fail unless the two sets agree")
    args = parser.parse_args(argv)

    if args.compare:
        base, other = (json.loads(path.read_text()) for path in args.compare)
        print_comparison(compare(base, other, declaration))
        return 0
    if not (SRC / "repro").is_dir():
        print(f"run.py: no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    if args.selfcheck:
        return selfcheck(args, declaration)

    suite = run_suite(args, declaration)
    results = suite["workloads"]
    if args.out:
        args.out.write_text(json.dumps(suite, indent=1) + "\n")
    if args.record:
        line = {
            **suite["provenance"],
            "seed": args.seed,
            "smoke": args.smoke,
            "workloads": {
                name: {m: e["value"] for m, e in summary["end_to_end"].items()}
                for name, summary in results.items()
            },
        }
        with HISTORY.open("a") as history:
            history.write(json.dumps(line, sort_keys=True) + "\n")
    if any(not summary["end_to_end"] for summary in results.values()):
        for workload, summary in results.items():
            for failure in summary["failures"]:
                print(f"run.py: {workload} FAILED {failure}", file=sys.stderr)
        return 1
    print_report(results, declaration)
    for summary in results.values():
        print(result_line(summary, args.trace))
    return 1 if any(summary["failed_ops"] for summary in results.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
