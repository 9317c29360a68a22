"""Tier-1 smoke test of the end-to-end benchmark (``benchmarks/e2e/run.py``).

Runs the whole command once at ``--smoke`` sizes (4 mappers x 200 pairs, a
16-worker fabric, an 8-sender incast; one repeat, drills at 1k operations)
and checks the contract between ``BENCHMARK.json`` and what the command
prints: every declared workload and metric appears exactly once, with the
declared unit and a finite value, and the run leaves the working tree as it
found it. The numbers themselves mean nothing at these sizes.
"""

from __future__ import annotations

import json
import math
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _git_status() -> str | None:
    """``git status --porcelain`` of the repository, or ``None`` outside git."""
    try:
        done = subprocess.run(
            ["git", "status", "--porcelain"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=60,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout if done.returncode == 0 else None


def test_smoke_run_prints_every_declared_metric_once(tmp_path):
    declaration = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declaration["end_to_end"] + declaration["per_layer"]}
    workloads = [w["name"] for w in declaration["workloads"]]
    before = _git_status()

    out = tmp_path / "result.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--repeats", "1", "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert done.returncode == 0, done.stderr or done.stdout

    lines = done.stdout.splitlines()
    rows = [line.split() for line in lines if not line.startswith(("{", "#"))]
    seen = Counter((row[0], row[1]) for row in rows)
    for workload in workloads:
        for name in units:
            assert seen[(workload, name)] == 1, f"{workload} {name} printed {seen[(workload, name)]}x"
        assert seen[(workload, "ops")] == 1 and seen[(workload, "failed_ops")] == 1
    for workload, name, value, unit, *_spread in rows:
        assert workload in workloads
        assert NAME.fullmatch(name), name
        assert math.isfinite(float(value)), (workload, name, value)
        assert unit == units.get(name, "count"), (name, unit)
        if name == "failed_ops":
            assert float(value) == 0

    # One contract object per workload, the last lines of the output.
    objects = [json.loads(line) for line in lines if line.startswith("{")]
    assert len(objects) == len(workloads)
    assert lines[-1].startswith("{")
    for obj in objects:
        assert set(obj) == {"correct", "attempted", "failed", "metrics"}
        assert obj["correct"] is True and obj["failed"] == 0 and obj["attempted"] >= 1
        assert set(obj["metrics"]) == set(units)

    # ``--out`` holds the same results plus provenance and the traced spans.
    result = json.loads(out.read_text())
    assert {"commit", "python", "numpy", "cpu", "nproc", "calibration_s"} <= set(result["provenance"])
    for workload in workloads:
        spans = result["workloads"][workload]["trace"]
        assert spans[0]["name"] == "e2e" and spans[0]["parent"] is None
        assert all(span["end"] >= span["start"] for span in spans)

    assert _git_status() == before, "the benchmark run changed the working tree"
