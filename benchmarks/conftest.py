"""Shared helpers for the benchmark harness.

Every benchmark regenerates one of the paper's figures (or an ablation) and
prints its textual report. With ``REPRO_BENCH_RECORD=1`` the report is also
written to ``benchmarks/output/``, so that a full
``REPRO_BENCH_RECORD=1 pytest benchmarks/ --benchmark-only`` run leaves behind
the complete set of paper-vs-measured artefacts referenced by EXPERIMENTS.md;
without it the tracked files stay untouched.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

#: Directory where benchmark reports are written.
OUTPUT_DIR = Path(__file__).parent / "output"


@pytest.fixture(scope="session")
def report_dir() -> Path:
    """The benchmark report directory (created on demand)."""
    OUTPUT_DIR.mkdir(parents=True, exist_ok=True)
    return OUTPUT_DIR


@pytest.fixture(scope="session")
def write_report(report_dir: Path):
    """A callable echoing a named report and, when recording, saving it."""

    def _write(name: str, text: str) -> None:
        print(f"\n{text}")
        if os.environ.get("REPRO_BENCH_RECORD") == "1":
            path = report_dir / f"{name}.txt"
            path.write_text(text + "\n")
            print(f"[report saved to {path}]")

    return _write
