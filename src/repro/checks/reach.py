"""Reach report: the functions under ``src/repro`` that no shipped run calls.

Run with ``python -m repro.checks.reach`` (no flags; about a minute on two
cores). It is a report, not a gate: in the conflict-aware ACL paper's terms
the functions it lists are dead rules, which nothing that ships ever fires.

Each shipped entry point (:data:`ENTRY_POINTS`: the ``--quick`` CLI runs
with their ``--sanitize`` and option twins, ``repro lint``, the examples,
the e2e workloads under ``--smoke`` and their layer drills) runs in a child
process under a :func:`sys.setprofile` hook that records the code object of
every Python call. The hook is installed before ``repro`` is imported, so
import-time calls (``@fastpath`` registration) count. The report unions
``(file, first line, name)`` over the children, walks ``src/repro`` with
:mod:`ast` and prints every function none of them called, outermost only:
a function nested in an unreached one is part of its parent's lines.

``coverage`` would do the same job, but it is not a dependency. The e2e
drills are called directly, because the child's trace mode installs
:mod:`cProfile`, which replaces a profile hook.
"""

from __future__ import annotations

import ast
import json
import runpy
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Iterator, NamedTuple, Sequence

#: ``src/repro``; the report walks it and the hook keeps only its files.
PACKAGE = Path(__file__).resolve().parents[1]
ROOT = PACKAGE.parents[1]
E2E = ROOT / "benchmarks" / "e2e"

#: Seed of the e2e workloads and drills.
SEED = 2017
#: Drill repetition size, as under ``e2e_child.py --smoke``.
DRILL_OPS = 1_000


class Entry(NamedTuple):
    """One shipped entry point, run in its own child process."""

    #: ``cli`` (``repro.cli.main(args)``), ``script`` (a file run as
    #: ``__main__`` with ``args`` as its argv) or ``drills`` (the layer
    #: drills of the e2e workload named by ``target``).
    kind: str
    target: str
    args: tuple[str, ...] = ()


_SUBCOMMANDS = (
    "fig1a", "fig1b", "fig1c", "fig3", "loss-sweep",
    "scale", "churn", "incast", "approx-sweep",
)
_WORKLOADS = ("rack_burst", "rack_reliable_lossy", "fabric_1024", "incast_baseline")

#: Every shipped run. ``repro all`` is left out: it is the union of the
#: subcommands.
ENTRY_POINTS: tuple[Entry, ...] = (
    *(
        Entry("cli", "repro", (name, "--quick", *extra))
        for name in _SUBCOMMANDS
        for extra in ((), ("--sanitize",))
    ),
    Entry("cli", "repro", ("fig3", "--quick", "--reliability")),
    Entry("cli", "repro", ("churn", "--quick", "--reliability")),
    Entry("cli", "repro", ("scale", "--quick", "--fabric", "fat_tree")),
    Entry("cli", "repro", ("scale", "--quick", "--compare-baselines")),
    Entry("cli", "repro", ("lint",)),
    *(
        Entry("script", f"examples/{name}.py")
        for name in (
            "quickstart", "wordcount_daiet", "ml_training_daiet",
            "ml_overlap", "graph_analytics",
        )
    ),
    *(
        Entry(
            "script",
            "benchmarks/e2e/e2e_child.py",
            ("--workload", name, "--seed", str(SEED), "--mode", "run", "--smoke"),
        )
        for name in _WORKLOADS
    ),
    *(Entry("drills", name) for name in _WORKLOADS),
)

Site = tuple[str, int, str]


class Unreached(NamedTuple):
    """A function no entry point called."""

    path: str  # relative to ``src/repro``
    line: int  # the first decorator's line, else the ``def`` line
    name: str
    lines: int


def _run_entry(entry: Entry) -> None:
    """Run one entry point in this process (the child side)."""
    if entry.kind == "cli":
        from repro.cli import main

        main(list(entry.args))
    elif entry.kind == "script":
        script = ROOT / entry.target
        sys.path.insert(0, str(script.parent))
        sys.argv = [str(script), *entry.args]
        try:
            runpy.run_path(str(script), run_name="__main__")
        except SystemExit as stop:
            if stop.code:
                raise
    else:
        sys.path.insert(0, str(E2E))
        from e2e_drills import run_drills
        from e2e_workloads import WORKLOADS, generate_partitions

        workload = WORKLOADS[entry.target].smoke()
        run_drills(workload, SEED, generate_partitions(workload, SEED), DRILL_OPS)


def _child(out: str, entry: Entry) -> None:
    """Run ``entry`` under the profile hook and write its call sites to ``out``."""
    # Keyed by identity: hashing a code object hashes its bytecode, and the
    # dict keeps every object alive, so no id is reused.
    codes = {}

    def hook(frame, event, _arg):
        if event == "call":
            codes[id(frame.f_code)] = frame.f_code

    sys.setprofile(hook)
    try:
        _run_entry(entry)
    finally:
        sys.setprofile(None)
    prefix = str(PACKAGE)
    sites = {
        (code.co_filename, code.co_firstlineno, code.co_name)
        for code in codes.values()
        if code.co_filename.startswith(prefix)
    }
    Path(out).write_text(json.dumps(sorted(sites)), encoding="utf-8")


def collect(entries: Sequence[Entry]) -> set[Site]:
    """``(file, first line, name)`` of every ``src/repro`` function the
    entries call, each entry run in a child process."""
    sites: set[Site] = set()
    with tempfile.TemporaryDirectory() as scratch:
        out = Path(scratch) / "sites.json"
        for entry in entries:
            done = subprocess.run(
                [sys.executable, __file__, str(out), json.dumps(entry)],
                cwd=ROOT,
                capture_output=True,
                text=True,
            )
            if done.returncode:
                label = " ".join((entry.target, *entry.args))
                raise RuntimeError(f"{label} failed:\n{done.stderr}")
            sites.update(tuple(site) for site in json.loads(out.read_text()))
    return sites


def _functions(node: ast.AST) -> Iterator[ast.FunctionDef | ast.AsyncFunctionDef]:
    """The functions under ``node`` that no other function under it encloses."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield child
        else:
            yield from _functions(child)


def _modules(package: Path) -> Iterator[tuple[Path, ast.Module]]:
    """Every source file under ``package`` but this one (the report is not a
    shipped run of itself), parsed."""
    for path in sorted(package.rglob("*.py")):
        if path.resolve() != Path(__file__).resolve():
            yield path, ast.parse(path.read_text(encoding="utf-8"))


def unreached(sites: set[Site], package: Path = PACKAGE) -> list[Unreached]:
    """Every outermost function under ``package`` that ``sites`` misses.

    A decorated function is matched by its first decorator's line, which
    is its code object's ``co_firstlineno``.
    """
    reached = {(file, line) for file, line, _ in sites}
    found: list[Unreached] = []
    for path, module in _modules(package):
        file = str(path.resolve())
        pending = list(_functions(module))
        while pending:
            node = pending.pop(0)
            line = node.decorator_list[0].lineno if node.decorator_list else node.lineno
            if (file, line) in reached:
                pending.extend(_functions(node))
                continue
            found.append(
                Unreached(
                    path=path.relative_to(package).as_posix(),
                    line=line,
                    name=node.name,
                    lines=node.end_lineno - line + 1,
                )
            )
    return sorted(found)


def main() -> None:
    found = unreached(collect(ENTRY_POINTS))
    total = sum(
        isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for _path, module in _modules(PACKAGE)
        for node in ast.walk(module)
    )
    for f in found:
        print(f"{f.path}:{f.line} {f.name} ({f.lines} lines)")
    print(
        f"reach: {len(found)} of {total} functions unreached, "
        f"{sum(f.lines for f in found)} lines ({len(ENTRY_POINTS)} entry points)"
    )


if __name__ == "__main__":
    if len(sys.argv) == 3:
        # Child side of :func:`collect`. Run as a file, so nothing under
        # ``repro`` is imported before the hook is set.
        sys.path[0] = str(PACKAGE.parent)
        kind, target, args = json.loads(sys.argv[2])
        _child(sys.argv[1], Entry(kind, target, tuple(args)))
    else:
        main()
