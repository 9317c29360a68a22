"""The reach report's collector and walker, on one short entry point.

The full report (``python -m repro.checks.reach``, every shipped run) takes
about a minute; this runs its collector on ``repro fig1b --quick``, which
never builds a simulator, and checks what the walker makes of it.

The report is only as good as its entry-point list, which tier-1 never runs
in full: the rest of this file checks, without running anything, that the
list covers every shipped run and that each entry names one that exists.
"""

from __future__ import annotations

import argparse
import json

import pytest

from repro.checks.reach import E2E, ENTRY_POINTS, ROOT, Entry, collect, unreached
from repro.cli import build_parser


def test_one_entry_point_lists_what_it_never_calls():
    found = unreached(collect([Entry("cli", "repro", ("fig1b", "--quick"))]))
    listed = {(f.path, f.name) for f in found}

    # A test-only accessor is listed; the experiment the run drives is not.
    assert ("dataplane/tables.py", "entries") in listed
    assert ("experiments/figure1_ml.py", "run_figure1b") not in listed
    assert ("cli.py", "run_fig1b") not in listed

    # fig1b never compiles a switch's burst handler, so the compiler is
    # listed once, with its nested closures inside its own line count, and
    # so is each side of the window seam it asks: the device's batch entry,
    # the plan and the engine's batch.
    (burst,) = [f for f in found if f.name == "_compile_switch_burst"]
    assert burst.path == "netsim/simulator.py" and burst.lines > 50
    for name in ("burst_sink", "handler"):
        assert ("netsim/simulator.py", name) not in listed
    assert {
        ("netsim/devices.py", "start_batch"),
        ("core/packet.py", "burst_plan"),
        ("core/aggregation.py", "take"),
    } <= listed
    # No listed function lies inside another listed one.
    for outer in found:
        for inner in found:
            if inner is not outer and inner.path == outer.path:
                assert not outer.line < inner.line < outer.line + outer.lines


def _subcommands() -> dict[str, argparse.ArgumentParser]:
    (action,) = [
        action
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    return dict(action.choices)


def _cli_runs() -> set[tuple[str, ...]]:
    return {entry.args for entry in ENTRY_POINTS if entry.kind == "cli"}


#: ``repro all`` is the union of the other subcommands (see ``ENTRY_POINTS``).
_SHIPPED_SUBCOMMANDS = sorted(set(_subcommands()) - {"all"})
_EXAMPLES = sorted(path.name for path in (ROOT / "examples").glob("*.py"))
_WORKLOADS = [
    workload["name"]
    for workload in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
]


@pytest.mark.parametrize("name", _SHIPPED_SUBCOMMANDS)
def test_each_subcommand_is_an_entry_point(name):
    options = {
        option
        for action in _subcommands()[name]._actions
        for option in action.option_strings
    }
    runs = _cli_runs()
    if "--quick" in options:
        assert (name, "--quick") in runs
    else:
        assert (name,) in runs
    if "--sanitize" in options:
        assert (name, "--quick", "--sanitize") in runs


@pytest.mark.parametrize("name", _EXAMPLES)
def test_each_example_is_an_entry_point(name):
    assert Entry("script", f"examples/{name}") in ENTRY_POINTS


@pytest.mark.parametrize("name", _WORKLOADS)
def test_each_benchmark_workload_is_an_entry_point(name):
    run = ("--workload", name, "--mode", "run", "--smoke")
    assert any(
        entry.kind == "script"
        and entry.target == "benchmarks/e2e/e2e_child.py"
        and all(arg in entry.args for arg in run)
        for entry in ENTRY_POINTS
    )
    assert Entry("drills", name) in ENTRY_POINTS


@pytest.mark.parametrize(
    "entry", ENTRY_POINTS, ids=lambda e: " ".join((e.kind, e.target, *e.args))
)
def test_each_entry_point_names_a_run_that_exists(entry):
    if entry.kind == "cli":
        # Parsing only: an option a subcommand dropped exits with status 2.
        args = build_parser().parse_args(list(entry.args))
        assert args.command == entry.args[0]
    elif entry.kind == "script":
        assert (ROOT / entry.target).is_file()
        assert entry.target.startswith(("examples/", "benchmarks/e2e/"))
    else:
        assert entry.kind == "drills"
        assert entry.target in _WORKLOADS
        assert (E2E / "e2e_drills.py").is_file()


def test_entry_points_are_distinct():
    assert len(set(ENTRY_POINTS)) == len(ENTRY_POINTS)
