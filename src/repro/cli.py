"""Command-line front end: regenerate any of the paper's figures.

Usage::

    python -m repro fig1a [--quick]
    python -m repro fig1b [--quick]
    python -m repro fig1c [--quick] [--vertices N]
    python -m repro fig3  [--quick] [--reliability]
    python -m repro loss-sweep [--quick]
    python -m repro scale [--quick] [--fabric leaf_spine|fat_tree]
                          [--workers N] [--compare-baselines]
    python -m repro churn [--quick] [--reliability]
                          [--scenario spine-kill|flap|straggler|hotspot|all]
    python -m repro incast [--quick] [--fanin N]
    python -m repro approx-sweep [--quick] [--loss RATE]
    python -m repro all   [--quick]
    python -m repro lint  [--root PATH]

Each experiment subcommand runs the corresponding runner from
:mod:`repro.experiments` and prints the same textual report the benchmark
harness writes to ``benchmarks/output/``; ``--sanitize`` runs it with the
runtime invariant sanitizer enabled (equivalent to ``REPRO_SANITIZE=1``).
``lint`` runs the static invariant checks from :mod:`repro.checks` and
exits non-zero on any finding.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
from typing import Callable, Sequence

from repro.analysis.reporting import render_comparison_table
from repro.experiments.figure1_graph import Figure1GraphSettings, run_figure1c
from repro.experiments.figure1_ml import (
    PAPER_ADAM_OVERLAP_PERCENT,
    PAPER_SGD_OVERLAP_PERCENT,
    Figure1MlSettings,
    make_dataset,
    run_figure1a,
    run_figure1b,
)
from repro.experiments.figure3_wordcount import Figure3Settings, run_figure3
from repro.experiments.figure_approx import ApproxSweepSettings, run_approx_sweep
from repro.experiments.figure_churn import SCENARIOS, ChurnSettings, run_churn
from repro.experiments.figure_incast import IncastSettings, run_incast
from repro.experiments.figure_loss_sweep import LossSweepSettings, run_loss_sweep
from repro.experiments.figure_scale import ScaleSettings, run_scale


def _count(text: str) -> int:
    """argparse type: an integer of at least 1 (workers, senders)."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _loss_rate(text: str) -> float:
    """argparse type: a drop probability in [0, 1)."""
    value = float(text)
    if not 0.0 <= value < 1.0:
        raise argparse.ArgumentTypeError(f"must be in [0, 1), got {value}")
    return value


def _ml_settings(quick: bool) -> Figure1MlSettings:
    settings = Figure1MlSettings()
    return settings.quick() if quick else settings


def _graph_settings(quick: bool, vertices: int | None) -> Figure1GraphSettings:
    settings = Figure1GraphSettings()
    if quick:
        settings = settings.quick()
    if vertices is not None:
        settings = Figure1GraphSettings(
            num_vertices=vertices,
            average_degree=settings.average_degree,
            num_workers=settings.num_workers,
            iterations=settings.iterations,
            sssp_source=settings.sssp_source,
            seed=settings.seed,
        )
    return settings


def run_fig1a(args: argparse.Namespace) -> str:
    """Figure 1(a): SGD overlap."""
    settings = _ml_settings(args.quick)
    result = run_figure1a(settings, make_dataset(settings))
    return render_comparison_table(
        "Figure 1(a): SGD tensor-update overlap",
        [("average overlap", f"{PAPER_SGD_OVERLAP_PERCENT}%", f"{result.average_overlap():.1f}%")],
    )


def run_fig1b(args: argparse.Namespace) -> str:
    """Figure 1(b): Adam overlap."""
    settings = _ml_settings(args.quick)
    result = run_figure1b(settings, make_dataset(settings))
    return render_comparison_table(
        "Figure 1(b): Adam tensor-update overlap",
        [("average overlap", f"{PAPER_ADAM_OVERLAP_PERCENT}%", f"{result.average_overlap():.1f}%")],
    )


def run_fig1c(args: argparse.Namespace) -> str:
    """Figure 1(c): graph-analytics traffic reduction."""
    settings = _graph_settings(args.quick, getattr(args, "vertices", None))
    return run_figure1c(settings).report


def run_fig3(args: argparse.Namespace) -> str:
    """Figure 3: WordCount reductions."""
    settings = Figure3Settings().quick() if args.quick else Figure3Settings()
    if getattr(args, "reliability", False):
        settings = dataclasses.replace(settings, reliability=True)
    return run_figure3(settings).report


def run_loss_sweep_cmd(args: argparse.Namespace) -> str:
    """Loss sweep: exact aggregation under lossy links (reliability layer)."""
    settings = LossSweepSettings().quick() if args.quick else LossSweepSettings()
    return run_loss_sweep(settings).report


def run_scale_cmd(args: argparse.Namespace) -> str:
    """Cluster-scale sweep: 16-1024 workers on a multi-switch fabric."""
    settings = ScaleSettings().quick() if args.quick else ScaleSettings()
    fabric = getattr(args, "fabric", None)
    if fabric is not None:
        settings = dataclasses.replace(settings, fabric=fabric)
    workers = getattr(args, "workers", None)
    if workers is not None:
        settings = dataclasses.replace(settings, worker_counts=(workers,))
    if getattr(args, "compare_baselines", False):
        settings = dataclasses.replace(settings, compare_baselines=True)
    return run_scale(settings).report


def run_churn_cmd(args: argparse.Namespace) -> str:
    """Fault churn: crash/flap/straggler/hotspot with failover recovery."""
    settings = ChurnSettings().quick() if args.quick else ChurnSettings()
    if getattr(args, "reliability", False):
        settings = dataclasses.replace(settings, reliability=True)
    scenario = getattr(args, "scenario", "all")
    scenarios = SCENARIOS if scenario == "all" else (scenario,)
    return run_churn(settings, scenarios).report


def run_incast_cmd(args: argparse.Namespace) -> str:
    """Incast fan-in sweep: adaptive transport vs in-network aggregation."""
    settings = IncastSettings().quick() if args.quick else IncastSettings()
    fanin = getattr(args, "fanin", None)
    if fanin is not None:
        settings = dataclasses.replace(
            settings, fanins=(fanin,), ablation_fanin=fanin
        )
    return run_incast(settings).report


def run_approx_sweep_cmd(args: argparse.Namespace) -> str:
    """Approximation sweep: reliability policies vs a-posteriori error bounds."""
    settings = ApproxSweepSettings().quick() if args.quick else ApproxSweepSettings()
    loss = getattr(args, "loss", None)
    if loss is not None:
        settings = dataclasses.replace(settings, loss_rates=(loss,))
    return run_approx_sweep(settings).report


def run_lint_cmd(args: argparse.Namespace) -> tuple[str, int]:
    """Static checks: determinism lint, fast-path parity, dataplane config."""
    from repro.checks.lint import run_lint

    report = run_lint(root=getattr(args, "root", None))
    return report.render(), 0 if report.ok else 1


def run_all(args: argparse.Namespace) -> str:
    """Every figure, back to back."""
    parts = [
        run_fig1a(args),
        run_fig1b(args),
        run_fig1c(args),
        run_fig3(args),
        run_loss_sweep_cmd(args),
        run_scale_cmd(args),
    ]
    return "\n\n".join(parts)


_COMMANDS: dict[str, Callable[[argparse.Namespace], str]] = {
    "fig1a": run_fig1a,
    "fig1b": run_fig1b,
    "fig1c": run_fig1c,
    "fig3": run_fig3,
    "loss-sweep": run_loss_sweep_cmd,
    "scale": run_scale_cmd,
    "churn": run_churn_cmd,
    "incast": run_incast_cmd,
    "approx-sweep": run_approx_sweep_cmd,
    "all": run_all,
}


def build_parser() -> argparse.ArgumentParser:
    """The argument parser for ``python -m repro``."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the figures of 'In-Network Computation is a Dumb Idea "
        "Whose Time Has Come' (HotNets 2017).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, func in _COMMANDS.items():
        sub = subparsers.add_parser(name, help=func.__doc__)
        sub.add_argument(
            "--quick",
            action="store_true",
            help="run at reduced scale (seconds instead of tens of seconds)",
        )
        sub.add_argument(
            "--sanitize",
            action="store_true",
            help="run with the runtime invariant sanitizer enabled "
            "(same as REPRO_SANITIZE=1): packet-conservation ledger, "
            "scheduler and register-leak checks",
        )
        if name in ("fig1c", "all"):
            sub.add_argument(
                "--vertices", type=int, default=None, help="graph size for Figure 1(c)"
            )
        if name in ("fig3", "all"):
            sub.add_argument(
                "--reliability",
                action="store_true",
                help="run the DAIET transport with the end-host reliability "
                "layer enabled",
            )
        if name == "churn":
            sub.add_argument(
                "--reliability",
                action="store_true",
                help="enable the reliability layer with replay retention so "
                "failover recovery is bit-exact (off: bounded, reported "
                "aggregate deficits)",
            )
            sub.add_argument(
                "--scenario",
                choices=SCENARIOS + ("all",),
                default="all",
                help="run one churn scenario instead of all four",
            )
        if name == "incast":
            sub.add_argument(
                "--fanin",
                type=_count,
                default=None,
                help="run a single fan-in instead of the default sweep "
                "(e.g. --fanin 1024)",
            )
        if name == "approx-sweep":
            sub.add_argument(
                "--loss",
                type=_loss_rate,
                default=None,
                help="sweep a single loss rate instead of the default set "
                "(e.g. --loss 0.01)",
            )
        if name == "scale":
            sub.add_argument(
                "--fabric",
                choices=("leaf_spine", "fat_tree"),
                default=None,
                help="fabric for the cluster-scale sweep (default: leaf_spine)",
            )
            sub.add_argument(
                "--workers",
                type=_count,
                default=None,
                help="run a single worker count instead of the default sweep "
                "(e.g. --workers 1024)",
            )
            sub.add_argument(
                "--compare-baselines",
                action="store_true",
                help="also run the UDP/TCP baselines (reliability on) and "
                "report packet reductions",
            )
        sub.set_defaults(func=func)
    lint = subparsers.add_parser("lint", help=run_lint_cmd.__doc__)
    lint.add_argument(
        "--root",
        default=None,
        help="restrict to the determinism linter over this file or "
        "directory (default: full check suite over the repo tree)",
    )
    lint.set_defaults(func=run_lint_cmd)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point used by ``python -m repro`` and the console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "sanitize", False):
        os.environ["REPRO_SANITIZE"] = "1"
    result = args.func(args)
    if isinstance(result, tuple):
        report, status = result
    else:
        report, status = result, 0
    print(report)
    return status


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    raise SystemExit(main())
