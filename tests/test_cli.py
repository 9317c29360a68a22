"""Tests for the command-line front end."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_all_subcommands_registered(self):
        parser = build_parser()
        for command in ("fig1a", "fig1b", "fig1c", "fig3", "all"):
            args = parser.parse_args([command, "--quick"])
            assert args.command == command
            assert args.quick is True

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_fig1c_accepts_vertices(self):
        args = build_parser().parse_args(["fig1c", "--quick", "--vertices", "500"])
        assert args.vertices == 500


    @pytest.mark.parametrize(
        "argv",
        [
            ["incast", "--fanin", "0"],
            ["scale", "--workers", "0"],
            ["scale", "--workers", "-4"],
            ["approx-sweep", "--loss", "1.5"],
            ["approx-sweep", "--loss", "1"],
            ["approx-sweep", "--loss", "-0.01"],
        ],
    )
    def test_out_of_range_values_are_usage_errors(self, argv, capsys):
        # Not a ControllerError/TopologyError traceback from deep inside the
        # run: argparse rejects them up front (exit status 2).
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(argv)
        assert exit_info.value.code == 2
        assert "usage:" in capsys.readouterr().err

    def test_in_range_values_parse(self):
        parser = build_parser()
        assert parser.parse_args(["incast", "--fanin", "1"]).fanin == 1
        assert parser.parse_args(["scale", "--workers", "1024"]).workers == 1024
        assert parser.parse_args(["approx-sweep", "--loss", "0"]).loss == 0.0


class TestExecution:
    def test_fig1a_quick_prints_report(self, capsys):
        assert main(["fig1a", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "Figure 1(a)" in out
        assert "42.5%" in out  # paper reference column

    def test_fig1c_quick_prints_all_algorithms(self, capsys):
        assert main(["fig1c", "--quick", "--vertices", "800"]) == 0
        out = capsys.readouterr().out
        for name in ("PageRank", "SSSP", "WCC"):
            assert name in out

    def test_fig3_quick_prints_boxplots(self, capsys):
        assert main(["fig3", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "Data volume reduction (vs TCP)" in out
        assert "[paper: 86.9%-89.3%]" in out

    def test_approx_sweep_off_the_gate_loss_says_so(self, capsys):
        # The byte-saving gate is judged at 1% loss; sweeping another rate
        # never runs the gate arms, which is not the same as failing it.
        assert main(["approx-sweep", "--quick", "--loss", "0"]) == 0
        out = capsys.readouterr().out
        assert "gate loss was not swept" in out
        assert "SPENT MORE BYTES" not in out
