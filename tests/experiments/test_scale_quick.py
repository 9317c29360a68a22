"""Quick integration test for the cluster-scale sweep."""

from __future__ import annotations

import dataclasses
import hashlib
import re

import pytest

from repro.experiments.figure_scale import (
    ScaleSettings,
    run_baseline_once,
    run_scale,
    run_scale_once,
)


def _masked_digest(report: str, columns=("wall-s", "events/s")) -> str:
    """sha256 of ``report`` with the wall-clock columns of its tables blanked.

    A column runs from the end of the header word before it to the end of
    its own header word (every column is right-aligned); rows are the
    indented lines up to the next blank line.
    """
    lines, spans = [], []
    for line in report.splitlines():
        if line.lstrip().startswith("workers"):
            words = list(re.finditer(r"\S+", line))
            spans = [
                (words[i - 1].end(), word.end())
                for i, word in enumerate(words)
                if word.group() in columns
            ]
        elif not line.strip():
            spans = []
        elif line.startswith(" "):
            for start, end in spans:
                line = line[:start] + "#" * (end - start) + line[end:]
        lines.append(line)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


class TestScaleSweepQuick:
    @pytest.mark.parametrize(
        ("compare_baselines", "digest"),
        [
            (False, "3887e4e923ded2f9e64e61c1456be521acf522f532d989bbf4403db840ce5378"),
            (True, "d6f307f36b7fe106d1db935e769a88f1753395f2c61b4206e6555cb2488bc5a5"),
        ],
    )
    def test_quick_report_is_pinned(self, compare_baselines, digest):
        # `repro scale --quick [--compare-baselines]`, byte for byte outside
        # the two wall-clock columns.
        settings = dataclasses.replace(
            ScaleSettings().quick(), compare_baselines=compare_baselines
        )
        assert _masked_digest(run_scale(settings).report) == digest

    def test_quick_sweep_is_exact(self):
        result = run_scale(ScaleSettings().quick())
        assert result.all_exact
        assert [run.workers for run in result.runs] == [8, 16]
        for run in result.runs:
            assert run.switches > 1  # multi-switch fabric, not a single rack
            assert run.events > 0
            assert run.link_packets > 0
        assert "Verdict" in result.report

    def test_fat_tree_fabric(self):
        settings = ScaleSettings(
            worker_counts=(8,),
            fabric="fat_tree",
            fat_tree_k=4,
            pairs_per_worker=80,
            vocabulary_size=200,
            register_slots=512,
        )
        run = run_scale_once(settings, 8)
        assert run.exact
        assert run.fabric == "fat_tree"
        # k=4 fat-tree: 4 core + 4 pods x (2 agg + 2 edge) = 20 switches.
        assert run.switches == 20

    def test_leaf_spine_run_reports_loss_recovery(self):
        settings = ScaleSettings(
            worker_counts=(16,),
            workers_per_leaf=4,
            spines=2,
            loss_rate=0.02,
            pairs_per_worker=150,
            vocabulary_size=200,
            register_slots=512,
            loss_seed=3,
        )
        run = run_scale_once(settings, 16)
        assert run.exact
        assert run.losses > 0
        assert run.retransmissions > 0


class TestBaselineComparison:
    def test_quick_sweep_with_baselines(self):
        result = run_scale(
            dataclasses.replace(ScaleSettings().quick(), compare_baselines=True)
        )
        assert result.all_exact
        for run in result.runs:
            assert set(run.baselines) == {"udp", "tcp"}
            for baseline in run.baselines.values():
                assert baseline.exact
                # No aggregation: the reducer NIC sees (far) more packets.
                assert baseline.reducer_packets > 0
            assert run.reducer_packets < run.baselines["udp"].reducer_packets
        assert "pkt-reduction" in result.report
        assert "udp" in result.report and "tcp" in result.report

    def test_udp_baseline_recovers_from_loss(self):
        settings = dataclasses.replace(
            ScaleSettings().quick(),
            loss_rate=0.02,
            loss_seed=3,
            rto_floor=5e-4,
        )
        baseline = run_baseline_once(settings, 16, "udp")
        assert baseline.exact
        assert baseline.losses > 0
        assert baseline.retransmissions > 0

    def test_unknown_transport_rejected(self):
        from repro.core.errors import ReproError

        with pytest.raises(ReproError):
            run_baseline_once(ScaleSettings().quick(), 8, "carrier-pigeon")


class TestScale1024Determinism:
    """Determinism snapshots for the 1024-worker scenario (perf-marked:
    two full cluster rounds)."""

    @pytest.mark.perf
    def test_1024_worker_run_is_reproducible(self):
        def snapshot():
            run = run_scale_once(ScaleSettings(), 1024)
            assert run.exact
            return (
                run.events,
                run.link_packets,
                run.link_bytes,
                run.losses,
                run.retransmissions,
                run.duplicates_filtered,
                run.sim_seconds,
                run.reducer_packets,
            )

        assert snapshot() == snapshot()
