"""Integration tests for the experiment runners (quick-scale variants).

Each runner is exercised at reduced scale and checked against the *shape*
expectations spelled out in DESIGN.md: who wins, in which direction the curves
move, and that the measured reductions land in the right neighbourhood of the
paper's bands. The paper-scale runs live in the benchmark harness.
"""

from __future__ import annotations

import dataclasses
import hashlib

import pytest

from repro.experiments.figure1_graph import Figure1GraphSettings, run_figure1c
from repro.experiments.figure1_ml import Figure1MlSettings, run_figure1_ml
from repro.experiments.figure3_wordcount import Figure3Settings, run_figure3


@pytest.fixture(scope="module")
def figure1_ml_result():
    return run_figure1_ml(Figure1MlSettings().quick())


@pytest.fixture(scope="module")
def figure1_graph_result():
    return run_figure1c(Figure1GraphSettings().quick())


@pytest.fixture(scope="module")
def figure3_result():
    return run_figure3(Figure3Settings().quick())


class TestFigure1Ml:
    def test_adam_overlap_exceeds_sgd(self, figure1_ml_result):
        summary = figure1_ml_result.summary()
        assert (
            summary["adam_average_overlap_percent"]
            > summary["sgd_average_overlap_percent"] + 15.0
        )

    def test_overlap_magnitudes_near_paper(self, figure1_ml_result):
        summary = figure1_ml_result.summary()
        assert 30.0 <= summary["sgd_average_overlap_percent"] <= 55.0
        assert 55.0 <= summary["adam_average_overlap_percent"] <= 80.0

    def test_overlap_is_stable_across_steps(self, figure1_ml_result):
        for result in (figure1_ml_result.sgd, figure1_ml_result.adam):
            assert max(result.overlap.percentages()) - min(result.overlap.percentages()) < 12.0

    def test_report_mentions_both_optimizers(self, figure1_ml_result):
        assert "SGD" in figure1_ml_result.report
        assert "Adam" in figure1_ml_result.report


class TestFigure1Graph:
    def test_all_algorithms_present(self, figure1_graph_result):
        assert set(figure1_graph_result.results) == {"PageRank", "SSSP", "WCC"}

    def test_reductions_within_paper_band(self, figure1_graph_result):
        for name in ("PageRank", "WCC"):
            series = figure1_graph_result.reduction_series(name)
            assert max(series) <= 0.96
            assert max(series) >= 0.48

    def test_pagerank_flat(self, figure1_graph_result):
        series = figure1_graph_result.reduction_series("PageRank")
        assert max(series) - min(series) < 0.05
        assert min(series) > 0.8

    def test_sssp_rises(self, figure1_graph_result):
        series = figure1_graph_result.reduction_series("SSSP")
        assert series[0] < max(series)
        assert series.index(max(series)) >= 1

    def test_wcc_starts_high_then_declines(self, figure1_graph_result):
        series = figure1_graph_result.reduction_series("WCC")
        assert series[0] > 0.8
        assert series[-1] < series[0]

    def test_report_rendered(self, figure1_graph_result):
        assert "PageRank" in figure1_graph_result.report
        assert "iter" in figure1_graph_result.report


class TestFigure3:
    def test_wordcount_outputs_identical_across_transports(self, figure3_result):
        assert figure3_result.daiet.output == figure3_result.tcp.output
        assert figure3_result.daiet.output == figure3_result.udp.output

    def test_data_volume_reduction_in_band(self, figure3_result):
        stats = figure3_result.boxplots["Data volume reduction (vs TCP)"]
        assert 0.80 <= stats.median <= 0.93

    def test_packets_vs_udp_reduction_in_band(self, figure3_result):
        stats = figure3_result.boxplots["Packets reduction (vs UDP baseline)"]
        assert 0.80 <= stats.median <= 0.93

    def test_packets_vs_tcp_reduction_much_smaller_but_positive(self, figure3_result):
        vs_tcp = figure3_result.boxplots["Packets reduction (vs TCP baseline)"]
        vs_udp = figure3_result.boxplots["Packets reduction (vs UDP baseline)"]
        assert 0.0 < vs_tcp.median < vs_udp.median - 0.3

    def test_reduce_time_reduction_positive(self, figure3_result):
        stats = figure3_result.boxplots["Reduce time reduction (vs TCP)"]
        assert stats.median > 0.5

    def test_report_contains_paper_references(self, figure3_result):
        assert "[paper:" in figure3_result.report
        assert "Data volume" in figure3_result.report

    def test_quick_report_is_pinned(self, figure3_result):
        # `repro fig3 --quick`, byte for byte. A change that means to alter
        # the report re-pins this digest and says so.
        digest = hashlib.sha256(figure3_result.report.encode()).hexdigest()
        assert digest == (
            "8630efed21c84094115356bf49abae6c0a42308cae0c29853e52e46567a8b7f3"
        )

    def test_quick_reliability_report_is_pinned(self):
        # `repro fig3 --quick --reliability`, byte for byte: the DAIET arm
        # runs sequenced, with dedup windows and ACKs crossing reducer NICs.
        settings = dataclasses.replace(Figure3Settings().quick(), reliability=True)
        digest = hashlib.sha256(run_figure3(settings).report.encode()).hexdigest()
        assert digest == (
            "16188501d5bb845c0ed8ea95bee95c6decb4258abbf454ce7cf9a2afa6b90ece"
        )
