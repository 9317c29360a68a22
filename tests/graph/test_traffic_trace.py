"""Unit tests for the superstep traffic accounting."""

from __future__ import annotations

import pytest

from repro.graph.traffic import SuperstepTraffic, TrafficTrace


class TestSuperstepTraffic:
    def test_reduction_ratio(self):
        traffic = SuperstepTraffic(superstep=0, messages=100, distinct_destinations=20)
        assert traffic.reduction_ratio == pytest.approx(0.8)

    def test_zero_message_superstep_has_zero_reduction(self):
        traffic = SuperstepTraffic(superstep=3)
        assert traffic.reduction_ratio == 0.0


class TestTrafficTrace:
    def make_trace(self) -> TrafficTrace:
        trace = TrafficTrace(algorithm="test")
        trace.append(SuperstepTraffic(superstep=0, messages=10, distinct_destinations=10,
                                      remote_messages=6, distinct_remote_destinations=6))
        trace.append(SuperstepTraffic(superstep=1, messages=100, distinct_destinations=25,
                                      remote_messages=70, distinct_remote_destinations=20))
        return trace

    def test_aggregate_queries(self):
        trace = self.make_trace()
        assert trace.total_messages() == 110
