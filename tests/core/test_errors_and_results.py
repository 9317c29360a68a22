"""Unit tests for the exception hierarchy and result/accounting containers."""

from __future__ import annotations

import pytest

from repro.core import errors
from repro.mapreduce.job import JobResult, ReducerMetrics
from repro.mapreduce.shuffle import ShuffleAccounting


class TestErrorHierarchy:
    def test_every_domain_error_derives_from_repro_error(self):
        domain_errors = [
            errors.ConfigurationError,
            errors.ResourceExhaustedError,
            errors.PacketFormatError,
            errors.PipelineError,
            errors.TableError,
            errors.RoutingError,
            errors.TopologyError,
            errors.TreeError,
            errors.ControllerError,
            errors.AggregationError,
            errors.TransportError,
            errors.JobError,
            errors.TrainingError,
            errors.GraphError,
            errors.SimulationError,
        ]
        for error_type in domain_errors:
            assert issubclass(error_type, errors.ReproError)

    def test_table_error_is_a_pipeline_error(self):
        assert issubclass(errors.TableError, errors.PipelineError)

    def test_catching_the_base_class_catches_domain_errors(self):
        with pytest.raises(errors.ReproError):
            raise errors.AggregationError("boom")

    def test_metrics_error_is_repro_error(self):
        from repro.analysis.metrics import MetricsError

        assert issubclass(MetricsError, errors.ReproError)


class TestJobResult:
    def make_result(self) -> JobResult:
        result = JobResult(job_name="wc", shuffle_mode="daiet")
        for reducer_id, (nbytes, packets, seconds) in enumerate(
            [(100, 10, 0.5), (200, 20, 1.0), (300, 30, 1.5)]
        ):
            result.reducer_metrics[reducer_id] = ReducerMetrics(
                reducer_id=reducer_id,
                host=f"w{reducer_id}",
                payload_bytes_received=nbytes,
                packets_received=packets,
                reduce_seconds=seconds,
            )
        return result

    def test_totals(self):
        result = self.make_result()
        assert result.total_reducer_bytes() == 600
        assert result.total_reducer_packets() == 60
        assert result.total_reduce_seconds() == pytest.approx(3.0)

    def test_empty_result_totals_are_zero(self):
        result = JobResult(job_name="empty", shuffle_mode="tcp")
        assert result.total_reducer_bytes() == 0
        assert result.total_reducer_packets() == 0
        assert result.total_reduce_seconds() == 0.0


class TestShuffleAccounting:
    def test_defaults_are_zero(self):
        accounting = ShuffleAccounting()
        assert accounting.packets_sent == 0
        assert accounting.payload_bytes_sent == 0
        assert accounting.local_pairs == 0
        assert accounting.network_pairs == 0
