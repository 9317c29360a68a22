"""Unit tests for the DAIET configuration objects."""

from __future__ import annotations

import pytest

from repro.core.config import DaietConfig, TransportTuning
from repro.core.errors import ConfigurationError, TransportError


class TestDaietConfig:
    def test_paper_defaults(self):
        config = DaietConfig()
        assert config.register_slots == 16 * 1024
        assert config.key_width == 16
        assert config.value_width == 4
        assert config.pairs_per_packet == 10

    def test_pair_and_payload_sizes(self):
        config = DaietConfig()
        assert config.pair_bytes == 20

    def test_sram_estimate_close_to_paper(self):
        # The paper estimates ~10 MB for 16K pairs of 16 B keys + 4 B values.
        config = DaietConfig()
        sram_mb = config.sram_bytes() / (1024 * 1024)
        assert 0.3 <= sram_mb <= 10.0

    def test_spillover_holds_one_packet(self):
        from repro.core.aggregation import DaietAggregationEngine

        engine = DaietAggregationEngine("sw")
        state = engine.configure_tree(1, "sum", 1, 0, "r", DaietConfig(pairs_per_packet=7))
        assert state.spillover.capacity == 7

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"register_slots": 0},
            {"key_width": 0},
            {"value_width": -1},
            {"pairs_per_packet": 0},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            DaietConfig(**kwargs)

    def test_config_is_frozen(self):
        config = DaietConfig()
        with pytest.raises(Exception):
            config.register_slots = 1  # type: ignore[misc]


class TestTransportTuning:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"congestion_control": "dctcp"},
            {"rto_floor": 0.0},
            {"rto_ceiling": 0.0},
            {"initial_cwnd": 0},
            {"min_cwnd": 0},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(TransportError):
            TransportTuning(**kwargs)
