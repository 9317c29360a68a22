"""Unit tests for the DAIET configuration objects."""

from __future__ import annotations

import pytest

from dataclasses import fields

from repro.core.config import VALUE_WIDTH, DaietConfig, TransportTuning
from repro.core.errors import ConfigurationError, TransportError


class TestDaietConfig:
    def test_paper_defaults(self):
        config = DaietConfig()
        assert config.register_slots == 16 * 1024
        assert config.key_width == 16
        assert VALUE_WIDTH == 4
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
        from repro.core.packet import DaietPacket

        # One register slot: the first key claims it and every other key
        # collides; the seventh colliding key fills the bucket, which
        # flushes as one packet of seven pairs.
        config = DaietConfig(register_slots=1, pairs_per_packet=7)
        engine = DaietAggregationEngine("sw")
        state = engine.configure_tree(1, "sum", 1, 0, "r", config)
        pairs = tuple((f"one{i}", i) for i in range(7))
        assert engine.handle_packet(DaietPacket(1, "m", "sw", pairs=pairs, config=config)) == []
        assert len(state.spillover) == 6
        [(_port, flush)] = engine.handle_packet(
            DaietPacket(1, "m", "sw", pairs=(("one7", 7),), config=config)
        )
        assert flush.pairs == pairs[1:] + (("one7", 7),)
        assert len(state.spillover) == 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"register_slots": 0},
            {"key_width": 0},
            {"pairs_per_packet": 0},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            DaietConfig(**kwargs)

    def test_the_value_width_is_the_wire_contract_not_a_field(self):
        # A value is 4 signed bytes on the wire and in a switch register;
        # the packetizer refuses anything wider, so no config can ask for it.
        with pytest.raises(TypeError):
            DaietConfig(value_width=8)  # type: ignore[call-arg]
        assert "value_width" not in {spec.name for spec in fields(DaietConfig)}
        assert len(fields(DaietConfig)) == 11
        config = DaietConfig(key_width=24)
        assert config.pair_bytes == 24 + VALUE_WIDTH
        # Key, value and index-stack entry per slot: the paper's SRAM budget.
        assert DaietConfig().sram_bytes() == 16 * 1024 * (16 + 4 + 4)

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
