"""Unit tests for the bounded-depth parser and the match-action pipeline."""

from __future__ import annotations

import pytest

from repro.core.config import DaietConfig
from repro.core.errors import PacketFormatError, PipelineError, ResourceExhaustedError
from repro.core.packet import DaietPacket
from repro.dataplane.actions import DropAction, ForwardAction
from repro.dataplane.parser import HeaderParser
from repro.dataplane.pipeline import Pipeline
from repro.dataplane.resources import SwitchResources
from repro.dataplane.tables import FlowRule, MatchActionTable
from repro.transport.packets import TcpSegment, UdpDatagram


class TestHeaderParser:
    def test_parses_udp_headers(self):
        parser = HeaderParser()
        datagram = UdpDatagram(src="a", dst="b", payload_bytes=100)
        result = parser.parse(datagram)
        assert set(result.headers) == {"ethernet", "ipv4", "udp"}
        assert result.parsed_bytes == 14 + 20 + 8
        assert parser.packets_parsed == 1

    def test_parses_daiet_pairs_as_headers(self):
        parser = HeaderParser()
        packet = DaietPacket(
            tree_id=1, src="a", dst="b", pairs=(("k1", 1), ("k2", 2)),
        )
        result = parser.parse(packet)
        assert result.get("daiet")["num_entries"] == 2
        assert "kv_0" in result.headers and "kv_1" in result.headers

    def test_parse_depth_limit_enforced(self):
        parser = HeaderParser(SwitchResources(max_parse_bytes=60))
        packet = DaietPacket(
            tree_id=1, src="a", dst="b", pairs=(("k1", 1),),
        )
        with pytest.raises(ResourceExhaustedError):
            parser.parse(packet)

    def test_default_budget_fits_ten_pairs_but_not_fourteen(self):
        parser = HeaderParser()
        config = DaietConfig(pairs_per_packet=10)
        ten = DaietPacket(
            tree_id=1, src="a", dst="b",
            pairs=tuple((f"key{i}", i) for i in range(10)), config=config,
        )
        parser.parse(ten)  # must not raise
        wide_config = DaietConfig(pairs_per_packet=14)
        fourteen = DaietPacket(
            tree_id=1, src="a", dst="b",
            pairs=tuple((f"key{i}", i) for i in range(14)), config=wide_config,
        )
        with pytest.raises(ResourceExhaustedError):
            parser.parse(fourteen)

    def test_unparsable_object_rejected(self):
        parser = HeaderParser()
        with pytest.raises(PacketFormatError):
            parser.parse(object())

    def test_max_pairs_helper(self):
        parser = HeaderParser(SwitchResources(max_parse_bytes=300))
        assert parser.max_pairs_per_packet(preamble_bytes=8, pair_bytes=20) == 14
        with pytest.raises(PacketFormatError):
            parser.max_pairs_per_packet(preamble_bytes=8, pair_bytes=0)

    def test_tcp_segment_headers(self):
        parser = HeaderParser()
        segment = TcpSegment(src="a", dst="b", payload_bytes=1460)
        result = parser.parse(segment)
        assert set(result.headers) == {"ethernet", "ipv4", "tcp"}


class TestPipeline:
    def make_forwarding_pipeline(self) -> tuple[Pipeline, MatchActionTable]:
        pipeline = Pipeline()
        stage = pipeline.add_stage("forward")
        table = MatchActionTable("l3", match_fields=("dst",))
        table.register_action("forward", ForwardAction)
        stage.add_table(table)
        return pipeline, table

    def test_stage_budget_enforced(self):
        pipeline = Pipeline(SwitchResources(pipeline_stages=2))
        pipeline.add_stage()
        pipeline.add_stage()
        with pytest.raises(PipelineError):
            pipeline.add_stage()

    def test_process_sets_standard_metadata(self):
        pipeline, table = self.make_forwarding_pipeline()
        ctx = pipeline.process(packet=object(), ingress_port=4)
        assert ctx.metadata["ingress_port"] == 4
        assert pipeline.packets_processed == 1

    def test_extern_receives_context(self):
        pipeline = Pipeline()
        seen = []
        pipeline.add_stage("probe").add_extern(lambda ctx: seen.append(ctx.metadata["ingress_port"]))
        pipeline.process(packet=None, ingress_port=2)
        assert seen == [2]

    def test_drop_short_circuits_later_stages(self):
        pipeline = Pipeline()
        pipeline.add_stage("first").add_extern(lambda ctx: ctx.metadata.update(drop=True))
        seen = []
        pipeline.add_stage("second").add_extern(lambda ctx: seen.append(1))
        pipeline.process(packet=None, ingress_port=0)
        assert seen == []
        assert pipeline.packets_dropped == 1

    def test_consumed_short_circuits_later_stages(self):
        pipeline = Pipeline()
        pipeline.add_stage("first").add_extern(lambda ctx: ctx.metadata.update(consumed=True))
        seen = []
        pipeline.add_stage("second").add_extern(lambda ctx: seen.append(1))
        ctx = pipeline.process(packet=None, ingress_port=0)
        assert seen == []
        assert ctx.metadata["consumed"] is True

    def test_duplicate_table_names_rejected(self):
        pipeline = Pipeline()
        stage = pipeline.add_stage()
        stage.add_table(MatchActionTable("t", match_fields=("k",)))
        stage.add_table(MatchActionTable("t", match_fields=("k",)))
        with pytest.raises(PipelineError):
            pipeline.tables()

    def test_tables_accessor_finds_installed_tables(self):
        pipeline, table = self.make_forwarding_pipeline()
        assert pipeline.tables() == {"l3": table}

    def test_table_miss_then_default_drop(self):
        pipeline, table = self.make_forwarding_pipeline()
        table.set_default_action(DropAction())
        ctx = pipeline.process(packet=object(), ingress_port=0)
        assert ctx.metadata["drop"] is True

    def test_rule_driven_forwarding(self):
        pipeline, table = self.make_forwarding_pipeline()
        table.install(FlowRule.create("l3", {"dst": None}, "forward", {"egress_port": 6}))
        ctx = pipeline.process(packet=object(), ingress_port=0)
        # The extracted dst is None for a plain object, so the rule matches.
        assert ctx.metadata["egress_port"] == 6

    def test_in_place_step_replacement_recompiles(self):
        # An unsealed pipeline runs whatever its steps are now: a step
        # replaced in place (not just appended) takes effect at once.
        pipeline = Pipeline()
        stage = pipeline.add_stage("probe")
        seen = []
        stage.add_extern(lambda ctx: seen.append("old"))
        pipeline.process(packet=None, ingress_port=0)
        stage.steps[0] = lambda ctx: seen.append("new")
        pipeline.process(packet=None, ingress_port=0)
        assert seen == ["old", "new"]


class TestPipelineOpBudget:
    def test_pathological_pipeline_exceeds_budget(self):
        pipeline = Pipeline(SwitchResources(max_ops_per_packet=3, pipeline_stages=12))
        stage = pipeline.add_stage("busy")
        for _ in range(5):
            stage.add_extern(lambda ctx: None)
        with pytest.raises(ResourceExhaustedError):
            pipeline.process(packet=None, ingress_port=0)
