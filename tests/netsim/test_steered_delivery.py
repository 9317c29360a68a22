"""Compiled steered delivery must be observationally identical to the generic
pipeline.

``SwitchDevice.deliver`` hands DAIET packets and ACKs whose tree has a
steering entry straight to the aggregation engine. A twin switch runs the
same sequence through ``ProgrammableSwitch.receive``: the emissions (the
compiled path's flush windows cut into their packets), ``SwitchCounters``, the parser's charges, ``packets_processed``, both tables'
hit/miss counts and the tree's ``TreeCounters`` must agree after every
packet. The sequence covers a spillover flush, a sequenced duplicate, the END
that completes the round, an ACK addressed to the switch, an ACK forwarded to
a child and a packet over the op budget. ``SwitchDevice`` seals the pipeline
it builds; the last test holds that.
"""

from __future__ import annotations

import pytest

from repro.core.aggregation import DaietAggregationEngine
from repro.core.config import DaietConfig
from repro.core.controller import AGGREGATE_ACTION
from repro.core.errors import PipelineError, ResourceExhaustedError
from repro.core.packet import DaietAck, DaietPacket, end_packet, packets_of
from repro.dataplane import switch as switch_module
from repro.dataplane.actions import CallableAction
from repro.dataplane.resources import SwitchResources
from repro.dataplane.tables import FlowRule, MatchActionTable
from repro.netsim.devices import DAIET_TABLE, SwitchDevice

TREE = 7
CHILD_PORTS = {"h0": 0, "h1": 1}
PARENT_PORT = 2
#: One register slot and two pairs per packet: every key after the first
#: collides, and the spillover bucket (one packet's worth) fills fast.
CONFIG = DaietConfig(register_slots=1, pairs_per_packet=2, reliability=True)
#: The op budget fits a two-pair DATA packet (charge 3 + 2) and an ACK (4),
#: not a four-pair packet (3 + 4).
MAX_OPS = 6


def _steered_switch(monkeypatch: pytest.MonkeyPatch) -> tuple[SwitchDevice, DaietAggregationEngine]:
    """Switch ``tor`` aggregating ``TREE``, wired the way the controller wires one."""
    with monkeypatch.context() as patch:
        patch.setattr(
            switch_module,
            "SwitchResources",
            lambda: SwitchResources(max_ops_per_packet=MAX_OPS),
        )
        device = SwitchDevice("tor", num_ports=4)
    engine = DaietAggregationEngine("tor")
    device.switch.register_extern("daiet", engine)
    device.daiet_table.register_action(
        AGGREGATE_ACTION, CallableAction(func=engine.pipeline_action, name=AGGREGATE_ACTION)
    )
    engine.configure_tree(
        tree_id=TREE,
        function="sum",
        num_children=len(CHILD_PORTS),
        egress_port=PARENT_PORT,
        next_hop_dst="h2",
        config=CONFIG,
        child_ports=CHILD_PORTS,
    )
    device.switch.install_rule(FlowRule.create(DAIET_TABLE, {"tree_id": TREE}, AGGREGATE_ACTION))
    return device, engine


def _data(src: str, pairs, seq: int | None = None, config: DaietConfig = CONFIG) -> DaietPacket:
    return DaietPacket(
        tree_id=TREE, src=src, dst="h2", pairs=tuple(pairs), config=config, seq=seq
    )


def _sequence() -> list[tuple[int, object]]:
    """``(ingress port, packet)`` in delivery order."""
    duplicate = _data("h1", [("a", 5), ("e", 6)], seq=0)
    return [
        # Unsequenced DATA from h0: "a" takes the one slot, "b", "c" and "d"
        # collide, and the two-pair spillover bucket flushes on "c".
        (0, _data("h0", [("a", 1), ("b", 2)])),
        (0, _data("h0", [("c", 3), ("d", 4)])),
        # Sequenced DATA from h1, then the same packet again.
        (1, duplicate),
        (1, duplicate),
        # Both children's ENDs: the second completes the round.
        (0, end_packet(TREE, "h0", "h2", CONFIG)),
        (1, end_packet(TREE, "h1", "h2", CONFIG, seq=1)),
        # From the parent: an ACK for the switch's own flushes with a hole
        # to repair, then one on its way to h0.
        (PARENT_PORT, DaietAck(tree_id=TREE, src="h2", dst="tor", cumulative=0, sack=(1,))),
        (PARENT_PORT, DaietAck(tree_id=TREE, src="h2", dst="h0", cumulative=3)),
    ]


def _observe(device: SwitchDevice, engine: DaietAggregationEngine) -> dict:
    switch = device.switch
    return {
        "counters": switch.counters.snapshot(),
        "parser": (switch.parser.packets_parsed, switch.parser.bytes_parsed),
        "processed": switch.pipeline.packets_processed,
        "daiet": (device.daiet_table.hit_count, device.daiet_table.miss_count),
        "forward": (device.forwarding_table.hit_count, device.forwarding_table.miss_count),
        "tree": engine.tree(TREE).counters.snapshot(),
    }


class TestSteeredDeliveryTwin:
    def test_deliver_matches_the_generic_pipeline(self, monkeypatch):
        fast, fast_engine = _steered_switch(monkeypatch)
        slow, slow_engine = _steered_switch(monkeypatch)
        generic = fast.switch.receive
        fallbacks = []

        def receive(packet, ingress_port, nbytes=None):
            fallbacks.append(packet)
            return generic(packet, ingress_port, nbytes)

        monkeypatch.setattr(fast.switch, "receive", receive)
        outputs = []
        for port, packet in _sequence():
            nbytes = packet.wire_bytes()
            # The compiled path emits each flush as one window; the generic
            # pipeline emits its packets.
            out = packets_of(fast.deliver(packet, port, nbytes))
            assert out == slow.switch.receive(packet, port, nbytes)
            assert _observe(fast, fast_engine) == _observe(slow, slow_engine)
            outputs.append(out)
        # Every packet above took the compiled path, and each case happened.
        assert fallbacks == []
        tree = fast_engine.tree(TREE).counters
        assert (tree.spillover_flushes, tree.duplicate_packets, tree.final_flushes) == (2, 1, 1)
        assert (tree.acks_received, tree.retransmitted_packets) == (1, 1)
        assert outputs[-1] == [(CHILD_PORTS["h0"], _sequence()[-1][1])]

        wide = DaietConfig(register_slots=1, pairs_per_packet=4, reliability=True)
        over = _data("h0", [("w", 1), ("x", 2), ("y", 3), ("z", 4)], config=wide)
        errors = []
        for deliver in (fast.deliver, slow.switch.receive):
            with pytest.raises(ResourceExhaustedError) as caught:
                deliver(over, 0, over.wire_bytes())
            errors.append(str(caught.value))
        assert errors[0] == errors[1]
        assert fallbacks == [over]
        assert _observe(fast, fast_engine) == _observe(slow, slow_engine)


class TestSealedPipeline:
    def test_the_standard_pipeline_cannot_be_changed(self):
        device = SwitchDevice("s0")
        pipeline = device.switch.pipeline
        stage = pipeline.stages[1]
        with pytest.raises(PipelineError, match="sealed"):
            pipeline.add_stage("extra")
        with pytest.raises(PipelineError, match="sealed"):
            stage.add_extern(lambda ctx: None)
        with pytest.raises(PipelineError, match="sealed"):
            stage.add_table(MatchActionTable("extra", match_fields=("dst",)))
        with pytest.raises(TypeError):
            stage.steps[0] = lambda ctx: None
        assert [len(s.steps) for s in pipeline.stages] == [1, 1, 1]
        assert stage.steps[0] is device.daiet_table
