"""Compiled steered delivery must do what the switch program says.

``SwitchDevice.deliver`` hands DAIET packets and ACKs whose tree has a
steering entry straight to the aggregation engine. A twin switch runs the
same sequence through the reference model of the program
(``switch_program_model.ReferenceSwitch``): the emissions (the compiled
path's flush windows cut into their packets), ``SwitchCounters``,
``bytes_parsed``, both tables' hit/miss counts and the tree's
``TreeCounters`` must agree after every packet. The sequence covers a
spillover flush, a sequenced duplicate, the END that completes the round, an
ACK addressed to the switch, an ACK forwarded to a child and a packet over
the op budget, which raises without taking any other route into the switch.
"""

from __future__ import annotations

import re

import pytest
from switch_program_model import ReferenceSwitch, observed

from repro.core.aggregation import DaietAggregationEngine
from repro.core.config import DaietConfig
from repro.core.controller import AGGREGATE_ACTION
from repro.core.errors import PipelineError, ResourceExhaustedError
from repro.core.packet import DaietAck, DaietPacket, end_packet, packets_of
from repro.dataplane import switch as switch_module
from repro.dataplane.resources import SwitchResources
from repro.dataplane.tables import FlowRule
from repro.netsim.devices import DAIET_TABLE, FORWARDING_TABLE, SwitchDevice

TREE = 7
CHILD_PORTS = {"h0": 0, "h1": 1}
PARENT_PORT = 2
#: One register slot and two pairs per packet: every key after the first
#: collides, and the spillover bucket (one packet's worth) fills fast.
CONFIG = DaietConfig(register_slots=1, pairs_per_packet=2, reliability=True)
#: The op budget fits a two-pair DATA packet (charge 3 + 2) and an ACK (4),
#: not a four-pair packet (3 + 4).
MAX_OPS = 6


def _steered_switch(
    monkeypatch: pytest.MonkeyPatch, config: DaietConfig = CONFIG, **budgets: int
) -> tuple[SwitchDevice, DaietAggregationEngine]:
    """Switch ``tor`` aggregating ``TREE``, wired the way the controller wires one."""
    budgets.setdefault("max_ops_per_packet", MAX_OPS)
    with monkeypatch.context() as patch:
        patch.setattr(switch_module, "SwitchResources", lambda: SwitchResources(**budgets))
        device = SwitchDevice("tor", num_ports=4)
    engine = DaietAggregationEngine("tor")
    device.switch.register_extern("daiet", engine)
    device.daiet_table.register_action(AGGREGATE_ACTION, engine)
    engine.configure_tree(
        tree_id=TREE,
        function="sum",
        num_children=len(CHILD_PORTS),
        egress_port=PARENT_PORT,
        next_hop_dst="h2",
        config=config,
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


def _tree(engine: DaietAggregationEngine) -> dict:
    return engine.tree(TREE).counters.snapshot()


class TestSteeredDeliveryMatchesTheProgram:
    def test_deliver_matches_the_reference_model(self, monkeypatch):
        fast, fast_engine = _steered_switch(monkeypatch)
        twin, twin_engine = _steered_switch(monkeypatch)
        model = ReferenceSwitch(twin)
        forwarded = []
        forward_stage = fast.switch.receive

        def receive(packet, ingress_port, nbytes):
            forwarded.append(packet)
            return forward_stage(packet, ingress_port, nbytes)

        monkeypatch.setattr(fast.switch, "receive", receive)
        outputs = []
        for port, packet in _sequence():
            nbytes = packet.wire_bytes()
            # The compiled path emits each flush as one window; the model
            # emits its packets.
            out = packets_of(fast.deliver(packet, port, nbytes))
            assert out == model.process(packet, port, nbytes)
            assert observed(fast) == model.observed()
            assert _tree(fast_engine) == _tree(twin_engine)
            outputs.append(out)
        # Every packet above was steered, and each case happened.
        assert forwarded == []
        tree = fast_engine.tree(TREE).counters
        assert (tree.spillover_flushes, tree.duplicate_packets, tree.final_flushes) == (2, 1, 1)
        assert (tree.acks_received, tree.retransmitted_packets) == (1, 1)
        assert outputs[-1] == [(CHILD_PORTS["h0"], _sequence()[-1][1])]
        assert observed(fast)["daiet"] == (len(outputs), 0)

        wide = DaietConfig(register_slots=1, pairs_per_packet=4, reliability=True)
        over = _data("h0", [("w", 1), ("x", 2), ("y", 3), ("z", 4)], config=wide)
        errors = []
        for process in (fast.deliver, model.process):
            with pytest.raises(ResourceExhaustedError) as caught:
                process(over, 0, over.wire_bytes())
            errors.append(str(caught.value))
        assert errors == ["per-packet operation budget exceeded (7 > 6)"] * 2
        assert forwarded == []
        assert observed(fast) == model.observed()
        assert _tree(fast_engine) == _tree(twin_engine)

    def test_a_removed_steering_entry_forwards_the_next_packet(self, monkeypatch):
        fast, _engine = _steered_switch(monkeypatch)
        twin, _twin_engine = _steered_switch(monkeypatch)
        model = ReferenceSwitch(twin)
        for device in (fast, twin):
            device.switch.install_rule(
                FlowRule.create(FORWARDING_TABLE, {"dst": "h2"}, "forward", {"egress_port": 3})
            )
        packet = _data("h0", [("a", 1)])
        for step in range(2):
            nbytes = packet.wire_bytes()
            assert packets_of(fast.deliver(packet, 0, nbytes)) == model.process(packet, 0, nbytes)
            assert observed(fast) == model.observed()
            for device in (fast, twin):
                device.daiet_table.remove({"tree_id": TREE})
        assert observed(fast)["daiet"] == (1, 1)
        assert observed(fast)["forward"] == (1, 0)

    @pytest.mark.parametrize("port", [-1, 4])
    def test_an_ingress_port_the_switch_lacks_is_refused(self, monkeypatch, port):
        device, _engine = _steered_switch(monkeypatch)
        packet = _data("h0", [("a", 1)])
        with pytest.raises(PipelineError, match="out of range"):
            device.deliver(packet, port, packet.wire_bytes())
        assert device.switch.counters.packets_in == 0


#: Every steered packet shape: DATA with 1..10 pairs, an END, ACKs with and
#: without a SACK list.
BUDGET_CASES = [
    *[(f"data-{n}", n) for n in range(1, 11)],
    ("end", "end"),
    ("ack", ()),
    ("ack-sack", (3, 5, 9)),
]
WIDE = DaietConfig(register_slots=64, pairs_per_packet=10, reliability=True)


def _budget_packet(shape):
    if shape == "end":
        return end_packet(TREE, "h0", "h2", WIDE, seq=0)
    if isinstance(shape, tuple):
        return DaietAck(tree_id=TREE, src="h2", dst="tor", cumulative=0, sack=shape)
    return _data("h0", [(f"k{i}", i) for i in range(shape)], seq=0, config=WIDE)


class TestBudgetsAreTheOpModel:
    @pytest.mark.parametrize("shape", [shape for _name, shape in BUDGET_CASES],
                             ids=[name for name, _shape in BUDGET_CASES])
    def test_a_packet_exactly_at_its_budgets_passes_and_one_under_raises(
        self, monkeypatch, shape
    ):
        packet = _budget_packet(shape)
        ops = 4 if isinstance(shape, (str, tuple)) else 3 + shape
        depth, nbytes = packet.parse_depth_bytes(), packet.wire_bytes()
        exact = {"max_ops_per_packet": ops, "max_parse_bytes": depth}
        fast, _engine = _steered_switch(monkeypatch, WIDE, **exact)
        model = ReferenceSwitch(_steered_switch(monkeypatch, WIDE, **exact)[0])
        assert packets_of(fast.deliver(packet, 0, nbytes)) == model.process(packet, 0, nbytes)
        assert observed(fast) == model.observed()
        for budgets, message in (
            ({**exact, "max_ops_per_packet": ops - 1}, f"({ops} > {ops - 1})"),
            ({**exact, "max_parse_bytes": depth - 1}, f"needs {depth} B, target limit is"),
        ):
            device, _engine = _steered_switch(monkeypatch, WIDE, **budgets)
            with pytest.raises(ResourceExhaustedError, match=re.escape(message)):
                device.deliver(packet, 0, nbytes)
            assert device.daiet_table.hit_count == 0
