"""Unit tests for the pipeline action primitives."""

from __future__ import annotations

import pytest

from repro.core.errors import PipelineError, ResourceExhaustedError
from repro.dataplane.actions import (
    ActionSequence,
    CallableAction,
    DropAction,
    EcmpAction,
    ForwardAction,
    NoAction,
    PacketContext,
    SetMetadataAction,
    ecmp_path_index,
)
from repro.dataplane.resources import PacketOpCounter


class TestPacketContext:
    def test_charge_without_counter_is_noop(self):
        ctx = PacketContext(packet=None)
        ctx.charge(100)  # must not raise

    def test_charge_with_counter_enforces_budget(self):
        ctx = PacketContext(packet=None, ops=PacketOpCounter(limit=2))
        ctx.charge(2)
        with pytest.raises(ResourceExhaustedError):
            ctx.charge(1)

    def test_emit_queues_generated_packets(self):
        ctx = PacketContext(packet=None)
        ctx.emit(3, "generated")
        assert ctx.emitted == [(3, "generated")]


class TestPrimitives:
    def test_no_action_changes_nothing(self):
        ctx = PacketContext(packet=None, metadata={"drop": False})
        NoAction()(ctx)
        assert ctx.metadata == {"drop": False}

    def test_drop_action_sets_flag(self):
        ctx = PacketContext(packet=None)
        DropAction()(ctx)
        assert ctx.metadata["drop"] is True

    def test_forward_action_sets_egress_port(self):
        ctx = PacketContext(packet=None)
        ForwardAction(egress_port=9)(ctx)
        assert ctx.metadata["egress_port"] == 9

    def test_set_metadata_action(self):
        ctx = PacketContext(packet=None)
        SetMetadataAction(key="vlan", value=42)(ctx)
        assert ctx.metadata["vlan"] == 42

    def test_set_metadata_requires_key(self):
        ctx = PacketContext(packet=None)
        with pytest.raises(PipelineError):
            SetMetadataAction(key="", value=1)(ctx)

    def test_callable_action_invokes_function(self):
        calls = []
        action = CallableAction(func=lambda ctx: calls.append(ctx), name="probe")
        ctx = PacketContext(packet="pkt")
        action(ctx)
        assert calls == [ctx]

    def test_callable_action_without_function_raises(self):
        ctx = PacketContext(packet=None)
        with pytest.raises(PipelineError):
            CallableAction()(ctx)

    def test_action_sequence_runs_in_order(self):
        ctx = PacketContext(packet=None)
        sequence = ActionSequence(
            actions=(
                SetMetadataAction(key="first", value=1),
                SetMetadataAction(key="second", value=2),
                ForwardAction(egress_port=5),
            )
        )
        sequence(ctx)
        assert ctx.metadata["first"] == 1
        assert ctx.metadata["second"] == 2
        assert ctx.metadata["egress_port"] == 5

    def test_actions_charge_the_op_budget(self):
        ctx = PacketContext(packet=None, ops=PacketOpCounter(limit=2))
        ForwardAction(egress_port=1)(ctx)
        DropAction()(ctx)
        assert ctx.ops is not None
        assert ctx.ops.used == 2

    def test_ecmp_group_weights_members_by_their_paths(self):
        group = EcmpAction(ports=(4, 9), paths=(1, 3), seed=0, switch="leaf0")
        chosen = []
        for i in range(64):
            dst = f"h{i}"
            index = ecmp_path_index(0, "leaf0", dst, 4)
            ctx = PacketContext(packet=None, metadata={"dst": dst})
            group(ctx)
            chosen.append(ctx.metadata["egress_port"])
            assert ctx.metadata["egress_port"] == (4 if index == 0 else 9)
        assert set(chosen) == {4, 9}

    @pytest.mark.parametrize(
        ("ports", "paths"), [((), ()), ((1, 2), (1,)), ((-1, 2), (1, 1)), ((1, 2), (0, 1))]
    )
    def test_malformed_ecmp_group_is_rejected(self, ports, paths):
        with pytest.raises(PipelineError, match="ECMP group"):
            EcmpAction(ports=ports, paths=paths)
