"""Unit tests for the actions the switch program's tables bind."""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.errors import PipelineError, TableError
from repro.dataplane.actions import EcmpAction, ForwardAction, ecmp_path_index


class TestForwardAction:
    def test_forward_action_holds_its_port_immutably(self):
        action = ForwardAction(egress_port=9)
        assert action.egress_port == 9
        with pytest.raises(dataclasses.FrozenInstanceError):
            action.egress_port = 3

    def test_negative_port_is_rejected(self):
        with pytest.raises(TableError, match="egress port >= 0"):
            ForwardAction(egress_port=-1)


class TestEcmpAction:
    def test_ecmp_group_weights_members_by_their_paths(self):
        group = EcmpAction(ports=(4, 9), paths=(1, 3), seed=0, switch="leaf0")
        chosen = []
        for i in range(64):
            dst = f"h{i}"
            index = ecmp_path_index(0, "leaf0", dst, 4)
            port = group.select(dst)
            chosen.append(port)
            assert port == (4 if index == 0 else 9)
        assert set(chosen) == {4, 9}

    @pytest.mark.parametrize(
        ("ports", "paths"), [((), ()), ((1, 2), (1,)), ((-1, 2), (1, 1)), ((1, 2), (0, 1))]
    )
    def test_malformed_ecmp_group_is_rejected(self, ports, paths):
        with pytest.raises(PipelineError, match="ECMP group"):
            EcmpAction(ports=ports, paths=paths)
