"""Unit tests for match-action tables and flow rules."""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.errors import TableError
from repro.dataplane.actions import (
    DropAction,
    ForwardAction,
    NoAction,
    PacketContext,
    SetMetadataAction,
)
from repro.dataplane.tables import WILDCARD, FlowRule, MatchActionTable


def make_ctx(**metadata) -> PacketContext:
    return PacketContext(packet=object(), metadata=dict(metadata))


class TestFlowRule:
    def test_create_canonicalizes_ordering(self):
        rule_a = FlowRule.create("t", {"a": 1, "b": 2}, "fwd", {"x": 1})
        rule_b = FlowRule.create("t", {"b": 2, "a": 1}, "fwd", {"x": 1})
        assert rule_a == rule_b
        assert rule_a.match_dict() == {"a": 1, "b": 2}
        assert rule_a.params_dict() == {"x": 1}

    def test_rules_are_hashable(self):
        rule = FlowRule.create("t", {"dst": "h1"}, "fwd", {"egress_port": 3})
        assert len({rule, rule}) == 1


class TestExactMatchTable:
    def make_table(self) -> MatchActionTable:
        table = MatchActionTable("l3", match_fields=("dst",))
        table.register_action("forward", ForwardAction)
        table.register_action("drop", DropAction)
        return table

    def test_install_and_lookup(self):
        table = self.make_table()
        table.install(FlowRule.create("l3", {"dst": "h1"}, "forward", {"egress_port": 7}))
        entry = table.lookup({"dst": "h1"})
        assert entry is not None
        assert table.lookup({"dst": "h2"}) is None

    def test_apply_hit_sets_egress_port(self):
        table = self.make_table()
        table.install(FlowRule.create("l3", {"dst": "h1"}, "forward", {"egress_port": 7}))
        ctx = make_ctx(dst="h1")
        assert table.apply(ctx) is True
        assert ctx.metadata["egress_port"] == 7
        assert table.hit_count == 1

    def test_address_plan_is_the_second_probe(self):
        table = self.make_table()
        table.install(FlowRule.create("l3", {"dst": "h1"}, "forward", {"egress_port": 7}))
        table.install(FlowRule.create("l3", {"dst": ("rack", 1)}, "forward", {"egress_port": 2}))
        table.set_address_plan({"h1": ("rack", 1), "h2": ("rack", 1), "h3": ("rack", 9)})
        ports = []
        for dst in ("h1", "h2", "h3", ["unhashable"]):
            ctx = make_ctx(dst=dst)
            table.apply(ctx)
            ports.append(ctx.metadata.get("egress_port"))
        # The exact entry wins; a planned host takes its aggregate; an
        # aggregate with no entry, like an unhashable value, is a miss.
        assert ports == [7, 2, None, None]
        assert (table.hit_count, table.miss_count) == (2, 2)
        assert table.lookup({"dst": "h2"}).action.egress_port == 2
        table.clear()
        assert table.address_plan is None and table.lookup({"dst": "h2"}) is None

    def test_address_plan_needs_a_single_field_exact_table(self):
        for table in (
            MatchActionTable("acl", match_fields=("dst",), match_kind="ternary"),
            MatchActionTable("pair", match_fields=("src", "dst")),
        ):
            with pytest.raises(TableError, match="address plan"):
                table.set_address_plan({"h1": "rack"})

    def test_apply_miss_runs_default_action(self):
        table = self.make_table()
        table.set_default_action(DropAction())
        ctx = make_ctx(dst="unknown")
        assert table.apply(ctx) is False
        assert ctx.metadata["drop"] is True
        assert table.miss_count == 1

    def test_duplicate_exact_entry_rejected(self):
        table = self.make_table()
        rule = FlowRule.create("l3", {"dst": "h1"}, "forward", {"egress_port": 1})
        table.install(rule)
        with pytest.raises(TableError):
            table.install(FlowRule.create("l3", {"dst": "h1"}, "forward", {"egress_port": 2}))

    def test_missing_match_field_rejected(self):
        table = self.make_table()
        with pytest.raises(TableError):
            table.install(FlowRule.create("l3", {"src": "h1"}, "forward", {"egress_port": 1}))

    def test_unknown_action_rejected(self):
        table = self.make_table()
        with pytest.raises(TableError):
            table.install(FlowRule.create("l3", {"dst": "h1"}, "mystery"))

    def test_rule_for_other_table_rejected(self):
        table = self.make_table()
        with pytest.raises(TableError):
            table.install(FlowRule.create("other", {"dst": "h1"}, "forward"))

    def test_capacity_limit(self):
        table = MatchActionTable("tiny", match_fields=("dst",), max_entries=1)
        table.register_action("forward", ForwardAction)
        table.install(FlowRule.create("tiny", {"dst": "a"}, "forward", {"egress_port": 0}))
        with pytest.raises(TableError):
            table.install(FlowRule.create("tiny", {"dst": "b"}, "forward", {"egress_port": 0}))

    def test_remove_entry(self):
        table = self.make_table()
        table.install(FlowRule.create("l3", {"dst": "h1"}, "forward", {"egress_port": 1}))
        assert table.remove({"dst": "h1"}) is True
        assert table.remove({"dst": "h1"}) is False
        assert len(table) == 0

    def test_clear(self):
        table = self.make_table()
        table.install(FlowRule.create("l3", {"dst": "h1"}, "forward", {"egress_port": 1}))
        table.clear()
        assert len(table) == 0

    def test_shared_action_instance_rejects_params(self):
        table = MatchActionTable("t", match_fields=("k",))
        table.register_action("shared", NoAction())
        with pytest.raises(TableError):
            table.install(FlowRule.create("t", {"k": 1}, "shared", {"p": 2}))

    def test_table_requires_match_fields(self):
        with pytest.raises(TableError):
            MatchActionTable("empty", match_fields=())

    def test_unsupported_match_kind(self):
        with pytest.raises(TableError):
            MatchActionTable("t", match_fields=("k",), match_kind="lpm")


class TestBatchInstall:
    """``install_batch`` is N x ``install`` that lands whole or not at all."""

    @staticmethod
    def make_table(max_entries: int = 4096) -> MatchActionTable:
        table = MatchActionTable("l3", match_fields=("dst",), max_entries=max_entries)
        table.register_action("forward", ForwardAction)
        return table

    @staticmethod
    def rules(count: int, ports: int = 3) -> list[FlowRule]:
        return [
            FlowRule.create("l3", {"dst": f"h{i}"}, "forward", {"egress_port": i % ports})
            for i in range(count)
        ]

    @staticmethod
    def snapshot(table: MatchActionTable):
        return (
            [(e.match, e.action, e.priority) for e in table.entries()],
            dict(table._exact_index),
            table.version,
        )

    def test_twin_tables_are_indistinguishable(self):
        rules = self.rules(40)
        one_by_one, batched = self.make_table(), self.make_table()
        for rule in rules:
            one_by_one.install(rule)
        entries = batched.install_batch(rules)

        assert entries == list(batched.entries())
        assert [(e.match, e.action) for e in batched.entries()] == [
            (e.match, e.action) for e in one_by_one.entries()
        ]
        assert list(batched._exact_index) == list(one_by_one._exact_index)
        assert (one_by_one.version, batched.version) == (40, 1)
        for dst in ("h0", "h17", "h39", "h40", "nope"):
            assert (batched.lookup({"dst": dst}) is None) == (
                one_by_one.lookup({"dst": dst}) is None
            )
            contexts = [make_ctx(dst=dst), make_ctx(dst=dst)]
            assert batched.apply(contexts[0]) == one_by_one.apply(contexts[1])
            assert contexts[0].metadata == contexts[1].metadata
        assert (batched.hit_count, batched.miss_count) == (3, 2)
        assert (one_by_one.hit_count, one_by_one.miss_count) == (3, 2)

    def test_ternary_batch_orders_by_priority_like_installs(self):
        def table() -> MatchActionTable:
            acl = MatchActionTable("acl", match_fields=("src",), match_kind="ternary")
            acl.register_action("mark", SetMetadataAction)
            return acl

        rules = [
            FlowRule.create(
                "acl", {"src": src}, "mark", {"key": "class", "value": i}, priority=prio
            )
            for i, (src, prio) in enumerate(
                [(WILDCARD, 1), ("h0", 5), ("h1", 5), (WILDCARD, 9), ("h0", 1)]
            )
        ]
        one_by_one, batched = table(), table()
        for rule in rules:
            one_by_one.install(rule)
        batched.install_batch(rules)
        assert [e.action for e in batched.entries()] == [
            e.action for e in one_by_one.entries()
        ]
        assert batched.version == 1

    def test_forward_actions_are_shared_per_port_and_immutable(self):
        table = self.make_table()
        table.install_batch(self.rules(9, ports=3))
        actions = {id(e.action) for e in table.entries()}
        assert len(actions) == 3
        shared = table.lookup({"dst": "h0"}).action
        assert shared is table.lookup({"dst": "h3"}).action
        with pytest.raises(dataclasses.FrozenInstanceError):
            shared.egress_port = 7

    def test_mutable_actions_are_never_shared(self):
        table = MatchActionTable("acl", match_fields=("src",))
        table.register_action("mark", SetMetadataAction)
        first, second = table.install_batch(
            FlowRule.create("acl", {"src": src}, "mark", {"key": "class", "value": 1})
            for src in ("h0", "h1")
        )
        assert first.action == second.action and first.action is not second.action
        first.action.value = 2
        ctx = make_ctx(src="h1")
        table.apply(ctx)
        assert ctx.metadata["class"] == 1

    def test_wrong_table_is_reported_before_a_full_table(self):
        table = self.make_table(max_entries=1)
        table.install_batch(self.rules(1))
        with pytest.raises(TableError, match="installed into table 'l3'"):
            table.install(FlowRule.create("other", {"dst": "x"}, "forward"))
        with pytest.raises(TableError, match="is full"):
            table.install(FlowRule.create("l3", {"dst": "x"}, "forward"))

    def test_removing_one_rule_leaves_its_port_mate_forwarding(self):
        table = self.make_table()
        table.install_batch(self.rules(2, ports=1))
        assert table.remove({"dst": "h0"}) is True
        ctx = make_ctx(dst="h1")
        assert table.apply(ctx) is True
        assert ctx.metadata["egress_port"] == 0
        assert table.apply(make_ctx(dst="h0")) is False

    @pytest.mark.parametrize(
        "bad",
        [
            pytest.param(
                lambda rules: rules + [rules[1]], id="duplicate-inside-the-batch"
            ),
            pytest.param(
                lambda rules: rules
                + [FlowRule.create("l3", {"dst": "old"}, "forward", {"egress_port": 9})],
                id="duplicate-of-an-installed-entry",
            ),
            pytest.param(
                lambda rules: rules + [FlowRule.create("other", {"dst": "x"}, "forward")],
                id="wrong-table",
            ),
            pytest.param(
                lambda rules: rules + [FlowRule.create("l3", {"src": "x"}, "forward")],
                id="missing-match-field",
            ),
            pytest.param(
                lambda rules: rules + [FlowRule.create("l3", {"dst": "x"}, "mystery")],
                id="unknown-action",
            ),
            pytest.param(
                lambda rules: rules
                + [
                    FlowRule.create("l3", {"dst": f"extra{i}"}, "forward", {"egress_port": 1})
                    for i in range(6)
                ],
                id="over-capacity",
            ),
        ],
    )
    def test_rejected_batch_leaves_the_table_untouched(self, bad):
        table = self.make_table(max_entries=8)
        table.install(FlowRule.create("l3", {"dst": "old"}, "forward", {"egress_port": 5}))
        before = self.snapshot(table)
        with pytest.raises(TableError):
            table.install_batch(bad(self.rules(3)))
        assert self.snapshot(table) == before
        assert table.lookup({"dst": "h0"}) is None

    def test_capacity_error_names_table_and_counts(self):
        table = self.make_table(max_entries=4)
        with pytest.raises(TableError, match=r"'l3' is full \(4 entries\).*5 more"):
            table.install_batch(self.rules(5))

    def test_unhashable_match_values_are_rejected(self):
        table = self.make_table()
        table.install(FlowRule.create("l3", {"dst": "old"}, "forward", {"egress_port": 5}))
        before = self.snapshot(table)
        unhashable = FlowRule("l3", (("dst", ["a", "b"]),), "forward", (("egress_port", 1),))
        with pytest.raises(TableError, match="hashable"):
            table.install_batch([*self.rules(2), unhashable])
        assert self.snapshot(table) == before
        assert table.lookup({"dst": ["a", "b"]}) is None

    def test_empty_batch_is_a_no_op(self):
        table = self.make_table()
        assert table.install_batch([]) == []
        assert table.version == 0


class TestTernaryTable:
    def make_table(self) -> MatchActionTable:
        table = MatchActionTable("acl", match_fields=("src", "dst"), match_kind="ternary")
        table.register_action("drop", DropAction)
        table.register_action("mark", SetMetadataAction)
        return table

    def test_wildcard_matches_anything(self):
        table = self.make_table()
        table.install(FlowRule.create("acl", {"src": WILDCARD, "dst": "h1"}, "drop"))
        assert table.lookup({"src": "x", "dst": "h1"}) is not None
        assert table.lookup({"src": "x", "dst": "h2"}) is None

    def test_priority_orders_overlapping_entries(self):
        table = self.make_table()
        table.install(
            FlowRule.create(
                "acl", {"src": WILDCARD, "dst": WILDCARD}, "mark",
                {"key": "class", "value": "default"}, priority=1,
            )
        )
        table.install(
            FlowRule.create(
                "acl", {"src": "h0", "dst": WILDCARD}, "mark",
                {"key": "class", "value": "special"}, priority=10,
            )
        )
        ctx = make_ctx(src="h0", dst="anything")
        table.apply(ctx)
        assert ctx.metadata["class"] == "special"
        ctx2 = make_ctx(src="h9", dst="anything")
        table.apply(ctx2)
        assert ctx2.metadata["class"] == "default"
