"""Unit tests for match-action tables and flow rules."""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.errors import TableError
from repro.dataplane.actions import EcmpAction, Extern, ForwardAction
from repro.dataplane.tables import FlowRule, MatchActionTable


@dataclasses.dataclass
class Mark:
    """A mutable action of an open table (one instance per rule)."""

    value: int = 0


def egress(table: MatchActionTable, dst) -> int | None:
    """The port ``table`` forwards ``dst`` out of, or ``None`` on a miss."""
    entry = table.lookup({"dst": dst})
    return None if entry is None else entry.action.egress_port


class TestFlowRule:
    def test_create_canonicalizes_ordering(self):
        rule_a = FlowRule.create("t", {"a": 1, "b": 2}, "fwd", {"x": 1})
        rule_b = FlowRule.create("t", {"b": 2, "a": 1}, "fwd", {"x": 1})
        assert rule_a == rule_b
        assert rule_a.match == (("a", 1), ("b", 2))
        assert rule_a.params_dict() == {"x": 1}

    def test_rules_are_hashable(self):
        rule = FlowRule.create("t", {"dst": "h1"}, "fwd", {"egress_port": 3})
        assert len({rule, rule}) == 1


class TestExactMatchTable:
    def make_table(self) -> MatchActionTable:
        table = MatchActionTable("l3", match_fields=("dst",))
        table.register_action("forward", ForwardAction)
        return table

    def test_install_and_lookup(self):
        table = self.make_table()
        table.install(FlowRule.create("l3", {"dst": "h1"}, "forward", {"egress_port": 7}))
        entry = table.lookup({"dst": "h1"})
        assert entry is not None
        assert table.lookup({"dst": "h2"}) is None

    def test_lookup_binds_the_rule_parameters(self):
        table = self.make_table()
        table.install(FlowRule.create("l3", {"dst": "h1"}, "forward", {"egress_port": 7}))
        assert egress(table, "h1") == 7
        assert (table.hit_count, table.miss_count) == (0, 0)  # lookup has no side effects

    def test_address_plan_is_the_second_probe(self):
        table = self.make_table()
        table.install(FlowRule.create("l3", {"dst": "h1"}, "forward", {"egress_port": 7}))
        table.install(FlowRule.create("l3", {"dst": ("rack", 1)}, "forward", {"egress_port": 2}))
        table.set_address_plan({"h1": ("rack", 1), "h2": ("rack", 1), "h3": ("rack", 9)})
        # The exact entry wins; a planned host takes its aggregate; an
        # aggregate with no entry, like an unhashable value, is a miss.
        ports = [egress(table, dst) for dst in ("h1", "h2", "h3", ["unhashable"])]
        assert ports == [7, 2, None, None]
        table.clear()
        assert table.address_plan is None and table.lookup({"dst": "h2"}) is None

    def test_address_plan_needs_a_single_field_table(self):
        table = MatchActionTable("pair", match_fields=("src", "dst"))
        with pytest.raises(TableError, match="address plan"):
            table.set_address_plan({"h1": "rack"})

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
        table.register_action("shared", ForwardAction(egress_port=1))
        with pytest.raises(TableError):
            table.install(FlowRule.create("t", {"k": 1}, "shared", {"p": 2}))
        entry = table.install(FlowRule.create("t", {"k": 1}, "shared"))
        assert entry.action is table.lookup({"k": 1}).action

    def test_table_requires_match_fields(self):
        with pytest.raises(TableError):
            MatchActionTable("empty", match_fields=())


class TestDeclaredActions:
    """A table built with its action set accepts nothing else."""

    @staticmethod
    def make_table() -> MatchActionTable:
        return MatchActionTable(
            "l3", match_fields=("dst",), actions={"forward": ForwardAction, "hand": Extern}
        )

    def test_declared_names_bind_their_kind(self):
        table = self.make_table()
        extern = Extern()
        table.register_action("forward", ForwardAction)
        table.register_action("hand", extern)
        table.install(FlowRule.create("l3", {"dst": "h1"}, "forward", {"egress_port": 3}))
        table.install(FlowRule.create("l3", {"dst": "h2"}, "hand"))
        assert egress(table, "h1") == 3
        assert table.lookup({"dst": "h2"}).action is extern

    @pytest.mark.parametrize(
        ("name", "action"),
        [
            ("mark", Mark),
            ("forward", EcmpAction),
            ("forward", Mark(1)),
            ("hand", ForwardAction(egress_port=1)),
        ],
    )
    def test_anything_else_is_refused(self, name, action):
        table = self.make_table()
        with pytest.raises(TableError, match="declared actions are forward"):
            table.register_action(name, action)
        with pytest.raises(TableError, match=f"no action named {name!r}"):
            table.install(FlowRule.create("l3", {"dst": "h1"}, name))


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
            [(e.match, e.action) for e in table.entries()],
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
            assert egress(batched, dst) == egress(one_by_one, dst)

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
        table.register_action("mark", Mark)
        first, second = table.install_batch(
            FlowRule.create("acl", {"src": src}, "mark", {"value": 1}) for src in ("h0", "h1")
        )
        assert first.action == second.action and first.action is not second.action
        first.action.value = 2
        assert table.lookup({"src": "h1"}).action.value == 1

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
        assert egress(table, "h1") == 0
        assert egress(table, "h0") is None

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
