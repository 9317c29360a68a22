"""Bounded-error accounting: ledgers, bound soundness, tracker transparency."""

from __future__ import annotations

import pytest

from repro.analysis.error_bounds import (
    ErrorBoundTracker,
    TreeErrorLedger,
    install_error_tracker,
    true_error_l1,
)
from repro.core.config import DaietConfig
from repro.core.daiet import DaietSystem
from repro.core.errors import PacketFormatError
from repro.core.functions import SUM, aggregate_pairs
from repro.netsim.faults import FaultPlan
from repro.netsim.simulator import SimulatorConfig
from repro.netsim.topology import single_rack

pytestmark = pytest.mark.approx


def build_system(policy: str, loss_rate: float = 0.0, **config_kwargs) -> DaietSystem:
    config = DaietConfig(
        register_slots=64,
        pairs_per_packet=4,
        reliability=True,
        retransmit_timeout=1e-4,
        reliability_policy=policy,
        **config_kwargs,
    )
    system = DaietSystem(
        single_rack(4, loss_rate=loss_rate), config, SimulatorConfig(loss_seed=17)
    )
    system.install_job(mappers=["h0", "h1", "h2"], reducers=["h3"], policy=policy)
    return system


def partitions() -> list[list[tuple[str, int]]]:
    return [
        [(f"key{i}", (i + 1) * (1 if m % 2 == 0 else -1)) for i in range(24)]
        for m in range(3)
    ]


def run_job(system: DaietSystem) -> dict[str, int]:
    for mapper, pairs in zip(("h0", "h1", "h2"), partitions()):
        system.send_pairs(mapper, "h3", pairs)
    system.run()
    return system.receiver("h3").result()


def truth() -> dict[str, int]:
    return aggregate_pairs(
        [pair for partition in partitions() for pair in partition], SUM
    )


def _bounds(tracker) -> dict:
    """The bound of every tree that recorded mass, by tree id."""
    return {tree_id: tracker.bound(tree_id) for tree_id in sorted(tracker.ledgers)}


class TestTrueErrorL1:
    def test_identical_maps_have_zero_error(self):
        assert true_error_l1({"a": 3, "b": -2}, {"a": 3, "b": -2}) == 0

    def test_missing_keys_count_on_both_sides(self):
        assert true_error_l1({"a": 3}, {"b": -2}) == 5

    def test_value_differences_accumulate(self):
        assert true_error_l1({"a": 10, "b": 1}, {"a": 7, "b": 5}) == 7


class TestTreeErrorLedger:
    def test_records_fold_signed_and_absolute_mass(self):
        ledger = TreeErrorLedger(tree_id=1, policy="best_effort")
        ledger.record_injected([("a", 5), ("b", -3)])
        ledger.record_lost_packet([("a", 5)])
        ledger.record_lost_packet([("b", -3)])
        ledger.record_wiped([("c", -2)])
        assert (ledger.injected_sum, ledger.injected_abs) == (2, 8)
        assert (ledger.lost_sum, ledger.lost_abs) == (2, 8)
        assert ledger.lost_packets == 2
        assert (ledger.wiped_sum, ledger.wiped_abs) == (-2, 2)


class TestTrackerLifecycle:
    def test_exact_trees_get_no_ledger_and_a_zero_bound(self):
        system = build_system("exact", loss_rate=0.05)
        tracker = install_error_tracker(system)
        result = run_job(system)
        assert result == truth()
        assert tracker.ledgers == {}
        bound = tracker.bound(system.tree_for("h3").tree_id)
        assert bound.abs_bound == 0
        assert bound.policy == "exact"

    def test_install_is_idempotent(self):
        system = build_system("best_effort")
        tracker = ErrorBoundTracker(system).install()
        assert tracker.install() is tracker
        assert system.error_tracker is tracker

    @staticmethod
    def outcome(traffic_snapshot, attach=None):
        system = build_system("best_effort", loss_rate=0.05)
        attached = attach(system) if attach is not None else None
        result = run_job(system)
        return (result, traffic_snapshot(system.simulator)), attached

    def test_tracker_is_transparent(self, traffic_snapshot):
        plain = self.outcome(traffic_snapshot)[0]
        assert plain == self.outcome(traffic_snapshot, install_error_tracker)[0]

    def test_tracker_is_transparent_in_every_add_order(
        self, attach_observers, traffic_snapshot
    ):
        alone, tracker_alone = self.outcome(traffic_snapshot, install_error_tracker)
        observed, (_sanitizer, _injector, tracker) = self.outcome(
            traffic_snapshot, attach_observers
        )
        assert observed == alone == self.outcome(traffic_snapshot)[0]
        assert tracker.ledgers == tracker_alone.ledgers
        assert _bounds(tracker) == _bounds(tracker_alone)


class TestBoundSoundness:
    @pytest.mark.parametrize("policy", ["sampled", "best_effort"])
    @pytest.mark.parametrize("loss_rate", [0.02, 0.08])
    def test_bound_contains_true_error_under_loss(self, policy, loss_rate):
        system = build_system(policy, loss_rate=loss_rate)
        tracker = install_error_tracker(system)
        result = run_job(system)
        bound = tracker.bound(system.tree_for("h3").tree_id)
        error = true_error_l1(truth(), result)
        assert bound.contains(error)
        assert bound.policy == policy
        assert bound.relative_bound >= 0.0

    def test_lossless_best_effort_has_zero_error_and_bound(self):
        system = build_system("best_effort", loss_rate=0.0)
        tracker = install_error_tracker(system)
        result = run_job(system)
        assert result == truth()
        bound = tracker.bound(system.tree_for("h3").tree_id)
        assert bound.abs_bound == 0
        assert bound.deficit_sum == 0

    def test_injected_mass_feeds_the_relative_bound(self):
        system = build_system("best_effort", loss_rate=0.08)
        tracker = install_error_tracker(system)
        run_job(system)
        bound = tracker.bound(system.tree_for("h3").tree_id)
        expected = sum(abs(v) for part in partitions() for _k, v in part)
        assert bound.injected_abs == expected
        if bound.abs_bound:
            assert bound.relative_bound == pytest.approx(
                bound.abs_bound / expected
            )

    @pytest.mark.parametrize("policy", ["sampled", "best_effort"])
    def test_a_rejected_partition_injects_no_mass(self, policy):
        # The ledger records what was framed, not what was offered: a
        # partition the packetizer refuses never reaches the wire, and mass
        # counted for it would understate relative_bound. (The parent of this
        # change recorded before packetizing: injected_abs 8 over 4 pairs.)
        system = build_system(policy)
        tracker = install_error_tracker(system)
        with pytest.raises(PacketFormatError):
            system.send_pairs("h0", "h3", [("ok", 1), ("x" * 40, 5)])
        system.send_pairs("h0", "h3", [("ok", 1)])
        system.send_pairs("h1", "h3", [("ok", 1)])
        system.send_pairs("h2", "h3", [])
        system.run()
        assert system.receiver("h3").result() == {"ok": 2}
        ledger = tracker.ledgers[system.tree_for("h3").tree_id]
        assert (ledger.injected_abs, ledger.injected_pairs) == (2, 2)

    def test_switch_crash_mass_is_wiped_into_the_ledger(self, attach_observers):
        system = build_system("best_effort")
        # Crash the ToR mid-round: whatever its registers held is destroyed
        # without any link drop — the wipe notice must capture it — and the
        # packets still in flight towards it die at the delivery veto. The
        # tracker hears of both even when it was attached before the injector
        # (at the parent of this change it then reported a bound of zero).
        sanitizer, _injector, tracker = attach_observers(
            system, FaultPlan().switch_crash(2.1e-6, "tor")
        )
        result = run_job(system)
        bound = tracker.bound(system.tree_for("h3").tree_id)
        error = true_error_l1(truth(), result)
        assert bound.contains(error)
        assert error > 0  # the crash really did destroy contributions
        # The same ledger in every add order: register mass and in-flight
        # packets, each counted once, and every destroyed packet conserved.
        assert (bound.wiped_pairs, bound.lost_pairs, bound.abs_bound) == (12, 36, 744)
        assert sum(sanitizer.ledger.faulted.values()) == (
            system.simulator.stats.total_fault_drops()
        )

    def test_bounds_reads_are_idempotent(self):
        system = build_system("best_effort", loss_rate=0.08)
        tracker = install_error_tracker(system)
        run_job(system)
        first = _bounds(tracker)
        second = _bounds(tracker)
        assert first == second
