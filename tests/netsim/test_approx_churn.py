"""Churn x approximation interplay: crash-during-replay under every policy.

The nastiest recovery schedule: the tree's spine dies mid-round, failover
re-plans onto a replacement spine and starts replaying — and the replacement
dies too, mid-replay. The guarantees under test:

* an ``exact`` tree recovers **bit-identical** through a second re-plan onto
  the last surviving spine;
* a ``best_effort`` tree never replays (no replay storms), always
  terminates, and reports a bounded deficit through the error ledger.
"""

from __future__ import annotations

import pytest

from repro.analysis.error_bounds import install_error_tracker, true_error_l1
from repro.core.config import DaietConfig
from repro.core.daiet import DaietSystem
from repro.core.failover import FailoverConfig, FailoverManager
from repro.experiments.rounds import truth_of
from repro.netsim.faults import FaultPlan, install_faults
from repro.netsim.simulator import SimulatorConfig
from repro.netsim.topology import leaf_spine

pytestmark = [pytest.mark.churn, pytest.mark.approx]

HEARTBEAT = 2.5e-4


def _system(policy: str) -> DaietSystem:
    # Three spines: the original tree's spine and its replacement both die,
    # so exact recovery must succeed through the third.
    topo = leaf_spine(num_leaves=2, num_spines=3, hosts_per_leaf=2)
    config = DaietConfig(
        reliability=True,
        retain_for_replay=True,
        retransmit_timeout=1e-4,
        reliability_policy=policy,
    )
    system = DaietSystem(topo, config, SimulatorConfig())
    system.install_job(mappers=["h0", "h1", "h2"], reducers=["h3"], policy=policy)
    return system


def _partitions() -> dict[str, list[tuple[str, int]]]:
    return {
        "h0": [(f"k{i}", i + 1) for i in range(40)],
        "h1": [(f"k{i}", 2 * i) for i in range(20, 60)],
        "h2": [(f"k{i}", 3) for i in range(0, 80, 2)],
    }


def _send(system: DaietSystem) -> None:
    for mapper, pairs in sorted(_partitions().items()):
        system.send_pairs(mapper, "h3", pairs)


def _tree_spine(system: DaietSystem) -> str:
    spines = sorted(
        node.name
        for node in system.tree_for("h3").switches()
        if node.name.startswith("spine")
    )
    assert len(spines) == 1
    return spines[0]


def _crash_schedule() -> tuple[str, float, str, float]:
    """Discover (first spine, crash time, replacement spine, replay-kill time).

    A fault-free pilot fixes the first crash at 35% of the run; a second
    pilot with only that crash reveals which spine failover re-plans onto
    and when the replay starts, so the second crash can be aimed at the
    replacement mid-replay. Everything downstream is deterministic.
    """
    pilot = _system("exact")
    _send(pilot)
    pilot.run()
    assert pilot.receiver("h3").done
    first_spine = _tree_spine(pilot)
    first_crash = 0.35 * pilot.simulator.now

    pilot = _system("exact")
    injector = install_faults(
        pilot.simulator, FaultPlan().switch_crash(first_crash, first_spine)
    )
    manager = FailoverManager(
        pilot, injector, FailoverConfig(heartbeat_interval=HEARTBEAT)
    )
    manager.start()
    _send(pilot)
    pilot.run()
    assert pilot.receiver("h3").done
    replay_time = next(
        t for t, entry in manager.log if "replayed" in entry
    )
    replacement_spine = _tree_spine(pilot)
    assert replacement_spine != first_spine
    # Kill the replacement while the replayed packets are still in flight.
    return first_spine, first_crash, replacement_spine, replay_time + 5e-7


def _run_double_crash(policy: str, tracker_first: bool = False):
    first_spine, first_crash, replacement_spine, second_crash = _crash_schedule()
    system = _system(policy)
    if tracker_first:
        tracker = install_error_tracker(system)
    injector = install_faults(
        system.simulator,
        FaultPlan()
        .switch_crash(first_crash, first_spine)
        .switch_crash(second_crash, replacement_spine),
    )
    manager = FailoverManager(
        system, injector, FailoverConfig(heartbeat_interval=HEARTBEAT)
    )
    manager.start()
    if not tracker_first:
        tracker = install_error_tracker(system)
    _send(system)
    system.run()  # terminating at all is part of the contract
    return system, manager, tracker


class TestCrashDuringReplay:
    def test_exact_tree_recovers_bit_identical(self):
        system, manager, _tracker = _run_double_crash("exact")
        receiver = system.receiver("h3")
        assert receiver.done
        assert receiver.result() == truth_of(_partitions().values())
        replans = [entry for _t, entry in manager.log if "re-planned" in entry]
        assert len(replans) == 2  # both crashes forced a fresh epoch
        assert len(system.simulator.fault_injector.down_switch_names()) == 2
        # The surviving tree avoids both corpses.
        final_spine = _tree_spine(system)
        assert final_spine not in system.simulator.fault_injector.down_switch_names()

    @pytest.mark.parametrize("tracker_first", [False, True])
    def test_best_effort_terminates_with_bounded_deficit(self, tracker_first):
        # Attached before or after the injector, the tracker hears of every
        # fault drop and wipe (attached first, it used to hear of neither and
        # report a bound below the true error).
        system, manager, tracker = _run_double_crash("best_effort", tracker_first)
        receiver = system.receiver("h3")
        truth = truth_of(_partitions().values())
        received = receiver.result()
        # Bounded degradation: nothing invented, per-key mass only missing.
        for key, value in received.items():
            assert value <= truth[key]
        # No replay storm: recovery logs the policy decision instead.
        assert any(
            "no replay (policy best_effort)" in entry for _t, entry in manager.log
        )
        assert not any("replayed" in entry for _t, entry in manager.log)
        # The deficit is reported and sound.
        bound = tracker.bound(system.tree_for("h3").tree_id)
        error = true_error_l1(truth, received)
        assert error > 0  # the crashes really cost contributions
        assert bound.contains(error)
        assert (bound.wiped_pairs, bound.lost_pairs, bound.abs_bound) == (40, 60, 4100)

    def test_sampled_tree_composes_with_churn(self):
        # Sampled keeps the full seq/dedup/replay machinery (only the ACK
        # cadence is strided), so failover recovery stays bit-identical
        # even through the crash-during-replay schedule.
        system, manager, _tracker = _run_double_crash("sampled")
        receiver = system.receiver("h3")
        assert receiver.done
        assert receiver.result() == truth_of(_partitions().values())
        assert any("replayed" in entry for _t, entry in manager.log)

    def test_double_crash_is_deterministic(self):
        def run():
            system, manager, tracker = _run_double_crash("best_effort")
            bound = tracker.bound(system.tree_for("h3").tree_id)
            return (
                system.receiver("h3").result(),
                system.simulator.now,
                tuple(manager.log),
                bound,
            )

        assert run() == run()
