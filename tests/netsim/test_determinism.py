"""Determinism guards for the fast-path simulator core.

Every optimisation in the fast-path PR (tuple-based event heap, cached wire
sizes, the compiled switch path, dict-indexed tables/spillover) must keep the
simulation bit-for-bit reproducible: the same seed must produce identical
traffic counters (links, hosts, switches), identical loss draws and identical final
aggregates on every run, with and without the reliability layer.
"""

from __future__ import annotations

import random
from functools import partial

import pytest

from repro.core.config import DaietConfig
from repro.core.daiet import DaietSystem
from repro.core.functions import SUM, aggregate_pairs
from repro.netsim.simulator import SimulatorConfig
from repro.netsim.topology import leaf_spine, single_rack


def _partitions(num_workers: int, pairs_per_worker: int, seed: int):
    rng = random.Random(seed)
    words = [f"word{i:03d}" for i in range(120)]
    return [
        [(rng.choice(words), 1) for _ in range(pairs_per_worker)]
        for _ in range(num_workers)
    ]


@pytest.fixture()
def run_once(traffic_snapshot):
    """``run_once(reliability, loss_rate, seed)``: one round's observables."""
    return partial(_run_once, traffic_snapshot)


def _run_once(traffic_snapshot, reliability: bool, loss_rate: float, seed: int):
    """One full aggregation round; returns every observable artefact."""
    num_workers = 6
    partitions = _partitions(num_workers, 200, seed)
    config = DaietConfig(
        register_slots=64,
        reliability=reliability,
        retransmit_timeout=1e-4,
    )
    system = DaietSystem(
        single_rack(num_workers + 1, loss_rate=loss_rate),
        config,
        SimulatorConfig(loss_seed=seed),
    )
    reducer = f"h{num_workers}"
    mappers = [f"h{i}" for i in range(num_workers)]
    system.install_job(mappers=mappers, reducers=[reducer])
    for mapper, pairs in zip(mappers, partitions):
        system.send_pairs(mapper, reducer, pairs)
    events = system.run()
    engine_counters = {
        key: counters.snapshot()
        for key, counters in system.controller.tree_counters().items()
    }
    return {
        "traffic": traffic_snapshot(system.simulator),
        "losses": dict(system.simulator.stats.losses),
        "events": events,
        "now": system.simulator.now,
        "aggregate": system.receiver(reducer).result(),
        "engine_counters": engine_counters,
        "reliability": system.reliability_stats(),
    }


class TestSeededDeterminism:
    def test_two_runs_identical_without_reliability(self, run_once):
        a = run_once(reliability=False, loss_rate=0.0, seed=7)
        b = run_once(reliability=False, loss_rate=0.0, seed=7)
        assert a == b

    def test_two_runs_identical_with_reliability_and_loss(self, run_once):
        a = run_once(reliability=True, loss_rate=0.03, seed=11)
        b = run_once(reliability=True, loss_rate=0.03, seed=11)
        assert a == b
        # Loss actually happened, so the equality above covered the loss
        # draws, the retransmission schedule and the dedup machinery.
        assert sum(a["losses"].values()) > 0

    def test_loss_draws_follow_the_seed(self, run_once):
        a = run_once(reliability=True, loss_rate=0.03, seed=11)
        c = run_once(reliability=True, loss_rate=0.03, seed=12)
        assert a["losses"] != c["losses"]

    def test_aggregate_matches_ground_truth_under_loss(self, run_once):
        run = run_once(reliability=True, loss_rate=0.03, seed=11)
        truth = aggregate_pairs(
            [pair for part in _partitions(6, 200, 11) for pair in part], SUM
        )
        assert run["aggregate"] == truth

    def test_reliability_does_not_change_the_lossless_aggregate(self, run_once):
        plain = run_once(reliability=False, loss_rate=0.0, seed=7)
        reliable = run_once(reliability=True, loss_rate=0.0, seed=7)
        assert plain["aggregate"] == reliable["aggregate"]


class TestSnapshotDeterminismAtScale:
    def test_leaf_spine_runs_are_reproducible(self, traffic_snapshot):
        """A multi-switch fabric (multi-level trees) is equally deterministic."""

        def run():
            topo = leaf_spine(num_leaves=3, num_spines=2, hosts_per_leaf=3)
            for link in topo.links:
                link.loss_rate = 0.01
            system = DaietSystem(
                topo,
                DaietConfig(register_slots=64, reliability=True, retransmit_timeout=1e-4),
                SimulatorConfig(loss_seed=5),
            )
            mappers = [f"h{i}" for i in range(1, 9)]
            system.install_job(mappers=mappers, reducers=["h0"])
            partitions = _partitions(8, 120, 3)
            for mapper, pairs in zip(mappers, partitions):
                system.send_pairs(mapper, "h0", pairs)
            system.run()
            return (
                traffic_snapshot(system.simulator),
                system.receiver("h0").result(),
                system.simulator.now,
            )

        assert run() == run()

    def test_single_rack_snapshot_insertion_order_is_stable(self, run_once):
        """Snapshots compare equal including dict insertion order."""
        a = run_once(reliability=True, loss_rate=0.03, seed=3)
        b = run_once(reliability=True, loss_rate=0.03, seed=3)
        assert list(a["traffic"]["stats"]["losses"]) == list(b["traffic"]["stats"]["losses"])
        assert list(a["traffic"]["stats"]["link_traffic"]) == list(
            b["traffic"]["stats"]["link_traffic"]
        )


class TestSchedulerBackendDeterminism:
    """Heap and calendar backends must produce bit-identical simulations."""

    def test_calendar_backend_matches_heap(self, monkeypatch, run_once):
        import repro.netsim.events as events_module

        heap_run = run_once(reliability=True, loss_rate=0.03, seed=11)
        # Force the calendar queue from the very first pending event.
        monkeypatch.setattr(events_module, "CALENDAR_THRESHOLD", 1)
        calendar_run = run_once(reliability=True, loss_rate=0.03, seed=11)
        assert calendar_run == heap_run

    def test_mid_run_migration_matches_heap(self, monkeypatch, run_once):
        import repro.netsim.events as events_module

        heap_run = run_once(reliability=False, loss_rate=0.0, seed=7)
        # A threshold crossed mid-run: the queue migrates while draining.
        monkeypatch.setattr(events_module, "CALENDAR_THRESHOLD", 100)
        migrated_run = run_once(reliability=False, loss_rate=0.0, seed=7)
        assert migrated_run == heap_run


def test_plain_rack_smoke():
    """The helper topology itself is sound (guards the fixtures above)."""
    topo = single_rack(num_hosts=3)
    assert len(topo.hosts()) == 3
