"""Twin-run equivalence for burst delivery, the one vectorized way into a switch.

``switch-burst-delivery``: a whole send window rides ONE queue entry carrying
a send-time precomputed :class:`_BurstPlan`; the handler merges concurrent
bursts by ``(time, seq)`` and feeds the pair arrays straight into the
vectorized register kernel. Everything else — sequenced packets, switch to
switch flushes, windows over lossy uplinks — is one queue entry per packet
through the compiled per-packet sink.

Standing burst delivery down (the ``_fast_burst`` gate, what attaching an
observer does: no plan is built, so no burst entry is ever queued) must
change *nothing* observable: aggregation
results, every traffic counter, per-tree counters, event totals and simulated time.
"""

from __future__ import annotations

import random

import pytest

from repro.core.config import DaietConfig
from repro.core.daiet import DaietSystem
from repro.netsim.topology import leaf_spine, single_rack

np = pytest.importorskip("numpy")


def wordcount_system(
    fast: bool,
    num_mappers: int = 6,
    pairs_per_mapper: int = 300,
    vocabulary: int = 80,
    reliability: bool = False,
    seed: int = 2017,
    fabric: str = "rack",
    config: DaietConfig | None = None,
):
    if config is None:
        config = DaietConfig(
            register_slots=128, pairs_per_packet=10, reliability=reliability
        )
    if fabric == "rack":
        topology = single_rack(num_mappers + 1)
    else:
        # Two-level tree: mappers spread over three leaves, so every leaf's
        # flush travels switch -> switch as per-packet entries.
        topology = leaf_spine(
            num_leaves=3, num_spines=2, hosts_per_leaf=(num_mappers + 3) // 3
        )
    system = DaietSystem(topology, config=config)
    if not fast:
        # Stand burst delivery down: no burst plans are built, every packet
        # is its own queue entry and is dispatched on its own.
        system.simulator._fast_burst = False
    mappers = [f"h{i}" for i in range(num_mappers)]
    reducer = f"h{num_mappers}"
    system.install_job(mappers=mappers, reducers=[reducer])
    rng = random.Random(seed)
    truth: dict[str, int] = {}
    for mapper in mappers:
        pairs = [
            (f"word{rng.randrange(vocabulary)}", rng.randrange(-50, 50))
            for _ in range(pairs_per_mapper)
        ]
        for key, value in pairs:
            truth[key] = truth.get(key, 0) + value
        system.send_pairs(mapper, reducer, pairs)
    return system, reducer, truth


@pytest.fixture()
def observables(traffic_snapshot):
    """``observables(system, reducer, events)``: everything a twin compares."""

    def read(system: DaietSystem, reducer: str, events: int) -> dict:
        counters = {}
        for name, engine in system.controller.engines.items():
            for tree_id in engine.tree_ids():
                counters[name, tree_id] = engine.tree(tree_id).counters
        return {
            "events": events,
            "now": system.simulator.now,
            "result": system.receiver(reducer).result(),
            "done": system.receiver(reducer).done,
            "traffic": traffic_snapshot(system.simulator),
            "counters": counters,
            "receiver": system.receiver(reducer).counters,
        }

    return read


class TestBatchDeliveryEquivalence:
    @pytest.mark.parametrize("fabric", ["rack", "leaf_spine"])
    @pytest.mark.parametrize("reliability", [False, True])
    def test_fast_and_slow_runs_identical(self, reliability, fabric, observables):
        fast_sys, reducer, truth = wordcount_system(
            True, reliability=reliability, fabric=fabric
        )
        fast_events = fast_sys.run()
        slow_sys, _, _ = wordcount_system(False, reliability=reliability, fabric=fabric)
        slow_events = slow_sys.run()
        fast_obs = observables(fast_sys, reducer, fast_events)
        slow_obs = observables(slow_sys, reducer, slow_events)
        assert fast_obs == slow_obs
        assert fast_obs["result"] == truth
        if fabric == "leaf_spine":
            assert len(fast_obs["counters"]) > 1  # the tree really has two levels

    def test_calendar_backend_identical(self, monkeypatch, observables):
        # The burst handler looks at and takes queue heads through the
        # scheduler's own interface; on the calendar backend that must give
        # the same run as the heap twin. Spillover flushes are pushed while
        # the handler holds a peeked head, so tiny registers are used.
        config = DaietConfig(register_slots=8, pairs_per_packet=4)
        with monkeypatch.context() as patch:
            patch.setattr("repro.netsim.events.CALENDAR_THRESHOLD", 1)
            fast_sys, reducer, truth = wordcount_system(True, config=config)
        slow_sys, _, _ = wordcount_system(False, config=config)
        fast_events = fast_sys.run()
        slow_events = slow_sys.run()
        assert fast_sys.simulator.scheduler.calendar_active
        assert not slow_sys.simulator.scheduler.calendar_active
        fast_obs = observables(fast_sys, reducer, fast_events)
        assert fast_obs == observables(slow_sys, reducer, slow_events)
        assert fast_obs["result"] == truth

    def test_collision_heavy_tree_identical(self, observables):
        # Tiny registers force in-flight spillover flushes, whose emission
        # packets must interleave with the burst at identical times.
        results = [self.collision_heavy_run(fast, observables) for fast in (True, False)]
        assert results[0] == results[1]

    @staticmethod
    def collision_heavy_run(
        fast: bool, observables, observe_at: float | None = None
    ) -> dict:
        config = DaietConfig(register_slots=8, pairs_per_packet=4)
        system = DaietSystem.single_rack(num_hosts=4, config=config)
        if not fast:
            system.simulator._fast_burst = False
        system.install_job(mappers=["h0", "h1", "h2"], reducers=["h3"])
        rng = random.Random(5)
        for mapper in ("h0", "h1", "h2"):
            system.send_pairs(
                mapper,
                "h3",
                [(f"k{rng.randrange(40)}", 1) for _ in range(120)],
            )
        events = 0
        if observe_at is not None:
            events += system.run(until=observe_at)
            system.simulator.add_observer(object())
        events += system.run()
        return observables(system, "h3", events)

    @pytest.mark.parametrize("observe_at", [0.5e-6, 1e-6, 2e-6, 4e-6])
    def test_port_map_rebuild_mid_burst_keeps_order(self, observe_at, observables):
        # Adding an observer (the sanitizer, the fault injector, the error
        # tracker) rebuilds the port maps, which orphans queued burst entries
        # from their handler. Each must then deliver ONE item and re-enqueue
        # its tail, or concurrent mappers' packets leave (time, seq) order.
        fast = self.collision_heavy_run(True, observables, observe_at)
        slow = self.collision_heavy_run(False, observables, observe_at)
        assert fast == slow

    def test_vector_ineligible_packets_identical(self, observables):
        # Bool values are outside the kernel's domain: the plan marks those
        # packets ineligible and they ride the per-item path mid-burst.
        config = DaietConfig(register_slots=32, pairs_per_packet=2)
        results = []
        for fast in (True, False):
            system = DaietSystem.single_rack(num_hosts=3, config=config)
            if not fast:
                system.simulator._fast_burst = False
            system.install_job(mappers=["h0", "h1"], reducers=["h2"])
            for mapper in ("h0", "h1"):
                system.send_pairs(
                    mapper,
                    "h2",
                    [("a", 1), ("b", True), ("a", 2), ("c", True), ("b", 3)],
                )
            events = system.run()
            results.append(observables(system, "h2", events))
        assert results[0] == results[1]
        assert results[0]["result"] == {"a": 6, "b": 8, "c": 2}

    def test_until_bound_cuts_burst_identically(self, observables):
        # A run(until=...) bound lands inside the burst window; the burst
        # handler must stop at the same packet the per-item schedule would.
        fast_sys, reducer, _ = wordcount_system(True, num_mappers=3)
        slow_sys, _, _ = wordcount_system(False, num_mappers=3)
        until = 2e-6  # mid-burst for 30 packets on the default link speed
        fast_events = fast_sys.run(until=until)
        slow_events = slow_sys.run(until=until)
        assert observables(fast_sys, reducer, fast_events) == observables(
            slow_sys, reducer, slow_events
        )
        # ... and finishing the run afterwards still converges identically.
        fast_events = fast_sys.run()
        slow_events = slow_sys.run()
        assert observables(fast_sys, reducer, fast_events) == observables(
            slow_sys, reducer, slow_events
        )
