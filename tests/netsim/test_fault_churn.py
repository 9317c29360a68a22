"""Fault-churn tests: loss, crashes, flaps, stragglers and recovery.

Promoted from the original failure-injection suite. The paper explicitly
defers failure handling ("In the current prototype, we do not address the
issue of packet losses, which we leave as future work"). The reproduction
goes further on two axes:

* **loss** (the original suite): without the reliability layer arriving
  pairs are never *wrong*, only missing; with ``reliability=True`` the
  aggregate is bit-identical to a lossless run.
* **churn** (this PR): deterministic crash/flap/straggler schedules from
  :mod:`repro.netsim.faults`, heartbeat failover with tree re-planning and
  replay from :mod:`repro.core.failover`, and the twin-run oracle that a
  reliability-on churn run produces the fault-free aggregate bit for bit.

``TestFaultGateParity`` drives a gated (empty-plan) run and an ungated run
side by side and requires byte-identical outcomes: the fault gate costs
nothing when no fault is planned.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.config import DaietConfig
from repro.core.controller import DaietController
from repro.core.daiet import DaietReceiver, DaietSystem
from repro.core.errors import SimulationError, TopologyError
from repro.core.failover import FailoverConfig, FailoverManager
from repro.core.functions import SUM, aggregate_pairs
from repro.core.packet import end_packet, packetize_pairs
from repro.netsim.faults import (
    HOST_CRASH,
    SLOWDOWN_START,
    SWITCH_RESTART,
    FaultEvent,
    FaultPlan,
    install_faults,
)
from repro.netsim.links import Endpoint, Link
from repro.netsim.simulator import NetworkSimulator, SimulatorConfig
from repro.netsim.topology import leaf_spine, single_rack
from repro.transport.packets import UdpDatagram


class TestLossyLinks:
    def test_loss_rate_validation(self):
        with pytest.raises(TopologyError):
            Link(a=Endpoint("a", 0), b=Endpoint("b", 0), loss_rate=1.0)
        with pytest.raises(TopologyError):
            Link(a=Endpoint("a", 0), b=Endpoint("b", 0), loss_rate=-0.1)

    def test_lossless_by_default(self):
        topo = single_rack(2, loss_rate=0.0)
        sim = NetworkSimulator(topo)
        for _ in range(50):
            sim.send("h0", UdpDatagram(src="h0", dst="h1", payload_bytes=10))
        sim.run()
        assert sim.host("h1").counters.packets_received == 50
        assert sim.stats.total_losses() == 0

    def test_half_loss_drops_roughly_half(self):
        topo = single_rack(2, loss_rate=0.5)
        sim = NetworkSimulator(topo, SimulatorConfig(loss_seed=7))
        for _ in range(400):
            sim.send("h0", UdpDatagram(src="h0", dst="h1", payload_bytes=10))
        sim.run()
        received = sim.host("h1").counters.packets_received
        lost = sim.stats.total_losses()
        # Every packet is either delivered or lost on exactly one of its hops.
        assert received + lost == 400
        # Two lossy hops (host->tor, tor->host): expected delivery ≈ 0.25.
        assert 40 <= received <= 180
        assert lost > 100

    def test_loss_is_deterministic_given_seed(self):
        def run(seed: int) -> int:
            topo = single_rack(2, loss_rate=0.3)
            sim = NetworkSimulator(topo, SimulatorConfig(loss_seed=seed))
            for _ in range(100):
                sim.send("h0", UdpDatagram(src="h0", dst="h1", payload_bytes=10))
            sim.run()
            return sim.host("h1").counters.packets_received

        assert run(3) == run(3)

    def test_lost_packets_still_consume_serialization_time(self):
        # A dropped packet occupied the sender's NIC and the link for its
        # serialization time; the link's busy horizon must advance exactly as
        # in a lossless run, or drops would erase congestion.
        def busy_until(loss_rate: float, seed: int) -> float:
            topo = single_rack(2, loss_rate=loss_rate)
            sim = NetworkSimulator(topo, SimulatorConfig(loss_seed=seed))
            for _ in range(50):
                sim.send("h0", UdpDatagram(src="h0", dst="h1", payload_bytes=1000))
            sim.run()
            link = topo.link_between("h0", "tor")
            return sim._link_busy_until[(link.name, "h0")]

        assert busy_until(0.5, seed=7) == busy_until(0.0, seed=7)


class TestDaietUnderLoss:
    def _run_daiet(self, loss_rate: float, seed: int = 1) -> tuple[dict, dict]:
        """Send three mappers' pairs over a (possibly lossy) rack; return
        (received aggregate, ground-truth aggregate)."""
        topo = single_rack(4, loss_rate=loss_rate)
        sim = NetworkSimulator(topo, SimulatorConfig(loss_seed=seed))
        config = DaietConfig(register_slots=1024)
        controller = DaietController(topo, config)
        job = controller.install_job(mappers=["h0", "h1", "h2"], reducers=["h3"])
        tree = job.tree_for_reducer("h3")
        receiver = DaietReceiver(
            host="h3", tree_id=tree.tree_id, function=SUM,
            expected_ends=tree.children_count("h3"),
        )
        sim.host("h3").set_receiver(receiver.receive)

        all_pairs = []
        for mapper in ("h0", "h1", "h2"):
            pairs = [(f"{mapper}key{i}", i + 1) for i in range(20)] + [("shared", 1)]
            all_pairs.extend(pairs)
            for packet in packetize_pairs(
                pairs, tree_id=tree.tree_id, src=mapper, dst="h3", config=config
            ):
                sim.send(mapper, packet)
            # Application-level END retransmission (END handling makes
            # duplicates idempotent at the switch).
            sim.send(mapper, end_packet(tree.tree_id, mapper, "h3", config))
        sim.run()
        return receiver.result(), aggregate_pairs(all_pairs, SUM)

    def test_lossless_run_is_exact(self):
        received, truth = self._run_daiet(loss_rate=0.0)
        assert received == truth

    def test_duplicate_ends_are_idempotent_without_loss(self):
        # The helper always sends each END twice (original + retransmission);
        # the switch must flush exactly once and the result stays exact.
        received, truth = self._run_daiet(loss_rate=0.0, seed=9)
        assert received == truth

    def test_loss_degrades_but_never_corrupts(self):
        received, truth = self._run_daiet(loss_rate=0.05, seed=5)
        # Some pairs may be missing (the paper's acknowledged limitation), but
        # every value that did arrive must be a partial sum of true
        # contributions — never larger than the ground truth.
        assert received  # something still got through
        for key, value in received.items():
            assert key in truth
            assert value <= truth[key]


class TestDaietReliableUnderLoss:
    """With the reliability layer on, loss costs time — never correctness."""

    def _run(self, loss_rate: float, seed: int) -> None:
        config = DaietConfig(register_slots=128, reliability=True)
        system = DaietSystem(
            single_rack(4, loss_rate=loss_rate), config, SimulatorConfig(loss_seed=seed)
        )
        system.install_job(mappers=["h0", "h1", "h2"], reducers=["h3"])
        all_pairs = []
        for mapper in ("h0", "h1", "h2"):
            pairs = [(f"{mapper}key{i}", i + 1) for i in range(40)] + [("shared", 1)]
            all_pairs.extend(pairs)
            system.send_pairs(mapper, "h3", pairs)
        system.run()
        receiver = system.receiver("h3")
        assert receiver.done
        assert receiver.result() == aggregate_pairs(all_pairs, SUM)

    @pytest.mark.parametrize("loss_rate", [0.0, 0.01, 0.05, 0.2])
    def test_exact_aggregate_under_loss(self, loss_rate):
        self._run(loss_rate, seed=23)

    def test_exact_across_seeds(self):
        for seed in (1, 2, 3, 4):
            self._run(0.05, seed=seed)


# ---------------------------------------------------------------------- #
# Churn: fault plans, the compiled gate, crashes, flaps and stragglers
# ---------------------------------------------------------------------- #
def _churn_system(reliability: bool) -> tuple[DaietSystem, object]:
    """A 2x2 leaf-spine DAIET system with the churn test job installed."""
    topo = leaf_spine(num_leaves=2, num_spines=2, hosts_per_leaf=2)
    config = DaietConfig(
        reliability=reliability,
        retain_for_replay=reliability,
        retransmit_timeout=1e-4,
    )
    system = DaietSystem(topo, config, SimulatorConfig())
    job = system.install_job(mappers=["h0", "h1", "h2"], reducers=["h3"])
    return system, job


def _churn_partitions() -> dict[str, list[tuple[str, int]]]:
    return {
        "h0": [(f"k{i}", i) for i in range(40)],
        "h1": [(f"k{i}", 2 * i) for i in range(20, 60)],
        "h2": [(f"k{i}", 3) for i in range(0, 80, 2)],
    }


def _send_partitions(system: DaietSystem) -> None:
    for mapper, pairs in sorted(_churn_partitions().items()):
        system.send_pairs(mapper, "h3", pairs)


def _churn_truth() -> dict[str, int]:
    return aggregate_pairs(
        [pair for pairs in _churn_partitions().values() for pair in pairs], SUM
    )


def _tree_spine(system: DaietSystem) -> str:
    tree = system.tree_for("h3")
    spines = sorted(
        node.name for node in tree.switches() if node.name.startswith("spine")
    )
    assert len(spines) == 1
    return spines[0]


def _fault_free_time(reliability: bool) -> float:
    system, _job = _churn_system(reliability)
    _send_partitions(system)
    system.run()
    assert system.receiver("h3").done
    return system.simulator.now


class TestFaultPlan:
    def test_builders_chain_and_sort(self):
        plan = (
            FaultPlan([FaultEvent(2e-6, SWITCH_RESTART, "spine0")])
            .switch_crash(1e-6, "spine0")
            .link_flap(3e-6, "leaf0", "spine0", duration=1e-6)
        )
        times = [event.time for event in plan.sorted_events()]
        assert times == sorted(times)

    def test_validation_rejects_bad_schedules(self):
        with pytest.raises(SimulationError):
            FaultPlan().switch_crash(-1.0, "spine0")
        with pytest.raises(SimulationError):
            FaultPlan().link_flap(0.0, "a", "b", duration=0.0)
        with pytest.raises(SimulationError):
            FaultPlan().slowdown(0.0, "a", "b", factor=0.5)

    def test_injector_validates_targets_against_topology(self):
        system, _job = _churn_system(reliability=False)
        with pytest.raises(TopologyError):
            install_faults(
                system.simulator, FaultPlan().switch_crash(1e-6, "nope")
            )
        with pytest.raises(SimulationError):
            # h0 is a host, not a switch.
            install_faults(system.simulator, FaultPlan().switch_crash(1e-6, "h0"))

    def test_random_flaps_are_seed_deterministic(self):
        links = [("leaf0", "spine0"), ("leaf0", "spine1"), ("leaf1", "spine0")]
        kwargs = dict(count=5, start=1e-6, window=5e-6, duration=1e-6)
        plan_a = FaultPlan.random_flaps(links, seed=11, **kwargs)
        plan_b = FaultPlan.random_flaps(links, seed=11, **kwargs)
        plan_c = FaultPlan.random_flaps(links, seed=12, **kwargs)
        assert plan_a.sorted_events() == plan_b.sorted_events()
        assert plan_a.sorted_events() != plan_c.sorted_events()


class TestFaultGateParity:
    """An empty fault plan leaves a run byte-identical to no injector."""

    def _run(self, attach=None) -> tuple[dict, float, int, int]:
        system, _job = _churn_system(reliability=True)
        if attach is not None:
            attach(system)
        _send_partitions(system)
        events = system.run()
        stats = system.simulator.stats
        return (
            system.receiver("h3").result(),
            system.simulator.now,
            events,
            stats.total_link_packets(),
        )

    def test_empty_plan_is_pass_through(self):
        # The gate with nothing down must be byte-identical to no gate at
        # all: same aggregate, same completion time, same event and packet
        # counts.
        gated = self._run(lambda system: install_faults(system.simulator, FaultPlan()))
        assert gated == self._run()

    def test_empty_plan_is_pass_through_in_every_add_order(self, attach_observers):
        # ... and so it must be next to the sanitizer and the error tracker,
        # whichever of the three was added first.
        assert self._run(attach_observers) == self._run()

    def test_gated_drops_are_counted_never_silent(self):
        system, _job = _churn_system(reliability=False)
        spine = _tree_spine(system)
        install_faults(
            system.simulator, FaultPlan().switch_crash(2e-6, spine)
        )
        _send_partitions(system)
        system.run()
        stats = system.simulator.stats
        assert stats.total_fault_drops() > 0
        assert stats.fault_drops == stats.snapshot()["fault_drops"]


class TestCrashChurn:
    """Spine crash mid-round: determinism, recovery and bounded degradation."""

    def _spine_kill(
        self, reliability: bool, with_failover: bool
    ) -> tuple[DaietSystem, FailoverManager | None]:
        crash_time = 0.35 * _fault_free_time(reliability)
        system, _job = _churn_system(reliability)
        spine = _tree_spine(system)
        injector = install_faults(
            system.simulator, FaultPlan().switch_crash(crash_time, spine)
        )
        manager = None
        if with_failover:
            manager = FailoverManager(
                system, injector, FailoverConfig(heartbeat_interval=2.5e-4)
            )
            manager.start()
        _send_partitions(system)
        system.run()
        return system, manager

    def test_twin_run_oracle_recovery_matches_fault_free(self):
        # The headline guarantee: a reliability-on churn run, recovered by
        # the failover manager, produces the fault-free aggregate bit for
        # bit (fresh tree epoch + full replay of the retained history).
        system, manager = self._spine_kill(reliability=True, with_failover=True)
        receiver = system.receiver("h3")
        assert receiver.done
        assert receiver.result() == _churn_truth()
        assert any("re-planned" in entry for _t, entry in manager.log)
        assert any("replayed" in entry for _t, entry in manager.log)

    def test_crash_mid_round_is_deterministic(self):
        def run() -> tuple:
            system, manager = self._spine_kill(True, True)
            return (
                system.receiver("h3").result(),
                system.simulator.now,
                tuple(manager.log),
                tuple(system.simulator.fault_injector.log),
            )

        assert run() == run()

    def test_static_reliability_on_terminates_with_reported_deficit(self):
        # No failover manager: the reliability layer cannot resurrect wiped
        # switch state, but the run must still terminate (pull give-up), and
        # the received values are never larger than the truth.
        system, _ = self._spine_kill(reliability=True, with_failover=False)
        receiver = system.receiver("h3")
        assert not receiver.done
        truth = _churn_truth()
        for key, value in receiver.result().items():
            assert value <= truth[key]

    def test_reliability_off_degrades_bounded(self):
        system, manager = self._spine_kill(reliability=False, with_failover=True)
        receiver = system.receiver("h3")
        truth = _churn_truth()
        received = receiver.result()
        assert sum(received.values()) <= sum(truth.values())
        for key, value in received.items():
            assert value <= truth[key]
        assert any("degraded" in entry for _t, entry in manager.log)

    def test_failover_releases_crashed_switch_resources(self):
        system, _ = self._spine_kill(reliability=True, with_failover=True)
        live = system.tree_for("h3").tree_id
        for switch in ("spine0", "spine1", "leaf0", "leaf1"):
            ledger = system.topology.get(switch).switch.ledger
            # Only the replacement tree may hold SRAM anywhere.
            for owner in ledger.allocations():
                assert owner == f"tree{live}"


class TestFlapDuringEnd:
    def test_flap_across_flush_window_recovers_exactly(self):
        # Down the tree's leaf0 uplink across the whole END/flush window:
        # the aggregated flush burst dies on the downed link, leaving no
        # SACK gap below it. The recursive pull must climb the tree and
        # re-drive the buffered flush once the link is back.
        t_free = _fault_free_time(reliability=True)
        system, _job = _churn_system(reliability=True)
        spine = _tree_spine(system)
        install_faults(
            system.simulator,
            FaultPlan().link_flap(0.3 * t_free, "leaf0", spine, duration=t_free),
        )
        _send_partitions(system)
        system.run()
        receiver = system.receiver("h3")
        assert system.simulator.stats.total_fault_drops() > 0
        assert receiver.done
        assert receiver.result() == _churn_truth()

    def test_flap_without_reliability_never_corrupts(self):
        t_free = _fault_free_time(reliability=False)
        system, _job = _churn_system(reliability=False)
        spine = _tree_spine(system)
        install_faults(
            system.simulator,
            FaultPlan().link_flap(0.3 * t_free, "leaf0", spine, duration=t_free),
        )
        _send_partitions(system)
        system.run()
        truth = _churn_truth()
        for key, value in system.receiver("h3").result().items():
            assert value <= truth[key]


class TestStraggler:
    def test_slowdown_stretches_but_completes_exactly(self):
        t_free = _fault_free_time(reliability=True)
        system, _job = _churn_system(reliability=True)
        spine = _tree_spine(system)
        plan = FaultPlan()
        for leaf in ("leaf0", "leaf1"):
            plan.slowdown(0.2 * t_free, leaf, spine, factor=200.0)
        install_faults(system.simulator, plan)
        _send_partitions(system)
        system.run()
        receiver = system.receiver("h3")
        assert receiver.done
        assert receiver.result() == _churn_truth()
        # The straggler cost time — an order of magnitude — never data.
        assert system.simulator.now > 10 * t_free

    def test_slowdown_end_restores_link_baseline(self):
        system, _job = _churn_system(reliability=False)
        link = system.topology.link_between("leaf0", "spine0")
        baseline = (link.bandwidth_bps, link.propagation_s)
        install_faults(
            system.simulator,
            FaultPlan().slowdown(1e-6, "leaf0", "spine0", factor=50.0, duration=1e-6),
        )
        system.simulator.run()
        assert (link.bandwidth_bps, link.propagation_s) == baseline

    def test_rebalance_off_straggler_beats_static(self):
        t_free = _fault_free_time(reliability=True)

        def run(rebalance: bool) -> float:
            system, job = _churn_system(reliability=True)
            spine = _tree_spine(system)
            plan = FaultPlan()
            for leaf in ("leaf0", "leaf1"):
                plan.slowdown(0.2 * t_free, leaf, spine, factor=200.0)
            injector = install_faults(system.simulator, plan)
            if rebalance:
                manager = FailoverManager(system, injector)
                moved: list[str] = []

                def on_fault(event) -> None:
                    if event.kind == SLOWDOWN_START and not moved:
                        moved.append(spine)
                        manager.move_tree(job, "h3", exclude={spine})

                injector.observers.append(on_fault)
            _send_partitions(system)
            system.run()
            receiver = system.receiver("h3")
            assert receiver.done
            assert receiver.result() == _churn_truth()
            return system.simulator.now

        assert run(rebalance=True) < run(rebalance=False)


class TestSanitizedChurn:
    def test_faulted_bucket_balances_conservation(self, monkeypatch):
        # Under REPRO_SANITIZE=1 the conservation ledger must account every
        # gated packet in its ``faulted`` bucket — the run completing at all
        # proves conservation held at every event.
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        crash_time = 0.35 * _fault_free_time(reliability=True)
        system, _job = _churn_system(reliability=True)
        spine = _tree_spine(system)
        injector = install_faults(
            system.simulator, FaultPlan().switch_crash(crash_time, spine)
        )
        FailoverManager(system, injector).start()
        _send_partitions(system)
        system.run()
        sanitizer = system.simulator.sanitizer
        assert sanitizer is not None
        assert sum(sanitizer.ledger.faulted.values()) > 0
        assert sum(sanitizer.ledger.faulted.values()) == (
            system.simulator.stats.total_fault_drops()
        )
        receiver = system.receiver("h3")
        assert receiver.done
        assert receiver.result() == _churn_truth()


class TestHostCrash:
    def test_crashed_reducer_drops_are_counted(self):
        # Crash the reducer host mid-round: packets already in flight
        # towards it are destroyed by the delivery veto and must be counted,
        # never silently vanish.
        t_free = _fault_free_time(reliability=False)
        system, _job = _churn_system(reliability=False)
        install_faults(
            system.simulator, FaultPlan([FaultEvent(0.5 * t_free, HOST_CRASH, "h3")])
        )
        _send_partitions(system)
        system.run()
        stats = system.simulator.stats
        assert stats.total_fault_drops() > 0
        truth = _churn_truth()
        for key, value in system.receiver("h3").result().items():
            assert value <= truth[key]
