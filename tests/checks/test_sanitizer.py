"""Runtime sanitizer: transparency on clean runs, detection on seeded faults."""

from __future__ import annotations

from heapq import heappush

import pytest

from repro.checks.sanitize import (
    HEAP_CHECK_INTERVAL,
    SANITIZE_ENV,
    SimulatorSanitizer,
    sanitize_enabled_in_env,
)
from repro.core.config import DaietConfig
from repro.core.daiet import DaietSystem
from repro.core.errors import SanitizerError, SimulationError
from repro.core.packet import DaietPacket
from repro.dataplane import interning
from repro.dataplane.tables import FlowRule
from repro.netsim.devices import FORWARDING_TABLE
from repro.netsim.faults import HOST_CRASH, FaultEvent, FaultPlan, install_faults
from repro.netsim.links import DEFAULT_BANDWIDTH_BPS
from repro.netsim.simulator import NetworkSimulator, SimulatorConfig
from repro.netsim.topology import Topology, single_rack
from repro.transport.packets import UdpDatagram


def build_system(sanitize: bool | None, **config_kwargs) -> DaietSystem:
    config = DaietConfig(register_slots=64, pairs_per_packet=4, **config_kwargs)
    system = DaietSystem.single_rack(
        4, config=config, simulator_config=SimulatorConfig(sanitize=sanitize)
    )
    system.install_job(mappers=["h0", "h1", "h2"], reducers=["h3"])
    return system


def run_job(system: DaietSystem):
    for mapper in ("h0", "h1", "h2"):
        system.send_pairs(mapper, "h3", [(f"key{i}", i + 1) for i in range(24)])
    events = system.run()
    return events, system.receiver("h3").result()


class TestTransparency:
    @staticmethod
    def outcome(system: DaietSystem, traffic_snapshot) -> tuple:
        return run_job(system), traffic_snapshot(system.simulator)

    def test_sanitized_run_is_byte_identical(self, traffic_snapshot):
        plain = self.outcome(build_system(sanitize=False), traffic_snapshot)
        sanitized = self.outcome(build_system(sanitize=True), traffic_snapshot)
        assert plain == sanitized

    def test_reliable_sanitized_run_is_byte_identical(self, traffic_snapshot):
        plain = self.outcome(build_system(sanitize=False, reliability=True), traffic_snapshot)
        sanitized = self.outcome(
            build_system(sanitize=True, reliability=True), traffic_snapshot
        )
        assert plain == sanitized

    def test_every_observer_add_order_is_byte_identical(
        self, attach_observers, traffic_snapshot
    ):
        plain = self.outcome(build_system(sanitize=False, reliability=True), traffic_snapshot)
        system = build_system(sanitize=False, reliability=True)
        sanitizer, _injector, _tracker = attach_observers(system)
        assert self.outcome(system, traffic_snapshot) == plain
        # ... and the ledger reads the same as when the sanitizer is alone.
        alone = build_system(sanitize=True, reliability=True)
        run_job(alone)
        assert sanitizer.ledger.snapshot() == alone.simulator.sanitizer.ledger.snapshot()

    def test_sanitizer_attribute_reflects_mode(self):
        assert build_system(sanitize=False).simulator.sanitizer is None
        system = build_system(sanitize=True)
        assert system.simulator.sanitizer is not None
        ledger = system.simulator.sanitizer.ledger
        run_job(system)
        assert ledger.sent.get("DaietPacket", 0) > 0
        assert all(ledger.in_flight(cls) == 0 for cls in ledger.classes())

    def test_env_variable_enables_sanitizer(self, monkeypatch):
        monkeypatch.setenv(SANITIZE_ENV, "1")
        assert sanitize_enabled_in_env()
        sim = NetworkSimulator(single_rack(2))
        assert sim.sanitizer is not None

    def test_env_variable_off_values(self, monkeypatch):
        for value in ("", "0", "no", "off", "false"):
            monkeypatch.setenv(SANITIZE_ENV, value)
            assert not sanitize_enabled_in_env()


class TestConservationLedger:
    def test_phantom_delivery_is_detected(self):
        system = build_system(sanitize=True)
        sanitizer = system.simulator.sanitizer
        packet = DaietPacket(
            tree_id=1, src="h0", dst="h3", pairs=(("k", 1),),
            config=system.config,
        )
        # A delivery event with no matching send: negative in-flight balance.
        # It goes through h3's compiled sink, as bound at the ToR's port.
        sim = system.simulator
        link = sim.topology.link_between("tor", "h3")
        tor_end = link.a if link.a.device == "tor" else link.b
        _link, _name, sink, ingress, *_rest = sim._port_info["tor"][tor_end.port]
        sink(ingress, packet, 64)
        with pytest.raises(SanitizerError, match="conservation violated"):
            sanitizer.check()

    def test_unaccounted_send_fails_at_quiescence(self):
        system = build_system(sanitize=True)
        sanitizer = system.simulator.sanitizer
        packet = DaietPacket(
            tree_id=1, src="h0", dst="h3", pairs=(("k", 1),),
            config=system.config,
        )
        # Count a send that never enters the network.
        sanitizer.ledger.sent["DaietPacket"] = (
            sanitizer.ledger.sent.get("DaietPacket", 0) + 1
        )
        assert packet is not None
        with pytest.raises(SanitizerError, match="unaccounted for at quiescence"):
            sanitizer.check()

    def test_clean_run_balances(self):
        system = build_system(sanitize=True)
        run_job(system)
        system.simulator.sanitizer.check()  # must not raise

    def test_sanitized_run_stops_at_the_event_cap(self, monkeypatch):
        sim = NetworkSimulator(single_rack(2), SimulatorConfig(sanitize=True))
        received = []
        sim.host("h1").set_receiver(received.append)
        for _ in range(3):
            sim.send("h0", UdpDatagram(src="h0", dst="h1", payload_bytes=64))
        monkeypatch.setattr("repro.netsim.simulator.MAX_EVENTS", 2)
        assert sim.run() == 2  # packets still in flight balance the ledger
        assert received == []
        monkeypatch.undo()
        sim.run()
        assert len(received) == 3


def _datagrams(count: int, dst: str = "h1") -> list[UdpDatagram]:
    """``count`` 1000-byte frames from ``h0``."""
    return [UdpDatagram(src="h0", dst=dst, payload_bytes=958) for _ in range(count)]


def _dead_port_rule(sim: NetworkSimulator) -> None:
    sim.switch("tor").switch.install_rules(
        [
            FlowRule.create(
                table=FORWARDING_TABLE,
                match={"dst": "ghost"},
                action_name="forward",
                action_params={"egress_port": 40},
            )
        ]
    )


#: One row per way a packet can leave the network (plus the ECN mark):
#: (exit, simulator config, h0 uplink loss rate, fault plan, set-up,
#: frames sent, TrafficStats table, where it is counted, ledger bucket).
#: The h1 downlink is ten times slower than the h0 uplink, so three
#: back-to-back frames queue 900 then 1800 bytes at the ToR's egress.
DROP_EXITS = [
    ("unconnected-port", {}, 0.0, None, _dead_port_rule, _datagrams(1, "ghost"),
     "drops", "tor", "lost_or_dropped"),
    ("tail-drop", {"switch_buffer_bytes": 1000}, 0.0, None, None, _datagrams(3),
     "queue_drops", ("h1", "tor"), "lost_or_dropped"),
    ("loss-draw", {"loss_seed": 0}, 0.9, None, None, _datagrams(1),
     "losses", ("h0", "tor"), "lost_or_dropped"),
    ("downed-link", {}, 0.0, FaultPlan().link_down(0.0, "h0", "tor"), None,
     _datagrams(1), "fault_drops", ("h0", "tor"), "faulted"),
    ("crashed-sender", {}, 0.0, FaultPlan([FaultEvent(0.0, HOST_CRASH, "h0")]), None,
     _datagrams(1), "fault_drops", "h0", "faulted"),
    ("delivery-to-crashed-host", {}, 0.0, FaultPlan([FaultEvent(3e-6, HOST_CRASH, "h1")]), None,
     _datagrams(1), "fault_drops", "h1", "faulted"),
    ("delivery-to-crashed-switch", {}, 0.0, FaultPlan().switch_crash(1e-6, "tor"),
     None, _datagrams(1), "fault_drops", "tor", "faulted"),
    ("ecn-mark", {"ecn_threshold_bytes": 1000}, 0.0, None, None, _datagrams(3),
     "ecn_marked", ("h1", "tor"), "marked"),
]


class TestDropReasons:
    @pytest.mark.parametrize("row", DROP_EXITS, ids=[row[0] for row in DROP_EXITS])
    def test_every_exit_is_counted_once_and_told_to_the_ledger(self, row):
        _exit, config, loss_rate, plan, setup, frames, table, where, bucket = row
        topo = Topology(name="rack")
        topo.add_switch("tor")
        topo.add_host("h0")
        topo.add_host("h1")
        topo.connect("h0", "tor", loss_rate=loss_rate)
        topo.connect("h1", "tor", bandwidth_bps=DEFAULT_BANDWIDTH_BPS / 10)
        sim = NetworkSimulator(topo, SimulatorConfig(sanitize=True, **config))
        if plan is not None:
            install_faults(sim, plan)
        if setup is not None:
            setup(sim)
        sim.send_burst("h0", frames)
        sim.run()  # a sanitized run() ends by checking conservation
        if isinstance(where, tuple):
            where = topo.link_between(*where).name
        counted = {
            name: counts
            for name, counts in sim.stats.snapshot().items()
            if name in ("drops", "queue_drops", "losses", "fault_drops", "ecn_marked")
            and counts
        }
        assert counted == {table: {where: 1}}
        told = {
            name: counts
            for name, counts in sim.sanitizer.ledger.snapshot().items()
            if name in ("lost_or_dropped", "faulted", "unprotected", "marked")
            and counts
        }
        assert told == {bucket: {"UdpDatagram": 1}}
        # Only a marked frame still reaches the application.
        delivered = sim.sanitizer.ledger.delivered.get("UdpDatagram", 0)
        assert delivered == len(frames) - (bucket != "marked")


def build_lossy_system(policy: str, loss_rate: float = 0.05) -> DaietSystem:
    topo = single_rack(4, loss_rate=loss_rate)
    config = DaietConfig(
        register_slots=64,
        pairs_per_packet=4,
        reliability=True,
        retransmit_timeout=1e-4,
        reliability_policy=policy,
    )
    system = DaietSystem(
        topo, config, SimulatorConfig(sanitize=True, loss_seed=17)
    )
    system.install_job(mappers=["h0", "h1", "h2"], reducers=["h3"], policy=policy)
    return system


class TestUnprotectedBucket:
    def test_best_effort_drops_land_in_unprotected(self):
        system = build_lossy_system("best_effort")
        run_job(system)
        ledger = system.simulator.sanitizer.ledger
        snap = ledger.snapshot()
        # Deliberate (policy-accepted) loss is counted apart from ordinary
        # congestion loss and from fault damage.
        assert sum(snap["unprotected"].values()) > 0
        assert snap["faulted"] == {}
        # ...and the conservation equation still closes at quiescence.
        system.simulator.sanitizer.check()
        assert all(ledger.in_flight(cls) == 0 for cls in ledger.classes())

    def test_exact_drops_stay_in_lost_or_dropped(self):
        system = build_lossy_system("exact")
        run_job(system)
        ledger = system.simulator.sanitizer.ledger
        snap = ledger.snapshot()
        assert snap["unprotected"] == {}
        assert sum(snap["lost_or_dropped"].values()) > 0
        system.simulator.sanitizer.check()

    def test_sampled_drops_land_in_unprotected(self):
        system = build_lossy_system("sampled")
        run_job(system)
        snap = system.simulator.sanitizer.ledger.snapshot()
        assert sum(snap["unprotected"].values()) > 0
        system.simulator.sanitizer.check()


class TestSchedulerChecks:
    @pytest.mark.parametrize("calendar", [False, True], ids=["heap", "calendar"])
    @pytest.mark.parametrize("sanitize", [False, True], ids=["plain", "sanitized"])
    def test_past_scheduled_event_trips_monotonicity(self, sanitize, calendar):
        # The scheduler checks every pop, sanitized or not, on either
        # backend (SanitizerError is a SimulationError).
        system = build_system(sanitize=sanitize)
        sim = system.simulator
        sim.scheduler.now = 5.0
        # Seed a poisoned entry directly into the heap, bypassing the
        # schedule-time validation (models a buggy fast path).
        heappush(sim.scheduler._queue, (1.0, sim.scheduler._seq, lambda: None, ()))
        sim.scheduler._seq += 1
        if calendar:
            sim.scheduler._activate_calendar()
        with pytest.raises(SimulationError, match="monotonicity"):
            sim.run()

    def test_corrupt_heap_is_detected(self):
        system = build_system(sanitize=True)
        sim = system.simulator
        scheduler = sim.scheduler
        for t in (3.0, 1.0, 2.0, 5.0, 4.0):
            scheduler.push_at(t, lambda: None, ())
        # Scramble the heap order behind the scheduler's back.
        scheduler._queue.sort(key=lambda entry: -entry[0])
        with pytest.raises(SanitizerError, match="heap invariant"):
            sim.sanitizer.check_backend_invariant()

    def test_misfiled_calendar_entry_is_detected(self):
        system = build_system(sanitize=True)
        sim = system.simulator
        scheduler = sim.scheduler
        for t in (1.0, 2.0, 3.0):
            scheduler.push_at(t, lambda: None, ())
        scheduler._activate_calendar()
        cal = scheduler._cal
        entry = next(b for b in cal.buckets if b)[0]
        expected = int(entry[0] * cal.inv_width) & cal.mask
        # File a copy into an empty bucket where it does not belong.
        wrong = next(
            i for i, b in enumerate(cal.buckets) if not b and i != expected
        )
        cal.buckets[wrong].append(entry)
        cal.count += 1
        with pytest.raises(SanitizerError, match="belongs in bucket"):
            sim.sanitizer.check_backend_invariant()

    def test_calendar_count_drift_is_detected(self):
        system = build_system(sanitize=True)
        scheduler = system.simulator.scheduler
        scheduler.push_at(1.0, lambda: None, ())
        scheduler._activate_calendar()
        scheduler._cal.count += 3
        with pytest.raises(SanitizerError, match="does not match"):
            system.simulator.sanitizer.check_backend_invariant()

    @pytest.mark.parametrize("calendar", [False, True], ids=["heap", "calendar"])
    def test_stray_dead_mark_is_detected(self, calendar):
        system = build_system(sanitize=True)
        scheduler = system.simulator.scheduler
        timer = system.simulator.timer(lambda: None)
        timer.start(2.0)
        timer.start(1.0)  # earlier: the entry at 2.0 is marked dead
        scheduler.push_at(3.0, lambda: None, ())
        if calendar:
            scheduler._activate_calendar()
            timer.start(0.5)
        system.simulator.sanitizer.check_backend_invariant()
        # A mark for a sequence number nothing queued carries.
        scheduler._cancelled.add(scheduler.reserve_seqs(1))
        with pytest.raises(SanitizerError, match="dead-set marks"):
            system.simulator.sanitizer.check_backend_invariant()

    def test_sweeps_follow_packets_not_notices(self, monkeypatch):
        """A window or a batch is one notice; the periodic backend sweep
        still runs once per HEAP_CHECK_INTERVAL packets counted."""
        sweeps = []
        check = SimulatorSanitizer.check_backend_invariant

        def counted(sanitizer):
            sweeps.append(sanitizer.sim.now)
            check(sanitizer)

        monkeypatch.setattr(SimulatorSanitizer, "check_backend_invariant", counted)
        mappers = [f"h{i}" for i in range(16)]
        system = DaietSystem.single_rack(
            17,
            config=DaietConfig(register_slots=1_024, pairs_per_packet=10),
            simulator_config=SimulatorConfig(sanitize=True),
        )
        system.install_job(mappers=mappers, reducers=["h16"])
        for m, mapper in enumerate(mappers):
            system.send_pairs(
                mapper, "h16", [(f"w{(m * 7 + i) % 100}", 1) for i in range(8_000)]
            )
        system.run()
        snapshot = system.simulator.sanitizer.ledger.snapshot()
        del snapshot["switch_out"]  # counted with its batch, not tallied
        packets = sum(sum(table.values()) for table in snapshot.values())
        assert packets // HEAP_CHECK_INTERVAL >= 5
        # The sweeps in the run, plus the one check() makes as it stops.
        assert len(sweeps) >= packets // HEAP_CHECK_INTERVAL + 1
        assert system.receiver("h16").result() == {f"w{i}": 1_280 for i in range(100)}


class TestRegisterLeaks:
    def _tree(self, system):
        engine = system.engine("tor")
        return engine.tree(next(iter(engine._trees)))

    def test_leaked_slot_is_detected(self):
        system = build_system(sanitize=True)
        tree = self._tree(system)
        tree.key_register[7] = interning.intern_key("leaked-key")
        tree.value_register[7] = 1
        with pytest.raises(SanitizerError, match="not recorded on the index stack"):
            system.simulator.sanitizer.check_registers()

    def test_orphaned_stack_slot_is_detected(self):
        system = build_system(sanitize=True)
        tree = self._tree(system)
        tree.index_stack.push_many([3])
        with pytest.raises(SanitizerError, match="key cells are empty"):
            system.simulator.sanitizer.check_registers()

    def test_value_without_key_is_detected(self):
        system = build_system(sanitize=True)
        tree = self._tree(system)
        tree.value_register[2] = 5
        with pytest.raises(SanitizerError, match=r"free slots \[2\] hold a value"):
            system.simulator.sanitizer.check_registers()

    def test_slots_must_rearm_after_round(self):
        system = build_system(sanitize=True)
        run_job(system)
        tree = self._tree(system)
        assert tree.counters.final_flushes > 0
        # The completed round left everything clean...
        system.simulator.sanitizer.check_registers()
        # ...but a slot that failed to rearm is caught.
        tree.key_register[5] = interning.intern_key("stale")
        tree.value_register[5] = 9
        tree.index_stack.push_many([5])
        with pytest.raises(SanitizerError, match="did not rearm"):
            system.simulator.sanitizer.check_registers()

    def test_stale_spillover_after_round_is_detected(self):
        system = build_system(sanitize=True)
        run_job(system)
        tree = self._tree(system)
        tree.spillover[interning.intern_key("stale")] = 1
        with pytest.raises(SanitizerError, match="spillover bucket still holds"):
            system.simulator.sanitizer.check_registers()

    def test_a_full_spillover_bucket_is_detected(self):
        # The bucket flushes the moment it holds a packet's worth, so it
        # never holds that many between packets, in a round or after one.
        system = build_system(sanitize=True)
        tree = self._tree(system)
        per = tree.config.pairs_per_packet
        kids = interning.intern_keys([f"spilled{i}" for i in range(per)])[0].tolist()
        tree.spillover.update(dict.fromkeys(kids[:-1], 1))
        system.simulator.sanitizer.check_registers()  # one short of a packet
        tree.spillover[kids[-1]] = 1
        with pytest.raises(SanitizerError, match="a full bucket must already have flushed"):
            system.simulator.sanitizer.check_registers()

    def test_duplicate_stack_entries_are_detected(self):
        system = build_system(sanitize=True)
        tree = self._tree(system)
        tree.key_register[4] = interning.intern_key("k")
        tree.value_register[4] = 1
        tree.index_stack.push_many([4])
        tree.index_stack.push_many([4])
        with pytest.raises(SanitizerError, match="duplicate slots"):
            system.simulator.sanitizer.check_registers()
