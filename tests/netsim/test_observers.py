"""Observers bind into the compiled data path and cost only the hooks they define.

``NetworkSimulator.add_observer`` compiles each hook an observer defines into
the sinks and transmits that need it (``_build_port_maps``). An observer
that defines none of the per-packet hooks leaves every compiled callback the
plain one, and one that defines the per-packet notices keeps the batch
handlers and the register kernel: a window is told once, a batch once.
"""

from __future__ import annotations

import random

import pytest

from repro.analysis.error_bounds import install_error_tracker
from repro.core.aggregation import DaietAggregationEngine
from repro.core.config import DaietConfig
from repro.core.daiet import DaietSystem
from repro.netsim.faults import FaultPlan, install_faults
from repro.netsim.simulator import SimulatorConfig
from repro.netsim.topology import leaf_spine, single_rack


def smoke_rack_burst(sanitize: bool = False) -> tuple[DaietSystem, list[str], str]:
    """``rack_burst`` at its ``--smoke`` sizes: 4 mappers, 200 pairs each,
    100 words, 1,024 register slots, reliability off."""
    config = DaietConfig(register_slots=1_024, pairs_per_packet=10)
    system = DaietSystem(single_rack(5), config, SimulatorConfig(sanitize=sanitize))
    mappers = [f"h{i}" for i in range(4)]
    system.install_job(mappers=mappers, reducers=["h4"])
    return system, mappers, "h4"


def small_fabric_round(sanitize: bool = False) -> tuple[DaietSystem, list[str], str]:
    """A two-level tree: 2 leaves, 1 spine, 5 mappers and the reducer ``h5``."""
    config = DaietConfig(register_slots=256, pairs_per_packet=10)
    system = DaietSystem(leaf_spine(2, 1, 3), config, SimulatorConfig(sanitize=sanitize))
    mappers = [f"h{i}" for i in range(5)]
    system.install_job(mappers=mappers, reducers=["h5"])
    return system, mappers, "h5"


def send_smoke_pairs(
    system: DaietSystem, mappers: list[str], reducer: str, pairs: int = 200, words: int = 100
) -> None:
    rng = random.Random(2017)
    for mapper in mappers:
        sent = [(f"w{rng.randrange(words)}", rng.randrange(1, 9)) for _ in range(pairs)]
        system.send_pairs(mapper, reducer, sent)


def compiled_code(system: DaietSystem) -> dict:
    """The code of every compiled callback: each port's delivery and burst
    sink, each batch handler's key and handler, and the bound transmit."""
    sim = system.simulator
    ports = {
        (device, port): (info[2].__code__, None if info[6] is None else info[6].__code__)
        for device, infos in sorted(sim._port_info.items())
        for port, info in sorted(infos.items())
    }
    handlers = [
        (key.__code__, handler.__code__) for key, handler in sim.scheduler._batch_handlers.items()
    ]
    plain_transmit = sim._gated_transmit == sim._transmit
    return {"ports": ports, "handlers": handlers, "plain_transmit": plain_transmit}


class DropsOnly:
    """Defines only the notices no compiled callback carries."""

    def __init__(self) -> None:
        self.drops = 0
        self.wipes = 0

    def on_drop(self, reason, where, packet) -> None:
        self.drops += 1

    def on_wipe(self, device) -> None:
        self.wipes += 1


def packets_in(told) -> int:
    """How many packets a notice stands for: a batch's count, a window's
    length, or one packet."""
    if isinstance(told, int):
        return told
    return len(told) if hasattr(told, "sizes") else 1


class PassCounter:
    """Counts every send, switch pass and delivery it is told of."""

    def __init__(self) -> None:
        self.sent = self.delivered = self.switch_in = self.switch_out = self.dropped = 0

    def on_send(self, packet) -> None:
        self.sent += packets_in(packet)

    def on_deliver(self, packet) -> None:
        self.delivered += 1

    def on_switch(self, taken, outputs) -> None:
        self.switch_in += packets_in(taken)
        self.switch_out += sum(packets_in(out) for _port, out in outputs)

    def on_drop(self, reason, where, packet) -> None:
        self.dropped += 1


class TestObserversCostWhatTheyUse:
    def test_observers_without_per_packet_hooks_compile_the_plain_path(self):
        plain, _mappers, _reducer = smoke_rack_burst()
        expected = compiled_code(plain)
        assert expected["handlers"]  # the ToR batches
        assert expected["plain_transmit"]
        for observer in (object(), DropsOnly()):
            system, _mappers, _reducer = smoke_rack_burst()
            system.simulator.add_observer(observer)
            assert compiled_code(system) == expected
        # The error tracker defines only on_drop / on_wipe too.
        system, _mappers, _reducer = smoke_rack_burst()
        install_error_tracker(system)
        assert compiled_code(system) == expected

    def test_vetoes_gate_the_sinks_and_keep_the_batch_handlers(self):
        plain, _mappers, _reducer = smoke_rack_burst()
        expected = compiled_code(plain)
        system, _mappers, _reducer = smoke_rack_burst()
        install_faults(system.simulator, FaultPlan())
        gated = compiled_code(system)
        assert not gated["plain_transmit"]
        for port, (code, _burst_code) in gated["ports"].items():
            assert code != expected["ports"][port][0]
        assert [key for key, _handler in gated["handlers"]] == [
            key for key, _handler in expected["handlers"]
        ]

    def test_per_packet_notices_balance_under_the_plain_run_loop(self, traffic_snapshot):
        # on_switch keeps the batch handlers: a batch is told once, as the
        # number of items it took, and a window once, as itself.
        plain, mappers, reducer = smoke_rack_burst()
        send_smoke_pairs(plain, mappers, reducer)
        plain_events = plain.run()
        system, mappers, reducer = smoke_rack_burst()
        counter = PassCounter()
        system.simulator.add_observer(counter)
        assert compiled_code(system)["handlers"] == compiled_code(plain)["handlers"]
        send_smoke_pairs(system, mappers, reducer)
        assert system.run() == plain_events
        sim = system.simulator
        assert system.receiver(reducer).result() == plain.receiver(reducer).result()
        assert traffic_snapshot(sim) == traffic_snapshot(plain.simulator)
        tor = sim.switch("tor").switch.counters
        assert counter.sent == sum(host.counters.packets_sent for host in sim.topology.hosts())
        assert counter.delivered == sim.host(reducer).counters.packets_received
        assert counter.switch_in == tor.packets_in
        assert counter.switch_out == tor.packets_out
        assert counter.dropped == 0
        assert counter.sent + counter.switch_out == (
            counter.delivered + counter.switch_in + counter.dropped
        )
        assert counter.sent > len(mappers)  # windows of many packets


class TestSanitizedRunsTakeTheKernel:
    """``REPRO_SANITIZE=1`` checks the shipped loop, batch handlers and kernel."""

    @pytest.mark.parametrize(
        "build, pairs, words",
        [(smoke_rack_burst, 200, 100), (small_fabric_round, 400, 300)],
        ids=["rack", "leaf_spine"],
    )
    def test_sanitized_run_makes_the_plain_kernel_calls(
        self, monkeypatch, traffic_snapshot, build, pairs, words
    ):
        calls = []
        vector_apply = DaietAggregationEngine._vector_apply

        def counted(engine, *args):
            calls.append(engine.switch_name)
            return vector_apply(engine, *args)

        monkeypatch.setattr(DaietAggregationEngine, "_vector_apply", counted)
        runs = []
        for sanitize in (False, True):
            calls.clear()
            system, mappers, reducer = build(sanitize)
            send_smoke_pairs(system, mappers, reducer, pairs, words)
            events = system.run()  # a sanitized run() ends with its checks
            sim = system.simulator
            runs.append(
                (system.receiver(reducer).result(), events, traffic_snapshot(sim), list(calls))
            )
        plain, sanitized = runs
        assert sanitized == plain
        assert plain[3]  # the kernel ran
        ledger = sim.sanitizer.ledger
        assert all(ledger.in_flight(cls) == 0 for cls in ledger.classes())
        # The ledger counts what every packet's one owner counts.
        hosts = list(sim.topology.hosts())
        switches = [device.switch.counters for device in sim.topology.switches()]
        assert sum(ledger.sent.values()) == sum(h.counters.packets_sent for h in hosts)
        assert sum(ledger.delivered.values()) == sum(h.counters.packets_received for h in hosts)
        assert sum(ledger.switch_in.values()) == sum(c.packets_in for c in switches)
        assert sum(ledger.switch_out.values()) == sum(c.packets_out for c in switches)
