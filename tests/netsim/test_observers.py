"""Observers bind into the compiled data path and cost only the hooks they define.

``NetworkSimulator.add_observer`` compiles each hook an observer defines into
the sinks and transmits that need it (``_build_port_maps``). An observer
that defines none of the per-packet hooks leaves every compiled callback the
plain one, and one that defines the per-packet notices still runs the window
delivery code, item by item, so that every switch pass is told to it.
"""

from __future__ import annotations

import random

from repro.analysis.error_bounds import install_error_tracker
from repro.core.config import DaietConfig
from repro.core.daiet import DaietSystem
from repro.netsim.faults import FaultPlan, install_faults
from repro.netsim.topology import single_rack


def smoke_rack_burst() -> tuple[DaietSystem, list[str], str]:
    """``rack_burst`` at its ``--smoke`` sizes: 4 mappers, 200 pairs each,
    100 words, 1,024 register slots, reliability off."""
    config = DaietConfig(register_slots=1_024, pairs_per_packet=10)
    system = DaietSystem(single_rack(5), config)
    mappers = [f"h{i}" for i in range(4)]
    system.install_job(mappers=mappers, reducers=["h4"])
    return system, mappers, "h4"


def send_smoke_pairs(system: DaietSystem, mappers: list[str], reducer: str) -> None:
    rng = random.Random(2017)
    for mapper in mappers:
        pairs = [(f"w{rng.randrange(100)}", rng.randrange(1, 9)) for _ in range(200)]
        system.send_pairs(mapper, reducer, pairs)


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


class PassCounter:
    """Counts every send, switch pass and delivery it is told of."""

    def __init__(self) -> None:
        self.sent = self.delivered = self.switch_in = self.switch_out = self.dropped = 0

    def on_send(self, packet) -> None:
        self.sent += 1

    def on_deliver(self, packet) -> None:
        self.delivered += 1

    def on_switch(self, packet, outputs) -> None:
        self.switch_in += 1
        self.switch_out += len(outputs)

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
        # on_switch takes every batch handler away, so no window item can be
        # applied without passing the notice; the run loop is the plain one.
        plain, mappers, reducer = smoke_rack_burst()
        send_smoke_pairs(plain, mappers, reducer)
        plain_events = plain.run()
        system, mappers, reducer = smoke_rack_burst()
        counter = PassCounter()
        system.simulator.add_observer(counter)
        assert compiled_code(system)["handlers"] == []
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
