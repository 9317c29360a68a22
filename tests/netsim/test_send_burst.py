"""Burst injection must be indistinguishable from per-packet sends.

``NetworkSimulator.send_burst`` collapses a window of packets into one
scheduler event. Everything observable — traffic statistics, delivery order,
arrival times, loss draws on lossy links, and the event total returned by
``run()`` — must be identical to calling ``send`` once per packet.
"""

from __future__ import annotations

import pytest

from repro.core.config import DaietConfig
from repro.core.errors import SimulationError, TopologyError
from repro.core.packet import packetize_pairs
from repro.netsim.devices import packet_wire_bytes
from repro.netsim.simulator import NetworkSimulator, SimulatorConfig
from repro.netsim.topology import single_rack
from repro.transport.packets import UdpDatagram


def _simulator(loss_rate: float = 0.0) -> NetworkSimulator:
    topo = single_rack(num_hosts=3)
    if loss_rate:
        for link in topo.links:
            link.loss_rate = loss_rate
    return NetworkSimulator(topo, SimulatorConfig(loss_seed=11))


def _window(n: int, kind: str = "udp") -> list:
    if kind == "daiet-window":
        # What the packetizer returns: n - 1 DATA packets and the END.
        return packetize_pairs(
            [(f"k{j}", j) for j in range(4 * n - 6)],
            tree_id=3,
            src="h0",
            dst="h1",
            config=DaietConfig(pairs_per_packet=4),
        )
    if kind == "udp":
        return [
            UdpDatagram(src="h0", dst="h1", dport=7, payload_bytes=100 + i)
            for i in range(n)
        ]
    # A reliable sender's window: sequenced DAIET packets of varying size
    # (a plain list gets no burst plan, so they go through ``_transmit`` one
    # by one).
    config = DaietConfig(pairs_per_packet=8, reliability=True)
    return [
        packetize_pairs(
            [(f"k{j}", j) for j in range(i % 8 + 1)],
            tree_id=3,
            src="h0",
            dst="h1",
            config=config,
            include_end=False,
            seq_start=i,
        )[0]
        for i in range(n)
    ]


def _arrivals(sim: NetworkSimulator) -> list[tuple[float, int]]:
    seen: list[tuple[float, int]] = []
    sim.host("h1").set_receiver(
        lambda packet: seen.append((sim.now, packet_wire_bytes(packet)))
    )
    return seen


class TestSendBurstEquivalence:
    @pytest.mark.parametrize(
        "loss_rate, kind",
        [
            (0.0, "udp"),
            (0.2, "udp"),
            (0.0, "daiet-seq"),
            (0.0, "daiet-window"),
            (0.2, "daiet-window"),
        ],
    )
    def test_burst_matches_per_packet_sends(self, loss_rate, kind, traffic_snapshot):
        solo = _simulator(loss_rate)
        solo_seen = _arrivals(solo)
        for packet in _window(25, kind):
            solo.send("h0", packet)
        solo_events = solo.run()

        burst = _simulator(loss_rate)
        burst_seen = _arrivals(burst)
        assert burst.send_burst("h0", _window(25, kind)) == 25
        burst_events = burst.run()

        assert len(solo_seen) == 25 or loss_rate
        assert burst_seen == solo_seen
        assert burst_events == solo_events  # burst members count as events
        assert traffic_snapshot(burst) == traffic_snapshot(solo)
        assert burst.now == solo.now

    def test_burst_respects_delay(self):
        sim = _simulator()
        seen = _arrivals(sim)
        sim.send_burst("h0", _window(2), delay=0.5)
        sim.run()
        assert len(seen) == 2
        assert all(t > 0.5 for t, _ in seen)

    def test_empty_burst_is_a_noop(self):
        sim = _simulator()
        assert sim.send_burst("h0", []) == 0
        assert sim.run() == 0

    def test_burst_validation_matches_send(self):
        sim = _simulator()
        with pytest.raises(TopologyError):
            sim.send_burst("ghost", _window(1))
        with pytest.raises(SimulationError):
            sim.send_burst("tor", _window(1))
        with pytest.raises(SimulationError):
            sim.send_burst("h0", _window(1), delay=-1.0)

    def test_synthetic_events_reset_between_runs(self):
        sim = _simulator()
        sim.send_burst("h0", _window(4))
        # 3 logical events per packet: injection, switch hop, host delivery.
        assert sim.run() == 12
        sim.send("h0", _window(1)[0])
        assert sim.run() == 3  # same accounting, no stale burst extras
