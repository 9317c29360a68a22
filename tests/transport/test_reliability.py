"""Host-side reliability: sender channels, host agents, reliable UDP."""

from __future__ import annotations

import pytest

from repro.core.config import DaietConfig
from repro.core.errors import TransportError
from repro.core.packet import DaietPacket, DaietPacketType, packetize_pairs
from repro.netsim.simulator import NetworkSimulator, SimulatorConfig
from repro.netsim.topology import Topology
from repro.transport.packets import MessagePayload
from repro.transport.reliability import HostReliabilityAgent
from repro.transport.udp import ReliableUdpTransport
from repro.transport.window import AimdController, TransportTuning


def rack(loss_rate: float = 0.0, num_hosts: int = 2) -> Topology:
    topo = Topology(name="rel_rack")
    topo.add_switch("tor")
    for i in range(num_hosts):
        topo.add_host(f"h{i}")
        topo.connect(f"h{i}", "tor", loss_rate=loss_rate)
    topo.validate()
    return topo


def make_agents(
    loss_rate: float, seed: int = 3, timeout: float = 1e-4, max_retransmits: int = 30
):
    """Two hosts joined by plain forwarding (no aggregation engine)."""
    sim = NetworkSimulator(rack(loss_rate), SimulatorConfig(loss_seed=seed))
    knobs = dict(
        retransmit_timeout=timeout, ack_window=4, max_retransmits=max_retransmits
    )
    sender = HostReliabilityAgent(sim, "h0", **knobs)
    receiver = HostReliabilityAgent(sim, "h1", **knobs)
    return sim, sender, receiver


def sequenced_partition(channel, pairs, config) -> list[DaietPacket]:
    return [
        DaietPacket(
            tree_id=p.tree_id, src=p.src, dst=p.dst, packet_type=p.packet_type,
            pairs=p.pairs, config=p.config, seq=channel.take_seq(),
        )
        for p in packetize_pairs(pairs, tree_id=1, src="h0", dst="h1", config=config)
    ]


class TestSenderChannel:
    def run_transfer(self, loss_rate: float, seed: int = 3):
        sim, sender, receiver = make_agents(loss_rate, seed=seed)
        got: list[DaietPacket] = []
        receiver.attach_tree(1, children=["h0"], inner=got.append)
        config = DaietConfig(pairs_per_packet=2, reliability=True)
        channel = sender.sender(1)
        pairs = [(f"k{i}", i) for i in range(40)]
        channel.send(sequenced_partition(channel, pairs, config))
        receiver.arm(1)
        sim.run()
        return sim, sender, channel, got, pairs

    def test_lossless_delivery_without_retransmissions(self):
        _sim, sender, channel, got, pairs = self.run_transfer(0.0)
        assert channel.done
        assert sender.stats.retransmissions == 0
        received = [pair for p in got for pair in p.pairs]
        assert received == pairs
        assert [p for p in got if p.packet_type is DaietPacketType.END]

    def test_lossy_link_delivers_every_pair_exactly_once(self):
        _sim, sender, channel, got, pairs = self.run_transfer(0.15, seed=11)
        assert channel.done, "every packet eventually acknowledged"
        assert sender.stats.retransmissions > 0
        received = sorted(pair for p in got for pair in p.pairs)
        assert received == sorted(pairs), "no pair lost, duplicated or reordered away"

    def test_end_delivered_exactly_once_under_loss(self):
        _sim, _sender, _channel, got, _pairs = self.run_transfer(0.2, seed=5)
        ends = [p for p in got if p.packet_type is DaietPacketType.END]
        assert len(ends) == 1

    def test_sender_gives_up_after_max_retransmits(self):
        sim, sender, receiver = make_agents(0.9, seed=1, max_retransmits=3)
        receiver.attach_tree(1, children=["h0"], inner=lambda _p: None)
        config = DaietConfig(reliability=True)
        channel = sender.sender(1)
        channel.send(sequenced_partition(channel, [("k", 1)], config))
        with pytest.raises(TransportError):
            sim.run()

    def test_unsequenced_packet_rejected(self):
        _sim, sender, _receiver = make_agents(0.0)
        channel = sender.sender(1)
        with pytest.raises(TransportError):
            channel.send([DaietPacket(tree_id=1, src="h0", dst="h1", pairs=(("k", 1),))])

    def test_packetize_numbers_packets_where_reservations_left_off(self):
        """``channel.packetize`` builds the stream's next packets already
        numbered; single reservations before and after stay consecutive."""
        sim, sender, receiver = make_agents(0.0)
        got: list[DaietPacket] = []
        receiver.attach_tree(1, children=["h0"], inner=got.append)
        config = DaietConfig(pairs_per_packet=2, reliability=True)
        channel = sender.sender(1)
        assert channel.take_seq() == 0
        first = DaietPacket(tree_id=1, src="h0", dst="h1", pairs=(("a", 1),), config=config, seq=0)
        pairs = [(f"k{i}", i) for i in range(5)]
        rest = channel.packetize(pairs, "h1", config)
        plain = list(packetize_pairs(pairs, tree_id=1, src="h0", dst="h1", config=config))
        assert [p.seq for p in rest] == [1, 2, 3, 4]
        assert [(p.tree_id, p.src, p.dst, p.packet_type, p.pairs) for p in rest] == [
            (p.tree_id, p.src, p.dst, p.packet_type, p.pairs) for p in plain
        ]
        assert channel.take_seq() == 5
        channel.send([first, *rest])
        receiver.arm(1)
        sim.run()
        assert channel.done
        assert [p.seq for p in got] == [0, 1, 2, 3, 4]


class TestTuning:
    def test_daiet_config_tuning_reaches_the_sender_engine(self):
        tuning = TransportTuning(
            adaptive_rto=True, rto_floor=5e-5, congestion_control="aimd", initial_cwnd=12
        )
        config = DaietConfig(reliability=True, tuning=tuning)
        sim = NetworkSimulator(rack(), SimulatorConfig())
        engine = HostReliabilityAgent.from_config(sim, "h0", config).sender(1)._engine
        assert isinstance(engine._cc, AimdController)
        assert engine._cc.window() == 12
        assert engine._rtt.floor == 5e-5

    def test_daiet_window_never_sits_below_the_switch_ack_cadence(self):
        # A switch acknowledges every ack_window arrivals (every
        # ack_window * stride on a sampled tree) and has no delayed-ACK
        # timer, so a smaller window would wait out an RTO each round. The
        # datagram baseline's receiver has that timer and keeps its tuning.
        tuning = TransportTuning(congestion_control="aimd", initial_cwnd=3, min_cwnd=2)
        config = DaietConfig(reliability=True, ack_window=8, tuning=tuning)
        sim = NetworkSimulator(rack(), SimulatorConfig())
        agent = HostReliabilityAgent.from_config(sim, "h0", config)
        exact = agent.sender(1)._engine._cc
        sampled = agent.sender(2, policy="sampled")._engine._cc
        assert exact.window() == 8 and sampled.window() == 8 * config.sampled_ack_stride
        exact.on_timeout()
        assert exact.window() == 8
        transport = ReliableUdpTransport(sim, ack_window=8, tuning=tuning)
        transport.send_reliable("h0", "h1", None, 10)
        (flow,) = transport._flows.values()
        assert flow.engine._cc.window() == 3
        flow.engine._cc.on_timeout()
        assert flow.engine._cc.window() == 2

    def test_fixed_mode_floor_raises_the_base_timeout_of_both_owners(self):
        floored = TransportTuning(rto_floor=2e-3)
        assert floored.base_timeout(1e-4) == 2e-3
        assert floored.base_timeout(5e-3) == 5e-3
        assert TransportTuning(adaptive_rto=True, rto_floor=2e-3).base_timeout(1e-4) == 1e-4
        sim = NetworkSimulator(rack(), SimulatorConfig())
        agent = HostReliabilityAgent(
            sim, "h0", retransmit_timeout=1e-4, ack_window=4, max_retransmits=3,
            tuning=floored,
        )
        channel = agent.sender(1)
        assert channel.retransmit_timeout == channel._engine.base_timeout == 2e-3
        transport = ReliableUdpTransport(sim, retransmit_timeout=1e-4, tuning=floored)
        assert transport.retransmit_timeout == 2e-3


class TestReliableUdpTransport:
    def run_udp(self, loss_rate: float, messages: int = 30, seed: int = 9):
        sim = NetworkSimulator(rack(loss_rate), SimulatorConfig(loss_seed=seed))
        transport = ReliableUdpTransport(sim, retransmit_timeout=1e-4, ack_window=4)
        received: list[tuple[str, MessagePayload]] = []
        transport.listen_reliable("h1", 7, lambda src, p: received.append((src, p)))
        for i in range(messages):
            transport.send_reliable(
                "h0", "h1", MessagePayload(kind="msg", data=i), payload_bytes=100, port=7
            )
        sim.run()
        return transport, received

    def test_lossless_round_trip(self):
        transport, received = self.run_udp(0.0)
        assert [p.data for _src, p in received] == list(range(30))
        assert transport.flow_done("h0", "h1", 7)
        assert transport.stats.retransmissions == 0

    def test_lossy_delivery_exactly_once(self):
        transport, received = self.run_udp(0.15)
        assert sorted(p.data for _src, p in received) == list(range(30))
        assert transport.flow_done("h0", "h1", 7)
        assert transport.stats.retransmissions > 0
