"""Scripted-trace oracle for the hop-reliability receiver, at every endpoint.

A receiver acknowledges ahead of its cadence when an arrival is CE-marked,
is a duplicate, or opens or closes a hole. One stream state
(:class:`~repro.core.packet.SeenWindow`) decides this for the host
reliability agent, the switch aggregation engine and the reliable UDP
transport; each reads the packet's CE bit itself. The traces below are
replayed against all three through the entry points the network uses (the
host receiver, ``handle_packet``, the NIC), and every ACK that leaves the
endpoint is read back as ``(cumulative, sack)``. Hypothesis properties then
check the window alone, and each endpoint's early ACKs, against a sorted-set
reference.
"""

from __future__ import annotations

from itertools import count

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.aggregation import DaietAggregationEngine
from repro.core.config import DaietConfig
from repro.core.packet import (
    DAIET_ACK_MAX_SACK,
    DaietAck,
    DaietPacket,
    DaietPacketType,
    SeenWindow,
)
from repro.netsim.simulator import NetworkSimulator, SimulatorConfig
from repro.netsim.topology import single_rack
from repro.transport.packets import MessagePayload, UdpDatagram
from repro.transport.reliability import HostReliabilityAgent
from repro.transport.udp import ReliableUdpTransport

SENDER, RECEIVER = "h0", "h1"


def data_packet(seq: int, ecn: bool, config: DaietConfig) -> DaietPacket:
    return DaietPacket(
        tree_id=1,
        src=SENDER,
        dst=RECEIVER,
        packet_type=DaietPacketType.DATA,
        pairs=((f"k{seq}", 1),),
        config=config,
        seq=seq,
        ecn=ecn,
    )


class Endpoint:
    """One receiver of the ``h0`` stream; ``acks`` is every ACK it emitted."""

    def __init__(self) -> None:
        self.acks: list[tuple[int, tuple[int, ...]]] = []

    def deliver(self, seq: int, ecn: bool = False) -> None:
        raise NotImplementedError

    def _capture_sends(self, simulator: NetworkSimulator) -> None:
        """Record what the endpoint hands its NIC instead of simulating it."""

        def capture(_host: str, packet) -> None:
            if isinstance(packet, DaietAck):
                self.acks.append((packet.cumulative, packet.sack))
            elif packet.payload.kind == "udp-rel-ack":
                meta = packet.payload.meta
                self.acks.append((meta["cumulative"], meta["sack"]))

        simulator.send = capture


class HostAgentEndpoint(Endpoint):
    def __init__(self, ack_window: int, policy: str) -> None:
        super().__init__()
        self.config = DaietConfig(pairs_per_packet=4, reliability=True)
        simulator = NetworkSimulator(single_rack(2), SimulatorConfig())
        self._capture_sends(simulator)
        self.agent = HostReliabilityAgent(
            simulator,
            RECEIVER,
            ack_window=ack_window,
            retransmit_timeout=1e-4,
            max_retransmits=30,
            sampled_ack_stride=1,
        )
        self.agent.attach_tree(
            1, children=[SENDER], inner=lambda packet: None, policy=policy
        )

    def deliver(self, seq: int, ecn: bool = False) -> None:
        self.agent.receive(data_packet(seq, ecn, self.config))


class SwitchEngineEndpoint(Endpoint):
    def __init__(self, ack_window: int, policy: str) -> None:
        super().__init__()
        self.config = DaietConfig(
            pairs_per_packet=4,
            reliability=True,
            ack_window=ack_window,
            sampled_ack_stride=1,
        )
        self.engine = DaietAggregationEngine("tor")
        self.engine.configure_tree(
            tree_id=1,
            function="sum",
            num_children=1,
            egress_port=0,
            next_hop_dst=RECEIVER,
            config=self.config,
            child_ports={SENDER: 1},
            policy=policy,
        )

    def deliver(self, seq: int, ecn: bool = False) -> None:
        for port, out in self.engine.handle_packet(data_packet(seq, ecn, self.config)):
            if isinstance(out, DaietAck):
                assert port == 1
                self.acks.append((out.cumulative, out.sack))


class ReliableUdpEndpoint(Endpoint):
    PORT = 9

    def __init__(self, ack_window: int, policy: str) -> None:
        super().__init__()
        assert policy == "exact", "datagram flows have no reliability policy"
        self.simulator = NetworkSimulator(single_rack(2), SimulatorConfig())
        self._capture_sends(self.simulator)
        self.transport = ReliableUdpTransport(self.simulator, ack_window=ack_window)
        self.transport.listen_reliable(RECEIVER, self.PORT, lambda src, payload: None)

    def deliver(self, seq: int, ecn: bool = False) -> None:
        datagram = UdpDatagram(
            src=SENDER,
            dst=RECEIVER,
            sport=self.PORT,
            dport=self.PORT,
            payload=MessagePayload(kind="udp-rel-data", data=seq, meta={"seq": seq}),
            payload_bytes=8,
            ecn=ecn,
        )
        self.simulator.host(RECEIVER).deliver(datagram, datagram.wire_bytes())


ENDPOINTS = [HostAgentEndpoint, SwitchEngineEndpoint, ReliableUdpEndpoint]


@pytest.fixture(params=ENDPOINTS, ids=lambda cls: cls.__name__)
def make_endpoint(request):
    def make(ack_window: int, policy: str = "exact") -> Endpoint:
        return request.param(ack_window, policy)

    return make


class TestEarlyAcks:
    def test_marked_arrival_acked_immediately(self, make_endpoint):
        endpoint = make_endpoint(ack_window=4)
        endpoint.deliver(0)
        assert endpoint.acks == []  # below the ACK window, nothing marked
        endpoint.deliver(1, ecn=True)
        assert endpoint.acks == [(2, ())]  # the mark forces an immediate ACK

    def test_three_marked_arrivals_draw_three_acks(self, make_endpoint):
        endpoint = make_endpoint(ack_window=8)
        for seq in range(3):
            endpoint.deliver(seq, ecn=True)
        # Every marked arrival produced its own ACK, never one delayed ACK.
        assert endpoint.acks == [(1, ()), (2, ()), (3, ())]

    def test_duplicate_is_re_acked(self, make_endpoint):
        endpoint = make_endpoint(ack_window=8)
        endpoint.deliver(0)
        assert endpoint.acks == []
        # A retransmitted copy tells the receiver its ACK was lost or late:
        # it is acknowledged at once.
        endpoint.deliver(0)
        assert endpoint.acks == [(1, ())]

    def test_unmarked_arrivals_wait_for_the_cadence(self, make_endpoint):
        endpoint = make_endpoint(ack_window=4)
        for seq in range(3):
            endpoint.deliver(seq)
        assert endpoint.acks == []
        endpoint.deliver(3)  # the fourth in-order arrival fills the window
        assert endpoint.acks == [(4, ())]

    def test_a_marked_ack_restarts_the_cadence(self, make_endpoint):
        endpoint = make_endpoint(ack_window=4)
        endpoint.deliver(0, ecn=True)
        assert endpoint.acks == [(1, ())]
        for seq in (1, 2, 3):
            endpoint.deliver(seq)
        # The early ACK covered seq 0: the window counts afresh from seq 1.
        assert len(endpoint.acks) == 1
        endpoint.deliver(4)
        assert endpoint.acks == [(1, ()), (5, ())]

    def test_marked_duplicate_draws_one_ack(self, make_endpoint):
        endpoint = make_endpoint(ack_window=8)
        endpoint.deliver(0)
        endpoint.deliver(0, ecn=True)
        # Both rules ask for an ACK; the arrival still sends only one.
        assert endpoint.acks == [(1, ())]

    def test_marked_out_of_order_arrival_carries_its_sack(self, make_endpoint):
        endpoint = make_endpoint(ack_window=8)
        endpoint.deliver(0)
        endpoint.deliver(2)  # opens the hole at 1
        assert endpoint.acks == [(1, (2,))]
        endpoint.deliver(4, ecn=True)
        assert endpoint.acks == [(1, (2,)), (1, (2, 4))]


class TestHoleEdges:
    def test_opening_and_closing_arrivals_are_acked_ahead_of_the_cadence(
        self, make_endpoint
    ):
        endpoint = make_endpoint(ack_window=8)
        for seq in (0, 1):
            endpoint.deliver(seq)
        assert endpoint.acks == []
        endpoint.deliver(3)  # opens the hole: the sender's gap-fill can start
        assert endpoint.acks == [(2, (3,))]
        for seq in (4, 5):
            endpoint.deliver(seq)  # out of order, nothing new to say
        assert len(endpoint.acks) == 1
        endpoint.deliver(2)  # closes it: the repair is announced at once
        assert endpoint.acks[-1] == (6, ()) and len(endpoint.acks) == 2

    @pytest.mark.parametrize(
        "endpoint_class",
        [HostAgentEndpoint, SwitchEngineEndpoint],
        ids=lambda cls: cls.__name__,
    )
    def test_one_rule_for_strided_trees_too(self, endpoint_class):
        endpoint = endpoint_class(ack_window=8, policy="sampled")
        for seq in (0, 2, 3, 1):
            endpoint.deliver(seq)
        assert endpoint.acks == [(1, (2,)), (4, ())]


@pytest.mark.parametrize(
    "endpoint_class",
    [HostAgentEndpoint, SwitchEngineEndpoint],
    ids=lambda cls: cls.__name__,
)
def test_sampled_tree_announces_a_gap_episode_once(endpoint_class):
    """A hole that opens on a cadence ACK is that episode's announcement.

    The switch used to look for a fresh hole only when nothing else had made
    it acknowledge, so seq 3 below announced the same episode a second time
    with ``(1, (2, 3))``; the host agent always recorded the episode.
    """
    endpoint = endpoint_class(ack_window=2, policy="sampled")
    for seq in (0, 2, 3):
        endpoint.deliver(seq)
    assert endpoint.acks == [(1, (2,))]
    # The episode ends when the hole closes; the next one is announced again.
    endpoint.deliver(1)
    endpoint.deliver(5)
    assert endpoint.acks[-1] == (4, (5,))


arrival_scripts = st.lists(st.tuples(st.integers(0, 40), st.booleans()), max_size=120)


class TestSeenWindowAgainstSortedSetReference:
    @settings(max_examples=200)
    @given(script=arrival_scripts)
    def test_any_arrival_order_with_duplicates(self, script):
        """``script`` is ``(seq, ACK goes out afterwards)`` rows."""
        window = SeenWindow()
        seen: set[int] = set()
        counted = 0
        for seq, ack in script:
            before = next(i for i in count() if i not in seen)
            buffered = any(s > before for s in seen)
            fresh = window.observe(seq)
            assert fresh == (seq not in seen)
            seen.add(seq)
            cumulative = next(i for i in count() if i not in seen)
            holes = any(s > cumulative for s in seen)
            assert window.has_gaps == holes
            # Opens a hole: out of order with nothing buffered. Closes one:
            # the cumulative point jumped over buffered arrivals.
            opens = fresh and seq != before and not buffered
            closes = fresh and seq == before and cumulative > seq + 1
            assert window.edge == (opens or closes)
            counted += 1
            assert window.count_arrival() == counted
            if ack:
                assert window.take_ack() == (
                    cumulative,
                    tuple(sorted(s for s in seen if s > cumulative))[:DAIET_ACK_MAX_SACK],
                )
                counted = 0


marked_scripts = st.lists(st.tuples(st.integers(0, 40), st.booleans()), max_size=60)


class TestEndpointsAgainstSortedSetReference:
    @pytest.mark.parametrize("endpoint_class", ENDPOINTS, ids=lambda cls: cls.__name__)
    @settings(max_examples=40, deadline=None)
    @given(script=marked_scripts)
    def test_early_acks_report_the_reference_state(self, endpoint_class, script):
        """``script`` is ``(seq, CE-marked)`` rows delivered to one endpoint.

        An arrival sends at most one ACK; a marked, duplicate or hole-edge
        arrival always sends one; and every ACK states the sorted-set
        reference as it stands after that arrival.
        """
        endpoint = endpoint_class(ack_window=8, policy="exact")
        seen: set[int] = set()
        for seq, marked in script:
            before = next(i for i in count() if i not in seen)
            buffered = any(s > before for s in seen)
            fresh = seq not in seen
            seen.add(seq)
            cumulative = next(i for i in count() if i not in seen)
            opens = fresh and seq != before and not buffered
            closes = fresh and seq == before and cumulative > seq + 1
            sent_before = len(endpoint.acks)
            endpoint.deliver(seq, ecn=marked)
            new = endpoint.acks[sent_before:]
            assert len(new) <= 1
            if marked or not fresh or opens or closes:
                assert len(new) == 1
            if new:
                assert new[0] == (
                    cumulative,
                    tuple(sorted(s for s in seen if s > cumulative))[:DAIET_ACK_MAX_SACK],
                )
