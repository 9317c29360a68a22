"""Every packet ends exactly once, counted by the object that owns it.

Each traffic counter has one owner: a host's NIC traffic is its
``HostCounters``, a switch's is its ``SwitchCounters``, a link's is its
record in ``TrafficStats.link_traffic``, and every way a packet leaves the
network is a ``TrafficStats`` drop table. At quiescence the owners balance:

    sum(host sent) + sum(switch out)
        == sum(host received) + sum(switch in)
           + losses + queue drops + unconnected drops + fault drops

and, on a run no fault touches, every transmission that got onto a link
was carried by it:

    sum(link packets) == sum(host sent) + sum(switch out)
                         - queue drops - unconnected drops
"""

from __future__ import annotations

import pytest

from repro.core.config import DaietConfig
from repro.core.daiet import DaietSystem
from repro.dataplane.tables import FlowRule
from repro.netsim.devices import FORWARDING_TABLE
from repro.netsim.faults import FaultPlan, install_faults
from repro.netsim.simulator import NetworkSimulator, SimulatorConfig
from repro.netsim.topology import leaf_spine, single_rack
from repro.transport.packets import UdpDatagram


def _daiet_round(topology, config: DaietConfig, plan: FaultPlan | None = None):
    mappers = [host.name for host in topology.hosts()][:-1]
    reducer = topology.hosts()[-1].name
    system = DaietSystem(topology, config, SimulatorConfig(loss_seed=3))
    if plan is not None:
        install_faults(system.simulator, plan)
    system.install_job(mappers=mappers, reducers=[reducer])
    for i, mapper in enumerate(mappers):
        system.send_pairs(mapper, reducer, [(f"k{j}", i + j) for j in range(400)])
    system.run()
    return system.simulator


def _rack():
    return _daiet_round(single_rack(5), DaietConfig(register_slots=64))


def _lossy_rack():
    config = DaietConfig(register_slots=64, reliability=True, retransmit_timeout=1e-4)
    return _daiet_round(single_rack(5, loss_rate=0.01), config)


def _incast():
    # Eight senders into one 4,000-byte egress buffer, plus one datagram
    # the ToR forwards to a port with no link behind it.
    sim = NetworkSimulator(single_rack(9), SimulatorConfig(switch_buffer_bytes=4_000))
    sim.switch("tor").switch.install_rule(
        FlowRule.create(FORWARDING_TABLE, {"dst": "ghost"}, "forward", {"egress_port": 40})
    )
    for i in range(8):
        sim.send_burst(
            f"h{i}",
            [UdpDatagram(src=f"h{i}", dst="h8", payload_bytes=958) for _ in range(20)],
        )
    sim.send("h0", UdpDatagram(src="h0", dst="ghost", payload_bytes=10))
    sim.run()
    return sim


def _spine_kill():
    topology = leaf_spine(num_leaves=2, num_spines=2, hosts_per_leaf=2)
    plan = FaultPlan().switch_crash(2e-6, "spine0").switch_crash(2e-6, "spine1")
    return _daiet_round(topology, DaietConfig(register_slots=64), plan)


RUNS = {
    "rack": (_rack, None),
    "lossy-rack": (_lossy_rack, "losses"),
    "incast": (_incast, "queue_drops"),
    "spine-kill": (_spine_kill, "fault_drops"),
}


def _ledger(sim: NetworkSimulator) -> dict[str, int]:
    stats = sim.stats
    hosts = [host.counters for host in sim.topology.hosts()]
    switches = [device.switch.counters for device in sim.topology.switches()]
    return {
        "host_sent": sum(c.packets_sent for c in hosts),
        "host_received": sum(c.packets_received for c in hosts),
        "switch_in": sum(c.packets_in for c in switches),
        "switch_out": sum(c.packets_out for c in switches),
        "link": stats.total_link_packets(),
        "losses": stats.total_losses(),
        "queue_drops": stats.total_queue_drops(),
        "drops": sum(stats.drops.values()),
        "fault_drops": stats.total_fault_drops(),
    }


@pytest.mark.parametrize("run", sorted(RUNS))
def test_every_packet_ends_exactly_once(run):
    build, exercised = RUNS[run]
    sim = build()
    assert len(sim.scheduler) == 0
    n = _ledger(sim)
    if exercised is not None:
        assert n[exercised] > 0, "the run must exercise the exit it is named for"
    if run == "incast":
        assert n["drops"] == 1
    put_in = n["host_sent"] + n["switch_out"]
    assert put_in == (
        n["host_received"]
        + n["switch_in"]
        + n["losses"]
        + n["queue_drops"]
        + n["drops"]
        + n["fault_drops"]
    )
    if n["fault_drops"] == 0:
        assert n["link"] == put_in - n["queue_drops"] - n["drops"]


def test_a_link_counts_both_directions_in_one_record():
    sim = NetworkSimulator(single_rack(2))
    there = UdpDatagram(src="h0", dst="h1", payload_bytes=100)
    back = UdpDatagram(src="h1", dst="h0", payload_bytes=10)
    sim.send("h0", there)
    sim.send("h1", back)
    sim.run()
    both = (2, there.wire_bytes() + back.wire_bytes())
    assert sim.stats.snapshot()["link_traffic"] == {
        link.name: both for link in sim.topology.links
    }
