"""HotspotDetector reads each monitored switch's ``SwitchCounters.packets_in``."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.analysis.hotspots import HotspotDetector
from repro.core.errors import SimulationError
from repro.netsim.faults import FaultPlan, install_faults
from repro.netsim.simulator import NetworkSimulator
from repro.netsim.topology import leaf_spine
from repro.transport.packets import UdpDatagram

SPINES = ["spine0", "spine1"]
RACK1 = ["h4", "h5", "h6", "h7"]


def _run(crash: str | None = None) -> tuple[NetworkSimulator, HotspotDetector]:
    """30 datagrams from h0 to each host of the second rack, sampled per spine."""
    sim = NetworkSimulator(leaf_spine(num_leaves=2, num_spines=2, hosts_per_leaf=4))
    if crash is not None:
        install_faults(sim, FaultPlan().switch_crash(0.0, crash))
    detector = HotspotDetector(sim, SPINES)
    detector.start()
    for dst in RACK1:
        sim.send_burst(
            "h0", [UdpDatagram(src="h0", dst=dst, payload_bytes=900) for _ in range(30)]
        )
    sim.run()
    return sim, detector


def test_packets_a_crashed_switch_drops_do_not_count_toward_its_share():
    sim, detector = _run()
    carried = Counter(sim.routes.next_hop("leaf0", dst) for dst in RACK1)
    hot, busiest = carried.most_common(1)[0]
    (cold,) = set(SPINES) - {hot}
    assert busiest == 3, "the ECMP hash splits the rack 3:1 over the spines"
    assert detector.shares()[hot] == busiest / len(RACK1)
    assert [event.switch for event in detector.events] == [hot]

    sim, detector = _run(crash=hot)
    assert sim.stats.fault_drops == {hot: 30 * busiest}
    assert sim.switch(hot).switch.counters.packets_in == 0
    assert detector.shares() == {hot: 0.0, cold: 1.0}
    # The window saw only the cold spine's 30 packets, under the 50-packet
    # floor: the dropped arrivals did not make the crashed spine a hotspot.
    assert detector.events == []


def test_only_switches_are_monitored():
    sim = NetworkSimulator(leaf_spine(num_leaves=2, num_spines=2, hosts_per_leaf=4))
    with pytest.raises(SimulationError):
        HotspotDetector(sim, ["spine0", "h0"])
