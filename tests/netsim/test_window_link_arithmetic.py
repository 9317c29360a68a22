"""A planned window's link arithmetic against the per-item loop it replaced.

``NetworkSimulator._transmit_burst`` puts a window with a burst plan on its
link as array work: arrival times are one accumulation over the items'
serialization, a tail drop is the window's suffix, and the loss draws and
the drop / mark hooks run in item order. :func:`per_item_transmit` below is
the loop that did the same item by item, and it is the model: on twin
simulators, over lossless, lossy, ECN-marking and tail-dropping windows,
the two must leave bit-equal arrival times, the same busy-until clocks,
the same loss-stream state, the same drops and marks, in the same order,
and the same link statistics.
"""

from __future__ import annotations

from unittest import mock

import pytest

from repro.core.config import DaietConfig
from repro.core.packet import packetize_pairs
from repro.netsim.simulator import NetworkSimulator, SimulatorConfig
from repro.netsim.topology import leaf_spine


def per_item_transmit(sim, from_device, egress_port, packets, sizes):
    """The model: one item at a time, as ``_transmit`` would put it on the
    link. Returns the survivors' arrival times and the window indexes lost
    or tail-dropped."""
    link, link_name, _callback, _port, traffic, busy_key, _sink = sim._port_info[from_device][
        egress_port
    ]
    now = sim.scheduler.now
    busy_end = max(sim._link_busy_until.get(busy_key, 0.0), now)
    congested = sim._congestion_enabled and from_device in sim._switch_names
    limit, threshold = sim._switch_buffer, sim._ecn_threshold
    times, lost = [], []
    for i, nbytes in enumerate(sizes):
        if congested and busy_end > now:
            backlog_bytes = (busy_end - now) * link.bandwidth_bps
            if limit is not None and backlog_bytes > limit:
                lost.append(i)
                sim._drop("queue", link_name, packets[i])
                continue
            if threshold is not None and backlog_bytes > threshold:
                if packets[i].ecn is False:
                    sim._mark(link_name, packets[i])
        traffic.packets += 1
        traffic.bytes += nbytes
        busy_end = busy_end + nbytes / link.bandwidth_bps
        if link.loss_rate > 0.0 and sim._loss_rng.random() < link.loss_rate:
            lost.append(i)
            sim._drop("loss", link_name, packets[i])
        else:
            times.append(busy_end + link.propagation_s)
    sim._link_busy_until[busy_key] = busy_end
    return times, lost


class Recorder:
    """An observer that writes down every drop and mark, in order."""

    def __init__(self, window):
        self.window = window
        self.calls = []

    def _index(self, packet):
        return next(at for at, built in self.window.built.items() if built is packet)

    def on_drop(self, reason, where, packet):
        self.calls.append(("drop", reason, where, self._index(packet)))

    def on_mark(self, where, packet):
        self.calls.append(("mark", where, self._index(packet)))


def _twin(sender, loss_rate, ecn, buffer, backlog_bytes, now, premarked):
    """A simulator, its window from ``sender`` and the recorder watching it."""
    topology = leaf_spine(num_leaves=1, num_spines=1, hosts_per_leaf=2)
    for link in topology.links:
        link.loss_rate = loss_rate
    sim = NetworkSimulator(
        topology,
        SimulatorConfig(loss_seed=23, ecn_threshold_bytes=ecn, switch_buffer_bytes=buffer),
    )
    target = "spine0" if sender == "leaf0" else "leaf0"
    link = next(link for link in topology.links if {link.a.device, link.b.device} == {sender, target})
    port = link.port_of(sender)
    window = packetize_pairs(
        [(f"arith-{i}", i) for i in range(57)], tree_id=4, src="h0", dst="h1",
        config=DaietConfig(pairs_per_packet=3),
    )
    for at in premarked:
        object.__setattr__(window[at], "ecn", True)
    sim.scheduler.now = now
    sim._link_busy_until[(link.name, sender)] = now + backlog_bytes / link.bandwidth_bps
    recorder = Recorder(window)
    sim.add_observer(recorder)
    return sim, sender, port, window, recorder


CASES = {
    # sender, loss rate, ECN threshold, buffer, backlog before, now, premarked
    "lossless": ("leaf0", 0.0, None, None, 0, 0.0, ()),
    "lossless-late": ("leaf0", 0.0, None, None, -4000, 0.003, ()),
    "lossy": ("leaf0", 0.3, None, None, 0, 0.0, ()),
    "host-uplink-lossy": ("h0", 0.2, 500, 900, 2000, 0.0, ()),
    "ecn-marking": ("leaf0", 0.0, 900, None, 0, 0.0, (9, 11)),
    "ecn-from-backlog": ("leaf0", 0.1, 900, None, 1200, 1e-3, ()),
    "tail-dropping": ("leaf0", 0.0, None, 1500, 0, 0.0, ()),
    "tail-dropping-all": ("leaf0", 0.0, None, 1500, 5000, 0.5, ()),
    "every-model": ("leaf0", 0.25, 700, 2600, 300, 0.0, (3, 12)),
}


class TestWindowLinkArithmetic:
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_the_per_item_loop(self, case):
        sim, sender, port, window, recorder = _twin(*CASES[case])
        pushed = []
        with mock.patch.object(sim.scheduler, "push_entry", pushed.append):
            sim._transmit_burst(sender, port, window, window.sizes, window.burst_plan())
        msim, _sender, _port, mwindow, mrecorder = _twin(*CASES[case])
        times, lost = per_item_transmit(msim, sender, port, mwindow, mwindow.sizes)

        if times:
            ((first, seq, _sink, (burst, offset)),) = pushed
            assert burst.times.tolist() == times  # bit-equal floats
            assert type(first) is float and first == times[0] and offset == 0
            assert list(burst.plan.items) == [i for i in range(len(window)) if i not in lost]
            assert burst.plan.sizes == [window.sizes[i] for i in burst.plan.items]
            assert seq == 0 and sim.scheduler.reserve_seqs(1) == len(times)
        else:
            assert pushed == []
        assert sim._link_busy_until == msim._link_busy_until
        assert sim._loss_rng.getstate() == msim._loss_rng.getstate()
        assert recorder.calls == mrecorder.calls
        assert [window[i].ecn for i in window.built] == [mwindow[i].ecn for i in mwindow.built]
        assert sim.stats.link_traffic == msim.stats.link_traffic
        assert (
            sim.stats.total_losses(), sim.stats.total_queue_drops(), sim.stats.total_ecn_marked()
        ) == (
            msim.stats.total_losses(), msim.stats.total_queue_drops(), msim.stats.total_ecn_marked()
        )

    def test_the_cases_reach_every_branch(self):
        # Each model shows up somewhere, or the twin test above is vacuous.
        seen = set()
        for case in CASES.values():
            sim, sender, port, window, recorder = _twin(*case)
            with mock.patch.object(sim.scheduler, "push_entry", lambda entry: None):
                sim._transmit_burst(sender, port, window, window.sizes, window.burst_plan())
            seen.update(call[0] if call[0] == "mark" else call[1] for call in recorder.calls)
        assert seen == {"mark", "loss", "queue"}
