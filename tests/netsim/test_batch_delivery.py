"""Twin-run equivalence for burst delivery, the one vectorized way into a switch.

``switch-burst-delivery``: a whole window rides ONE queue entry carrying a
precomputed :class:`_BurstPlan`; the handler merges concurrent bursts by
``(time, seq)`` and feeds the pair arrays straight into the vectorized
register kernel. A mapper's send window and a child switch's flush window
ride it alike. Sequenced windows ride it as unsequenced ones do, over lossy
links too: the link's loss draws (and, on a congested switch egress, its
tail drops) drop items from the plan, and the kernel takes every DATA packet
its stream admits (fresh: above the stream's high-water mark, not CE-marked,
no END stashed) while duplicates, gap-fills, ENDs and ACKs go one by one
through the compiled per-packet sink, as do single-packet windows and
retransmissions.

Standing burst delivery down (the ``_fast_burst`` gate, what attaching an
observer does: no plan is built, so no burst entry is ever queued) must
change *nothing* observable: aggregation results, every traffic counter,
per-tree counters, every stream window, event totals, simulated time, the
loss stream's state and the ACKs each mapper hears, in order and in time.
"""

from __future__ import annotations

import random

import pytest

from repro.core.aggregation import DaietAggregationEngine
from repro.core.config import DaietConfig
from repro.core.daiet import DaietSystem
from repro.core.packet import DaietAck, DaietPacket, PacketWindow
from repro.netsim.devices import SwitchDevice
from repro.netsim.simulator import SimulatorConfig
from repro.netsim.topology import leaf_spine, single_rack

np = pytest.importorskip("numpy")


def wordcount_system(
    fast: bool,
    num_mappers: int = 6,
    pairs_per_mapper: int = 300,
    vocabulary: int = 80,
    reliability: bool = False,
    seed: int = 2017,
    fabric: str = "rack",
    config: DaietConfig | None = None,
):
    if config is None:
        config = DaietConfig(
            register_slots=128, pairs_per_packet=10, reliability=reliability
        )
    if fabric == "rack":
        topology = single_rack(num_mappers + 1)
    else:
        # Two-level tree: mappers spread over three leaves, so every leaf's
        # flush travels switch -> switch as one window.
        topology = leaf_spine(
            num_leaves=3, num_spines=2, hosts_per_leaf=(num_mappers + 3) // 3
        )
    system = DaietSystem(topology, config=config)
    if not fast:
        # Stand burst delivery down: no burst plans are built, every packet
        # is its own queue entry and is dispatched on its own.
        system.simulator._fast_burst = False
    mappers = [f"h{i}" for i in range(num_mappers)]
    reducer = f"h{num_mappers}"
    system.install_job(mappers=mappers, reducers=[reducer])
    rng = random.Random(seed)
    truth: dict[str, int] = {}
    for mapper in mappers:
        pairs = [
            (f"word{rng.randrange(vocabulary)}", rng.randrange(-50, 50))
            for _ in range(pairs_per_mapper)
        ]
        for key, value in pairs:
            truth[key] = truth.get(key, 0) + value
        system.send_pairs(mapper, reducer, pairs)
    return system, reducer, truth


@pytest.fixture()
def observables(traffic_snapshot):
    """``observables(system, reducer, events)``: everything a twin compares."""

    def read(system: DaietSystem, reducer: str, events: int) -> dict:
        counters = {}
        for name, engine in system.controller.engines.items():
            for tree_id in sorted(engine.counters()):
                counters[name, tree_id] = engine.tree(tree_id).counters
        return {
            "events": events,
            "now": system.simulator.now,
            "result": system.receiver(reducer).result(),
            "done": system.receiver(reducer).done,
            "traffic": traffic_snapshot(system.simulator),
            "counters": counters,
            "receiver": system.receiver(reducer).counters,
        }

    return read


class TestBatchDeliveryEquivalence:
    @pytest.mark.parametrize("fabric", ["rack", "leaf_spine"])
    @pytest.mark.parametrize("reliability", [False, True])
    def test_fast_and_slow_runs_identical(self, reliability, fabric, observables):
        fast_sys, reducer, truth = wordcount_system(
            True, reliability=reliability, fabric=fabric
        )
        fast_events = fast_sys.run()
        slow_sys, _, _ = wordcount_system(False, reliability=reliability, fabric=fabric)
        slow_events = slow_sys.run()
        fast_obs = observables(fast_sys, reducer, fast_events)
        slow_obs = observables(slow_sys, reducer, slow_events)
        assert fast_obs == slow_obs
        assert fast_obs["result"] == truth
        if fabric == "leaf_spine":
            assert len(fast_obs["counters"]) > 1  # the tree really has two levels

    def test_calendar_backend_identical(self, monkeypatch, observables):
        # The burst handler looks at and takes queue heads through the
        # scheduler's own interface; on the calendar backend that must give
        # the same run as the heap twin. Spillover flushes are pushed while
        # the handler holds a peeked head, so tiny registers are used.
        config = DaietConfig(register_slots=8, pairs_per_packet=4)
        with monkeypatch.context() as patch:
            patch.setattr("repro.netsim.events.CALENDAR_THRESHOLD", 1)
            fast_sys, reducer, truth = wordcount_system(True, config=config)
        slow_sys, _, _ = wordcount_system(False, config=config)
        fast_events = fast_sys.run()
        slow_events = slow_sys.run()
        assert fast_sys.simulator.scheduler.calendar_active
        assert not slow_sys.simulator.scheduler.calendar_active
        fast_obs = observables(fast_sys, reducer, fast_events)
        assert fast_obs == observables(slow_sys, reducer, slow_events)
        assert fast_obs["result"] == truth

    def test_collision_heavy_tree_identical(self, observables):
        # Tiny registers force in-flight spillover flushes, whose emission
        # packets must interleave with the burst at identical times.
        results = [self.collision_heavy_run(fast, observables) for fast in (True, False)]
        assert results[0] == results[1]

    @staticmethod
    def collision_heavy_run(
        fast: bool, observables, observe_at: float | None = None
    ) -> dict:
        config = DaietConfig(register_slots=8, pairs_per_packet=4)
        system = DaietSystem.single_rack(num_hosts=4, config=config)
        if not fast:
            system.simulator._fast_burst = False
        system.install_job(mappers=["h0", "h1", "h2"], reducers=["h3"])
        rng = random.Random(5)
        for mapper in ("h0", "h1", "h2"):
            system.send_pairs(
                mapper,
                "h3",
                [(f"k{rng.randrange(40)}", 1) for _ in range(120)],
            )
        events = 0
        if observe_at is not None:
            events += system.run(until=observe_at)
            system.simulator.add_observer(object())
        events += system.run()
        return observables(system, "h3", events)

    @pytest.mark.parametrize("observe_at", [0.5e-6, 1e-6, 2e-6, 4e-6])
    def test_port_map_rebuild_mid_burst_keeps_order(self, observe_at, observables):
        # Adding an observer (the sanitizer, the fault injector, the error
        # tracker) rebuilds the port maps, which orphans queued burst entries
        # from their handler. Each must then deliver ONE item and re-enqueue
        # its tail, or concurrent mappers' packets leave (time, seq) order.
        fast = self.collision_heavy_run(True, observables, observe_at)
        slow = self.collision_heavy_run(False, observables, observe_at)
        assert fast == slow

    def test_vector_ineligible_packets_identical(self, observables):
        # Bool values are outside the kernel's domain: the plan marks those
        # packets ineligible and they ride the per-item path mid-burst.
        config = DaietConfig(register_slots=32, pairs_per_packet=2)
        results = []
        for fast in (True, False):
            system = DaietSystem.single_rack(num_hosts=3, config=config)
            if not fast:
                system.simulator._fast_burst = False
            system.install_job(mappers=["h0", "h1"], reducers=["h2"])
            for mapper in ("h0", "h1"):
                system.send_pairs(
                    mapper,
                    "h2",
                    [("a", 1), ("b", True), ("a", 2), ("c", True), ("b", 3)],
                )
            events = system.run()
            results.append(observables(system, "h2", events))
        assert results[0] == results[1]
        assert results[0]["result"] == {"a": 6, "b": 8, "c": 2}

    def test_until_bound_cuts_burst_identically(self, observables):
        # A run(until=...) bound lands inside the burst window; the burst
        # handler must stop at the same packet the per-item schedule would.
        fast_sys, reducer, _ = wordcount_system(True, num_mappers=3)
        slow_sys, _, _ = wordcount_system(False, num_mappers=3)
        until = 2e-6  # mid-burst for 30 packets on the default link speed
        fast_events = fast_sys.run(until=until)
        slow_events = slow_sys.run(until=until)
        assert observables(fast_sys, reducer, fast_events) == observables(
            slow_sys, reducer, slow_events
        )
        # ... and finishing the run afterwards still converges identically.
        fast_events = fast_sys.run()
        slow_events = slow_sys.run()
        assert observables(fast_sys, reducer, fast_events) == observables(
            slow_sys, reducer, slow_events
        )


def sequenced_twin(
    fast: bool,
    *,
    fabric: str = "rack",
    num_mappers: int = 6,
    pairs_per_mapper: int = 2_000,
    loss_rate: float = 0.01,
    lossy: str = "all",
    loss_seed: int = 2017,
    policy: str = "exact",
    register_slots: int = 256,
    pairs_per_packet: int = 10,
    staggered: bool = False,
    ecn_threshold_bytes: int | None = None,
    switch_buffer_bytes: int | None = None,
):
    """A reliable wordcount round and the ACK stream each mapper hears.

    ``lossy`` names the links that drop: ``"all"``, ``"uplinks"`` (every
    host's link) or a host name (that host's link only). ``staggered``
    gives every other mapper a tenth of the pairs, so its repairs reach the
    switch while the long windows are still arriving.
    """
    hosts = num_mappers + 1
    if fabric == "rack":
        topology = single_rack(hosts)
    else:
        topology = leaf_spine(num_leaves=3, num_spines=2, hosts_per_leaf=-(-hosts // 3))
    host_names = {host.name for host in topology.hosts()}
    for link in topology.links:
        ends = {link.a.device, link.b.device}
        if lossy == "all" or (lossy == "uplinks" and ends & host_names) or lossy in ends:
            link.loss_rate = loss_rate
    config = DaietConfig(
        register_slots=register_slots,
        pairs_per_packet=pairs_per_packet,
        reliability=True,
        retransmit_timeout=1e-4,
        reliability_policy=policy,
    )
    system = DaietSystem(
        topology,
        config,
        SimulatorConfig(
            loss_seed=loss_seed,
            ecn_threshold_bytes=ecn_threshold_bytes,
            switch_buffer_bytes=switch_buffer_bytes,
        ),
    )
    if not fast:
        system.simulator._fast_burst = False
    mappers = [f"h{i}" for i in range(num_mappers)]
    reducer = f"h{num_mappers}"
    system.install_job(mappers=mappers, reducers=[reducer])
    acks: dict[str, list] = {mapper: [] for mapper in mappers}
    for mapper in mappers:
        receive = system.agent(mapper).receive

        def heard(packet, receive=receive, log=acks[mapper]):
            if isinstance(packet, DaietAck):
                log.append((system.simulator.now, packet.cumulative, packet.sack))
            receive(packet)

        system.simulator.host(mapper).set_receiver(heard)
    rng = random.Random(loss_seed)
    truth: dict[str, int] = {}
    for index, mapper in enumerate(mappers):
        size = pairs_per_mapper // 10 if staggered and index % 2 else pairs_per_mapper
        pairs = [(f"w{rng.randrange(300)}", rng.randrange(1, 9)) for _ in range(size)]
        for key, value in pairs:
            truth[key] = truth.get(key, 0) + value
        system.send_pairs(mapper, reducer, pairs)
    return system, reducer, truth, acks


@pytest.fixture()
def sequenced_observables(observables):
    """Everything a sequenced twin compares, beyond :func:`observables`."""

    def read(system: DaietSystem, reducer: str, events: int, acks: dict) -> dict:
        windows = {}
        for name, engine in system.controller.engines.items():
            for tree_id in sorted(engine.counters()):
                for src, window in engine.tree(tree_id)._seen.items():
                    windows[name, tree_id, src] = (
                        window.cumulative,
                        tuple(window.out_of_order),
                        window.end_seq,
                        window.since_ack,
                        window.edge,
                    )
        return {
            **observables(system, reducer, events),
            "windows": windows,
            "loss_rng": system.simulator._loss_rng.getstate(),
            "acks": {mapper: list(log) for mapper, log in acks.items()},
            "reliability": system.reliability_stats(),
        }

    return read


def _twins(sequenced_observables, until: float | None = None, **kwargs) -> list[dict]:
    """Run the fast and the stood-down twin; their observables, in that order."""
    results = []
    for fast in (True, False):
        system, reducer, truth, acks = sequenced_twin(fast, **kwargs)
        events = system.run(until=until)
        results.append(sequenced_observables(system, reducer, events, acks))
        if until is not None:
            events = system.run()
            results.append(sequenced_observables(system, reducer, events, acks))
        assert results[-1]["result"] == truth
    return results


def register_contents(system: DaietSystem) -> dict:
    """Every tree's key and value cells, pending kernel deltas folded in.

    Reads without materializing, so the run it inspects goes on unchanged.
    """
    contents = {}
    for name, engine in system.controller.engines.items():
        for tree_id in sorted(engine.counters()):
            state = engine.tree(tree_id)
            values = list(state.value_register._cells)
            if state._vec_mass:
                for slot in np.flatnonzero(state._vec_delta).tolist():
                    values[slot] += int(state._vec_delta[slot])
            contents[name, tree_id] = (list(state.key_register._cells), values)
    return contents


def _first_draws(predicate, count: int) -> int:
    """The first loss seed whose first ``count`` draws satisfy ``predicate``."""
    for seed in range(10_000):
        draw = random.Random(seed).random
        if predicate([draw() for _ in range(count)]):
            return seed
    raise AssertionError("no seed draws that pattern")


class TestSequencedWindowsEquivalence:
    """Reliable rounds: the kernel takes fresh sequenced DATA, lossy uplinks too."""

    def test_rack_with_loss_on_every_link(self, sequenced_observables):
        fast, slow = _twins(sequenced_observables)
        assert fast == slow
        assert sum(fast["traffic"]["stats"]["losses"].values()) > 5

    def test_leaf_spine_with_lossy_host_uplinks(self, sequenced_observables):
        fast, slow = _twins(
            sequenced_observables, fabric="leaf_spine", lossy="uplinks", loss_rate=0.02
        )
        assert fast == slow
        assert len(fast["counters"]) > 1  # leaves and the spine aggregate

    def test_sampled_policy_strides_the_cadence(self, sequenced_observables):
        fast, slow = _twins(sequenced_observables, policy="sampled")
        assert fast == slow
        assert fast["acks"]["h0"]

    @pytest.mark.parametrize("lost", ["first", "last"])
    def test_a_window_losing_its_first_or_last_data_packet(
        self, lost, sequenced_observables, monkeypatch
    ):
        # Only h0's link drops. Its window is the first thing on it: draw i
        # decides item i (200 DATA packets, then the END). Losing the last
        # DATA packet while the END arrives stashes the END until the
        # gap-fill completes the stream inside ``_process_data``.
        rate = 0.05
        n = 201
        if lost == "first":
            seed = _first_draws(lambda d: d[0] < rate, n)
        else:
            seed = _first_draws(
                lambda d: d[0] >= rate and d[n - 2] < rate and d[n - 1] >= rate, n
            )
        completed, in_data = [], []
        process_data = DaietAggregationEngine._process_data
        accept_end = DaietAggregationEngine._accept_end

        def data_spy(engine, state, packet):
            in_data.append(packet.src)
            try:
                return process_data(engine, state, packet)
            finally:
                in_data.pop()

        def end_spy(engine, state, src):
            if in_data:
                completed.append(src)
            return accept_end(engine, state, src)

        monkeypatch.setattr(DaietAggregationEngine, "_process_data", data_spy)
        monkeypatch.setattr(DaietAggregationEngine, "_accept_end", end_spy)
        fast, slow = _twins(
            sequenced_observables, lossy="h0", loss_rate=rate, loss_seed=seed
        )
        assert fast == slow
        if lost == "last":
            assert completed == ["h0", "h0"]  # once in each twin

    @pytest.mark.parametrize("loss_seed", [1, 2, 3])
    def test_repairs_land_among_other_windows(self, loss_seed, sequenced_observables):
        # Short windows end early, so their gap-fills, duplicates and ENDs
        # reach the switch between the long windows' items, and each one
        # must cut a batch exactly where a per-packet schedule puts it.
        fast, slow = _twins(
            sequenced_observables,
            staggered=True,
            num_mappers=8,
            loss_rate=0.05,
            loss_seed=loss_seed,
            register_slots=32,
            pairs_per_packet=4,
        )
        assert fast == slow
        short = ("h1", "h3", "h5", "h7")
        assert sum(fast["reliability"][host]["retransmissions"] for host in short) > 0

    def test_until_cuts_mid_window(self, sequenced_observables):
        # 200 packets of ~250 B per mapper take ~10 us on a 40 Gb/s uplink.
        fast_cut, fast_end, slow_cut, slow_end = _twins(sequenced_observables, until=5e-6)
        assert fast_cut == slow_cut
        assert fast_end == slow_end
        assert not fast_cut["done"]

    def test_event_cap_stops_between_whole_events(self, sequenced_observables, monkeypatch):
        # run() stops at MAX_EVENTS. A batch must not have applied items
        # whose events are still queued there: the cut leaves what that many
        # per-packet events leave, registers included, and the rest of the
        # run still converges.
        system, *_ = sequenced_twin(False)
        total = system.run()
        finished = []
        for cap in [total * k // 8 for k in range(1, 8)]:
            runs = []
            for fast in (True, False):
                system, reducer, _truth, acks = sequenced_twin(fast)
                monkeypatch.setattr("repro.netsim.simulator.MAX_EVENTS", cap)
                events = system.run()
                cut = sequenced_observables(system, reducer, events, acks)
                cut["registers"] = register_contents(system)
                monkeypatch.undo()
                events = system.run()
                runs.append((cut, sequenced_observables(system, reducer, events, acks)))
            assert runs[0] == runs[1], cap
            finished.append(runs[0][0]["done"])
        assert not finished[0]

    def test_collision_heavy_tree(self, sequenced_observables):
        fast, slow = _twins(
            sequenced_observables, register_slots=8, pairs_per_packet=4, loss_rate=0.02
        )
        assert fast == slow
        (counters,) = [c for (name, _tree), c in fast["counters"].items() if name == "tor"]
        assert counters.spillover_flushes > 50


class TestWhoTakesThePerPairLoop:
    def test_only_refused_arrivals_and_lone_retransmissions(self, monkeypatch):
        """On a lossy reliable rack ``_process_data`` runs for the DATA
        arrivals the kernel may not take (duplicates, gap-fills: not above
        the stream's high-water mark) and for retransmissions, which go out
        as packets and so with no plan. Every DATA arrival took it before."""
        calls: list[tuple[bool, int]] = []
        process_data = DaietAggregationEngine._process_data

        def spy(engine, state, packet):
            window = state._seen.get(packet.src)
            fresh = window is None or (
                packet.seq > window.high_water and window.end_seq is None and not packet.ecn
            )
            calls.append((fresh, id(packet)))
            return process_data(engine, state, packet)

        monkeypatch.setattr(DaietAggregationEngine, "_process_data", spy)
        counts = {}
        for fast in (False, True):
            calls.clear()
            system, reducer, truth, _acks = sequenced_twin(fast, num_mappers=8)
            resent: set[int] = set()
            for mapper in system.tree_for(reducer).mappers:
                channel = system.agent(mapper).sender(system.tree_for(reducer).tree_id)
                transmit = channel._transmit

                def spy_transmit(slots, retransmit, transmit=transmit):
                    if retransmit:
                        resent.update(id(window[index]) for window, index in slots)
                    transmit(slots, retransmit)

                channel._engine._emit = spy_transmit
            system.run()
            assert system.receiver(reducer).result() == truth
            refused = sum(1 for fresh, _id in calls if not fresh)
            lone = [ident for fresh, ident in calls if fresh]
            if fast:
                assert set(lone) <= resent
            counts[fast] = len(calls), refused, len(lone)
        (slow_calls, slow_refused, _), (fast_calls, fast_refused, fast_lone) = (
            counts[False],
            counts[True],
        )
        data_arrivals = slow_calls  # every one took the loop without bursts
        assert fast_refused == slow_refused
        assert fast_calls == slow_refused + fast_lone
        assert fast_calls < data_arrivals // 20


    def test_switch_flushes_ride_the_parents_kernel(self, monkeypatch):
        """On a lossy reliable leaf-spine round ``_process_data`` runs for an
        item of a child switch's flush only when the item crossed the link
        as its own queue entry (a spillover flush, a one-packet flush, a
        resend: the switch emitted it as a packet) or when its stream
        refuses it (a duplicate, a gap-fill, CE-marked, behind a stashed
        END). A fresh item of a flush the switch emitted as a window, and so
        put on the link as one burst entry, always rides the parent's
        register kernel; without bursts every item took the per-pair loop."""
        # What each switch put on its links: windows, and packets by id
        # (holding them keeps their ids from being reused).
        windows: dict[str, list] = {}
        alone: dict[int, DaietPacket] = {}
        count_emitted = SwitchDevice._count_emitted

        def spy_emitted(device, out):
            for _port, item in out:
                if type(item) is PacketWindow:
                    windows.setdefault(device.name, []).append(item)
                elif type(item) is DaietPacket:
                    alone[id(item)] = item
            return count_emitted(device, out)

        calls: list[tuple[bool, bool]] = []
        process_data = DaietAggregationEngine._process_data

        def spy(engine, state, packet):
            if packet.src in windows or id(packet) in alone:  # a switch's flush
                window_item = id(packet) not in alone and any(
                    built is packet
                    for window in windows.get(packet.src, ())
                    for built in window.built.values()
                )
                stream = state._seen.get(packet.src)
                refused = packet.ecn or (
                    stream is not None
                    and (packet.seq <= stream.high_water or stream.end_seq is not None)
                )
                calls.append((window_item, refused))
            return process_data(engine, state, packet)

        monkeypatch.setattr(SwitchDevice, "_count_emitted", spy_emitted)
        monkeypatch.setattr(DaietAggregationEngine, "_process_data", spy)
        counts = {}
        for fast in (False, True):
            windows.clear()
            alone.clear()
            calls.clear()
            system, reducer, truth, _acks = sequenced_twin(
                fast, fabric="leaf_spine", num_mappers=8, loss_rate=0.02, register_slots=256
            )
            system.run()
            assert system.receiver(reducer).result() == truth
            fresh_window_items = [c for c in calls if c[0] and not c[1]]
            if fast:
                assert fresh_window_items == []
                assert any(not item for item, _refused in calls)  # spillover flushes
                assert any(refused for _item, refused in calls)  # repairs
            counts[fast] = len(calls), len(fresh_window_items)
        tree = system.tree_for(reducer)
        multi_to_switch = [
            window
            for name, flushes in windows.items()
            if tree.node(tree.node(name).parent).is_switch
            for window in flushes
            if len(window) > 2
        ]
        assert multi_to_switch  # leaves flush multi-packet windows to the spine
        (slow_calls, slow_fresh), (fast_calls, _) = counts[False], counts[True]
        # The twins see the same losses, repairs and spillover flushes: the
        # fresh items of flush windows are all the kernel took over.
        assert slow_fresh > 0
        assert fast_calls == slow_calls - slow_fresh


class TestCeMarkedRetransmissions:
    def test_marked_data_is_resent_marked(self, sequenced_observables, monkeypatch):
        """A packet is built once: the simulator sets the CE bit on the live
        object, and what a retransmission resends is that object. Leaf
        flushes are marked on congested egress queues and then resent; the
        fast and the stood-down twin must agree on every register, counter,
        ACK stream and the result, and every mapper retransmission must
        resend the very packet its window built for that slot."""
        resent: dict[tuple[object, int], object] = {}
        emit = DaietAggregationEngine._emit_pairs
        flushed = []

        def spy_emit(engine, state, pairs, include_end, columns=None):
            emitted = emit(engine, state, pairs, include_end, columns)
            flushed.extend(out for _port, out in emitted)
            return emitted

        handle_ack = DaietAggregationEngine.handle_ack
        marked_resends = []

        def spy_ack(engine, ack):
            out = handle_ack(engine, ack)
            marked_resends.extend(p for _port, p in out if getattr(p, "ecn", False) and p.pairs)
            return out

        monkeypatch.setattr(DaietAggregationEngine, "_emit_pairs", spy_emit)
        monkeypatch.setattr(DaietAggregationEngine, "handle_ack", spy_ack)
        results = []
        for fast in (True, False):
            flushed.clear()
            marked_resends.clear()
            system, reducer, truth, acks = sequenced_twin(
                fast,
                fabric="leaf_spine",
                loss_rate=0.02,
                register_slots=32,
                pairs_per_packet=4,
                ecn_threshold_bytes=300,
            )
            tree_id = system.tree_for(reducer).tree_id
            for mapper in system.tree_for(reducer).mappers:
                engine = system.agent(mapper).sender(tree_id)._engine
                transmit = engine._emit

                def spy(slots, retransmit, transmit=transmit):
                    if retransmit:
                        for window, index in slots:
                            packet = window[index]
                            assert packet is window[index]
                            assert resent.setdefault((window, index), packet) is packet
                    transmit(slots, retransmit)

                engine._emit = spy
            events = system.run()
            observed = sequenced_observables(system, reducer, events, acks)
            observed["registers"] = register_contents(system)
            assert observed["result"] == truth
            results.append(observed)
            stats = observed["traffic"]["stats"]
            assert sum(stats["ecn_marked"].values()) > 0
            # A flush window builds a packet only to mark it (or for another
            # per-packet consumer): the marked ones are among those built.
            assert any(
                packet.ecn and packet.pairs
                for out in flushed
                for packet in (out.built.values() if type(out) is PacketWindow else [out])
            )
            assert marked_resends  # marked in flight, then resent as it is
        fast, slow = results
        assert fast == slow
        assert sum(r["retransmissions"] for r in fast["reliability"].values()) > 0
        assert resent


def _switch_links(system: DaietSystem) -> set[str]:
    """Names of the links between two switches."""
    switches = {device.name for device in system.simulator.topology.switches()}
    return {
        link.name
        for link in system.simulator.topology.links
        if {link.a.device, link.b.device} <= switches
    }


_DRAIN_COLUMNS = DaietAggregationEngine._drain_columns


def _multi_round_twin(fast: bool, rounds, monkeypatch, flushed: list, traffic_snapshot):
    """One reliable leaf-spine job, several rounds on the same install.

    ``rounds`` is one ``(values, lone)`` per round: ``values(rng)`` draws a
    value, and ``lone`` sends each mapper's pairs one packet per window (no
    plan: the per-pair loop claims the slots) instead of as one window.
    ``flushed`` collects ``(round, took the column flush)`` per final flush
    of a non-empty register file. Returns the observables after each round.
    """
    drain = _DRAIN_COLUMNS
    current = [0]

    def spy_drain(engine, state, spilled):
        occupied = len(state.index_stack.peek_all())
        columns = drain(engine, state, spilled)
        if occupied:
            flushed.append((current[0], columns is not None))
        return columns

    monkeypatch.setattr(DaietAggregationEngine, "_drain_columns", spy_drain)
    config = DaietConfig(
        register_slots=32, pairs_per_packet=4, reliability=True, retransmit_timeout=1e-4
    )
    topology = leaf_spine(num_leaves=3, num_spines=2, hosts_per_leaf=3)
    for link in topology.links:
        link.loss_rate = 0.01
    system = DaietSystem(topology, config, SimulatorConfig(loss_seed=11))
    if not fast:
        system.simulator._fast_burst = False
    mappers = [f"h{i}" for i in range(6)]
    system.install_job(mappers=mappers, reducers=["h6"])
    rng = random.Random(3)
    truth: dict = {}
    observed = []
    for index, (values, lone) in enumerate(rounds):
        current[0] = index
        for mapper in mappers:
            pairs = [(f"k{rng.randrange(40)}", values(rng)) for _ in range(24)]
            for key, value in pairs:
                truth[key] = truth.get(key, 0) + value
            if lone:
                for at in range(0, len(pairs), config.pairs_per_packet):
                    chunk = pairs[at : at + config.pairs_per_packet]
                    system.send_pairs(mapper, "h6", chunk, include_end=False)
                system.send_pairs(mapper, "h6", [], include_end=True)
            else:
                system.send_pairs(mapper, "h6", pairs)
        events = system.run()
        result = system.receiver("h6").result()
        assert result == truth
        observed.append(
            {
                "events": events,
                "now": system.simulator.now,
                "result": result,
                "traffic": traffic_snapshot(system.simulator),
                "registers": register_contents(system),
                "counters": {
                    (name, tree_id): engine.tree(tree_id).counters.snapshot()
                    for name, engine in system.controller.engines.items()
                    for tree_id in sorted(engine.counters())
                },
                "loss_rng": system.simulator._loss_rng.getstate(),
                "reliability": system.reliability_stats(),
            }
        )
    return observed


class TestKernelSpillWindows:
    def test_lost_spill_packets_are_resent_as_their_window_items(
        self, sequenced_observables, monkeypatch
    ):
        """The spillover flushes of one kernel call are the packets of one
        window, each leaving as its own queue entry. On a lossy reliable
        rack whose registers are small enough that a batch spills several
        flushes, a lost one is resent by ``handle_ack`` as the memoized
        ``window[j]``, CE bit and all, and the fast twin leaves registers,
        counters, ACK streams and the loss stream as the stood-down one."""
        spilled: dict[int, DaietPacket] = {}  # items of multi-flush windows, by id
        spill_columns = DaietAggregationEngine._spill_columns

        def spy_spill(engine, state, kids, vals, at):
            out = spill_columns(engine, state, kids, vals, at)
            for _pkt_i, _port, packet in out or ():
                window, index = state._sent.unacked[packet.seq]
                assert window[index] is packet
                if len(window) > 1:
                    spilled[id(packet)] = packet
            return out

        resent: list[DaietPacket] = []
        handle_ack = DaietAggregationEngine.handle_ack

        def spy_ack(engine, ack):
            out = handle_ack(engine, ack)
            resent.extend(p for _port, p in out if type(p) is DaietPacket)
            return out

        monkeypatch.setattr(DaietAggregationEngine, "_spill_columns", spy_spill)
        monkeypatch.setattr(DaietAggregationEngine, "handle_ack", spy_ack)
        results = []
        for fast in (True, False):
            spilled.clear()
            resent.clear()
            system, reducer, truth, acks = sequenced_twin(
                fast,
                register_slots=8,
                pairs_per_packet=4,
                loss_rate=0.03,
                ecn_threshold_bytes=300,
            )
            events = system.run()
            observed = sequenced_observables(system, reducer, events, acks)
            observed["registers"] = register_contents(system)
            assert observed["result"] == truth
            results.append(observed)
            if fast:
                resent_spills = [p for p in resent if id(p) in spilled]
                assert resent_spills  # lost, then resent as the very packet
                assert any(packet.ecn for packet in resent_spills)  # marked, and kept
                assert sum(observed["traffic"]["stats"]["ecn_marked"].values()) > 0
        fast, slow = results
        assert fast == slow


class TestSwitchFlushWindows:
    """A flush leaves its switch as one window: twins against per-packet delivery."""

    def test_congested_flush_windows_are_marked_and_tail_dropped(self, sequenced_observables):
        # Leaf flushes queue on the leaf -> spine egress: past the ECN
        # threshold their items are CE-marked (built and marked in the
        # window loop, then refused by the spine's kernel), past the buffer
        # they are tail-dropped out of the plan and recovered by reliability.
        results = []
        for fast in (True, False):
            system, reducer, truth, acks = sequenced_twin(
                fast,
                fabric="leaf_spine",
                loss_rate=0.0,
                ecn_threshold_bytes=500,
                switch_buffer_bytes=4_000,
            )
            events = system.run()
            observed = sequenced_observables(system, reducer, events, acks)
            observed["registers"] = register_contents(system)
            assert observed["result"] == truth
            results.append(observed)
            stats = observed["traffic"]["stats"]
            trunks = _switch_links(system)
            assert sum(stats["queue_drops"].get(name, 0) for name in trunks) > 0
            assert sum(stats["ecn_marked"].get(name, 0) for name in trunks) > 0
        fast, slow = results
        assert fast == slow

    def test_slots_change_hands_across_rounds(self, monkeypatch, traffic_snapshot):
        # The kid the final flush reads for a slot is that of whatever
        # claimed it this round: the per-pair loop (one-packet windows), the
        # kernel (a window), or nothing the columns can hold (float values:
        # the fallback walk). No kid may outlive its round.
        def ints(rng):
            return rng.randrange(-9, 9)

        def halves(rng):
            return rng.randrange(-9, 9) / 2

        rounds = [(ints, True), (ints, False), (halves, False), (ints, False), (ints, True)]
        flushed = {True: [], False: []}
        fast = _multi_round_twin(True, rounds, monkeypatch, flushed[True], traffic_snapshot)
        slow = _multi_round_twin(False, rounds, monkeypatch, flushed[False], traffic_snapshot)
        assert fast == slow
        assert flushed[True] == flushed[False]
        by_round = {}
        for index, columns in flushed[True]:
            by_round.setdefault(index, set()).add(columns)
        assert by_round == {0: {True}, 1: {True}, 2: {False}, 3: {True}, 4: {True}}

    def test_float_and_bool_values_take_the_fallback_flush(self, monkeypatch, traffic_snapshot):
        def mixed(rng):
            return rng.choice([True, False, 0.5, 2, -1.5])

        flushed = {True: [], False: []}
        rounds = [(mixed, False)]
        fast = _multi_round_twin(True, rounds, monkeypatch, flushed[True], traffic_snapshot)
        slow = _multi_round_twin(False, rounds, monkeypatch, flushed[False], traffic_snapshot)
        assert fast == slow
        assert flushed[True] == flushed[False]
        assert flushed[True] and not any(columns for _round, columns in flushed[True])
