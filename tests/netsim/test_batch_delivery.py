"""Twin-run equivalence for burst delivery, the one vectorized way into a switch.

``switch-burst-delivery``: a whole window rides ONE queue entry carrying a
precomputed :class:`~repro.core.packet.BurstPlan`; the handler merges concurrent bursts by
``(time, seq)`` and feeds the pair arrays straight into the vectorized
register kernel. A mapper's send window and a child switch's flush window
ride it alike. Sequenced windows ride it as unsequenced ones do, over lossy
links too: the link's loss draws (and, on a congested switch egress, its
tail drops) drop items from the plan, and the kernel takes every DATA packet
its stream admits (fresh: above the stream's high-water mark, not CE-marked,
no END stashed). A DATA packet that arrives alone (a spillover flush, a
one-packet flush, a retransmission) heads or joins a batch by the same
rule, while duplicates, gap-fills, ENDs and ACKs go one by one through the
compiled per-packet sink, their pairs through the kernel as a call of one.

Standing burst delivery down on the test side (:func:`burst_delivery`: no
window is planned, so no burst entry is ever queued, no lone packet starts
a batch, and the register walk of ``tests/core/register_walk_model.py``
stands in for the kernel) must
change *nothing* observable: aggregation results, every traffic counter,
per-tree counters, every stream window, event totals, simulated time, the
loss stream's state and the ACKs each mapper hears, in order and in time.
The twins so compare two implementations of Algorithm 1, not the kernel
with itself. Attaching an observer stands nothing down: it changes which
hooks the sinks call, not which code a window runs.
"""

from __future__ import annotations

import random
import re
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro.analysis.error_bounds import install_error_tracker
from repro.core.aggregation import DaietAggregationEngine, WindowBatch
from repro.core.config import DaietConfig
from repro.core.daiet import DaietSystem
from repro.core.errors import PacketFormatError, ResourceExhaustedError
from repro.core.functions import aggregate_pairs, get as get_function
from repro.core.packet import DaietAck, DaietPacket, PacketWindow, packetize_pairs, steer_ops
from repro.dataplane import switch as switch_module
from repro.dataplane.resources import SwitchResources
from repro.netsim.devices import SwitchDevice
from repro.netsim.faults import SWITCH_RESTART, FaultEvent, FaultPlan, install_faults
from repro.netsim.simulator import SimulatorConfig
from repro.netsim.topology import leaf_spine, single_rack

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "core"))
from register_walk_model import walk_pairs  # noqa: E402


@contextmanager
def burst_delivery(fast: bool):
    """Burst delivery and the register kernel as shipped (``fast``), or
    stood down for the block.

    ``PacketWindow.burst_plan()`` is asked only by ``send_burst`` and a
    switch's flush transmit, so with it answering ``None`` every window is
    planless: every packet is its own queue entry. With
    ``start_packet_batch`` answering ``None`` no such packet starts a batch
    either, and every one takes the per-packet sink. There each packet's
    pairs reach ``_vector_apply``, which the pair-by-pair model replaces
    for the block. Build and run a twin inside the block; a spy on the
    kernel goes on before it.
    """
    with pytest.MonkeyPatch.context() as patch:
        if not fast:
            patch.setattr(PacketWindow, "burst_plan", lambda self: None)
            patch.setattr(
                DaietAggregationEngine, "start_packet_batch", lambda *_args: None
            )
            patch.setattr(DaietAggregationEngine, "_vector_apply", walk_pairs)
        yield


def wordcount_system(
    num_mappers: int = 6,
    pairs_per_mapper: int = 300,
    vocabulary: int = 80,
    reliability: bool = False,
    seed: int = 2017,
    fabric: str = "rack",
    config: DaietConfig | None = None,
    function: str = "sum",
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
    mappers = [f"h{i}" for i in range(num_mappers)]
    reducer = f"h{num_mappers}"
    system.install_job(mappers=mappers, reducers=[reducer], function=function)
    rng = random.Random(seed)
    sent = []
    for mapper in mappers:
        pairs = [
            (f"word{rng.randrange(vocabulary)}", rng.randrange(-50, 50))
            for _ in range(pairs_per_mapper)
        ]
        sent += pairs
        system.send_pairs(mapper, reducer, pairs)
    return system, reducer, aggregate_pairs(sent, get_function(function))


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
        runs = []
        for fast in (True, False):
            with burst_delivery(fast):
                system, reducer, truth = wordcount_system(reliability=reliability, fabric=fabric)
                runs.append(observables(system, reducer, system.run()))
        fast_obs, slow_obs = runs
        assert fast_obs == slow_obs
        assert fast_obs["result"] == truth
        if fabric == "leaf_spine":
            assert len(fast_obs["counters"]) > 1  # the tree really has two levels

    @pytest.mark.parametrize("function", ["count", "min"])
    def test_every_function_takes_the_kernel(self, function, observables, monkeypatch):
        # A COUNT job and a MIN job take burst delivery and the register
        # kernel like a SUM job, and leave what their twin leaves: burst
        # delivery stood down and the pair-by-pair model for the kernel.
        calls = []
        vector_apply = DaietAggregationEngine._vector_apply

        def counted(engine, *args):
            calls.append(engine.switch_name)
            return vector_apply(engine, *args)

        monkeypatch.setattr(DaietAggregationEngine, "_vector_apply", counted)
        config = DaietConfig(register_slots=32, pairs_per_packet=10)
        runs = []
        for fast in (True, False):
            calls.clear()
            with burst_delivery(fast):
                system, reducer, truth = wordcount_system(
                    fabric="leaf_spine", config=config, function=function
                )
                runs.append(observables(system, reducer, system.run()))
                runs[-1]["kernel_calls"] = len(calls)
        fast_obs, slow_obs = runs
        assert fast_obs.pop("kernel_calls") > 0
        assert slow_obs.pop("kernel_calls") == 0
        assert fast_obs == slow_obs
        assert fast_obs["result"] == truth
        assert sum(c.collisions for c in fast_obs["counters"].values()) > 0

    def test_a_window_at_the_op_budget_is_batched_and_one_over_raises(
        self, monkeypatch, observables
    ):
        # The plan's max_cost and a steered packet's op_cost() read one rule
        # (steer_ops): a DATA packet of ten pairs costs 3 + 10, so a switch
        # whose budget is exactly that batches the windows, and one an op
        # short refuses the head, which then raises from the per-packet path.
        ops = steer_ops(10)
        taken = []
        take = WindowBatch.take
        monkeypatch.setattr(
            WindowBatch, "take", lambda batch, merged: taken.append(batch) or take(batch, merged)
        )

        def budgeted(max_ops: int):
            with monkeypatch.context() as patch:
                patch.setattr(
                    switch_module,
                    "SwitchResources",
                    lambda: SwitchResources(max_ops_per_packet=max_ops),
                )
                return wordcount_system()

        runs = []
        for fast in (True, False):
            with burst_delivery(fast):
                system, reducer, truth = budgeted(ops)
                runs.append(observables(system, reducer, system.run()))
        fast_obs, slow_obs = runs
        assert fast_obs == slow_obs
        assert fast_obs["result"] == truth
        assert taken
        taken.clear()
        for fast in (True, False):
            with burst_delivery(fast):
                system, _, _ = budgeted(ops - 1)
                with pytest.raises(
                    ResourceExhaustedError, match=re.escape(f"({ops} > {ops - 1})")
                ):
                    system.run()
        assert taken == []

    def test_calendar_backend_identical(self, monkeypatch, observables):
        # The burst handler looks at and takes queue heads through the
        # scheduler's own interface; on the calendar backend that must give
        # the same run as the heap twin. Spillover flushes are pushed while
        # the handler holds a peeked head, so tiny registers are used.
        config = DaietConfig(register_slots=8, pairs_per_packet=4)
        runs = []
        for fast in (True, False):
            with burst_delivery(fast):
                with monkeypatch.context() as patch:
                    if fast:
                        patch.setattr("repro.netsim.events.CALENDAR_THRESHOLD", 1)
                    system, reducer, truth = wordcount_system(config=config)
                events = system.run()
                assert system.simulator.scheduler.calendar_active is fast
                runs.append(observables(system, reducer, events))
        fast_obs, slow_obs = runs
        assert fast_obs == slow_obs
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
        with burst_delivery(fast):
            system = DaietSystem.single_rack(num_hosts=4, config=config)
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

    def test_values_at_the_field_edges_identical(self, observables):
        # The packetizer refuses bool values on both twins, so every DATA
        # item is the kernel's; values at the edges of the 4-byte field are
        # held exactly on both.
        config = DaietConfig(register_slots=32, pairs_per_packet=2)
        results = []
        for fast in (True, False):
            with burst_delivery(fast):
                system = DaietSystem.single_rack(num_hosts=3, config=config)
                system.install_job(mappers=["h0", "h1"], reducers=["h2"])
                with pytest.raises(PacketFormatError, match="value True is a bool"):
                    system.send_pairs("h0", "h2", [("a", 1), ("b", True)])
                for mapper, top, bottom in (
                    ("h0", 2**31 - 1, -(2**31)),
                    ("h1", -(2**31), 2**31 - 1),
                ):
                    # Sums pass the edges on the way; the flushed ones fit.
                    system.send_pairs(
                        mapper, "h2", [("a", 1), ("b", top), ("a", 2), ("c", bottom), ("b", 3)]
                    )
                events = system.run()
                results.append(observables(system, "h2", events))
        assert results[0] == results[1]
        assert results[0]["result"] == {"a": 6, "b": 5, "c": -1}

    def test_until_bound_cuts_burst_identically(self, observables):
        # A run(until=...) bound lands inside the burst window; the burst
        # handler must stop at the same packet the per-item schedule would.
        until = 2e-6  # mid-burst for 30 packets on the default link speed
        runs = []
        for fast in (True, False):
            with burst_delivery(fast):
                system, reducer, _ = wordcount_system(num_mappers=3)
                cut = observables(system, reducer, system.run(until=until))
                # ... and finishing the run afterwards still converges.
                runs.append((cut, observables(system, reducer, system.run())))
        (fast_cut, fast_end), (slow_cut, slow_end) = runs
        assert fast_cut == slow_cut
        assert fast_end == slow_end


def sequenced_twin(
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

    Build and run it inside :func:`burst_delivery`.

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
        with burst_delivery(fast):
            system, reducer, truth, acks = sequenced_twin(**kwargs)
            events = system.run(until=until)
            results.append(sequenced_observables(system, reducer, events, acks))
            if until is not None:
                events = system.run()
                results.append(sequenced_observables(system, reducer, events, acks))
        assert results[-1]["result"] == truth
    return results


def register_contents(system: DaietSystem) -> dict:
    """Every tree's key and value registers."""
    contents = {}
    for name, engine in system.controller.engines.items():
        for tree_id in sorted(engine.counters()):
            state = engine.tree(tree_id)
            contents[name, tree_id] = (
                state.key_register.tolist(),
                state.value_register.tolist(),
            )
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
        with burst_delivery(False):
            system, *_ = sequenced_twin()
            total = system.run()
        finished = []
        for cap in [total * k // 8 for k in range(1, 8)]:
            runs = []
            for fast in (True, False):
                with burst_delivery(fast):
                    system, reducer, _truth, acks = sequenced_twin()
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


class TestOneRegisterWalker:
    def test_every_pair_a_switch_receives_reaches_the_kernel(self, monkeypatch):
        """A lossy reliable leaf-spine round with small registers: windows,
        lone packets, retransmissions, gap-fills and collisions all occur,
        and every pair a tree counts as received went through the register
        kernel. (At the parent of the change that added this test the
        per-pair walk took every DATA packet that arrived alone.)"""
        handed = []
        vector_apply = DaietAggregationEngine._vector_apply

        def counted(engine, state, kids, vals, n, bounds):
            handed.append(len(kids))
            return vector_apply(engine, state, kids, vals, n, bounds)

        gap_fills = []
        process_data = DaietAggregationEngine._process_data

        def spy(engine, state, packet):
            stream = state._seen.get(packet.src)
            behind = stream is not None and packet.seq is not None and packet.seq < stream.high_water
            duplicates = state.counters.duplicate_packets
            out = process_data(engine, state, packet)
            gap_fills.append(behind and state.counters.duplicate_packets == duplicates)
            return out

        monkeypatch.setattr(DaietAggregationEngine, "_vector_apply", counted)
        monkeypatch.setattr(DaietAggregationEngine, "_process_data", spy)
        with burst_delivery(True):
            system, reducer, truth, _acks = sequenced_twin(
                fabric="leaf_spine", num_mappers=8, loss_rate=0.02, register_slots=32
            )
            system.run()
        assert system.receiver(reducer).result() == truth
        counters = [
            engine.tree(tree_id).counters
            for engine in system.controller.engines.values()
            for tree_id in engine.counters()
        ]
        assert sum(c.retransmitted_packets for c in counters) > 0
        assert sum(c.collisions for c in counters) > 0
        assert any(gap_fills) and not all(gap_fills)
        assert sum(handed) == sum(c.pairs_received for c in counters)


def spy_lone_members(monkeypatch) -> list:
    """Record every lone packet a batch takes (``WindowBatch.take``)."""
    taken: list = []
    take = WindowBatch.take

    def spy(batch, merged):
        counts, nbytes, emitted = take(batch, merged)
        lone = counts[len(batch.plans) :]
        taken.extend(packet for packet, count in zip(batch.packets, lone) if count)
        return counts, nbytes, emitted

    monkeypatch.setattr(WindowBatch, "take", spy)
    return taken


class TestWhoArrivesAlone:
    def test_only_refused_arrivals(self, monkeypatch):
        """On a lossy reliable rack ``_process_data`` runs only for the DATA
        arrivals a batch may not take (duplicates, gap-fills: not above the
        stream's high-water mark). A fresh arrival rides a batch whether it
        is a window's item or arrives alone (a retransmission goes out as a
        packet, with no plan: see :class:`TestLonePacketsJoinBatches`).
        Without bursts every DATA arrival takes ``_process_data``. (Before
        lone packets joined batches, a fresh lone retransmission took it
        too.)"""
        calls: list[bool] = []
        process_data = DaietAggregationEngine._process_data

        def spy(engine, state, packet):
            window = state._seen.get(packet.src)
            calls.append(
                window is None
                or (packet.seq > window.high_water and window.end_seq is None and not packet.ecn)
            )
            return process_data(engine, state, packet)

        monkeypatch.setattr(DaietAggregationEngine, "_process_data", spy)
        counts = {}
        for fast in (False, True):
            calls.clear()
            with burst_delivery(fast):
                system, reducer, truth, _acks = sequenced_twin(num_mappers=8)
                system.run()
            assert system.receiver(reducer).result() == truth
            counts[fast] = len(calls), calls.count(False), calls.count(True)
        (slow_calls, slow_refused, slow_fresh), (fast_calls, fast_refused, fast_fresh) = (
            counts[False],
            counts[True],
        )
        data_arrivals = slow_calls  # every one took the loop without bursts
        assert slow_fresh > 0 and slow_refused > 0
        assert fast_fresh == 0
        assert fast_calls == fast_refused == slow_refused
        assert fast_calls < data_arrivals // 20

    def test_switch_flushes_ride_the_parents_kernel(self, monkeypatch):
        """On a lossy reliable leaf-spine round ``_process_data`` runs for an
        item of a child switch's flush only when its stream refuses it (a
        duplicate, a gap-fill, CE-marked, behind a stashed END). A fresh
        item rides the parent's register kernel whether the switch emitted
        it in a window (one burst entry on the link) or as a packet of its
        own (a spillover flush, a one-packet flush, a resend: a queue entry
        each); without bursts every item arrived alone and took
        ``_process_data``. (Before lone packets joined batches, the fresh
        ones the switch emitted as packets took it too.)"""
        # What each switch put on its links: windows, and packets by id
        # (holding them keeps their ids from being reused).
        windows: dict[str, list] = {}
        alone: dict[int, DaietPacket] = {}
        count_emitted = SwitchDevice.count_emitted

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
                stream = state._seen.get(packet.src)
                refused = packet.ecn or (
                    stream is not None
                    and (packet.seq <= stream.high_water or stream.end_seq is not None)
                )
                calls.append((id(packet) in alone, refused))
            return process_data(engine, state, packet)

        monkeypatch.setattr(SwitchDevice, "count_emitted", spy_emitted)
        monkeypatch.setattr(DaietAggregationEngine, "_process_data", spy)
        batched = spy_lone_members(monkeypatch)
        counts = {}
        for fast in (False, True):
            windows.clear()
            alone.clear()
            calls.clear()
            batched.clear()
            with burst_delivery(fast):
                system, reducer, truth, _acks = sequenced_twin(
                    fabric="leaf_spine", num_mappers=8, loss_rate=0.02, register_slots=256
                )
                system.run()
            assert system.receiver(reducer).result() == truth
            fresh = [c for c in calls if not c[1]]
            if fast:
                assert fresh == []
                assert any(refused for _lone, refused in calls)  # repairs
                # the switches' lone flushes reach the parent's kernel
                assert any(id(packet) in alone for packet in batched)
            else:
                assert any(lone for lone, _refused in calls if not _refused)
            counts[fast] = len(calls), len(fresh)
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
        # The twins see the same losses, repairs and spillover flushes: every
        # fresh item is what the kernel took over.
        assert slow_fresh > 0
        assert fast_calls == slow_calls - slow_fresh

    def test_no_fresh_lone_arrival_takes_process_data(self, monkeypatch, observables):
        """An unsequenced leaf-spine round with small registers: the
        leaves' spillover flushes reach the spine as lone packets, and not
        one reaches ``_process_data``; the stood-down twin sends every DATA
        arrival there."""
        config = DaietConfig(register_slots=16, pairs_per_packet=4)
        process_data = DaietAggregationEngine._process_data
        calls: list[str] = []

        def spy(engine, state, packet):
            calls.append(engine.switch_name)
            return process_data(engine, state, packet)

        monkeypatch.setattr(DaietAggregationEngine, "_process_data", spy)
        batched = spy_lone_members(monkeypatch)
        runs = {}
        for fast in (True, False):
            calls.clear()
            batched.clear()
            with burst_delivery(fast):
                system, reducer, truth = wordcount_system(fabric="leaf_spine", config=config)
                runs[fast] = observables(system, reducer, system.run())
            runs[fast]["process_data"] = len(calls)
            runs[fast]["lone_batched"] = len(batched)
            assert runs[fast]["result"] == truth
        assert runs[True].pop("process_data") == 0
        assert runs[False].pop("process_data") > 0
        assert runs[True].pop("lone_batched") > 0
        assert runs[False].pop("lone_batched") == 0
        assert runs[True] == runs[False]


class TestLonePacketsJoinBatches:
    """A packet that arrives at a switch alone may head a batch or join one."""

    @pytest.mark.parametrize(
        "fabric, loss_rate, lossy",
        [("leaf_spine", 0.0, "all"), ("leaf_spine", 0.02, "uplinks"), ("rack", 0.01, "all")],
    )
    def test_twins_identical(self, fabric, loss_rate, lossy, sequenced_observables, monkeypatch):
        # Small registers: the leaves' spillover flushes reach the spine as
        # lone packets. Registers are compared mid-round and at the end.
        batched = spy_lone_members(monkeypatch)
        runs = []
        for fast in (True, False):
            batched.clear()
            with burst_delivery(fast):
                system, reducer, truth, acks = sequenced_twin(
                    fabric=fabric, num_mappers=8, loss_rate=loss_rate, lossy=lossy,
                    register_slots=32,
                )
                cut = sequenced_observables(system, reducer, system.run(until=8e-6), acks)
                cut["registers"] = register_contents(system)
                end = sequenced_observables(system, reducer, system.run(), acks)
                end["registers"] = register_contents(system)
            runs.append((cut, end, len(batched)))
            assert end["result"] == truth
        (fast_cut, fast_end, fast_lone), (slow_cut, slow_end, slow_lone) = runs
        assert fast_cut == slow_cut
        assert fast_end == slow_end
        assert slow_lone == 0
        if fabric == "leaf_spine":
            assert fast_lone > 0

    def test_a_fresh_lone_resend_rides_a_batch(self, sequenced_observables, monkeypatch):
        # Only h0's link drops, and it drops h0's last DATA packet and its
        # END: nothing above the stream's high-water mark arrives, so the
        # timeout's resend of that DATA packet is fresh. It goes out as a
        # packet of its own and is taken by a batch, not by _process_data.
        rate, n = 0.05, 201
        seed = _first_draws(lambda d: d[n - 2] < rate and d[n - 1] < rate, n)
        batched = spy_lone_members(monkeypatch)
        runs = []
        for fast in (True, False):
            batched.clear()
            with burst_delivery(fast):
                system, reducer, truth, acks = sequenced_twin(
                    lossy="h0", loss_rate=rate, loss_seed=seed
                )
                runs.append(sequenced_observables(system, reducer, system.run(), acks))
            assert runs[-1]["result"] == truth
            taken = [(packet.src, packet.seq) for packet in batched]
            assert (("h0", n - 2) in taken) is fast
        assert runs[0] == runs[1]

    def test_a_resend_that_is_the_queued_packet_itself(self, traffic_snapshot, monkeypatch):
        """A window memoises its packets, so a resend can be the very object
        still queued at the switch. A batch marks what it took by queue key:
        the second copy joins the first one's batch, which its stream cuts
        there; it then arrives as a duplicate and is counted as one, as
        without batches."""
        config = DaietConfig(register_slots=64, pairs_per_packet=4, reliability=True)
        takes = []
        take = WindowBatch.take

        def spy(batch, merged):
            counts, nbytes, emitted = take(batch, merged)
            takes.append(([packet.seq for packet in batch.packets], counts))
            return counts, nbytes, emitted

        monkeypatch.setattr(WindowBatch, "take", spy)
        runs = []
        for fast in (True, False):
            with burst_delivery(fast):
                system = DaietSystem.single_rack(num_hosts=3, config=config)
                system.install_job(mappers=["h0", "h1"], reducers=["h2"])
                sim = system.simulator
                heard = []
                sim.host("h0").set_receiver(lambda ack: heard.append((sim.now, ack)))
                window = packetize_pairs(
                    [(f"k{i}", i) for i in range(12)],
                    tree_id=system.tree_for("h2").tree_id, src="h0", dst="h2",
                    config=config, include_end=False, seq_start=0,
                )
                for index in (0, 0, 1, 2):
                    sim.send("h0", window[index])
                events = system.run()
            (counters,) = system.controller.engines["tor"].counters().values()
            runs.append(
                (events, counters, heard, register_contents(system), traffic_snapshot(sim))
            )
            assert counters.duplicate_packets == 1
            assert counters.packets_received == 4
        assert takes == [([0, 0, 1, 2], [1, 0, 0, 0]), ([1, 2], [1, 1])]
        assert runs[0] == runs[1]


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

        def spy_emit(engine, state, include_end, kids, vals):
            emitted = emit(engine, state, include_end, kids, vals)
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
            with burst_delivery(fast):
                system, reducer, truth, acks = sequenced_twin(
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
    plan: kernel calls of one claim the slots) instead of as one window.
    ``flushed`` collects the round of each final flush of a non-empty
    register file (every one is cut from the registers' columns). Returns
    the observables after each round.
    """
    drain = _DRAIN_COLUMNS
    current = [0]

    def spy_drain(engine, state):
        if state.index_stack.peek_all():
            flushed.append(current[0])
        return drain(engine, state)

    monkeypatch.setattr(DaietAggregationEngine, "_drain_columns", spy_drain)
    config = DaietConfig(
        register_slots=32, pairs_per_packet=4, reliability=True, retransmit_timeout=1e-4
    )
    topology = leaf_spine(num_leaves=3, num_spines=2, hosts_per_leaf=3)
    for link in topology.links:
        link.loss_rate = 0.01
    with burst_delivery(fast):
        system = DaietSystem(topology, config, SimulatorConfig(loss_seed=11))
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
            with burst_delivery(fast):
                system, reducer, truth, acks = sequenced_twin(
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
            with burst_delivery(fast):
                system, reducer, truth, acks = sequenced_twin(
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
        # claimed it this round: a lone packet (one-packet windows) or a
        # window, with small values or ones near the field's
        # edge. No kid may outlive its round.
        def ints(rng):
            return rng.randrange(-9, 9)

        def wide(rng):
            # At most 2**26 each: no flushed sum of a round leaves the field.
            return rng.randrange(-(2**26), 2**26)

        rounds = [(ints, True), (ints, False), (wide, False), (wide, True), (ints, True)]
        flushed = {True: [], False: []}
        fast = _multi_round_twin(True, rounds, monkeypatch, flushed[True], traffic_snapshot)
        slow = _multi_round_twin(False, rounds, monkeypatch, flushed[False], traffic_snapshot)
        assert fast == slow
        assert flushed[True] == flushed[False]
        assert set(flushed[True]) == {0, 1, 2, 3, 4}

    @pytest.mark.parametrize("value", [True, False, 0.5, -1.5])
    def test_float_and_bool_values_are_refused_at_send(self, value):
        # The packetizer refuses the partition on both twins, before
        # anything is sent.
        config = DaietConfig(
            register_slots=32, pairs_per_packet=4, reliability=True, retransmit_timeout=1e-4
        )
        for fast in (True, False):
            with burst_delivery(fast):
                topology = leaf_spine(num_leaves=3, num_spines=2, hosts_per_leaf=3)
                system = DaietSystem(topology, config)
                system.install_job(mappers=["h0", "h1"], reducers=["h6"])
                with pytest.raises(PacketFormatError, match="values are int"):
                    system.send_pairs("h0", "h6", [("k0", 2), ("k1", value)])
                assert system.run() == 0
                assert system.simulator.stats.total_link_packets() == 0


class TestChurnOnTheKernel:
    """Fault-injected, error-tracked rounds take burst delivery and the kernel.

    The fault injector's vetoes are asked once per window and once per
    batch, so a churn round with the error tracker attached runs the code a
    plain round runs, and must leave what its stood-down twin leaves.
    """

    @staticmethod
    def churn_round(fast: bool, policy: str, faults: bool, traffic_snapshot, until=None):
        """A leaf-spine wordcount with the error tracker attached and, with
        ``faults``, leaf1 crashed and restarted mid-round and the tree's
        leaf0 uplink flapped (times are fractions of ``until``, the
        fault-free completion time). Returns the observables and the
        number of register-kernel calls."""
        kernel_calls = []
        vector_apply = DaietAggregationEngine._vector_apply

        def counted(engine, *args):
            kernel_calls.append(engine.switch_name)
            return vector_apply(engine, *args)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(DaietAggregationEngine, "_vector_apply", counted)
            with burst_delivery(fast):
                config = DaietConfig(
                    register_slots=64,
                    pairs_per_packet=10,
                    reliability=True,
                    retransmit_timeout=1e-4,
                    reliability_policy=policy,
                )
                topology = leaf_spine(num_leaves=3, num_spines=2, hosts_per_leaf=3)
                system = DaietSystem(topology, config, SimulatorConfig(loss_seed=7))
                mappers = [f"h{i}" for i in range(6)]
                system.install_job(mappers=mappers, reducers=["h6"])
                sim = system.simulator
                injector = None
                if faults:
                    (spine,) = [
                        node.name
                        for node in system.tree_for("h6").switches()
                        if node.name.startswith("spine")
                    ]
                    plan = FaultPlan([FaultEvent(0.5 * until, SWITCH_RESTART, "leaf1")])
                    plan.switch_crash(0.05 * until, "leaf1")
                    plan.link_flap(0.03 * until, "leaf0", spine, duration=0.05 * until)
                    injector = install_faults(sim, plan)
                tracker = install_error_tracker(system)
                rng = random.Random(2017)
                for mapper in mappers:
                    pairs = [(f"w{rng.randrange(300)}", rng.randrange(1, 9)) for _ in range(2_000)]
                    system.send_pairs(mapper, "h6", pairs)
                events = system.run()
        observed = {
            "events": events,
            "now": sim.now,
            "result": system.receiver("h6").result(),
            "traffic": traffic_snapshot(sim),
            "fault_drops": dict(sim.stats.fault_drops),
            "ledgers": dict(tracker.ledgers),
            "bounds": {tree_id: tracker.bound(tree_id) for tree_id in sorted(tracker.ledgers)},
            "log": None if injector is None else list(injector.log),
        }
        return observed, kernel_calls

    @pytest.mark.parametrize("policy", ["best_effort", "sampled"])
    def test_crash_restart_and_flap_identical(self, policy, traffic_snapshot):
        fault_free, _calls = self.churn_round(True, policy, False, traffic_snapshot)
        until = fault_free["now"]
        fast, fast_calls = self.churn_round(True, policy, True, traffic_snapshot, until)
        slow, slow_calls = self.churn_round(False, policy, True, traffic_snapshot, until)
        assert fast == slow
        assert len(fast["log"]) == 4  # crash, restart, link down, link up
        assert sum(fast["fault_drops"].values()) > 0
        assert fast["result"] != fault_free["result"]  # the crash cost mass
        assert any(ledger.wiped_pairs for ledger in fast["ledgers"].values())
        # The batched arm applied windows with the kernel; the stood-down
        # arm never called it (the model stood in).
        assert len(fast_calls) > 0
        assert slow_calls == []

