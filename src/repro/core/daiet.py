"""High-level DAIET facade: the one host-side DAIET stack.

:class:`DaietSystem` wires together a topology, the network simulator, the
DAIET controller and the host shim (:meth:`DaietSystem.send_pairs` on
mappers, a :class:`DaietReceiver` on every reducer, one reliability agent per
host when ``config.reliability`` is on), so that an application can offload
its aggregation with a handful of calls:

>>> system = DaietSystem.single_rack(num_hosts=4)
>>> job = system.install_job(mappers=["h0", "h1", "h2"], reducers=["h3"])
>>> len(system.send_pairs("h0", "h3", [("ant", 1), ("bee", 2)]))  # DATA + END
2
>>> _ = system.send_pairs("h1", "h3", [("ant", 5)])
>>> _ = system.send_pairs("h2", "h3", [("cat", 7)])
>>> system.run() > 0  # events processed
True
>>> system.receiver("h3").result()
{'bee': 2, 'cat': 7, 'ant': 6}

The facade builds its own simulator by default. An application that already
owns one (the MapReduce cluster, shared with the TCP and UDP shuffles) passes
it as ``simulator=`` and swaps the reducer-side collector for its own callback
with :meth:`DaietSystem.attach_receiver`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterable

import numpy as _np

from repro.core.aggregation import _UFUNCS, DaietAggregationEngine
from repro.core.config import DaietConfig
from repro.core.controller import DaietController, InstalledJob
from repro.core.errors import AggregationError, ConfigurationError, ControllerError
from repro.core.functions import AggregationFunction, get as get_function
from repro.core.packet import DaietPacket, DaietPacketType, PacketWindow, packetize_pairs
from repro.core.tree import AggregationTree
from repro.dataplane import interning as _interning
from repro.netsim.simulator import NetworkSimulator, SimulatorConfig
from repro.netsim.topology import Topology, single_rack

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (core <-> transport)
    from repro.transport.reliability import HostReliabilityAgent

#: Sentinel distinguishing "key absent" from a stored ``None`` value.
_MISSING = object()

#: The most pairs a receiver holds unfolded. Every value fits 4 signed
#: bytes, so an ``int64`` sum of fewer than ``2**32`` of them is exact.
_FOLD_PAIRS = 2**32 - 1


@dataclass(slots=True)
class ReceiverCounters:
    """Traffic observed by a reducer-side receiver at the application layer."""

    packets: int = 0
    data_packets: int = 0
    end_packets: int = 0
    pairs: int = 0
    payload_bytes: int = 0
    wire_bytes: int = 0


@dataclass
class DaietReceiver:
    """Application-level collector of aggregated pairs at a reducer host.

    The receiver applies the aggregation function one final time on arrival:
    intermediate switches may emit several partial values for the same key
    (spillover flushes, multiple switches on different branches), and the
    reducer merging them is exactly what preserves end-to-end correctness.

    A flush reaches it as columns and stays columns until :meth:`result`:
    :meth:`receive` keeps each DATA packet's extent of its partition's kid
    and value columns (``DaietPacket.pair_columns()``), extending the last
    extent when the packet is the next slice of the same columns, as a
    window's packets arrive. :meth:`result` folds what is pending, in
    arrival order, with the tree function's ufunc, and only then are the
    keys read back from the intern pool: once per key, in the order each
    first arrived, with Python ``int`` values. A packet never needs its
    pair tuples here.
    """

    host: str
    tree_id: int
    function: AggregationFunction
    expected_ends: int
    counters: ReceiverCounters = field(default_factory=ReceiverCounters)
    _values: dict[str, Any] = field(default_factory=dict)
    _ends_seen: int = 0
    #: Column extents received and not yet folded, in arrival order:
    #: ``[kids, vals, lo, hi]`` each.
    _pending: list[list[Any]] = field(default_factory=list)
    #: Pairs in ``_pending`` (folded before they reach ``_FOLD_PAIRS``).
    _pending_pairs: int = 0
    _ufunc: Any = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._ufunc = _UFUNCS.get(self.function)
        if self._ufunc is None:
            raise AggregationError(
                f"receiver at {self.host!r}: DAIET aggregates only the registered "
                f"functions, not {self.function.name!r}"
            )

    def receive(self, packet: Any) -> None:
        """Host receiver callback; ignores traffic for other trees."""
        if not isinstance(packet, DaietPacket) or packet.tree_id != self.tree_id:
            return
        counters = self.counters
        counters.packets += 1
        counters.wire_bytes += packet.wire_bytes()
        counters.payload_bytes += packet.payload_bytes()
        if packet.packet_type is DaietPacketType.END:
            counters.end_packets += 1
            self._ends_seen += 1
            return
        counters.data_packets += 1
        kids, vals, lo, hi = packet.pair_columns()
        counters.pairs += hi - lo
        if hi == lo:
            return
        if self._pending_pairs + hi - lo > _FOLD_PAIRS:
            self._fold()
        self._pending_pairs += hi - lo
        pending = self._pending
        if pending:
            last = pending[-1]
            if last[3] == lo and last[0] is kids and last[1] is vals:
                last[3] = hi
                return
        pending.append([kids, vals, lo, hi])

    def _fold(self) -> None:
        """Fold the pending extents into the key-value map, in arrival order."""
        pending = self._pending
        if not pending:
            return
        kids = _np.concatenate([k[lo:hi] for k, _v, lo, hi in pending])
        vals = _np.concatenate([v[lo:hi] for _k, v, lo, hi in pending], dtype=_np.int64)
        pending.clear()
        self._pending_pairs = 0
        # Group each kid's values (a stable sort keeps arrival order within
        # a group), fold every group, then take the groups in the order
        # their kids first arrived.
        order = _np.argsort(kids, kind="stable")
        grouped = kids[order]
        starts = _np.flatnonzero(_np.concatenate(([True], grouped[1:] != grouped[:-1])))
        folded = self._ufunc.reduceat(vals[order], starts)
        arrival = _np.argsort(order[starts])
        values = self._values
        combine = self.function.combine
        for key, value in zip(
            _interning.keys_of(grouped[starts][arrival].tolist()), folded[arrival].tolist()
        ):
            current = values.get(key, _MISSING)
            values[key] = value if current is _MISSING else combine(current, value)

    @property
    def done(self) -> bool:
        """True once every expected END packet has arrived."""
        return self._ends_seen >= self.expected_ends

    def result(self) -> dict[str, Any]:
        """The aggregated key-value map received so far."""
        self._fold()
        return dict(self._values)

    def reset(self, tree_id: int, expected_ends: int) -> None:
        """Rebind the receiver to a replacement tree epoch (failover).

        Partial values from the dead epoch are discarded — the failover
        manager replays every mapper's full stream through the re-planned
        tree, so keeping them would double-count. ``tree_id`` filtering in
        :meth:`receive` then makes stray old-epoch packets harmless.
        """
        self.tree_id = tree_id
        self.expected_ends = expected_ends
        self._values.clear()
        self._pending.clear()
        self._pending_pairs = 0
        self._ends_seen = 0


class DaietSystem:
    """Facade bundling topology, simulator, controller and host helpers."""

    def __init__(
        self,
        topology: Topology,
        config: DaietConfig | None = None,
        simulator_config: SimulatorConfig | None = None,
        simulator: NetworkSimulator | None = None,
    ) -> None:
        if simulator is None:
            simulator = NetworkSimulator(topology, simulator_config)
        elif simulator_config is not None or simulator.topology is not topology:
            raise ConfigurationError(
                "a DaietSystem given its simulator takes no simulator_config "
                "and must be built on that simulator's topology"
            )
        self.topology = topology
        self.config = config or DaietConfig()
        self.simulator = simulator
        self.controller = DaietController(topology, self.config)
        self._receivers: dict[str, DaietReceiver] = {}
        self._jobs: list[InstalledJob] = []
        self._agents: dict[str, "HostReliabilityAgent"] = {}
        # Per-tree reliability policy registry: the simulator's own table,
        # so observers that only see the simulator (the sanitizer's drop
        # classifier) can map a dropped packet's tree id back to its policy.
        # Old epochs are kept after failover so stray old-epoch drops still
        # classify correctly.
        self._tree_policies = self.simulator.tree_policies
        #: Optional :class:`~repro.analysis.error_bounds.ErrorBoundTracker`;
        #: when set, ``send_pairs`` reports injected mass to it.
        self.error_tracker: Any = None

    @classmethod
    def single_rack(
        cls,
        num_hosts: int,
        config: DaietConfig | None = None,
        simulator_config: SimulatorConfig | None = None,
    ) -> "DaietSystem":
        """Convenience constructor: ``num_hosts`` hosts behind one ToR switch."""
        return cls(single_rack(num_hosts), config=config, simulator_config=simulator_config)

    def agent(self, host: str) -> "HostReliabilityAgent":
        """The reliability endpoint of ``host`` (created on first use).

        The failover manager reaches sender histories through it when a tree
        is re-planned. Imported lazily: :mod:`repro.transport` itself imports
        the simulator, so a module-level import here would close an import
        cycle.
        """
        from repro.transport.reliability import HostReliabilityAgent

        if host not in self._agents:
            self._agents[host] = HostReliabilityAgent.from_config(
                self.simulator, host, self.config
            )
        return self._agents[host]

    def reliability_stats(self) -> dict[str, dict[str, int]]:
        """Per-host reliability counters (empty when reliability is off)."""
        return {host: agent.stats.snapshot() for host, agent in self._agents.items()}

    # ------------------------------------------------------------------ #
    # Job management
    # ------------------------------------------------------------------ #
    def install_job(
        self,
        mappers: Iterable[str],
        reducers: Iterable[str],
        function: str | AggregationFunction = "sum",
        policy: str | None = None,
    ) -> InstalledJob:
        """Install aggregation trees and attach receivers on every reducer.

        ``policy`` selects the reliability policy for every tree of this
        job (``"exact"``, ``"sampled"`` or ``"best_effort"``); ``None``
        inherits ``config.reliability_policy``. Non-exact policies require
        the reliability layer to be enabled.
        """
        if policy is None:
            policy = self.config.reliability_policy
        if policy not in ("exact", "sampled", "best_effort"):
            raise ConfigurationError(
                f"unknown reliability policy {policy!r}; "
                "expected 'exact', 'sampled' or 'best_effort'"
            )
        if policy != "exact" and not self.config.reliability:
            raise ConfigurationError(
                f"reliability policy {policy!r} requires reliability=True"
            )
        function_obj = function if isinstance(function, AggregationFunction) else get_function(function)
        job = self.controller.install_job(mappers, reducers, function_obj, policy=policy)
        for reducer, tree in job.trees.items():
            self._tree_policies[tree.tree_id] = policy
            receiver = DaietReceiver(
                host=reducer,
                tree_id=tree.tree_id,
                function=function_obj,
                expected_ends=tree.children_count(reducer),
            )
            self._receivers[reducer] = receiver
            self.attach_receiver(tree, receiver.receive)
        self._jobs.append(job)
        return job

    def attach_receiver(self, tree: AggregationTree, inner: Callable[[Any], None]) -> None:
        """Deliver the packets of ``tree`` arriving at its reducer to ``inner``.

        ``install_job`` attaches a :class:`DaietReceiver`; failover re-attaches
        it to the replacement epoch, and an application that collects for
        itself (the MapReduce shuffle buffers raw pairs) passes its own
        callback, after which :meth:`receiver` no longer answers for that host.
        """
        reducer = tree.reducer
        collector = self._receivers.get(reducer)
        if collector is not None and inner != collector.receive:
            del self._receivers[reducer]
        if self.config.reliability:
            # The reliability agent owns the host NIC: it dedups sequenced
            # packets, acknowledges the tree's children and hands clean
            # packets to the application receiver. Best-effort trees ride
            # the same dispatch but their packets carry no sequence
            # numbers, so they pass straight through — no dedup, no ACKs,
            # and the pull timer is never armed.
            self.agent(reducer).attach_tree(
                tree.tree_id,
                children=tree.node(reducer).children,
                inner=inner,
                policy=self.tree_policy(tree.tree_id),
            )
        else:
            self.simulator.host(reducer).set_receiver(inner)

    def tree_policy(self, tree_id: int) -> str:
        """The reliability policy a tree was installed under."""
        return self._tree_policies.get(tree_id, "exact")

    def register_tree_policy(self, tree_id: int, policy: str) -> None:
        """Record a (re-planned) tree's policy; old epochs are retained."""
        self._tree_policies[tree_id] = policy

    def receiver(self, reducer: str) -> DaietReceiver:
        """The receiver attached to a reducer host."""
        try:
            return self._receivers[reducer]
        except KeyError as exc:
            raise ControllerError(f"no DAIET receiver attached to host {reducer!r}") from exc

    def engine(self, switch_name: str) -> DaietAggregationEngine:
        """The aggregation engine installed on a switch."""
        return self.controller.engine(switch_name)

    def tree_for(self, reducer: str) -> AggregationTree:
        """The most recently installed tree rooted at ``reducer``."""
        for job in reversed(self._jobs):
            if reducer in job.trees:
                return job.trees[reducer]
        raise ControllerError(f"no aggregation tree rooted at {reducer!r}")

    # ------------------------------------------------------------------ #
    # Data plane helpers
    # ------------------------------------------------------------------ #
    def send_pairs(
        self,
        mapper: str,
        reducer: str,
        pairs: Iterable[tuple[str, int]],
        include_end: bool = True,
    ) -> PacketWindow:
        """Packetize and send a mapper's partition towards a reducer.

        Returns the window injected: its DATA packets and the END marker
        (``len()`` counts them, and its packets are built when asked for).
        """
        tree = self.tree_for(reducer)
        if mapper not in tree.mappers:
            raise ControllerError(
                f"host {mapper!r} is not a mapper of the tree rooted at {reducer!r}"
            )
        pairs = list(pairs)
        policy = self.tree_policy(tree.tree_id)
        reliable = self.config.reliability and policy != "best_effort"
        if reliable:
            channel = self.agent(mapper).sender(tree.tree_id, policy=policy)
            window = channel.packetize(pairs, reducer, self.config, include_end)
        else:
            # Unreliable path — either the reliability layer is off, or the
            # tree runs best-effort: unsequenced packets, no retransmit
            # buffer, no ACK/pull machinery, guaranteed termination.
            window = packetize_pairs(
                pairs,
                tree_id=tree.tree_id,
                src=mapper,
                dst=reducer,
                config=self.config,
                include_end=include_end,
            )
        if self.error_tracker is not None:
            # Only what was framed is injected mass: a partition the
            # packetizer rejects never reaches the wire. Original application
            # sends only — retransmissions re-inject the same pairs and must
            # not inflate the ledger.
            self.error_tracker.record_injected(tree.tree_id, pairs)
        if reliable:
            channel.send(window)
            # The reducer starts pulling so even a fully-lost flush recovers.
            self.agent(reducer).arm(tree.tree_id)
        else:
            self.simulator.send_burst(mapper, window)
        return window

    def run(self, until: float | None = None) -> int:
        """Run the simulation until all in-flight traffic is delivered."""
        return self.simulator.run(until=until)
