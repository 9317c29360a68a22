"""DAIET network controller.

"Prior to starting a job, the master allocates the map and reduce jobs to the
workers. This allocation information is exchanged with the network controller.
Then, the controller defines the aggregation trees [...] The network controller
then configures the network devices, pushing a set of flow rules, to perform
the per-tree aggregation and forward the traffic according to the tree."
(Section 4.)

:class:`DaietController` implements that control plane against the simulated
topology: it builds one :class:`~repro.core.tree.AggregationTree` per reducer,
allocates switch SRAM for the per-tree registers, attaches the aggregation
extern to each on-tree switch and pushes the steering flow rules.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.core.aggregation import DaietAggregationEngine, TreeCounters
from repro.core.config import DaietConfig
from repro.core.errors import ControllerError
from repro.core.functions import AggregationFunction, get as get_function
from repro.core.tree import AggregationTree
from repro.dataplane.switch import AGGREGATE_ACTION
from repro.dataplane.tables import FlowRule
from repro.netsim.devices import DAIET_TABLE, SwitchDevice
from repro.netsim.topology import Topology


@dataclass
class JobAllocation:
    """The master-to-controller hand-off: which hosts run mappers and reducers."""

    mappers: tuple[str, ...]
    reducers: tuple[str, ...]
    function_name: str = "sum"

    def __post_init__(self) -> None:
        if not self.mappers:
            raise ControllerError("a job needs at least one mapper")
        if not self.reducers:
            raise ControllerError("a job needs at least one reducer")


@dataclass
class InstalledJob:
    """Controller bookkeeping for one installed job."""

    allocation: JobAllocation
    trees: dict[str, AggregationTree] = field(default_factory=dict)
    rules_installed: int = 0

    def tree_for_reducer(self, reducer: str) -> AggregationTree:
        """The aggregation tree rooted at ``reducer``."""
        try:
            return self.trees[reducer]
        except KeyError as exc:
            raise ControllerError(f"no tree installed for reducer {reducer!r}") from exc


class DaietController:
    """The SDN controller configuring DAIET state on the simulated fabric."""

    def __init__(self, topology: Topology, config: DaietConfig | None = None) -> None:
        self.topology = topology
        self.config = config or DaietConfig()
        self.engines: dict[str, DaietAggregationEngine] = {}
        self.jobs: list[InstalledJob] = []
        self._next_tree_id = 1

    # ------------------------------------------------------------------ #
    # Job installation
    # ------------------------------------------------------------------ #
    def install_job(
        self,
        mappers: Iterable[str],
        reducers: Iterable[str],
        function: str | AggregationFunction = "sum",
        policy: str | None = None,
    ) -> InstalledJob:
        """Build and install one aggregation tree per reducer.

        Mappers co-located with a reducer are excluded from that reducer's
        tree (their traffic never enters the network), matching how a local
        partition is exchanged through shared memory in the real deployment.

        ``policy`` overrides the config's ``reliability_policy`` for every
        tree of this job (per-class selective reliability); ``None``
        inherits the config's policy.
        """
        function_obj = function if isinstance(function, AggregationFunction) else get_function(function)
        allocation = JobAllocation(
            mappers=tuple(mappers),
            reducers=tuple(reducers),
            function_name=function_obj.name,
        )
        job = InstalledJob(allocation=allocation)
        for reducer in allocation.reducers:
            tree_mappers = [m for m in allocation.mappers if m != reducer]
            if not tree_mappers:
                raise ControllerError(
                    f"reducer {reducer!r} has no remote mappers to aggregate from"
                )
            tree = AggregationTree.build(
                self.topology,
                tree_id=self._next_tree_id,
                reducer=reducer,
                mappers=tree_mappers,
            )
            self._next_tree_id += 1
            job.rules_installed += self._install_tree(tree, function_obj, policy=policy)
            job.trees[reducer] = tree
        self.jobs.append(job)
        return job

    def _install_tree(
        self,
        tree: AggregationTree,
        function: AggregationFunction,
        policy: str | None = None,
    ) -> int:
        rules = 0
        for node in tree.switches():
            device = self.topology.get(node.name)
            if not isinstance(device, SwitchDevice):
                raise ControllerError(f"tree switch {node.name!r} is not a switch device")
            if node.parent is None:
                raise ControllerError(
                    f"switch {node.name!r} is the root of tree {tree.tree_id}; "
                    "trees must be rooted at the reducer host"
                )
            engine = self._engine_for(device)
            egress_port = self.topology.port_towards(node.name, node.parent)
            num_children = tree.children_count(node.name)
            children = tree.node(node.name).children
            child_ports = {
                child: self.topology.port_towards(node.name, child)
                for child in children
            }
            state = engine.configure_tree(
                tree_id=tree.tree_id,
                function=function,
                num_children=num_children,
                egress_port=egress_port,
                next_hop_dst=tree.reducer,
                config=self.config,
                child_ports=child_ports,
                switch_children=tuple(
                    child
                    for child in children
                    if isinstance(self.topology.get(child), SwitchDevice)
                ),
                policy=policy,
            )
            device.switch.ledger.allocate_sram(
                owner=f"tree{tree.tree_id}", nbytes=state.config.sram_bytes()
            )
            rule = FlowRule.create(
                table=DAIET_TABLE,
                match={"tree_id": tree.tree_id},
                action_name=AGGREGATE_ACTION,
            )
            device.switch.install_rule(rule)
            rules += 1
        return rules

    def _engine_for(self, device: SwitchDevice) -> DaietAggregationEngine:
        if device.name not in self.engines:
            engine = DaietAggregationEngine(device.name)
            self.engines[device.name] = engine
            device.switch.register_extern("daiet", engine)
            device.daiet_table.register_action(AGGREGATE_ACTION, engine)
        return self.engines[device.name]

    # ------------------------------------------------------------------ #
    # Teardown, re-planning and introspection
    # ------------------------------------------------------------------ #
    def _teardown_tree(self, tree: AggregationTree) -> None:
        """Release everything one tree holds on its switches.

        Engine state, the steering entry and the SRAM allocation are all
        dropped, so repeated install/teardown cycles (failover re-plans)
        leak nothing. Safe on crashed switches whose tables were already
        wiped: every removal is idempotent.
        """
        for node in tree.switches():
            device = self.topology.get(node.name)
            if not isinstance(device, SwitchDevice):
                continue
            engine = self.engines.get(node.name)
            if engine is not None:
                engine.remove_tree(tree.tree_id)
            device.daiet_table.remove({"tree_id": tree.tree_id})
            device.switch.ledger.release_sram(f"tree{tree.tree_id}")

    def replan_tree(
        self,
        job: InstalledJob,
        reducer: str,
        exclude: Iterable[str] = (),
        policy: str | None = None,
    ) -> AggregationTree:
        """Re-plan one reducer's tree around the devices in ``exclude``.

        The old tree is fully torn down (resources released on every
        surviving switch) and a replacement is built through the remaining
        fabric under a **fresh tree id** — a new epoch. The new id makes
        every stray packet of the dead epoch harmless: without a steering
        entry it is plain-forwarded, and receivers filter by tree id.

        Raises :class:`~repro.core.errors.RoutingError` when a mapper
        cannot reach the reducer without the excluded devices; the old
        tree's resources stay released in that case (the job is degraded,
        not half-installed).
        """
        old = job.tree_for_reducer(reducer)
        self._teardown_tree(old)
        tree = AggregationTree.build(
            self.topology,
            tree_id=self._next_tree_id,
            reducer=reducer,
            mappers=old.mappers,
            exclude=exclude,
        )
        self._next_tree_id += 1
        function_obj = get_function(job.allocation.function_name)
        job.rules_installed += self._install_tree(tree, function_obj, policy=policy)
        job.trees[reducer] = tree
        return tree

    def engine(self, switch_name: str) -> DaietAggregationEngine:
        """The aggregation engine installed on a switch."""
        try:
            return self.engines[switch_name]
        except KeyError as exc:
            raise ControllerError(
                f"switch {switch_name!r} has no DAIET engine installed"
            ) from exc

    def tree_counters(self) -> dict[tuple[str, int], TreeCounters]:
        """Counters of every (switch, tree) pair, for the evaluation harness."""
        counters: dict[tuple[str, int], TreeCounters] = {}
        for switch_name, engine in self.engines.items():
            for tree_id, tree_counters in engine.counters().items():
                counters[(switch_name, tree_id)] = tree_counters
        return counters
