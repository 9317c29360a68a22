"""Simulated MapReduce clusters and task placements.

The paper's testbed runs 12 worker containers (two mappers and one reducer
each) plus one master, all attached to a single bmv2 switch.
:func:`build_cluster` reproduces that shape by default and can also build a
leaf-spine fabric for the multi-level aggregation-tree ablation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.errors import JobError
from repro.mapreduce.job import TaskPlacement
from repro.netsim.simulator import NetworkSimulator, SimulatorConfig
from repro.netsim.topology import Topology, leaf_spine, single_rack


@dataclass
class Cluster:
    """A simulated cluster: topology, simulator and the worker host names."""

    topology: Topology
    simulator: NetworkSimulator
    workers: list[str]
    master_host: str

    def worker(self, index: int) -> str:
        """Name of the ``index``-th worker host."""
        try:
            return self.workers[index]
        except IndexError as exc:
            raise JobError(f"cluster has no worker {index}") from exc


def build_cluster(
    num_workers: int = 12,
    fabric: str = "single_rack",
    spines: int = 2,
    workers_per_leaf: int = 4,
    loss_rate: float = 0.0,
    loss_seed: int = 0,
) -> Cluster:
    """Build a simulated cluster.

    Parameters
    ----------
    num_workers:
        Number of worker hosts (the paper uses 12).
    fabric:
        ``"single_rack"`` (default, one ToR switch — the paper's setup) or
        ``"leaf_spine"`` (used by the tree-depth ablation).
    spines, workers_per_leaf:
        Leaf-spine dimensioning; ignored for the single rack.
    loss_rate:
        Per-direction drop probability applied to every host uplink (the
        lossy-fabric scenario; requires ``DaietConfig(reliability=True)``
        for exact results).
    loss_seed:
        Seed of the simulator's loss random stream.
    """
    if num_workers <= 0:
        raise JobError("num_workers must be positive")
    worker_names = [f"w{i}" for i in range(num_workers)]
    if fabric == "single_rack":
        topology = single_rack(num_hosts=num_workers, host_prefix="w", loss_rate=loss_rate)
        master = topology.add_host("master")
        topology.connect("master", "tor")
    elif fabric == "leaf_spine":
        if workers_per_leaf <= 0:
            raise JobError("workers_per_leaf must be positive")
        num_leaves = -(-num_workers // workers_per_leaf)  # ceil division
        topology = leaf_spine(
            num_leaves=num_leaves,
            num_spines=spines,
            hosts_per_leaf=workers_per_leaf,
            host_prefix="w",
        )
        # Trim host naming to exactly num_workers workers; extra hosts (if the
        # last leaf is not full) simply stay idle.
        master = topology.add_host("master")
        topology.connect("master", "leaf0")
        for link in topology.host_uplinks():
            link.loss_rate = loss_rate
    else:
        raise JobError(f"unknown fabric {fabric!r}")
    topology.validate()
    simulator = NetworkSimulator(topology, SimulatorConfig(loss_seed=loss_seed))
    return Cluster(
        topology=topology,
        simulator=simulator,
        workers=worker_names,
        master_host=master.name,
    )


def default_placement(
    cluster: Cluster,
    num_mappers: int = 24,
    num_reducers: int = 12,
) -> TaskPlacement:
    """The paper's placement: mappers round-robin over workers, one reducer each.

    With 24 mappers and 12 workers every worker runs two map tasks; with 12
    reducers every worker runs one reduce task.
    """
    if num_reducers > len(cluster.workers):
        raise JobError(
            f"cannot place {num_reducers} reducers on {len(cluster.workers)} workers "
            "(one reduce task per host)"
        )
    mapper_hosts = tuple(
        cluster.workers[i % len(cluster.workers)] for i in range(num_mappers)
    )
    reducer_hosts = tuple(cluster.workers[:num_reducers])
    return TaskPlacement(
        mapper_hosts=mapper_hosts,
        reducer_hosts=reducer_hosts,
        master_host=cluster.master_host,
    )
