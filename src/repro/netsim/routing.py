"""Route computation and forwarding-table population.

The control plane computes shortest paths over the topology graph and installs
one exact-match entry per destination host into every switch's ``l3_forward``
table. Equal-cost multipath is resolved deterministically (lexicographically
smallest next hop) unless a flow label is provided, in which case the next hop
is picked by hashing the label — mirroring ECMP hashing in real fabrics.

Implementation note: routes are derived from **one BFS per attachment switch**,
not one per destination host and not from per-(source, destination) path
enumeration. A host with a single neighbour has the shortest-path DAG of that
neighbour (its ToR) plus one hop, so every host of a rack walks one shared
DAG; only the ECMP hash, which names the host, is computed per (switch, host).
Multi-homed hosts get a DAG of their own. Counting the equal-cost paths
through each DAG successor lets the hash index select the k-th lexicographic
path without materializing the path set, so the result is bit-identical to
sorting ``all_shortest_paths`` and indexing into it. The aggregation-tree
builder (:mod:`repro.core.tree`) reuses the same machinery via
:func:`paths_towards`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Iterable

from repro.core.errors import RoutingError
from repro.dataplane.tables import FlowRule
from repro.netsim.devices import FORWARDING_TABLE, Host, SwitchDevice
from repro.netsim.topology import Topology


@dataclass
class RoutingState:
    """Computed routing state: per-switch next hops for every host destination."""

    #: switch name -> destination host name -> next-hop device name
    next_hops: dict[str, dict[str, str]] = field(default_factory=dict)

    def next_hop(self, switch: str, dst: str) -> str:
        """Next-hop device name for traffic to ``dst`` at ``switch``."""
        try:
            return self.next_hops[switch][dst]
        except KeyError as exc:
            raise RoutingError(f"no route from {switch!r} to {dst!r}") from exc


class _DestinationDag:
    """Shortest-path DAG towards one destination, with per-node path counts.

    ``succs[node]`` holds the lexicographically sorted neighbours one hop
    closer to the destination; ``counts[node]`` is the number of distinct
    shortest paths from ``node`` to the destination. Together they allow
    selecting the k-th path in the order ``sorted(all_shortest_paths(...))``
    would produce — by walking the DAG and subtracting subtree path counts —
    without enumerating any path.
    """

    __slots__ = ("dst", "dist", "succs", "counts")

    def __init__(self, adjacency: dict[str, list[str]], dst: str) -> None:
        if dst not in adjacency:
            raise RoutingError(f"unknown destination {dst!r}")
        self.dst = dst
        dist: dict[str, int] = {dst: 0}
        frontier = [dst]
        while frontier:
            next_frontier: list[str] = []
            for node in frontier:
                hop = dist[node] + 1
                for neighbor in adjacency[node]:
                    if neighbor not in dist:
                        dist[neighbor] = hop
                        next_frontier.append(neighbor)
            frontier = next_frontier
        self.dist = dist
        succs: dict[str, list[str]] = {dst: []}
        counts: dict[str, int] = {dst: 1}
        # Process nodes by increasing distance so successor counts exist.
        for node in sorted(dist, key=dist.__getitem__):
            if node == dst:
                continue
            closer = dist[node] - 1
            node_succs = [n for n in adjacency[node] if dist.get(n) == closer]
            succs[node] = node_succs
            counts[node] = sum(counts[s] for s in node_succs)
        self.succs = succs
        self.counts = counts

    def path_index(self, src: str, seed: int, towards: str | None = None) -> int:
        """The deterministic ECMP index for traffic ``src`` -> ``dst``.

        ``towards`` names a single-homed host hanging off ``dst``: its own DAG
        has the same successors and path counts at every other node, so only
        the hash label changes.
        """
        total = self.counts[src]
        if total == 1:
            return 0
        digest = hashlib.sha256(f"{seed}:{src}->{towards or self.dst}".encode()).digest()
        return int.from_bytes(digest[:4], "big") % total

    def first_hop(self, src: str, seed: int, towards: str | None = None) -> str:
        """First hop of the selected shortest path from ``src``."""
        index = self.path_index(src, seed, towards)
        for succ in self.succs[src]:
            count = self.counts[succ]
            if index < count:
                return succ
            index -= count
        raise RoutingError(f"no route from {src!r} to {self.dst!r}")  # pragma: no cover

    def path_from(self, src: str, seed: int) -> list[str]:
        """The full selected shortest path from ``src`` (as device names)."""
        if src == self.dst:
            return [src]
        if src not in self.counts:
            raise RoutingError(f"no path from {src!r} to {self.dst!r}")
        index = self.path_index(src, seed)
        path = [src]
        node = src
        while node != self.dst:
            for succ in self.succs[node]:
                count = self.counts[succ]
                if index < count:
                    path.append(succ)
                    node = succ
                    break
                index -= count
            else:  # pragma: no cover - counts always sum over succs
                raise RoutingError(f"no path from {src!r} to {self.dst!r}")
        return path


def _sorted_adjacency(
    topology: Topology, exclude: Iterable[str] | None = None
) -> dict[str, list[str]]:
    """Neighbour lists sorted by name (the lexicographic ECMP order).

    Devices named in ``exclude`` (crashed or quarantined switches) are
    removed from the graph entirely: they appear neither as nodes nor as
    anyone's neighbour, so no path ever traverses them.
    """
    if not exclude:
        return {name: sorted(topology.neighbors(name)) for name in topology.devices}
    excluded = set(exclude)
    return {
        name: sorted(n for n in topology.neighbors(name) if n not in excluded)
        for name in topology.devices
        if name not in excluded
    }


def paths_towards(
    topology: Topology,
    dst: str,
    sources: Iterable[str],
    ecmp_seed: int = 0,
    exclude: Iterable[str] | None = None,
) -> dict[str, list[str]]:
    """Selected shortest path from every source towards one destination.

    One BFS serves every source, so building an aggregation tree over
    hundreds of mappers costs O(E + mappers · path length) instead of one
    graph traversal per mapper. ``exclude`` removes devices (e.g. crashed
    switches) from the graph before the BFS; an unreachable source raises
    :class:`RoutingError`.
    """
    dag = _DestinationDag(_sorted_adjacency(topology, exclude), dst)
    return {src: dag.path_from(src, ecmp_seed) for src in sources}


def compute_routes(
    topology: Topology,
    ecmp_seed: int = 0,
    exclude: Iterable[str] | None = None,
) -> RoutingState:
    """Compute shortest-path next hops from every switch to every host.

    Switches named in ``exclude`` are removed from the graph: they get no
    next-hop entries and no path routes through them. A host unreachable
    from a surviving switch raises :class:`RoutingError`.
    """
    excluded = set(exclude) if exclude else set()
    adjacency = _sorted_adjacency(topology, excluded)
    switches = [s.name for s in topology.switches() if s.name not in excluded]
    state = RoutingState()
    for switch in switches:
        state.next_hops[switch] = {}
    shared: dict[str, _DestinationDag] = {}
    for host in topology.hosts():
        dst = host.name
        neighbors = adjacency.get(dst)
        if neighbors is None:
            continue
        if len(neighbors) == 1:
            # Every path to a single-homed host ends "attachment switch ->
            # host": walk the attachment's DAG, built once for its whole rack.
            root = neighbors[0]
            dag = shared.get(root)
            if dag is None:
                dag = shared[root] = _DestinationDag(adjacency, root)
        else:
            root = dst
            dag = _DestinationDag(adjacency, dst)
        for switch in switches:
            if switch not in dag.counts:
                raise RoutingError(f"host {dst!r} unreachable from switch {switch!r}")
            state.next_hops[switch][dst] = (
                dst if switch == root else dag.first_hop(switch, ecmp_seed, dst)
            )
    return state


def install_forwarding_rules(
    topology: Topology,
    routes: RoutingState | None = None,
    *,
    skip: Iterable[str] = (),
    clear_first: bool = False,
) -> int:
    """Install destination-based forwarding entries on every switch.

    ``skip`` names switches to leave untouched (crashed ones, during a
    failover reinstall). ``clear_first`` empties each touched switch's
    forwarding table before installing — required when re-planning, because
    exact-match tables reject duplicate entries. Switches absent from
    ``routes.next_hops`` (excluded at route computation) are skipped too.
    Returns the number of flow rules installed.
    """
    routes = routes or compute_routes(topology)
    skipped = set(skip)
    installed = 0
    # Rules are immutable, so switches reaching ``dst`` through the same port
    # number (every spine does) are handed the same rule object: building one
    # costs more than installing it.
    rules: dict[tuple[str, int], FlowRule] = {}
    for switch in topology.switches():
        if switch.name in skipped:
            continue
        next_hops = routes.next_hops.get(switch.name)
        if next_hops is None:
            continue
        if clear_first:
            switch.forwarding_table.clear()
        ports = {
            neighbor: topology.port_towards(switch.name, neighbor)
            for neighbor in dict.fromkeys(next_hops.values())
        }
        batch = []
        for dst, next_hop in next_hops.items():
            port = ports[next_hop]
            rule = rules.get((dst, port))
            if rule is None:
                rule = rules[dst, port] = FlowRule.create(
                    table=FORWARDING_TABLE,
                    match={"dst": dst},
                    action_name="forward",
                    action_params={"egress_port": port},
                )
            batch.append(rule)
        installed += switch.switch.install_rules(batch)
    return installed


def shortest_path(topology: Topology, src: str, dst: str) -> list[str]:
    """The (deterministic) shortest path between two devices, as device names."""
    if src not in topology.devices:
        raise RoutingError(f"no path from {src!r} to {dst!r}")
    dag = _DestinationDag(_sorted_adjacency(topology), dst)
    return dag.path_from(src, 0)


def path_switches(topology: Topology, src: str, dst: str) -> list[str]:
    """Switches traversed on the shortest path from ``src`` to ``dst``."""
    return [
        name
        for name in shortest_path(topology, src, dst)
        if isinstance(topology.get(name), SwitchDevice)
    ]


def host_uplink_switch(topology: Topology, host_name: str) -> str:
    """The ToR switch a host is directly attached to."""
    host = topology.get(host_name)
    if not isinstance(host, Host):
        raise RoutingError(f"{host_name!r} is not a host")
    neighbors = topology.neighbors(host_name)
    switches = [n for n in neighbors if isinstance(topology.get(n), SwitchDevice)]
    if not switches:
        raise RoutingError(f"host {host_name!r} has no switch uplink")
    return switches[0]
