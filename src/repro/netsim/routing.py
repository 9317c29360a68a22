"""Route computation and forwarding-table population.

The control plane computes shortest paths over the switch graph and
programs every switch's ``l3_forward`` table per **rack**, not per host. A
rack is the set of hosts with one uplink to the same *attachment switch*;
the fabric's one address plan maps each such host to its rack's
:class:`RackPrefix`, the model's stand-in for an IP prefix. Each switch
holds:

* one exact entry per directly attached host, forwarding to it;
* one entry per remote rack, keyed by its prefix: a plain forward when the
  shortest-path DAG offers one next hop, an ECMP group
  (:class:`~repro.dataplane.actions.EcmpAction`) otherwise;
* one entry per multi-homed host (one with several uplinks, so no single
  rack): the exception that keeps per-host entries everywhere.

A lookup probes ``dst`` exactly, then the prefix the address plan gives it.
Equal-cost multipath picks, among the lexicographically sorted shortest
paths whose interior nodes are switches, the one the fabric's ECMP hash
(:func:`~repro.dataplane.actions.ecmp_path_index`, keyed by seed, switch and
destination host) indexes. The ECMP group evaluates that hash per packet,
so a packet leaves by the port the per-host rule set would have given it.

Implementation note: routes are **one BFS per attachment switch** (plus one
per multi-homed host) over the switch graph. Hosts are endpoints: no BFS
expands them, so no path transits a host. Counting the equal-cost paths
through each DAG successor lets the hash index select the k-th
lexicographic path without materializing the path set, so the result is
bit-identical to sorting the enumerated paths and indexing into it. No
(switch, host) pair is hashed at route time. The aggregation-tree builder
(:mod:`repro.core.tree`) walks the same DAGs via :func:`paths_towards`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

from repro.core.errors import RoutingError
from repro.dataplane.actions import ecmp_path_index
from repro.dataplane.tables import FlowRule
from repro.netsim.devices import FORWARDING_TABLE, Host, SwitchDevice
from repro.netsim.topology import Topology


class RackPrefix(NamedTuple):
    """The address block of the hosts under one attachment switch."""

    switch: str


class _DestinationDag:
    """Shortest-path DAG towards one destination, with per-node path counts.

    The DAG spans the destination and the switches: hosts other than the
    destination are endpoints, never transit nodes. ``succs[node]`` holds
    the lexicographically sorted neighbours one hop closer to the
    destination; ``counts[node]`` is the number of distinct shortest paths
    from ``node`` to the destination. Together they allow selecting the
    k-th path in sorted order — by walking the DAG and subtracting subtree
    path counts — without enumerating any path. A host source steps onto
    the DAG through its nearest uplinks (:meth:`path_from`).
    """

    __slots__ = ("dst", "dist", "succs", "counts", "host_links")

    def __init__(
        self,
        switch_links: dict[str, list[str]],
        host_links: dict[str, list[str]],
        dst: str,
    ) -> None:
        if dst in switch_links:
            first = switch_links[dst]
        elif dst in host_links:
            first = [n for n in host_links[dst] if n in switch_links]
        else:
            raise RoutingError(f"unknown destination {dst!r}")
        self.dst = dst
        self.host_links = host_links
        dist: dict[str, int] = {dst: 0}
        succs: dict[str, list[str]] = {dst: []}
        counts: dict[str, int] = {dst: 1}
        for node in first:
            dist[node] = 1
            succs[node] = [dst]
            counts[node] = 1
        frontier = first
        hop = 1
        while frontier:
            hop += 1
            next_frontier: list[str] = []
            for node in frontier:
                for neighbor in switch_links[node]:
                    if neighbor not in dist:
                        dist[neighbor] = hop
                        next_frontier.append(neighbor)
            # Every node of this level has all its successors counted.
            closer = hop - 1
            for node in next_frontier:
                node_succs = [n for n in switch_links[node] if dist.get(n) == closer]
                succs[node] = node_succs
                counts[node] = sum(counts[s] for s in node_succs)
            frontier = next_frontier
        self.dist = dist
        self.succs = succs
        self.counts = counts

    def first_hop(self, src: str, seed: int, towards: str | None = None) -> str:
        """First hop of the selected shortest path from switch ``src``.

        ``towards`` names a single-homed host hanging off ``dst``: its own DAG
        has the same successors and path counts at every switch, so only the
        hash label changes.
        """
        index = ecmp_path_index(seed, src, towards or self.dst, self.counts[src])
        return _pick(self.succs[src], self.counts, index)[0]

    def path_from(self, src: str, seed: int) -> list[str]:
        """The full selected shortest path from ``src`` (as device names)."""
        if src == self.dst:
            return [src]
        counts = self.counts
        succs = self.succs.get(src)
        if succs is None:
            succs = self._host_uplinks(src)
        index = ecmp_path_index(seed, src, self.dst, sum(counts[s] for s in succs))
        node, index = _pick(succs, counts, index)
        path = [src, node]
        while node != self.dst:
            node, index = _pick(self.succs[node], counts, index)
            path.append(node)
        return path

    def _host_uplinks(self, src: str) -> list[str]:
        """A host source's nearest neighbours on the DAG."""
        dist = self.dist
        links = [n for n in self.host_links.get(src, ()) if n in dist]
        if not links:
            raise RoutingError(f"no path from {src!r} to {self.dst!r}")
        nearest = min(dist[n] for n in links)
        return [n for n in links if dist[n] == nearest]


def _pick(succs: list[str], counts: dict[str, int], index: int) -> tuple[str, int]:
    """The successor whose range of paths holds path number ``index``, and
    the index of that path among the successor's own."""
    for succ in succs:
        count = counts[succ]
        if index < count:
            return succ, index
        index -= count
    raise RoutingError("ECMP path index outside the DAG")  # pragma: no cover


def _split_links(
    topology: Topology, exclude: Iterable[str] | None = None
) -> tuple[dict[str, list[str]], dict[str, list[str]]]:
    """Neighbour lists sorted by name (the lexicographic ECMP order).

    Returns ``(switch_links, host_links)``: each switch's switch neighbours,
    and each host's neighbours. Devices named in ``exclude`` (crashed or
    quarantined switches) are removed from the graph entirely: they appear
    neither as nodes nor as anyone's neighbour, so no path ever traverses
    them.
    """
    excluded = set(exclude) if exclude else set()
    switch_links: dict[str, list[str]] = {}
    host_links: dict[str, list[str]] = {}
    devices = topology.devices
    for name, device in devices.items():
        if name in excluded:
            continue
        neighbors = sorted(n for n in topology.neighbors(name) if n not in excluded)
        if isinstance(device, Host):
            host_links[name] = neighbors
        else:
            switch_links[name] = [n for n in neighbors if not isinstance(devices[n], Host)]
    return switch_links, host_links


def paths_towards(
    topology: Topology,
    dst: str,
    sources: Iterable[str],
    ecmp_seed: int = 0,
    exclude: Iterable[str] | None = None,
) -> dict[str, list[str]]:
    """Selected shortest path from every source towards one destination.

    One BFS over the switch graph serves every source, so building an
    aggregation tree over hundreds of mappers costs O(switch links + mappers
    · path length) instead of one graph traversal per mapper. ``exclude``
    removes devices (e.g. crashed switches) from the graph before the BFS;
    an unreachable source raises :class:`RoutingError`.
    """
    dag = _DestinationDag(*_split_links(topology, exclude), dst)
    return {src: dag.path_from(src, ecmp_seed) for src in sources}


@dataclass
class RoutingState:
    """Computed routes: one shortest-path DAG per rack and per multi-homed host.

    The DAG at a switch is that switch's forwarding group towards the
    DAG's destination: its successors, each weighted by the shortest paths
    through it (:meth:`group`).
    """

    ecmp_seed: int = 0
    #: The routed switches, in topology order (excluded ones are absent).
    switches: tuple[str, ...] = ()
    #: The fabric's address plan: single-homed host -> its rack's prefix.
    address_plan: dict[str, RackPrefix] = field(default_factory=dict)
    #: Attachment switch -> the single-homed hosts under it, in topology order.
    racks: dict[str, list[str]] = field(default_factory=dict)
    #: Hosts with several uplinks, in topology order.
    multi_homed: list[str] = field(default_factory=list)
    #: Attachment switch or multi-homed host -> the DAG towards it.
    dags: dict[str, _DestinationDag] = field(default_factory=dict)

    def group(self, switch: str, root: str) -> tuple[tuple[str, int], ...]:
        """``(next hop, paths through it)`` at ``switch`` towards ``root``."""
        dag = self.dags[root]
        counts = dag.counts
        return tuple((succ, counts[succ]) for succ in dag.succs[switch])

    def next_hop(self, switch: str, dst: str) -> str:
        """Next-hop device name for traffic to host ``dst`` at ``switch``."""
        prefix = self.address_plan.get(dst)
        root = dst if prefix is None else prefix.switch
        dag = self.dags.get(root)
        if dag is None or switch == dst or switch not in dag.counts:
            raise RoutingError(f"no route from {switch!r} to {dst!r}")
        if switch == root:
            return dst
        return dag.first_hop(switch, self.ecmp_seed, dst)


def compute_routes(
    topology: Topology,
    ecmp_seed: int = 0,
    exclude: Iterable[str] | None = None,
) -> RoutingState:
    """Compute the shortest-path DAG towards every rack and multi-homed host.

    Switches named in ``exclude`` are removed from the graph: they are not
    routed and no path runs through them. A host unreachable from a
    surviving switch raises :class:`RoutingError`.
    """
    switch_links, host_links = _split_links(topology, exclude)
    state = RoutingState(ecmp_seed=ecmp_seed, switches=tuple(switch_links))
    for host, links in host_links.items():
        uplinks = [n for n in links if n in switch_links]
        if len(uplinks) == 1:
            root = uplinks[0]
            state.racks.setdefault(root, []).append(host)
            state.address_plan[host] = RackPrefix(root)
        else:
            root = host
            state.multi_homed.append(host)
        if root in state.dags:
            continue
        dag = state.dags[root] = _DestinationDag(switch_links, host_links, root)
        if len(dag.counts) - (root == host) < len(switch_links):
            unreachable = next(s for s in switch_links if s not in dag.counts)
            raise RoutingError(f"host {host!r} unreachable from switch {unreachable!r}")
    return state


def planned_forwarding_entries(topology: Topology) -> dict[str, int]:
    """The ``l3_forward`` entries :func:`install_forwarding_rules` gives each
    switch: its attached hosts, every multi-homed host and every remote rack.

    Derived from host uplinks alone, so a capacity check costs no routing.
    """
    attached: dict[str, int] = {s.name: 0 for s in topology.switches()}
    multi_homed = 0
    for host in topology.hosts():
        uplinks = [n for n in topology.neighbors(host.name) if n in attached]
        if len(uplinks) == 1:
            attached[uplinks[0]] += 1
        else:
            multi_homed += 1
    racks = sum(1 for n in attached.values() if n)
    return {
        switch: n + multi_homed + racks - (1 if n else 0) for switch, n in attached.items()
    }


def install_forwarding_rules(
    topology: Topology,
    routes: RoutingState | None = None,
    *,
    skip: Iterable[str] = (),
    clear_first: bool = False,
) -> int:
    """Install each switch's rack-aggregated forwarding entries.

    Every routed switch gets, in this order, one entry per directly attached
    host, one per multi-homed host and one per remote rack (keyed by its
    :class:`RackPrefix`), plus the address plan that leads a host's lookup
    to its rack's entry. An entry whose DAG offers several next hops is an
    ECMP group over their ports.

    ``skip`` names switches to leave untouched (crashed ones, during a
    failover reinstall). ``clear_first`` empties each touched switch's
    forwarding table before installing — required when re-planning, because
    exact-match tables reject duplicate entries. Switches absent from
    ``routes.switches`` (excluded at route computation) are skipped too.
    Returns the number of flow rules installed.
    """
    routes = routes or compute_routes(topology)
    skipped = set(skip)
    routed = set(routes.switches)
    seed = routes.ecmp_seed
    installed = 0
    # Rules are immutable, so switches reaching a destination through the
    # same port number (every spine does) are handed the same rule object.
    forwards: dict[tuple[object, int], FlowRule] = {}

    def forward(key: object, port: int) -> FlowRule:
        found = forwards.get((key, port))
        if found is None:
            found = forwards[key, port] = FlowRule(
                FORWARDING_TABLE, (("dst", key),), "forward", (("egress_port", port),)
            )
        return found

    for switch in topology.switches():
        name = switch.name
        if name in skipped or name not in routed:
            continue
        # One decision per distinct group at this switch: a leaf reaches
        # every remote rack through the same spines.
        decisions: dict[tuple[tuple[str, int], ...], int | tuple] = {}

        def towards(key: object, root: str) -> FlowRule:
            members = routes.group(name, root)
            decision = decisions.get(members)
            if decision is None:
                ports = tuple(topology.port_towards(name, hop) for hop, _ in members)
                decision = decisions[members] = (
                    ports[0]
                    if len(ports) == 1
                    else (
                        ("paths", tuple(paths for _, paths in members)),
                        ("ports", ports),
                        ("seed", seed),
                        ("switch", name),
                    )
                )
            if type(decision) is int:
                return forward(key, decision)
            return FlowRule(FORWARDING_TABLE, (("dst", key),), "ecmp", decision)

        table = switch.forwarding_table
        if clear_first:
            table.clear()
        batch = [
            forward(host, topology.port_towards(name, host))
            for host in routes.racks.get(name, ())
        ]
        batch += [towards(host, host) for host in routes.multi_homed]
        batch += [towards(RackPrefix(root), root) for root in routes.racks if root != name]
        installed += switch.switch.install_rules(batch)
        table.set_address_plan(routes.address_plan)
    return installed


def shortest_path(topology: Topology, src: str, dst: str) -> list[str]:
    """The (deterministic) shortest path between two devices, as device names."""
    if src not in topology.devices:
        raise RoutingError(f"no path from {src!r} to {dst!r}")
    dag = _DestinationDag(*_split_links(topology), dst)
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
