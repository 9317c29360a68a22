"""The BFS/DAG router must be bit-identical to the networkx path oracle.

The fast router (one BFS per attachment switch + path-count indexing)
replaced a per-(source, destination) ``sorted(nx.all_shortest_paths(...))``
enumeration, by way of a one-BFS-per-destination-host router. Every next hop
and every full path — including the hash-indexed ECMP choice among
equal-cost paths — must match what the enumeration would have picked, or
installed forwarding state (and every figure derived from it) silently
changes. These tests re-implement the enumeration as an oracle and keep the
per-destination router as a second reference, and compare exhaustively on
ECMP-heavy fabrics.
"""

from __future__ import annotations

import hashlib
from typing import Iterable

import networkx as nx
import pytest

from repro.core.errors import RoutingError
from repro.netsim.routing import (
    _DestinationDag,
    _sorted_adjacency,
    compute_routes,
    paths_towards,
    shortest_path,
)
from repro.netsim.topology import Topology, fat_tree, leaf_spine


def _oracle_path(topology: Topology, src: str, dst: str, seed: int = 0) -> list[str]:
    graph = topology.graph()
    paths = sorted(nx.all_shortest_paths(graph, src, dst))
    if len(paths) == 1:
        return paths[0]
    digest = hashlib.sha256(f"{seed}:{src}->{dst}".encode()).digest()
    return paths[int.from_bytes(digest[:4], "big") % len(paths)]


def _oracle_routes(topology: Topology, seed: int = 0) -> dict[str, dict[str, str]]:
    hosts = [h.name for h in topology.hosts()]
    return {
        switch.name: {
            dst: _oracle_path(topology, switch.name, dst, seed)[1] for dst in hosts
        }
        for switch in topology.switches()
    }


def _per_destination_routes(
    topology: Topology, seed: int = 0, exclude: Iterable[str] = ()
) -> dict[str, dict[str, str]]:
    """The router as it was before DAGs were shared: one BFS per host."""
    excluded = set(exclude)
    adjacency = _sorted_adjacency(topology, excluded)
    switches = [s.name for s in topology.switches() if s.name not in excluded]
    next_hops: dict[str, dict[str, str]] = {switch: {} for switch in switches}
    for host in topology.hosts():
        if host.name not in adjacency:
            continue
        dag = _DestinationDag(adjacency, host.name)
        for switch in switches:
            if switch not in dag.counts:
                raise RoutingError(
                    f"host {host.name!r} unreachable from switch {switch!r}"
                )
            next_hops[switch][host.name] = dag.first_hop(switch, seed)
    return next_hops


def _ordered(next_hops: dict[str, dict[str, str]]) -> list[tuple[str, list[tuple[str, str]]]]:
    """Values *and* insertion order: rule install order follows the latter."""
    return [(switch, list(hops.items())) for switch, hops in next_hops.items()]


class _MultiHomedTopology(Topology):
    """A topology whose hosts may take a second uplink."""

    def _next_port(self, device_name: str) -> int:
        port = self._ports_in_use[device_name]
        self._ports_in_use[device_name] = port + 1
        return port


def _dual_homed_fabric() -> Topology:
    """Three leaves under two spines; ``h2`` hangs off both leaf1 and leaf2."""
    topo = _MultiHomedTopology(name="dual_homed")
    for spine in ("spine0", "spine1"):
        topo.add_switch(spine)
    for leaf in ("leaf0", "leaf1", "leaf2"):
        topo.add_switch(leaf)
        for spine in ("spine0", "spine1"):
            topo.connect(leaf, spine)
    for host, leaves in (
        ("h0", ("leaf0",)),
        ("h1", ("leaf0",)),
        ("h2", ("leaf1", "leaf2")),
        ("h3", ("leaf2",)),
        ("h4", ("leaf1",)),
    ):
        topo.add_host(host)
        for leaf in leaves:
            topo.connect(host, leaf)
    topo.validate()
    return topo


class TestSharedDagsMatchPerDestinationRouting:
    @pytest.mark.parametrize(
        ("build", "seed"),
        [
            (lambda: leaf_spine(num_leaves=5, num_spines=4, hosts_per_leaf=4), 0),
            (lambda: leaf_spine(num_leaves=5, num_spines=4, hosts_per_leaf=4), 2017),
            (lambda: fat_tree(4), 0),
            (lambda: fat_tree(6), 7),
            (_dual_homed_fabric, 0),
            (_dual_homed_fabric, 11),
        ],
    )
    def test_next_hops_and_their_order_match(self, build, seed):
        topo = build()
        routes = compute_routes(topo, ecmp_seed=seed)
        assert _ordered(routes.next_hops) == _ordered(_per_destination_routes(topo, seed))

    def test_dual_homed_host_is_reached_through_both_leaves(self):
        routes = compute_routes(_dual_homed_fabric())
        assert routes.next_hop("leaf1", "h2") == "h2"
        assert routes.next_hop("leaf2", "h2") == "h2"
        assert routes.next_hops == _oracle_routes(_dual_homed_fabric())

    @staticmethod
    def _assert_excluded_match(topo: Topology, exclude: set[str]) -> None:
        routes = compute_routes(topo, ecmp_seed=3, exclude=exclude)
        assert _ordered(routes.next_hops) == _ordered(
            _per_destination_routes(topo, 3, exclude)
        )
        assert not exclude & set(routes.next_hops)
        assert not any(exclude & set(hops.values()) for hops in routes.next_hops.values())

    @pytest.mark.parametrize("exclude", [{"spine1"}, {"spine0", "spine2"}])
    def test_excluded_spines_match(self, exclude):
        topo = leaf_spine(num_leaves=4, num_spines=3, hosts_per_leaf=3)
        self._assert_excluded_match(topo, exclude)

    def test_excluded_leaf_of_a_dual_homed_host_matches(self):
        """Without leaf1, ``h2`` has one neighbour left and joins leaf2's
        shared DAG (``h4`` hangs off leaf1 alone and goes with it)."""
        self._assert_excluded_match(_dual_homed_fabric(), {"leaf1", "h4"})

    def test_excluded_tor_raises_as_before(self):
        topo = leaf_spine(num_leaves=3, num_spines=2, hosts_per_leaf=2)
        with pytest.raises(RoutingError) as reference:
            _per_destination_routes(topo, 0, {"leaf1"})
        with pytest.raises(RoutingError) as raised:
            compute_routes(topo, exclude={"leaf1"})
        assert str(raised.value) == str(reference.value)
        assert str(raised.value) == "host 'h2' unreachable from switch 'spine0'"


class TestRoutingOracleEquivalence:
    def test_fat_tree_next_hops_match(self):
        topo = fat_tree(4)
        assert compute_routes(topo).next_hops == _oracle_routes(topo)

    def test_leaf_spine_next_hops_match(self):
        topo = leaf_spine(num_leaves=4, num_spines=3, hosts_per_leaf=3)
        assert compute_routes(topo).next_hops == _oracle_routes(topo)

    def test_nonzero_ecmp_seed_matches(self):
        topo = leaf_spine(num_leaves=3, num_spines=4, hosts_per_leaf=2)
        assert compute_routes(topo, ecmp_seed=7).next_hops == _oracle_routes(
            topo, seed=7
        )

    def test_full_paths_match_on_ecmp_fabric(self):
        topo = fat_tree(4)
        hosts = [h.name for h in topo.hosts()]
        for src in hosts[:4]:
            for dst in hosts:
                if src != dst:
                    assert shortest_path(topo, src, dst) == _oracle_path(
                        topo, src, dst
                    ), (src, dst)

    def test_paths_towards_matches_per_source_calls(self):
        topo = leaf_spine(num_leaves=3, num_spines=2, hosts_per_leaf=3)
        hosts = [h.name for h in topo.hosts()]
        dst = hosts[0]
        sources = hosts[1:]
        bulk = paths_towards(topo, dst, sources)
        for src in sources:
            assert bulk[src] == shortest_path(topo, src, dst)

    def test_ecmp_actually_exercised(self):
        """The fabrics above really have multiple equal-cost paths."""
        topo = fat_tree(4)
        graph = topo.graph()
        hosts = [h.name for h in topo.hosts()]
        assert any(
            len(list(nx.all_shortest_paths(graph, hosts[0], dst))) > 1
            for dst in hosts[1:]
        )
