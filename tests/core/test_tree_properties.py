"""Property-based tests for aggregation-tree construction over random fabrics.

Whatever the topology shape and however mappers and the reducer are placed,
the tree the controller builds must satisfy the invariants DAIET relies on:
every mapper's traffic reaches the reducer, parent pointers form a tree (no
cycles), children counts are consistent, and the switches' END-countdown sums
match the number of traffic sources.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core.tree import AggregationTree
from repro.netsim.topology import fat_tree, leaf_spine, single_rack


@st.composite
def fabric_and_hosts(draw):
    """A random topology plus a reducer and a set of mappers on it."""
    kind = draw(st.sampled_from(["single_rack", "leaf_spine", "fat_tree"]))
    if kind == "single_rack":
        topo = single_rack(num_hosts=draw(st.integers(2, 10)))
    elif kind == "leaf_spine":
        topo = leaf_spine(
            num_leaves=draw(st.integers(2, 4)),
            num_spines=draw(st.integers(1, 3)),
            hosts_per_leaf=draw(st.integers(1, 4)),
        )
    else:
        topo = fat_tree(4)
    hosts = [h.name for h in topo.hosts()]
    reducer = draw(st.sampled_from(hosts))
    candidates = [h for h in hosts if h != reducer]
    mappers = draw(
        st.lists(st.sampled_from(candidates), min_size=1, max_size=len(candidates), unique=True)
    )
    return topo, reducer, mappers


class TestTreeInvariants:
    @settings(max_examples=40, deadline=None)
    @given(fabric_and_hosts())
    def test_every_mapper_reaches_the_reducer(self, fabric):
        topo, reducer, mappers = fabric
        tree = AggregationTree.build(topo, tree_id=1, reducer=reducer, mappers=mappers)
        for mapper in mappers:
            path = tree.path_to_root(mapper)
            assert path[0] == mapper
            assert path[-1] == reducer

    @settings(max_examples=40, deadline=None)
    @given(fabric_and_hosts())
    def test_parent_child_consistency_and_acyclicity(self, fabric):
        topo, reducer, mappers = fabric
        tree = AggregationTree.build(topo, tree_id=1, reducer=reducer, mappers=mappers)
        tree.validate()
        # Children counts across the whole tree equal the number of non-root nodes.
        total_children = sum(tree.children_count(name) for name in tree.nodes)
        assert total_children == len(tree.nodes) - 1

    @settings(max_examples=40, deadline=None)
    @given(fabric_and_hosts())
    def test_tree_edges_exist_in_the_topology(self, fabric):
        topo, reducer, mappers = fabric
        tree = AggregationTree.build(topo, tree_id=1, reducer=reducer, mappers=mappers)
        for node in tree.nodes.values():
            if node.parent is not None:
                # Parent must be a direct physical neighbour.
                assert node.parent in topo.neighbors(node.name)

    @settings(max_examples=40, deadline=None)
    @given(fabric_and_hosts())
    def test_mappers_are_leaves_and_switch_children_cover_sources(self, fabric):
        topo, reducer, mappers = fabric
        tree = AggregationTree.build(topo, tree_id=1, reducer=reducer, mappers=mappers)
        for mapper in mappers:
            assert not tree.node(mapper).children
        # The END-countdown invariant: summing the leaf children over all
        # switches accounts for every mapper exactly once.
        leaf_children = 0
        for switch in tree.switches():
            leaf_children += sum(
                1 for child in switch.children if not tree.node(child).is_switch
            )
        assert leaf_children == len(mappers)
