"""Unit tests for aggregation-tree construction."""

from __future__ import annotations

import pytest

from repro.core.errors import TreeError
from repro.core.tree import AggregationTree
from repro.netsim.topology import fat_tree, leaf_spine, single_rack


class TestSingleRackTree:
    def test_single_switch_tree_shape(self):
        topo = single_rack(num_hosts=4)
        tree = AggregationTree.build(topo, tree_id=1, reducer="h3", mappers=["h0", "h1", "h2"])
        assert tree.node("h0").parent == "tor"
        assert tree.node("tor").parent == "h3"
        assert tree.node("h3").parent is None
        assert tree.children_count("tor") == 3
        assert tree.children_count("h3") == 1
        assert tree.path_to_root("h0") == ["h0", "tor", "h3"]
        assert [n.name for n in tree.switches()] == ["tor"]

    def test_path_to_root(self):
        topo = single_rack(num_hosts=3)
        tree = AggregationTree.build(topo, tree_id=1, reducer="h2", mappers=["h0", "h1"])
        assert tree.path_to_root("h0") == ["h0", "tor", "h2"]

    def test_first_hop_switch(self):
        topo = single_rack(num_hosts=3)
        tree = AggregationTree.build(topo, tree_id=1, reducer="h2", mappers=["h0", "h1"])
        assert tree.node(tree.node("h0").parent).is_switch


class TestMultiLevelTree:
    def test_leaf_spine_tree_spans_levels(self):
        topo = leaf_spine(num_leaves=2, num_spines=2, hosts_per_leaf=2)
        # h0, h1 under leaf0; h2, h3 under leaf1; reducer is h3.
        tree = AggregationTree.build(topo, tree_id=1, reducer="h3", mappers=["h0", "h1", "h2"])
        switch_names = {n.name for n in tree.switches()}
        assert "leaf0" in switch_names and "leaf1" in switch_names
        assert len(switch_names & {"spine0", "spine1"}) == 1
        # Both mappers under leaf0 funnel into the same leaf switch.
        assert tree.node("h0").parent == "leaf0"
        assert tree.node("h1").parent == "leaf0"
        assert tree.children_count("leaf0") == 2
        # h2 is under the reducer's own leaf.
        assert tree.node("h2").parent == "leaf1"
        assert len(tree.path_to_root("h0")) - 1 >= 3

    def test_fat_tree_tree_is_consistent(self):
        topo = fat_tree(4)
        hosts = [h.name for h in topo.hosts()]
        reducer = hosts[-1]
        mappers = hosts[:6]
        tree = AggregationTree.build(topo, tree_id=1, reducer=reducer, mappers=mappers)
        tree.validate()
        for mapper in mappers:
            assert tree.path_to_root(mapper)[-1] == reducer


class TestValidation:
    def test_requires_mappers(self):
        topo = single_rack(num_hosts=2)
        with pytest.raises(TreeError):
            AggregationTree.build(topo, tree_id=1, reducer="h1", mappers=[])

    def test_rejects_duplicate_mappers(self):
        topo = single_rack(num_hosts=3)
        with pytest.raises(TreeError):
            AggregationTree.build(topo, tree_id=1, reducer="h2", mappers=["h0", "h0"])

    def test_rejects_mapper_equal_to_reducer(self):
        topo = single_rack(num_hosts=3)
        with pytest.raises(TreeError):
            AggregationTree.build(topo, tree_id=1, reducer="h2", mappers=["h2", "h0"])

    def test_rejects_switch_endpoints(self):
        topo = single_rack(num_hosts=3)
        with pytest.raises(TreeError):
            AggregationTree.build(topo, tree_id=1, reducer="tor", mappers=["h0"])
        with pytest.raises(TreeError):
            AggregationTree.build(topo, tree_id=1, reducer="h2", mappers=["tor"])

    def test_unknown_node_lookup(self):
        topo = single_rack(num_hosts=3)
        tree = AggregationTree.build(topo, tree_id=1, reducer="h2", mappers=["h0"])
        with pytest.raises(TreeError):
            tree.node("h9")
        with pytest.raises(TreeError):
            tree.children_count("h9")
