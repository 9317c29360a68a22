"""Unit and integration tests for the controller and the DaietSystem facade."""

from __future__ import annotations

import pytest

from repro.core.config import DaietConfig
from repro.core.controller import DaietController
from repro.core.daiet import DaietSystem
from repro.core.errors import ConfigurationError, ControllerError
from repro.netsim.simulator import NetworkSimulator, SimulatorConfig
from repro.netsim.topology import leaf_spine, single_rack


class TestController:
    def test_install_job_configures_switch_state(self):
        topo = single_rack(num_hosts=4)
        controller = DaietController(topo, DaietConfig(register_slots=128))
        job = controller.install_job(mappers=["h0", "h1", "h2"], reducers=["h3"])
        tree = job.tree_for_reducer("h3")
        engine = controller.engine("tor")
        state = engine.tree(tree.tree_id)
        assert state.num_children == 3
        assert state.next_hop_dst == "h3"
        tor = topo.get("tor")
        assert len(tor.daiet_table) == 1
        assert tor.switch.ledger.sram_allocated > 0

    def test_the_steering_entry_carries_the_engine(self):
        topo = single_rack(num_hosts=3)
        controller = DaietController(topo, DaietConfig(register_slots=16))
        job = controller.install_job(mappers=["h0", "h1"], reducers=["h2"])
        tor = topo.get("tor")
        entry = tor.daiet_table.lookup({"tree_id": job.tree_for_reducer("h2").tree_id})
        assert entry.action is controller.engine("tor") is tor.switch.externs["daiet"]

    def test_one_tree_per_reducer(self):
        topo = single_rack(num_hosts=5)
        controller = DaietController(topo, DaietConfig(register_slots=64))
        job = controller.install_job(
            mappers=["h0", "h1", "h2"], reducers=["h3", "h4"]
        )
        assert len(job.trees) == 2
        ids = {tree.tree_id for tree in job.trees.values()}
        assert len(ids) == 2
        assert len(topo.get("tor").daiet_table) == 2

    def test_colocated_mapper_excluded_from_its_reducers_tree(self):
        topo = single_rack(num_hosts=4)
        controller = DaietController(topo, DaietConfig(register_slots=64))
        job = controller.install_job(mappers=["h0", "h1", "h2"], reducers=["h2"])
        tree = job.tree_for_reducer("h2")
        assert "h2" not in tree.mappers
        assert set(tree.mappers) == {"h0", "h1"}

    def test_job_with_only_local_mappers_rejected(self):
        topo = single_rack(num_hosts=2)
        controller = DaietController(topo)
        with pytest.raises(ControllerError):
            controller.install_job(mappers=["h0"], reducers=["h0"])

    def test_multi_level_install(self):
        topo = leaf_spine(num_leaves=2, num_spines=2, hosts_per_leaf=2)
        controller = DaietController(topo, DaietConfig(register_slots=64))
        job = controller.install_job(mappers=["h0", "h1", "h2"], reducers=["h3"])
        tree = job.tree_for_reducer("h3")
        for node in tree.switches():
            engine = controller.engine(node.name)
            assert tree.tree_id in engine.counters()

    def test_tree_counters_accessor(self):
        topo = single_rack(num_hosts=3)
        controller = DaietController(topo, DaietConfig(register_slots=64))
        controller.install_job(mappers=["h0", "h1"], reducers=["h2"])
        counters = controller.tree_counters()
        assert len(counters) == 1
        (switch_name, _tree_id), tree_counters = next(iter(counters.items()))
        assert switch_name == "tor"
        assert tree_counters.packets_received == 0


class TestDaietSystemFacade:
    def test_quickstart_flow(self):
        system = DaietSystem.single_rack(num_hosts=4)
        system.install_job(mappers=["h0", "h1", "h2"], reducers=["h3"])
        system.send_pairs("h0", "h3", [("ant", 1), ("bee", 2)])
        system.send_pairs("h1", "h3", [("ant", 5)])
        system.send_pairs("h2", "h3", [("cat", 7)])
        system.run()
        receiver = system.receiver("h3")
        assert receiver.done
        assert receiver.result() == {"ant": 6, "bee": 2, "cat": 7}

    def test_traffic_is_reduced_at_the_reducer(self):
        system = DaietSystem.single_rack(num_hosts=4)
        system.install_job(mappers=["h0", "h1", "h2"], reducers=["h3"])
        # Every mapper sends the same keys, so the switch can fold 30 pairs
        # into 10.
        pairs = [(f"key{i}", 1) for i in range(10)]
        for mapper in ("h0", "h1", "h2"):
            system.send_pairs(mapper, "h3", pairs)
        system.run()
        receiver = system.receiver("h3")
        assert receiver.counters.pairs == 10
        assert receiver.result() == {f"key{i}": 3 for i in range(10)}

    def test_multiple_reducers(self):
        system = DaietSystem.single_rack(num_hosts=5)
        system.install_job(mappers=["h0", "h1", "h2"], reducers=["h3", "h4"])
        system.send_pairs("h0", "h3", [("a", 1)])
        system.send_pairs("h1", "h3", [("a", 2)])
        system.send_pairs("h2", "h3", [("a", 3)])
        system.send_pairs("h0", "h4", [("z", 5)])
        system.send_pairs("h1", "h4", [("z", 6)])
        system.send_pairs("h2", "h4", [("z", 7)])
        system.run()
        assert system.receiver("h3").result() == {"a": 6}
        assert system.receiver("h4").result() == {"z": 18}

    def test_send_from_non_mapper_rejected(self):
        system = DaietSystem.single_rack(num_hosts=4)
        system.install_job(mappers=["h0", "h1"], reducers=["h3"])
        with pytest.raises(ControllerError):
            system.send_pairs("h2", "h3", [("x", 1)])

    def test_receiver_for_unknown_host_rejected(self):
        system = DaietSystem.single_rack(num_hosts=3)
        with pytest.raises(ControllerError):
            system.receiver("h0")

    def test_runs_on_the_simulator_its_caller_owns(self):
        topo = single_rack(4)
        simulator = NetworkSimulator(topo, SimulatorConfig(loss_seed=5))
        system = DaietSystem(topo, simulator=simulator)
        assert system.simulator is simulator
        system.install_job(mappers=["h0", "h1"], reducers=["h3"])
        assert simulator.tree_policies == {1: "exact"}
        with pytest.raises(ConfigurationError):
            DaietSystem(topo, simulator_config=SimulatorConfig(), simulator=simulator)
        with pytest.raises(ConfigurationError):
            DaietSystem(single_rack(4), simulator=simulator)

    @pytest.mark.parametrize("reliability", [False, True])
    def test_an_application_attaches_its_own_collector(self, reliability):
        system = DaietSystem.single_rack(4, DaietConfig(reliability=reliability))
        job = system.install_job(mappers=["h0", "h1"], reducers=["h3"])
        collector = system.receiver("h3")
        tree = job.tree_for_reducer("h3")
        # Re-attaching the installed collector (what failover does) keeps it.
        system.attach_receiver(tree, collector.receive)
        assert system.receiver("h3") is collector
        seen = []
        system.attach_receiver(tree, seen.append)
        with pytest.raises(ControllerError):
            system.receiver("h3")
        sent = [
            *system.send_pairs("h0", "h3", [("a", 1)]),
            *system.send_pairs("h1", "h3", [("a", 2)]),
        ]
        system.run()
        assert len(sent) == 4
        assert [p.pairs for p in seen if p.pairs] == [(("a", 3),)]
        assert collector.counters.packets == 0

    def test_multi_level_aggregation_correctness(self):
        topo = leaf_spine(num_leaves=2, num_spines=2, hosts_per_leaf=2)
        system = DaietSystem(topo, DaietConfig(register_slots=256))
        system.install_job(mappers=["h0", "h1", "h2"], reducers=["h3"])
        system.send_pairs("h0", "h3", [("k", 1), ("only0", 10)])
        system.send_pairs("h1", "h3", [("k", 2)])
        system.send_pairs("h2", "h3", [("k", 4), ("only2", 20)])
        system.run()
        receiver = system.receiver("h3")
        assert receiver.done
        assert receiver.result() == {"k": 7, "only0": 10, "only2": 20}
