"""Resource accounting across install / teardown / re-plan cycles.

Failover re-plans trees at runtime; every cycle must return the fabric to
a clean state or long churn runs leak switch SRAM, steering entries and
engine tree state. These tests pin the full ledger —
:meth:`ResourceLedger.allocations`, ``daiet_table`` entries and
``engine._trees`` — across ``replan_tree`` and crash teardown. The switch's compiled paths keep no lookup memo of their own
(they probe the tables), so there is no cache left to leak from.
"""

from __future__ import annotations

import pytest

from repro.core.config import DaietConfig
from repro.core.controller import DaietController
from repro.core.daiet import DaietSystem
from repro.core.errors import RoutingError
from repro.netsim.devices import SwitchDevice
from repro.netsim.faults import FaultPlan, install_faults
from repro.netsim.simulator import SimulatorConfig
from repro.netsim.topology import leaf_spine


MAPPERS = ["h0", "h1", "h2"]
REDUCER = "h3"


def _controller() -> DaietController:
    topo = leaf_spine(num_leaves=2, num_spines=2, hosts_per_leaf=2)
    return DaietController(topo, DaietConfig())


def _switches(controller: DaietController) -> list[SwitchDevice]:
    return controller.topology.switches()


def _assert_released(controller: DaietController, tree_id: int) -> None:
    """No switch anywhere holds SRAM, steering state or tree state of ``tree_id``."""
    for device in _switches(controller):
        assert f"tree{tree_id}" not in device.switch.ledger.allocations()
        assert device.daiet_table.lookup({"tree_id": tree_id}) is None
        engine = controller.engines.get(device.name)
        if engine is not None:
            assert tree_id not in engine._trees


def _tree_footprint(controller: DaietController, tree_id: int) -> dict[str, int]:
    """Per-switch SRAM bytes currently owned by ``tree_id``."""
    footprint = {}
    for device in _switches(controller):
        held = device.switch.ledger.allocations().get(f"tree{tree_id}")
        if held:
            footprint[device.name] = held
    return footprint


class TestReplanTree:
    def test_replan_one_job_leaves_the_other_untouched(self):
        controller = _controller()
        job_a = controller.install_job(MAPPERS, [REDUCER])
        job_b = controller.install_job(["h1", "h3"], ["h0"])
        old_id = job_a.tree_for_reducer(REDUCER).tree_id
        before = _tree_footprint(controller, job_b.tree_for_reducer("h0").tree_id)
        controller.replan_tree(job_a, REDUCER)
        assert _tree_footprint(
            controller, job_b.tree_for_reducer("h0").tree_id
        ) == before
        _assert_released(controller, old_id)

    def test_replan_releases_old_epoch_everywhere(self):
        controller = _controller()
        job = controller.install_job(MAPPERS, [REDUCER])
        old_id = job.tree_for_reducer(REDUCER).tree_id
        old_spine = next(
            node.name
            for node in job.tree_for_reducer(REDUCER).switches()
            if node.name.startswith("spine")
        )
        tree = controller.replan_tree(job, REDUCER, exclude={old_spine})
        assert tree.tree_id != old_id
        assert old_spine not in tree.nodes
        _assert_released(controller, old_id)
        # The replacement holds SRAM exactly on its own switches.
        assert set(_tree_footprint(controller, tree.tree_id)) == {
            node.name for node in tree.switches()
        }

    def test_repeated_replans_do_not_leak(self):
        controller = _controller()
        job = controller.install_job(MAPPERS, [REDUCER])
        for cycle in range(10):
            avoid = f"spine{cycle % 2}"
            tree = controller.replan_tree(job, REDUCER, exclude={avoid})
        live = f"tree{tree.tree_id}"
        for device in _switches(controller):
            allocations = device.switch.ledger.allocations()
            # At most the live epoch — every dead epoch fully released.
            assert set(allocations) <= {live}
            assert len(device.daiet_table) <= 1
            engine = controller.engines.get(device.name)
            if engine is not None:
                assert set(engine._trees) <= {tree.tree_id}

    def test_failed_replan_leaves_old_tree_released(self):
        controller = _controller()
        job = controller.install_job(MAPPERS, [REDUCER])
        old_id = job.tree_for_reducer(REDUCER).tree_id
        with pytest.raises(RoutingError):
            controller.replan_tree(job, REDUCER, exclude={"spine0", "spine1"})
        # Degraded, not half-installed: the dead epoch stays torn down.
        assert _tree_footprint(controller, old_id) == {}


class TestCrashTeardown:
    def test_teardown_after_crash_wipe_is_idempotent(self):
        # A crashed switch already lost its volatile state; the controller's
        # teardown must tolerate the double-free and still clean the
        # survivors.
        topo = leaf_spine(num_leaves=2, num_spines=2, hosts_per_leaf=2)
        system = DaietSystem(topo, DaietConfig(), SimulatorConfig())
        job = system.install_job(mappers=MAPPERS, reducers=[REDUCER])
        old_id = job.tree_for_reducer(REDUCER).tree_id
        spine = next(
            node.name
            for node in job.tree_for_reducer(REDUCER).switches()
            if node.name.startswith("spine")
        )
        injector = install_faults(
            system.simulator, FaultPlan().switch_crash(1e-6, spine)
        )
        system.run()
        assert injector.is_down(spine)
        system.controller.replan_tree(job, REDUCER, exclude={spine})
        _assert_released(system.controller, old_id)

    def test_traffic_populated_caches_are_released(self):
        # Drive real traffic through the compiled path, then tear down.
        topo = leaf_spine(num_leaves=2, num_spines=2, hosts_per_leaf=2)
        system = DaietSystem(topo, DaietConfig(), SimulatorConfig())
        job = system.install_job(mappers=MAPPERS, reducers=[REDUCER])
        old_id = job.tree_for_reducer(REDUCER).tree_id
        for mapper in MAPPERS:
            system.send_pairs(mapper, REDUCER, [(f"{mapper}k{i}", 1) for i in range(8)])
        system.run()
        assert any(
            device.daiet_table.hit_count for device in _switches(system.controller)
        )
        system.controller.replan_tree(job, REDUCER)
        _assert_released(system.controller, old_id)
