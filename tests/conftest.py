"""Shared fixtures for the test suite."""

from __future__ import annotations

from dataclasses import asdict
from itertools import permutations

import pytest

from repro.analysis.error_bounds import install_error_tracker
from repro.checks.sanitize import install_sanitizer
from repro.core.config import DaietConfig
from repro.graph.generators import livejournal_like, ring_graph
from repro.mapreduce.cluster import build_cluster
from repro.mapreduce.wordcount import generate_corpus
from repro.mlsys.datasets import generate_synthetic_mnist
from repro.netsim.faults import FaultPlan, install_faults
from repro.netsim.topology import leaf_spine, single_rack


@pytest.fixture(
    params=list(permutations(("sanitizer", "faults", "tracker"))), ids="-".join
)
def attach_observers(request):
    """Installs all three simulator observers, in each of the six add orders.

    ``attach(system, plan=None)`` returns ``(sanitizer, injector, tracker)``;
    whatever they report must not depend on the order they were added in.
    """

    def attach(system, plan=None):
        sim = system.simulator
        installers = {
            "sanitizer": lambda: install_sanitizer(sim),
            "faults": lambda: install_faults(sim, plan or FaultPlan()),
            "tracker": lambda: install_error_tracker(system),
        }
        installed = {name: installers[name]() for name in request.param}
        return installed["sanitizer"], installed["faults"], installed["tracker"]

    return attach


def _traffic_snapshot(sim) -> dict:
    """Every traffic counter of a simulator, each read from its one owner.

    The links' traffic and the drop tables come from ``TrafficStats``, each
    host's NIC traffic from its ``HostCounters`` and each switch's from its
    ``SwitchCounters``. Twin runs compare this whole dictionary.
    """
    return {
        "stats": sim.stats.snapshot(),
        "hosts": {host.name: asdict(host.counters) for host in sim.topology.hosts()},
        "switches": {
            device.name: device.switch.counters.snapshot()
            for device in sim.topology.switches()
        },
    }


@pytest.fixture()
def traffic_snapshot():
    """:func:`_traffic_snapshot`: ``traffic_snapshot(sim)`` reads every counter."""
    return _traffic_snapshot


@pytest.fixture()
def small_config() -> DaietConfig:
    """A small DAIET configuration (64 register slots) for collision testing."""
    return DaietConfig(register_slots=64, pairs_per_packet=4)


@pytest.fixture()
def default_config() -> DaietConfig:
    """The paper's default DAIET configuration."""
    return DaietConfig()


@pytest.fixture()
def rack_topology():
    """Four hosts behind one ToR switch."""
    return single_rack(num_hosts=4)


@pytest.fixture()
def fabric_topology():
    """A small leaf-spine fabric (2 leaves x 2 spines, 3 hosts per leaf)."""
    return leaf_spine(num_leaves=2, num_spines=2, hosts_per_leaf=3)


@pytest.fixture(scope="session")
def tiny_corpus():
    """A small random-words corpus shared across MapReduce tests."""
    return generate_corpus(
        total_words=6_000, vocabulary_size=900, num_partitions=4, seed=11
    )


@pytest.fixture(scope="session")
def tiny_dataset():
    """A small synthetic MNIST-like dataset shared across ML tests."""
    return generate_synthetic_mnist(num_samples=1_200, seed=3)


@pytest.fixture(scope="session")
def small_social_graph():
    """A small LiveJournal-like graph shared across graph tests."""
    return livejournal_like(num_vertices=1_500, seed=5)


@pytest.fixture(scope="session")
def small_ring_graph():
    """A deterministic ring graph for exact-result algorithm tests."""
    return ring_graph(12)


@pytest.fixture()
def small_cluster():
    """A four-worker single-rack MapReduce cluster."""
    return build_cluster(num_workers=4)
