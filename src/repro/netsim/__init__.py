"""Data-center network simulator substrate.

Provides the discrete-event engine (:mod:`events`), link and device models
(:mod:`links`, :mod:`devices`), topology builders (:mod:`topology`), routing
(:mod:`routing`), traffic accounting (:mod:`stats`) and the simulator facade
(:mod:`simulator`).
"""

from repro.netsim.devices import (
    DAIET_TABLE,
    FORWARDING_TABLE,
    Device,
    Host,
    HostCounters,
    SwitchDevice,
    packet_wire_bytes,
)
from repro.netsim.events import Event, EventScheduler, Timer
from repro.netsim.links import (
    DEFAULT_BANDWIDTH_BPS,
    DEFAULT_PROPAGATION_S,
    Endpoint,
    Link,
)
from repro.netsim.routing import (
    RoutingState,
    compute_routes,
    install_forwarding_rules,
)
from repro.netsim.simulator import NetworkSimulator, SimulatorConfig
from repro.netsim.stats import LinkTraffic, TrafficStats
from repro.netsim.topology import Topology, fat_tree, leaf_spine, single_rack

__all__ = [
    "DAIET_TABLE",
    "FORWARDING_TABLE",
    "Device",
    "Host",
    "HostCounters",
    "SwitchDevice",
    "packet_wire_bytes",
    "Event",
    "EventScheduler",
    "Timer",
    "DEFAULT_BANDWIDTH_BPS",
    "DEFAULT_PROPAGATION_S",
    "Endpoint",
    "Link",
    "RoutingState",
    "compute_routes",
    "install_forwarding_rules",
    "NetworkSimulator",
    "SimulatorConfig",
    "LinkTraffic",
    "TrafficStats",
    "Topology",
    "fat_tree",
    "leaf_spine",
    "single_rack",
]
