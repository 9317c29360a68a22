"""Data-center topologies.

A :class:`Topology` holds named devices (exact :class:`Host` and
:class:`SwitchDevice` instances: the simulator compiles one delivery routine
per device type) and the links between them. Builders are provided for the
three shapes used in the paper's context:

* :func:`single_rack` — hosts behind one ToR switch (the paper's evaluation
  setup: one bmv2 switch, worker containers attached to it),
* :func:`leaf_spine` — a two-tier Clos fabric,
* :func:`fat_tree` — a k-ary fat-tree (edge/aggregation/core), used by the
  multi-level aggregation-tree ablation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.errors import TopologyError
from repro.netsim.devices import Device, Host, SwitchDevice
from repro.netsim.links import DEFAULT_BANDWIDTH_BPS, DEFAULT_PROPAGATION_S, Endpoint, Link


@dataclass
class Topology:
    """A collection of devices and the links connecting them."""

    name: str = "topology"
    devices: dict[str, Device] = field(default_factory=dict)
    links: list[Link] = field(default_factory=list)
    _ports_in_use: dict[str, int] = field(default_factory=dict, repr=False)
    _adjacency: dict[str, dict[str, Link]] = field(default_factory=dict, repr=False)

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def add_host(self, name: str) -> Host:
        """Create and register a host."""
        host = Host(name)
        self._register(host)
        return host

    def add_switch(self, name: str, num_ports: int = 64) -> SwitchDevice:
        """Create and register a programmable switch."""
        switch = SwitchDevice(name, num_ports=num_ports)
        self._register(switch)
        return switch

    def _register(self, device: Device) -> None:
        if device.name in self.devices:
            raise TopologyError(f"duplicate device name {device.name!r}")
        self.devices[device.name] = device
        self._ports_in_use[device.name] = 0
        self._adjacency[device.name] = {}

    def connect(
        self,
        a: str,
        b: str,
        bandwidth_bps: float = DEFAULT_BANDWIDTH_BPS,
        propagation_s: float = DEFAULT_PROPAGATION_S,
        loss_rate: float = 0.0,
    ) -> Link:
        """Connect two registered devices with a new link, auto-assigning ports."""
        for name in (a, b):
            if name not in self.devices:
                raise TopologyError(f"unknown device {name!r}")
        if b in self._adjacency[a]:
            raise TopologyError(f"devices {a!r} and {b!r} are already connected")
        port_a = self._next_port(a)
        port_b = self._next_port(b)
        link = Link(
            a=Endpoint(device=a, port=port_a),
            b=Endpoint(device=b, port=port_b),
            bandwidth_bps=bandwidth_bps,
            propagation_s=propagation_s,
            loss_rate=loss_rate,
        )
        self.links.append(link)
        self._adjacency[a][b] = link
        self._adjacency[b][a] = link
        return link

    def _next_port(self, device_name: str) -> int:
        port = self._ports_in_use[device_name]
        self._ports_in_use[device_name] = port + 1
        device = self.devices[device_name]
        if isinstance(device, SwitchDevice) and port >= device.switch.num_ports:
            raise TopologyError(
                f"switch {device_name!r} has no free port (has {device.switch.num_ports})"
            )
        if isinstance(device, Host) and port >= 1:
            raise TopologyError(f"host {device_name!r} already has its single NIC connected")
        return port

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def get(self, name: str) -> Device:
        """Return a device by name."""
        if name not in self.devices:
            raise TopologyError(f"unknown device {name!r}")
        return self.devices[name]

    def hosts(self) -> list[Host]:
        """All hosts, in insertion order."""
        return [d for d in self.devices.values() if isinstance(d, Host)]

    def switches(self) -> list[SwitchDevice]:
        """All switches, in insertion order."""
        return [d for d in self.devices.values() if isinstance(d, SwitchDevice)]

    def host_uplinks(self) -> list[Link]:
        """The links with a host on either end, in insertion order."""
        devices = self.devices
        return [
            link
            for link in self.links
            if isinstance(devices[link.a.device], Host)
            or isinstance(devices[link.b.device], Host)
        ]

    def link_between(self, a: str, b: str) -> Link:
        """The link directly connecting ``a`` and ``b``."""
        link = self._adjacency.get(a, {}).get(b)
        if link is None:
            raise TopologyError(f"no link between {a!r} and {b!r}")
        return link

    def neighbors(self, name: str) -> list[str]:
        """Names of the devices directly connected to ``name``."""
        if name not in self._adjacency:
            raise TopologyError(f"unknown device {name!r}")
        return list(self._adjacency[name])

    def port_towards(self, from_device: str, to_device: str) -> int:
        """The port ``from_device`` uses to reach its neighbour ``to_device``."""
        return self.link_between(from_device, to_device).port_of(from_device)

    def validate(self) -> None:
        """Check that the topology is connected and every host has an uplink."""
        if not self.devices:
            raise TopologyError("topology has no devices")
        start = next(iter(self.devices))
        reached = {start}
        frontier = [start]
        while frontier:
            for neighbor in self._adjacency[frontier.pop()]:
                if neighbor not in reached:
                    reached.add(neighbor)
                    frontier.append(neighbor)
        if len(reached) != len(self.devices):
            raise TopologyError("topology is not connected")
        for host in self.hosts():
            if self._ports_in_use[host.name] == 0:
                raise TopologyError(f"host {host.name!r} is not connected to any switch")


# ---------------------------------------------------------------------- #
# Builders
# ---------------------------------------------------------------------- #
def single_rack(
    num_hosts: int,
    switch_name: str = "tor",
    host_prefix: str = "h",
    bandwidth_bps: float = DEFAULT_BANDWIDTH_BPS,
    loss_rate: float = 0.0,
) -> Topology:
    """Hosts attached to a single top-of-rack switch (the paper's testbed shape).

    ``loss_rate`` is the per-direction drop probability of every host uplink.
    """
    if num_hosts <= 0:
        raise TopologyError("single_rack needs at least one host")
    topo = Topology(name="single_rack")
    topo.add_switch(switch_name, num_ports=max(64, num_hosts + 4))
    for i in range(num_hosts):
        host = topo.add_host(f"{host_prefix}{i}")
        topo.connect(
            host.name, switch_name, bandwidth_bps=bandwidth_bps, loss_rate=loss_rate
        )
    topo.validate()
    return topo


def leaf_spine(
    num_leaves: int,
    num_spines: int,
    hosts_per_leaf: int,
    host_prefix: str = "h",
    bandwidth_bps: float = DEFAULT_BANDWIDTH_BPS,
) -> Topology:
    """A two-tier leaf-spine fabric with hosts under each leaf."""
    if num_leaves <= 0 or num_spines <= 0 or hosts_per_leaf <= 0:
        raise TopologyError("leaf_spine dimensions must all be positive")
    topo = Topology(name="leaf_spine")
    spines = [topo.add_switch(f"spine{s}", num_ports=max(64, num_leaves + 4)) for s in range(num_spines)]
    host_index = 0
    for leaf_id in range(num_leaves):
        leaf = topo.add_switch(
            f"leaf{leaf_id}", num_ports=max(64, hosts_per_leaf + num_spines + 4)
        )
        for spine in spines:
            topo.connect(leaf.name, spine.name, bandwidth_bps=bandwidth_bps)
        for _ in range(hosts_per_leaf):
            host = topo.add_host(f"{host_prefix}{host_index}")
            host_index += 1
            topo.connect(host.name, leaf.name, bandwidth_bps=bandwidth_bps)
    topo.validate()
    return topo


def fat_tree(k: int, bandwidth_bps: float = DEFAULT_BANDWIDTH_BPS) -> Topology:
    """A k-ary fat-tree with (k/2)^2 core switches and k pods.

    Each pod has k/2 edge and k/2 aggregation switches; each edge switch hosts
    k/2 servers, for k^3/4 hosts in total.
    """
    if k < 2 or k % 2 != 0:
        raise TopologyError("fat_tree requires an even k >= 2")
    half = k // 2
    topo = Topology(name=f"fat_tree_k{k}")
    cores = [
        topo.add_switch(f"core{i}", num_ports=max(64, k + 2)) for i in range(half * half)
    ]
    host_index = 0
    for pod in range(k):
        aggs = [
            topo.add_switch(f"pod{pod}_agg{a}", num_ports=max(64, k + 2)) for a in range(half)
        ]
        edges = [
            topo.add_switch(f"pod{pod}_edge{e}", num_ports=max(64, k + 2)) for e in range(half)
        ]
        for a, agg in enumerate(aggs):
            for c in range(half):
                core = cores[a * half + c]
                topo.connect(agg.name, core.name, bandwidth_bps=bandwidth_bps)
            for edge in edges:
                topo.connect(agg.name, edge.name, bandwidth_bps=bandwidth_bps)
        for edge in edges:
            for _ in range(half):
                host = topo.add_host(f"h{host_index}")
                host_index += 1
                topo.connect(host.name, edge.name, bandwidth_bps=bandwidth_bps)
    topo.validate()
    return topo
