"""Point-to-point link model.

Links connect a port on one device to a port on another with a simple
store-and-forward latency model: ``delay = propagation + size / bandwidth``.
What a link carries is counted by the simulator, in
:attr:`~repro.netsim.stats.TrafficStats.link_traffic`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.errors import TopologyError

#: 40 Gb/s expressed in bytes per second — a typical data-center access link.
DEFAULT_BANDWIDTH_BPS = 40e9 / 8

#: Intra-data-center propagation delay (a few microseconds).
DEFAULT_PROPAGATION_S = 2e-6


@dataclass
class Endpoint:
    """One end of a link: a device name and a port number."""

    device: str
    port: int


@dataclass
class Link:
    """A full-duplex point-to-point link between two device ports.

    ``loss_rate`` is the independent per-packet drop probability applied by the
    simulator on each direction; the default of 0 models the lossless fabric
    of the paper's evaluation (packet losses are explicitly left as future
    work there), and the failure-injection tests raise it.
    """

    a: Endpoint
    b: Endpoint
    bandwidth_bps: float = DEFAULT_BANDWIDTH_BPS
    propagation_s: float = DEFAULT_PROPAGATION_S
    loss_rate: float = 0.0
    name: str = ""

    def __post_init__(self) -> None:
        if self.bandwidth_bps <= 0:
            raise TopologyError("link bandwidth must be positive")
        if self.propagation_s < 0:
            raise TopologyError("link propagation delay must be non-negative")
        if not 0.0 <= self.loss_rate < 1.0:
            raise TopologyError("link loss_rate must lie in [0, 1)")
        if self.a.device == self.b.device:
            raise TopologyError(f"link endpoints must differ (got {self.a.device!r} twice)")
        if not self.name:
            self.name = f"{self.a.device}:{self.a.port}<->{self.b.device}:{self.b.port}"

    def port_of(self, device: str) -> int:
        """The port number ``device`` uses on this link."""
        if device == self.a.device:
            return self.a.port
        if device == self.b.device:
            return self.b.port
        raise TopologyError(f"device {device!r} is not attached to link {self.name!r}")
