"""Exception hierarchy for the DAIET reproduction.

All exceptions raised by :mod:`repro` derive from :class:`ReproError`, so that
callers can catch the whole family with a single ``except`` clause while still
being able to distinguish configuration problems from runtime data-plane
violations.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ConfigurationError(ReproError):
    """An invalid configuration value was supplied."""


class ResourceExhaustedError(ReproError):
    """A data-plane resource budget (SRAM, stages, parse depth) was exceeded."""


class PacketFormatError(ReproError):
    """A packet could not be parsed or serialized."""


class PipelineError(ReproError):
    """A switch program was misconfigured or violated a constraint."""


class TableError(PipelineError):
    """A match-action table operation failed (duplicate entry, missing rule...)."""


class RoutingError(ReproError):
    """No route exists between two nodes, or a routing table is inconsistent."""


class TopologyError(ReproError):
    """A topology was malformed (disconnected, duplicate node names, ...)."""


class TreeError(ReproError):
    """An aggregation tree could not be constructed or is inconsistent."""


class ControllerError(ReproError):
    """The network controller could not install the requested state."""


class AggregationError(ReproError):
    """The in-switch aggregation logic detected an inconsistent state."""


class TransportError(ReproError):
    """A transport-layer framing or delivery error."""


class JobError(ReproError):
    """A MapReduce job failed or was misconfigured."""


class TrainingError(ReproError):
    """A distributed-training run failed or was misconfigured."""


class GraphError(ReproError):
    """A graph-processing run failed or was misconfigured."""


class SimulationError(ReproError):
    """The discrete-event simulator reached an inconsistent state."""


class SanitizerError(SimulationError):
    """The runtime sanitizer (``REPRO_SANITIZE=1``) detected an invariant
    violation: broken packet conservation, a non-monotone or structurally
    corrupt event queue, or leaked aggregation register state."""
