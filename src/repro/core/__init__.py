"""DAIET core: the paper's primary contribution.

The subpackage contains the DAIET wire format (:mod:`packet`), the registry of
commutative/associative aggregation functions (:mod:`functions`), the in-switch
aggregation engine implementing Algorithm 1 (:mod:`aggregation`), aggregation
trees (:mod:`tree`), the network controller (:mod:`controller`) and the
:class:`~repro.core.daiet.DaietSystem` facade (:mod:`daiet`).
"""

from repro.core.aggregation import DaietAggregationEngine, TreeCounters, TreeState, hash_key
from repro.core.config import DaietConfig
from repro.core.controller import (
    AGGREGATE_ACTION,
    DaietController,
    InstalledJob,
    JobAllocation,
)
from repro.core.daiet import DaietReceiver, DaietSystem, ReceiverCounters
from repro.core.errors import (
    AggregationError,
    ConfigurationError,
    ControllerError,
    PacketFormatError,
    ReproError,
    TreeError,
)
from repro.core.functions import (
    MAX,
    MIN,
    SUM,
    AggregationFunction,
    aggregate_pairs,
    get,
)
from repro.core.packet import (
    DAIET_UDP_PORT,
    DaietPacket,
    DaietPacketType,
    end_packet,
    packetize_pairs,
)
from repro.core.tree import AggregationTree, TreeNode

__all__ = [
    "DaietAggregationEngine",
    "TreeCounters",
    "TreeState",
    "hash_key",
    "DaietConfig",
    "AGGREGATE_ACTION",
    "DaietController",
    "InstalledJob",
    "JobAllocation",
    "DaietReceiver",
    "DaietSystem",
    "ReceiverCounters",
    "AggregationError",
    "ConfigurationError",
    "ControllerError",
    "PacketFormatError",
    "ReproError",
    "TreeError",
    "MAX",
    "MIN",
    "SUM",
    "AggregationFunction",
    "aggregate_pairs",
    "get",
    "DAIET_UDP_PORT",
    "DaietPacket",
    "DaietPacketType",
    "end_packet",
    "packetize_pairs",
    "AggregationTree",
    "TreeNode",
]
