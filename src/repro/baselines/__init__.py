"""Comparison systems: the paper's two baselines."""

from repro.baselines.tcp_shuffle import TcpShuffle
from repro.baselines.udp_shuffle import UdpShuffle

__all__ = ["TcpShuffle", "UdpShuffle"]
