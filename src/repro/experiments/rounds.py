"""One aggregation round, run once per arm.

The paper's evaluation is the same round replayed under different arms: DAIET
against the datagram baseline, a policy against a loss rate, a fault plan
against a recovery strategy. Every driver in this package is a grid of arms
over the two runners here, plus a mapping from the :class:`Round` record they
return to the driver's own result type and report columns:

* :func:`run_daiet_round` installs a job on an already built
  :class:`~repro.core.daiet.DaietSystem`, sends every mapper's partition, runs
  the simulator and verifies the reducer's aggregate. The system is built by
  the caller, so a driver can attach faults or an error tracker first and can
  reuse one system for several rounds (one per training step).
* :func:`run_datagram_round` is the one non-aggregating baseline: the same
  partitions as reliable datagrams to the reducer host, which aggregates them
  itself; switches only forward.

Both read the host and switch counters exactly once, into a :class:`Round`.
The counters belong to the system, so on a reused system they are totals so
far; ``events`` and ``wall_seconds`` are the round's own.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, fields
from typing import Any, Iterable, Mapping, Sequence, TypeVar

from repro.core.config import DaietConfig
from repro.core.daiet import DaietSystem
from repro.core.errors import ReproError, TransportError
from repro.core.functions import SUM, aggregate_pairs
from repro.netsim.simulator import NetworkSimulator
from repro.transport.packets import MessagePayload
from repro.transport.udp import ReliableUdpTransport

Partition = list[tuple[str, int]]
Record = TypeVar("Record")


@dataclass
class Round:
    """What one round did: its verdict, its aggregate and every counter."""

    #: Every END (DAIET) or every flow (datagrams) reached the reducer.
    completed: bool
    #: Completed, and the aggregate equals the ground truth.
    exact: bool
    #: The aggregate the reducer ended up with.
    result: dict[str, int]
    #: Simulator events of this round, and the wall-clock seconds they took.
    events: int
    wall_seconds: float
    sim_seconds: float
    #: Packets the hosts put on the wire, retransmissions excluded. The
    #: datagram transport counts its ACK datagrams in; DAIET hosts do not.
    packets_sent: int
    #: Retransmissions and ACKs, hosts and switches together.
    retransmissions: int
    acks: int
    #: Duplicates the switches (DAIET) or the reducer (datagrams) filtered.
    duplicates_filtered: int
    #: Pairs handed to the reducer's application: every input pair once on
    #: a datagram round, the switches' partial aggregates on a DAIET round.
    pairs_delivered: int
    losses: int
    link_bytes: int
    link_packets: int
    ecn_marks: int
    queue_drops: int
    fault_drops: int
    #: Packets that arrived at the reducer's NIC.
    reducer_packets: int

    @property
    def events_per_sec(self) -> float:
        """Simulator throughput of this round's run phase."""
        return self.events / self.wall_seconds if self.wall_seconds > 0 else 0.0

    def into(self, record: type[Record], **own: Any) -> Record:
        """This round as a driver's ``record`` dataclass.

        ``own`` are the fields the driver works out itself (coordinates of
        the arm, derived ratios, renamed counters); every other field that
        ``record`` declares under a name this round also has is copied over.
        """
        mine = {f.name for f in fields(self)}
        shared = {
            f.name: getattr(self, f.name)
            for f in fields(record)
            if f.name in mine and f.name not in own
        }
        return record(**own, **shared)


def find(records: Sequence[Record], described_as: str, **coordinates: Any) -> Record:
    """The record of a sweep whose fields equal ``coordinates``."""
    for record in records:
        if all(getattr(record, name) == value for name, value in coordinates.items()):
            return record
    raise ReproError(f"no {described_as}")


def exactness_verdict(all_exact: bool) -> str:
    """The last line of a report whose every run must match the ground truth."""
    if all_exact:
        return "Verdict: all runs bit-identical to the lossless ground truth."
    return "Verdict: SOME RUNS DIVERGED FROM GROUND TRUTH."


# ---------------------------------------------------------------------- #
# Settings and workloads
# ---------------------------------------------------------------------- #
def reliability_knobs(settings: Any) -> dict[str, Any]:
    """The timeout, ACK window and retry limit of a sweep's settings.

    Every sweep names them alike, and both a :class:`DaietConfig` and a
    :class:`ReliableUdpTransport` take them under these names.
    """
    return dict(
        retransmit_timeout=settings.retransmit_timeout,
        ack_window=settings.ack_window,
        max_retransmits=settings.max_retransmits,
    )


def reliable_daiet_config(settings: Any, **changes: Any) -> DaietConfig:
    """The reliability-on DAIET configuration of a sweep's settings."""
    knobs = reliability_knobs(settings)
    knobs.update(
        register_slots=settings.register_slots,
        pairs_per_packet=settings.pairs_per_packet,
        reliability=True,
    )
    knobs.update(changes)
    return DaietConfig(**knobs)


def wordcount_partitions(
    seed: int,
    num_workers: int,
    pairs_per_worker: int,
    vocabulary_size: int,
    digits: int = 4,
) -> list[Partition]:
    """WordCount's map output: a ``(word, 1)`` stream per worker."""
    rng = random.Random(seed)
    vocabulary = [f"word{i:0{digits}d}" for i in range(vocabulary_size)]
    return [
        [(rng.choice(vocabulary), 1) for _ in range(pairs_per_worker)]
        for _ in range(num_workers)
    ]


def gradient_partitions(
    seed: int, num_workers: int, num_params: int, updates_per_worker: int
) -> list[Partition]:
    """Quantized sparse gradient pushes (signed values), one per worker."""
    rng = random.Random(seed)
    partitions = []
    for _worker in range(num_workers):
        indices = rng.sample(range(num_params), updates_per_worker)
        partitions.append(
            [(f"w:{index}", rng.randint(-(2**20), 2**20)) for index in indices]
        )
    return partitions


def truth_of(partitions: Iterable[Partition]) -> dict[str, int]:
    """The aggregate a lossless, fault-free round must produce."""
    return aggregate_pairs(
        [pair for partition in partitions for pair in partition], SUM
    )


# ---------------------------------------------------------------------- #
# Runners
# ---------------------------------------------------------------------- #
def _network_counters(simulator: NetworkSimulator, reducer: str) -> dict[str, Any]:
    stats = simulator.stats
    return dict(
        sim_seconds=simulator.now,
        losses=stats.total_losses(),
        link_bytes=stats.total_link_bytes(),
        link_packets=stats.total_link_packets(),
        ecn_marks=stats.total_ecn_marked(),
        queue_drops=stats.total_queue_drops(),
        fault_drops=stats.total_fault_drops(),
        reducer_packets=simulator.host(reducer).counters.packets_received,
    )


def read_daiet_round(
    system: DaietSystem,
    reducer: str,
    truth: Mapping[str, int],
    events: int = 0,
    wall_seconds: float = 0.0,
) -> Round:
    """Verify ``reducer``'s aggregate and sum the system's counters.

    The second half of :func:`run_daiet_round`, for a round that was driven
    by hand (several reducers, trees moved between install and send).
    """
    receiver = system.receiver(reducer)
    result = receiver.result()
    hosts = list(system.reliability_stats().values())
    trees = list(system.controller.tree_counters().values())
    return Round(
        completed=receiver.done,
        exact=receiver.done and result == truth,
        result=result,
        events=events,
        wall_seconds=wall_seconds,
        packets_sent=sum(host["packets_sent"] for host in hosts),
        retransmissions=sum(host["retransmissions"] for host in hosts)
        + sum(tree.retransmitted_packets for tree in trees),
        acks=sum(host["acks_sent"] for host in hosts)
        + sum(tree.acks_sent for tree in trees),
        duplicates_filtered=sum(tree.duplicate_packets for tree in trees),
        pairs_delivered=receiver.counters.pairs,
        **_network_counters(system.simulator, reducer),
    )


def run_daiet_round(
    system: DaietSystem,
    mappers: Sequence[str],
    reducer: str,
    partitions: Sequence[Partition],
    truth: Mapping[str, int],
    policy: str | None = None,
) -> Round:
    """Install a job on ``system``, send, run and verify one round.

    ``partitions[i]`` is what ``mappers[i]`` sends; ``policy`` is the job's
    reliability policy (``None`` inherits the system's configuration).
    """
    system.install_job(mappers=mappers, reducers=[reducer], policy=policy)
    for mapper, pairs in zip(mappers, partitions):
        system.send_pairs(mapper, reducer, pairs)
    start = time.perf_counter()
    events = system.run()
    wall_seconds = time.perf_counter() - start
    return read_daiet_round(system, reducer, truth, events, wall_seconds)


def run_datagram_round(
    simulator: NetworkSimulator,
    transport: Mapping[str, Any],
    senders: Sequence[str],
    reducer: str,
    partitions: Sequence[Partition],
    truth: Mapping[str, int],
    pairs_per_packet: int,
    pair_bytes: int,
    port: int,
) -> Round:
    """The baseline round: reliable datagrams, aggregated at the reducer host.

    ``transport`` holds the :class:`~repro.transport.udp.ReliableUdpTransport`
    arguments (timeout, ACK window, retry limit, tuning). Each datagram
    carries ``pairs_per_packet`` pairs of ``pair_bytes`` application bytes, so
    the framing decides whether this models the UDP or the TCP baseline. A
    flow that exhausts its retries ends the round as not completed.
    """
    reliable = ReliableUdpTransport(simulator, **transport)
    result: dict[str, int] = {}
    pairs_delivered = 0

    def on_message(_src: str, payload: MessagePayload) -> None:
        nonlocal pairs_delivered
        if payload.kind != "pairs":
            return
        pairs_delivered += len(payload.data)
        for key, value in payload.data:
            result[key] = result.get(key, 0) + value

    reliable.listen_reliable(reducer, port, on_message)
    for sender, pairs in zip(senders, partitions):
        for i in range(0, len(pairs), pairs_per_packet):
            chunk = pairs[i : i + pairs_per_packet]
            reliable.send_reliable(
                sender,
                reducer,
                MessagePayload(kind="pairs", data=chunk),
                len(chunk) * pair_bytes,
                port=port,
            )
    events = 0
    gave_up = False
    start = time.perf_counter()
    try:
        events = simulator.run()
    except TransportError:
        gave_up = True
    wall_seconds = time.perf_counter() - start
    completed = not gave_up and all(
        reliable.flow_done(sender, reducer, port) for sender in senders
    )
    stats = reliable.stats
    return Round(
        completed=completed,
        exact=completed and result == truth,
        result=result,
        events=events,
        wall_seconds=wall_seconds,
        packets_sent=stats.datagrams_sent,
        retransmissions=stats.retransmissions,
        acks=stats.acks_sent,
        duplicates_filtered=stats.duplicates_received,
        pairs_delivered=pairs_delivered,
        **_network_counters(simulator, reducer),
    )
