"""Job orchestration.

The master assigns input splits to map tasks, runs the map phase, drives the
shuffle transport over the simulated network, and finally runs the reduce
phase, collecting the per-reducer metrics the evaluation reads.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

from repro.core.errors import JobError
from repro.mapreduce.cluster import Cluster, default_placement
from repro.mapreduce.job import JobResult, JobSpec, TaskPlacement
from repro.mapreduce.mapper import MapOutput, MapTask
from repro.mapreduce.partitioner import HashPartitioner
from repro.mapreduce.reducer import ReduceTask
from repro.mapreduce.shuffle import ShuffleTransport


class MapReduceMaster:
    """Coordinates one MapReduce job over a simulated cluster."""

    def __init__(
        self,
        cluster: Cluster,
        spec: JobSpec,
        shuffle: ShuffleTransport,
        placement: TaskPlacement | None = None,
    ) -> None:
        self.cluster = cluster
        self.spec = spec
        self.shuffle = shuffle
        self.placement = placement or default_placement(
            cluster, spec.num_mappers, spec.num_reducers
        )
        if self.placement.num_mappers != spec.num_mappers:
            raise JobError(
                f"placement provides {self.placement.num_mappers} mapper hosts but the "
                f"job declares {spec.num_mappers} map tasks"
            )
        if self.placement.num_reducers != spec.num_reducers:
            raise JobError(
                f"placement provides {self.placement.num_reducers} reducer hosts but "
                f"the job declares {spec.num_reducers} reduce tasks"
            )
        self.partitioner = HashPartitioner(spec.num_reducers)
        self.map_tasks: list[MapTask] = []
        self.reduce_tasks: dict[int, ReduceTask] = {}
        self.map_outputs: list[MapOutput] = []

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def run(self, input_splits: Sequence[Iterable[Any]]) -> JobResult:
        """Execute the whole job and return its result and metrics."""
        if len(input_splits) != self.spec.num_mappers:
            raise JobError(
                f"expected {self.spec.num_mappers} input splits, got {len(input_splits)}"
            )
        self._create_tasks()
        self.shuffle.prepare(self.cluster, self.spec, self.placement, self.reduce_tasks)

        # --- Map phase (runs in-process; placement matters only for traffic).
        self.map_outputs = [
            task.run(split) for task, split in zip(self.map_tasks, input_splits)
        ]

        # --- Shuffle phase over the simulated network.
        baseline_received = {
            host: self.cluster.simulator.host(host).counters.packets_received
            for host in self.placement.reducer_hosts
        }
        baseline_bytes = {
            host: self.cluster.simulator.host(host).counters.bytes_received
            for host in self.placement.reducer_hosts
        }
        self.shuffle.transfer(self.map_outputs)
        self.cluster.simulator.run()
        self.shuffle.finalize()

        # --- Reduce phase.
        output: dict[str, Any] = {}
        for reducer_id in sorted(self.reduce_tasks):
            task = self.reduce_tasks[reducer_id]
            partial = task.finish()
            overlap = set(partial) & set(output)
            if overlap:
                raise JobError(
                    f"reducers produced overlapping keys (e.g. {next(iter(overlap))!r}); "
                    "the partitioner is inconsistent"
                )
            output.update(partial)

        return self._build_result(output, baseline_received, baseline_bytes)

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _create_tasks(self) -> None:
        self.map_tasks = [
            MapTask(mapper_id=i, host=self.placement.mapper_host(i), spec=self.spec,
                    partitioner=self.partitioner)
            for i in range(self.spec.num_mappers)
        ]
        self.reduce_tasks = {
            i: ReduceTask(reducer_id=i, host=self.placement.reducer_host(i), spec=self.spec)
            for i in range(self.spec.num_reducers)
        }

    def _build_result(
        self,
        output: dict[str, Any],
        baseline_received: dict[str, int],
        baseline_bytes: dict[str, int],
    ) -> JobResult:
        pair_bytes = self.spec.daiet.pair_bytes
        result = JobResult(job_name=self.spec.name, shuffle_mode=self.shuffle.name)
        result.output = output
        result.map_output_pairs = sum(o.pairs_emitted for o in self.map_outputs)
        result.map_output_bytes = result.map_output_pairs * pair_bytes
        result.total_packets_sent = self.shuffle.accounting.packets_sent
        result.simulated_seconds = self.cluster.simulator.now

        for reducer_id, task in self.reduce_tasks.items():
            host = task.host
            counters = self.cluster.simulator.host(host).counters
            task.metrics.packets_received = (
                counters.packets_received - baseline_received[host]
            )
            task.metrics.wire_bytes_received = (
                counters.bytes_received - baseline_bytes[host]
            )
            result.reducer_metrics[reducer_id] = task.metrics
        return result
