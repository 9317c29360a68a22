"""A Pregel-style ("think like a vertex") graph processing engine.

This is the substrate standing in for GPS, the open-source Pregel clone used
by the paper's Figure 1(c) experiment. The engine runs synchronous supersteps:
every active vertex (or any vertex with pending messages) executes the vertex
program, which may update its state, send messages to neighbours and vote to
halt. Message traffic of every superstep is recorded in a
:class:`~repro.graph.traffic.TrafficTrace` so the in-network aggregation
opportunity can be measured exactly as the paper does.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any

from repro.core.errors import GraphError
from repro.graph.combiners import Combiner
from repro.graph.graph import Graph, GraphPartition
from repro.graph.traffic import SuperstepTraffic, TrafficTrace


@dataclass
class VertexContext:
    """Everything a vertex program can see and do during one superstep."""

    vertex: int
    state: Any
    superstep: int
    messages: list[Any]
    neighbors: list[int]
    num_vertices: int
    _outbox: list[tuple[int, Any]] = field(default_factory=list)
    _halted: bool = False
    _new_state: Any = None
    _state_changed: bool = False

    def send_to_neighbors(self, value: Any) -> None:
        """Send the same message to every neighbour."""
        for neighbor in self.neighbors:
            self._outbox.append((neighbor, value))

    def set_state(self, value: Any) -> None:
        """Replace the vertex state."""
        self._new_state = value
        self._state_changed = True

    def vote_to_halt(self) -> None:
        """Deactivate the vertex until a message wakes it up again."""
        self._halted = True


class VertexProgram(ABC):
    """A vertex-centric algorithm."""

    #: The commutative/associative combiner associated with the algorithm
    #: (what DAIET would run in the network); ``None`` if the algorithm has no
    #: combiner.
    combiner: Combiner | None = None
    name: str = "vertex-program"

    @abstractmethod
    def initial_state(self, vertex: int, graph: Graph) -> Any:
        """State of ``vertex`` before superstep 0."""

    def initially_active(self, vertex: int, graph: Graph) -> bool:
        """Whether ``vertex`` runs in superstep 0 (default: yes)."""
        return True

    @abstractmethod
    def compute(self, ctx: VertexContext) -> None:
        """The per-superstep vertex computation."""


@dataclass
class PregelResult:
    """Outcome of one Pregel run."""

    algorithm: str
    states: dict[int, Any]
    trace: TrafficTrace
    supersteps_run: int
    active_per_superstep: list[int] = field(default_factory=list)
    converged: bool = False
    #: Remote messages lost to the engine's ``message_drop_rate``.
    messages_dropped: int = 0


class PregelEngine:
    """Synchronous superstep executor with per-superstep traffic accounting."""

    def __init__(
        self,
        graph: Graph,
        program: VertexProgram,
        num_workers: int = 4,
        apply_combiner: bool = False,
        message_drop_rate: float = 0.0,
        message_drop_seed: int = 0,
    ) -> None:
        if graph.num_vertices == 0:
            raise GraphError("cannot run Pregel on an empty graph")
        if not 0.0 <= message_drop_rate < 1.0:
            raise GraphError("message_drop_rate must lie in [0, 1)")
        self.graph = graph
        self.program = program
        self.partition = GraphPartition.hash_partition(graph, num_workers)
        self.num_workers = num_workers
        #: When set (and the program declares a combiner), all messages to the
        #: same destination are folded into one before delivery — the effect
        #: in-network aggregation has on what the destination worker receives.
        self.apply_combiner = apply_combiner and program.combiner is not None
        #: Probability that one *remote* message is lost in flight, modelling
        #: a degraded (``sampled`` / ``best_effort``) aggregation policy.
        #: Local messages never cross the network and are never dropped.
        #: ``0.0`` — the default — takes the historical, byte-identical path.
        self.message_drop_rate = message_drop_rate
        self.message_drop_seed = message_drop_seed

    def run(self, max_supersteps: int = 30) -> PregelResult:
        """Run until every vertex has halted (or ``max_supersteps``)."""
        if max_supersteps <= 0:
            raise GraphError("max_supersteps must be positive")
        graph = self.graph
        states: dict[int, Any] = {
            v: self.program.initial_state(v, graph) for v in graph.vertices()
        }
        active: set[int] = {
            v for v in graph.vertices() if self.program.initially_active(v, graph)
        }
        inbox: dict[int, list[Any]] = {}
        trace = TrafficTrace(algorithm=self.program.name)
        active_counts: list[int] = []
        superstep = 0
        converged = False
        drop_rng = (
            random.Random(self.message_drop_seed)
            if self.message_drop_rate > 0.0
            else None
        )
        drop_rate = self.message_drop_rate
        messages_dropped = 0

        while superstep < max_supersteps:
            to_run = active | set(inbox)
            if not to_run:
                converged = True
                break
            active_counts.append(len(to_run))
            traffic = SuperstepTraffic(superstep=superstep, active_vertices=len(to_run))
            outbox: dict[int, list[Any]] = {}
            remote_destinations: set[int] = set()
            next_active: set[int] = set()

            for vertex in to_run:
                ctx = VertexContext(
                    vertex=vertex,
                    state=states[vertex],
                    superstep=superstep,
                    messages=inbox.get(vertex, []),
                    neighbors=graph.neighbors(vertex),
                    num_vertices=graph.num_vertices,
                )
                self.program.compute(ctx)
                if ctx._state_changed:
                    states[vertex] = ctx._new_state
                if not ctx._halted:
                    next_active.add(vertex)
                if ctx._outbox:
                    src_worker = self.partition.worker_of(vertex)
                    for destination, value in ctx._outbox:
                        remote = self.partition.worker_of(destination) != src_worker
                        if (
                            drop_rng is not None
                            and remote
                            and drop_rng.random() < drop_rate
                        ):
                            # The message still happened (and is counted in
                            # the traffic trace) — it just never arrives.
                            traffic.messages += 1
                            traffic.remote_messages += 1
                            remote_destinations.add(destination)
                            messages_dropped += 1
                            continue
                        outbox.setdefault(destination, []).append(value)
                        traffic.messages += 1
                        if remote:
                            traffic.remote_messages += 1
                            remote_destinations.add(destination)

            traffic.distinct_destinations = len(outbox)
            traffic.distinct_remote_destinations = len(remote_destinations)
            trace.append(traffic)

            if self.apply_combiner and self.program.combiner is not None:
                combiner = self.program.combiner
                inbox = {
                    destination: [combiner.combine(values)]
                    for destination, values in outbox.items()
                }
            else:
                inbox = outbox
            active = next_active
            superstep += 1

        return PregelResult(
            algorithm=self.program.name,
            states=states,
            trace=trace,
            supersteps_run=superstep,
            active_per_superstep=active_counts,
            converged=converged,
            messages_dropped=messages_dropped,
        )


@dataclass
class GraphConvergenceImpact:
    """Cost of degraded message delivery on a Pregel run, vs its exact twin."""

    drop_rate: float
    exact_supersteps: int
    degraded_supersteps: int
    #: Additional supersteps the degraded run needed before halting (0 for
    #: fixed-iteration programs such as PageRank).
    extra_supersteps: int
    #: L1 distance between the exact and degraded final states, summed over
    #: every numeric vertex state.
    state_l1_error: float
    messages_dropped: int
    exact_converged: bool
    degraded_converged: bool


def measure_convergence_impact(
    graph: Graph,
    make_program,
    drop_rate: float,
    num_workers: int = 4,
    max_supersteps: int = 30,
    drop_seed: int = 0,
) -> GraphConvergenceImpact:
    """Run an exact twin and a message-dropping twin; quantify the gap.

    ``make_program`` is a zero-argument factory (programs may keep internal
    state, so each run needs a fresh instance). Both runs are otherwise
    identical, so the measured state error and extra supersteps are
    attributable to the dropped messages alone.
    """
    if drop_rate <= 0.0:
        raise GraphError("measure_convergence_impact needs a positive drop_rate")
    exact = PregelEngine(graph, make_program(), num_workers=num_workers).run(
        max_supersteps
    )
    degraded = PregelEngine(
        graph,
        make_program(),
        num_workers=num_workers,
        message_drop_rate=drop_rate,
        message_drop_seed=drop_seed,
    ).run(max_supersteps)
    l1 = 0.0
    for vertex, state in exact.states.items():
        other = degraded.states.get(vertex)
        if isinstance(state, (int, float)) and isinstance(other, (int, float)):
            l1 += abs(state - other)
    return GraphConvergenceImpact(
        drop_rate=drop_rate,
        exact_supersteps=exact.supersteps_run,
        degraded_supersteps=degraded.supersteps_run,
        extra_supersteps=max(0, degraded.supersteps_run - exact.supersteps_run),
        state_l1_error=l1,
        messages_dropped=degraded.messages_dropped,
        exact_converged=exact.converged,
        degraded_converged=degraded.converged,
    )


def run_with_combiner_check(
    graph: Graph,
    make_program,
    num_workers: int = 4,
    max_supersteps: int = 30,
    rel_tol: float = 1e-9,
) -> tuple[PregelResult, PregelResult]:
    """Run an algorithm with and without combiners and verify equal results.

    This is the correctness property in-network aggregation relies on: because
    the combiner is commutative and associative, applying it anywhere between
    sender and receiver leaves the algorithm's final states unchanged (up to
    floating-point associativity).

    Parameters
    ----------
    make_program:
        Zero-argument callable producing a fresh :class:`VertexProgram`
        instance (programs may keep internal state, so each run needs its own).

    Returns
    -------
    tuple
        ``(plain_result, combined_result)``.
    """
    plain = PregelEngine(graph, make_program(), num_workers=num_workers).run(max_supersteps)
    combined = PregelEngine(
        graph, make_program(), num_workers=num_workers, apply_combiner=True
    ).run(max_supersteps)
    for vertex, state in plain.states.items():
        other = combined.states[vertex]
        if isinstance(state, float) or isinstance(other, float):
            if abs(state - other) > rel_tol * max(1.0, abs(state), abs(other)):
                raise GraphError(
                    f"combiner changed the result at vertex {vertex}: {state} vs {other}"
                )
        elif state != other:
            raise GraphError(
                f"combiner changed the result at vertex {vertex}: {state!r} vs {other!r}"
            )
    return plain, combined
