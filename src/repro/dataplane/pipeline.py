"""Multi-stage match-action pipeline.

The RMT architecture processes every packet through a fixed sequence of
match-action stages; each stage holds one or more tables and has a bounded
amount of work it can do. :class:`Pipeline` models that: stages are applied in
order, the total number of stages is limited by the target resources, and the
per-packet operation counter is threaded through every action.

A compiled P4 program fixes the stage layout; after that the control plane
only pushes rules into the tables. :meth:`Pipeline.seal` models the compile
step: a sealed pipeline accepts no further stages, tables or externs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.core.errors import PipelineError
from repro.dataplane.actions import PacketContext
from repro.dataplane.resources import PacketOpCounter, SwitchResources
from repro.dataplane.tables import MatchActionTable

#: A stage step is either a table or an extern callable applied to the context.
StageStep = MatchActionTable | Callable[[PacketContext], None]


@dataclass
class PipelineStage:
    """One physical stage of the pipeline, holding an ordered list of steps.

    ``steps`` becomes a tuple when the pipeline is sealed.
    """

    name: str
    steps: list[StageStep] | tuple[StageStep, ...] = field(default_factory=list)

    def add_table(self, table: MatchActionTable) -> MatchActionTable:
        """Place a match-action table in this stage."""
        self._append(table)
        return table

    def add_extern(self, func: Callable[[PacketContext], None]) -> None:
        """Place an extern (stateful black box, e.g. the DAIET aggregator)."""
        self._append(func)

    def _append(self, step: StageStep) -> None:
        if isinstance(self.steps, tuple):
            raise PipelineError(f"stage {self.name!r} is sealed")
        self.steps.append(step)

    def apply(self, ctx: PacketContext) -> None:
        """Run every step of the stage unless the packet was dropped/consumed."""
        metadata = ctx.metadata
        for step in self.steps:
            if metadata.get("drop") or metadata.get("consumed"):
                return
            if isinstance(step, MatchActionTable):
                step.apply(ctx)
            else:
                ctx.charge(1)
                step(ctx)


class Pipeline:
    """An ordered list of stages bounded by the target's stage budget."""

    def __init__(self, resources: SwitchResources | None = None, name: str = "ingress") -> None:
        self.name = name
        self.resources = resources or SwitchResources()
        self._stages: list[PipelineStage] | tuple[PipelineStage, ...] = []
        self.packets_processed = 0
        self.packets_dropped = 0

    def add_stage(self, name: str | None = None) -> PipelineStage:
        """Append a new stage; fails when sealed or out of stages."""
        if isinstance(self._stages, tuple):
            raise PipelineError(f"pipeline {self.name!r} is sealed")
        if len(self._stages) >= self.resources.pipeline_stages:
            raise PipelineError(
                f"pipeline {self.name!r} exceeds the target's "
                f"{self.resources.pipeline_stages}-stage budget"
            )
        stage = PipelineStage(name=name or f"stage{len(self._stages)}")
        self._stages.append(stage)
        return stage

    def seal(self) -> None:
        """Fix the stage layout, as compiling the P4 program does.

        Afterwards :meth:`add_stage`, :meth:`PipelineStage.add_table` and
        :meth:`PipelineStage.add_extern` raise :class:`PipelineError`, and
        every stage's ``steps`` is a tuple. Table entries stay mutable.
        """
        for stage in self._stages:
            stage.steps = tuple(stage.steps)
        self._stages = tuple(self._stages)

    @property
    def stages(self) -> tuple[PipelineStage, ...]:
        """Snapshot of the configured stages."""
        return tuple(self._stages)

    def tables(self) -> dict[str, MatchActionTable]:
        """All tables in the pipeline, keyed by table name."""
        found: dict[str, MatchActionTable] = {}
        for stage in self._stages:
            for step in stage.steps:
                if isinstance(step, MatchActionTable):
                    if step.name in found:
                        raise PipelineError(f"duplicate table name {step.name!r}")
                    found[step.name] = step
        return found

    def process(self, packet: Any, ingress_port: int) -> PacketContext:
        """Run one packet through every stage and return the final context."""
        metadata = {"ingress_port": ingress_port, "drop": False, "consumed": False}
        ctx = PacketContext(
            packet, metadata, PacketOpCounter(self.resources.max_ops_per_packet)
        )
        for stage in self._stages:
            stage.apply(ctx)
        self.packets_processed += 1
        if metadata["drop"]:
            self.packets_dropped += 1
        return ctx
