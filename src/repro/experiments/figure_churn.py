"""Fault-churn scenarios: crash, flap, straggler and hotspot under recovery.

The paper's evaluation assumes a healthy fabric: trees are installed once
and every switch stays up. Real clusters churn — switches crash and
restart, links flap, stragglers slow a whole round, and naive tree
placement concentrates load onto one aggregation point. This experiment
drives the fault-churn engine (:mod:`repro.netsim.faults`), the failover
manager (:mod:`repro.core.failover`) and the hotspot detector
(:mod:`repro.analysis.hotspots`) through four scenarios and reports
recover-vs-static outcomes:

* **spine-kill** — the aggregation spine crashes mid-round. The static arm
  rides it out (bounded aggregate deficit); the recover arm detects the
  crash over the heartbeat, re-plans the tree through the surviving spine
  and replays the retained history. With reliability on the recovered
  aggregate is bit-identical to the fault-free run.
* **flap** — seeded random trunk-link flaps while the round is in flight,
  swept over several flap seeds. Reliability absorbs the gated drops.
* **straggler** — the tree's spine slows down by a large factor; the
  recover arm rebalances the tree off the slow spine when the telemetry
  observer reports the slowdown, finishing earlier than the static arm.
* **hotspot** — two trees deliberately concentrated on one spine; the
  online hotspot detector flags the concentration from per-switch traffic
  stats and triggers controller-driven rebalancing.

Every fault schedule is expressed as a fraction of the measured fault-free
completion time, so the scenarios stay mid-round at any workload scale.
All randomness is seeded and the report is deterministic byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace as dc_replace

from repro.analysis.hotspots import HotspotConfig, HotspotDetector, HotspotEvent
from repro.analysis.reporting import render_table, yes_no
from repro.core.config import DaietConfig
from repro.core.daiet import DaietSystem
from repro.core.errors import ReproError
from repro.core.failover import FailoverConfig, FailoverManager
from repro.experiments.rounds import (
    Partition,
    Round,
    read_daiet_round,
    run_daiet_round,
    truth_of,
)
from repro.netsim.faults import SLOWDOWN_START, FaultPlan, install_faults
from repro.netsim.simulator import SimulatorConfig
from repro.netsim.topology import leaf_spine

#: Scenario names in canonical run/report order.
SCENARIOS = ("spine-kill", "flap", "straggler", "hotspot")

#: Worker placement on the 2x2 leaf-spine fabric (h0,h1 on leaf0; h2,h3 on
#: leaf1), so every tree crosses a spine.
MAPPERS = ("h0", "h1", "h2")
REDUCER = "h3"
HOTSPOT_MAPPERS = ("h0", "h1")
HOTSPOT_REDUCERS = ("h2", "h3")


@dataclass(frozen=True)
class ChurnSettings:
    """Workload, fault-schedule and recovery knobs for the churn scenarios."""

    #: Per-mapper partition size (the three partitions overlap, so dropped
    #: packets show up as value deficits, not just missing keys).
    keys_per_mapper: int = 80
    #: Run with the PR 1 reliability layer and replay retention; recovery is
    #: bit-exact only in this mode. Off, every scenario still completes and
    #: reports its bounded aggregate deficit.
    reliability: bool = False
    retransmit_timeout: float = 1e-4
    #: Crash/slowdown instants as fractions of the fault-free completion
    #: time, keeping the faults mid-round at any workload scale.
    crash_fraction: float = 0.35
    slowdown_fraction: float = 0.2
    heartbeat_interval: float = 2.5e-4
    max_heartbeat_ticks: int = 400
    #: Flap sweep: seeds for :meth:`FaultPlan.random_flaps` plus the flap
    #: window, again as fractions of the fault-free completion time.
    flap_seeds: tuple[int, ...] = (7, 8, 9)
    flap_count: int = 4
    flap_start_fraction: float = 0.1
    flap_window_fraction: float = 0.7
    flap_duration_fraction: float = 0.18
    #: Straggler slowdown factor on the tree spine's uplinks.
    slowdown_factor: float = 200.0
    #: Hotspot scenario: pairs per (mapper, reducer) flow and the detector's
    #: control-loop tunables (tuned to the microsecond-scale rounds here).
    hotspot_pairs: int = 300
    hotspot_sample_interval: float = 2e-6
    hotspot_share_threshold: float = 0.9
    hotspot_min_window_packets: int = 5
    hotspot_max_samples: int = 50

    def quick(self) -> "ChurnSettings":
        """A fast variant used by unit tests and smoke runs."""
        return dc_replace(
            self,
            keys_per_mapper=40,
            flap_seeds=self.flap_seeds[:2],
            hotspot_pairs=160,
        )

    def daiet_config(self) -> DaietConfig:
        """The DAIET configuration implied by these settings."""
        return DaietConfig(
            reliability=self.reliability,
            retain_for_replay=self.reliability,
            retransmit_timeout=self.retransmit_timeout,
        )


@dataclass
class ArmResult:
    """Outcome of one arm (one full simulation run) of a scenario."""

    name: str
    exact: bool
    done: bool
    keys: int
    #: Ground-truth value mass minus received value mass (0 when exact;
    #: positive = bounded degradation, never negative = never corrupt).
    value_deficit: int
    sim_seconds: float
    fault_drops: int


@dataclass
class ScenarioResult:
    """All arms of one scenario plus the control/fault logs they produced."""

    scenario: str
    arms: list[ArmResult] = field(default_factory=list)
    #: Failover-manager actions, (sim time, description), embedded verbatim.
    control_log: list[tuple[float, str]] = field(default_factory=list)
    #: Fault-injector events, same shape.
    fault_log: list[tuple[float, str]] = field(default_factory=list)
    #: Free-form deterministic annotations (hotspot events, shares, sweeps).
    notes: list[str] = field(default_factory=list)
    #: Simulator events processed across all of the scenario's runs.
    events: int = 0
    #: Link-level packets moved across all of the scenario's runs
    #: (perf-bench packet throughput; every arm uses a fresh simulator, so
    #: per-run totals accumulate without double counting).
    link_packets: int = 0


@dataclass
class ChurnResult:
    """Every scenario's result plus the rendered report."""

    settings: ChurnSettings
    results: dict[str, ScenarioResult] = field(default_factory=dict)
    report: str = ""

    @property
    def recovery_exact(self) -> bool:
        """True when every recovery/ride-through arm matched ground truth."""
        checked = []
        for result in self.results.values():
            for arm in result.arms:
                if arm.name.startswith(("recover", "flap", "hotspot")):
                    checked.append(arm.exact)
        return bool(checked) and all(checked)


# ---------------------------------------------------------------------- #
# Workload and arms
# ---------------------------------------------------------------------- #
def _partitions(settings: ChurnSettings) -> list[Partition]:
    """One partition per mapper; their overlap makes deficits value-visible."""
    k = settings.keys_per_mapper
    return [
        [(f"k{i}", i) for i in range(k)],
        [(f"k{i}", 2 * i) for i in range(k // 2, k + k // 2)],
        [(f"k{i}", 3) for i in range(0, 2 * k, 2)],
    ]


def _system(settings: ChurnSettings) -> DaietSystem:
    return DaietSystem(
        leaf_spine(num_leaves=2, num_spines=2, hosts_per_leaf=2),
        settings.daiet_config(),
        SimulatorConfig(),
    )


def _tree_spine(system: DaietSystem, reducer: str = REDUCER) -> str:
    """The single spine switch the reducer's tree traverses."""
    tree = system.tree_for(reducer)
    spines = sorted(
        node.name for node in tree.switches() if node.name.startswith("spine")
    )
    if len(spines) != 1:
        raise ReproError(f"expected one tree spine, found {spines}")
    return spines[0]


def _trunk_links(system: DaietSystem) -> list[tuple[str, str]]:
    """Switch-to-switch links (the flap targets), in deterministic order."""
    hosts = {host.name for host in system.topology.hosts()}
    return sorted(
        (link.a.device, link.b.device)
        for link in system.topology.links
        if link.a.device not in hosts and link.b.device not in hosts
    )


def _arm_result(name: str, round_: Round, truth: dict[str, int]) -> ArmResult:
    return round_.into(
        ArmResult,
        name=name,
        done=round_.completed,
        keys=len(round_.result),
        value_deficit=sum(truth.values()) - sum(round_.result.values()),
    )


def _run_arm(
    scenario: ScenarioResult,
    name: str,
    settings: ChurnSettings,
    system: DaietSystem,
    truth: dict[str, int],
) -> ArmResult:
    """Run the round on ``system`` (its faults already attached) as arm ``name``."""
    round_ = run_daiet_round(system, MAPPERS, REDUCER, _partitions(settings), truth)
    scenario.events += round_.events
    scenario.link_packets += round_.link_packets
    arm = _arm_result(name, round_, truth)
    scenario.arms.append(arm)
    return arm


@dataclass
class _Baseline:
    """Fault-free reference shared by the fault-schedule scenarios."""

    truth: dict[str, int]
    arm: ArmResult
    #: The spine the tree crosses. Placement depends only on the fabric, so
    #: every arm's tree will cross it too, and an arm can aim its faults at
    #: it before the round installs the job.
    spine: str
    events: int
    link_packets: int

    def scenario(self, name: str) -> ScenarioResult:
        """A scenario whose first arm is the fault-free run."""
        return ScenarioResult(
            scenario=name,
            arms=[self.arm],
            events=self.events,
            link_packets=self.link_packets,
        )


def run_fault_free(settings: ChurnSettings) -> _Baseline:
    """The fault-free run: ground truth and the timing base for schedules."""
    truth = truth_of(_partitions(settings))
    run = ScenarioResult(scenario="fault-free")
    system = _system(settings)
    arm = _run_arm(run, "fault-free", settings, system, truth)
    if not arm.exact:
        raise ReproError("the fault-free churn baseline diverged from ground truth")
    return _Baseline(truth, arm, _tree_spine(system), run.events, run.link_packets)


# ---------------------------------------------------------------------- #
# Scenarios
# ---------------------------------------------------------------------- #
def run_spine_kill(
    settings: ChurnSettings, baseline: _Baseline | None = None
) -> ScenarioResult:
    """Crash the tree's spine mid-round; compare static vs failover."""
    baseline = baseline or run_fault_free(settings)
    spine = baseline.spine
    crash_time = settings.crash_fraction * baseline.arm.sim_seconds
    result = baseline.scenario("spine-kill")

    # Static arm: no failover manager; the crash is absorbed as a bounded
    # deficit (reliability on terminates via the reducer's pull give-up).
    system = _system(settings)
    install_faults(system.simulator, FaultPlan().switch_crash(crash_time, spine))
    _run_arm(result, "static", settings, system, baseline.truth)

    # Recover arm: heartbeat detection, reroute, re-plan, replay.
    system = _system(settings)
    injector = install_faults(
        system.simulator, FaultPlan().switch_crash(crash_time, spine)
    )
    manager = FailoverManager(
        system,
        injector,
        FailoverConfig(
            heartbeat_interval=settings.heartbeat_interval,
            max_ticks=settings.max_heartbeat_ticks,
        ),
    )
    manager.start()
    _run_arm(result, "recover", settings, system, baseline.truth)
    result.control_log = list(manager.log)
    result.fault_log = list(injector.log)
    result.notes.append(f"crashed {spine} at t={crash_time:.6f}")
    return result


def run_flap(
    settings: ChurnSettings, baseline: _Baseline | None = None
) -> ScenarioResult:
    """Seeded random trunk-link flaps, swept over ``settings.flap_seeds``."""
    baseline = baseline or run_fault_free(settings)
    start = settings.flap_start_fraction * baseline.arm.sim_seconds
    window = settings.flap_window_fraction * baseline.arm.sim_seconds
    duration = settings.flap_duration_fraction * baseline.arm.sim_seconds
    result = baseline.scenario("flap")
    for seed in settings.flap_seeds:
        system = _system(settings)
        plan = FaultPlan.random_flaps(
            _trunk_links(system),
            seed=seed,
            count=settings.flap_count,
            start=start,
            window=window,
            duration=duration,
        )
        injector = install_faults(system.simulator, plan)
        arm = _run_arm(result, f"flap seed={seed}", settings, system, baseline.truth)
        result.notes.append(
            f"seed {seed}: {len(plan.sorted_events())} flap events, "
            f"{arm.fault_drops} gated drops"
        )
        result.fault_log.extend(
            (when, f"[seed {seed}] {entry}") for when, entry in injector.log
        )
    return result


def run_straggler(
    settings: ChurnSettings, baseline: _Baseline | None = None
) -> ScenarioResult:
    """Slow the tree spine's uplinks; recover by rebalancing off it."""
    baseline = baseline or run_fault_free(settings)
    spine = baseline.spine
    slow_time = settings.slowdown_fraction * baseline.arm.sim_seconds
    result = baseline.scenario("straggler")

    def _plan() -> FaultPlan:
        plan = FaultPlan()
        for leaf in ("leaf0", "leaf1"):
            plan.slowdown(slow_time, leaf, spine, factor=settings.slowdown_factor)
        return plan

    # Static arm: the round crawls through the slow spine.
    system = _system(settings)
    install_faults(system.simulator, _plan())
    _run_arm(result, "static", settings, system, baseline.truth)

    # Recover arm: the injector observer stands in for slowdown telemetry;
    # the first report triggers a rebalance off the straggling spine.
    system = _system(settings)
    injector = install_faults(system.simulator, _plan())
    manager = FailoverManager(system, injector)
    rebalanced: list[str] = []

    def _on_fault(event) -> None:
        if event.kind == SLOWDOWN_START and not rebalanced:
            rebalanced.append(spine)
            job = system.controller.jobs[-1]  # the round's, installed by now
            manager.move_tree(job, REDUCER, exclude={spine})

    injector.observers.append(_on_fault)
    _run_arm(result, "recover", settings, system, baseline.truth)
    result.control_log = list(manager.log)
    result.fault_log = list(injector.log)
    result.notes.append(
        f"slowed {spine} uplinks x{settings.slowdown_factor:g} at t={slow_time:.6f}"
    )
    return result


def run_hotspot(settings: ChurnSettings) -> ScenarioResult:
    """Concentrate two trees on one spine; detect and rebalance online.

    The one round driven by hand: two reducers, and both trees are moved
    between install and send.
    """
    system = _system(settings)
    job = system.install_job(
        mappers=list(HOTSPOT_MAPPERS), reducers=list(HOTSPOT_REDUCERS)
    )
    injector = install_faults(system.simulator, FaultPlan())
    manager = FailoverManager(system, injector)
    # Naive placement: both trees forced onto spine0 (the hotspot).
    for reducer in HOTSPOT_REDUCERS:
        manager.move_tree(job, reducer, exclude={"spine1"})

    def _on_hotspot(event: HotspotEvent) -> None:
        # Rebalance only while the hot switch carries more than one tree:
        # a single tree's traffic legitimately dominates its own spine, and
        # moving it would just ping-pong the load between spines.
        on_hot = sorted(
            reducer
            for reducer in job.trees
            if event.switch in job.trees[reducer].nodes
        )
        if len(on_hot) > 1:
            manager.move_tree(job, on_hot[0], exclude={event.switch})

    detector = HotspotDetector(
        system.simulator,
        ["spine0", "spine1"],
        HotspotConfig(
            sample_interval=settings.hotspot_sample_interval,
            share_threshold=settings.hotspot_share_threshold,
            min_window_packets=settings.hotspot_min_window_packets,
            max_samples=settings.hotspot_max_samples,
        ),
        on_hotspot=_on_hotspot,
    )
    detector.start()

    pairs = [(f"w{i}", i + 1) for i in range(settings.hotspot_pairs)]
    truth = truth_of([pairs, pairs])  # both mappers send the same
    for mapper in HOTSPOT_MAPPERS:
        for reducer in HOTSPOT_REDUCERS:
            system.send_pairs(mapper, reducer, pairs)
    events = system.run()

    result = ScenarioResult(
        scenario="hotspot",
        arms=[
            _arm_result(
                f"hotspot {reducer}",
                read_daiet_round(system, reducer, truth, events),
                truth,
            )
            for reducer in HOTSPOT_REDUCERS
        ],
        events=events,
        link_packets=system.simulator.stats.total_link_packets(),
    )
    result.control_log = list(manager.log)
    for event in detector.events[:4]:
        result.notes.append(event.describe())
    if len(detector.events) > 4:
        result.notes.append(f"... {len(detector.events)} hotspot events total")
    shares = detector.shares()
    result.notes.append(
        "cumulative shares: "
        + " ".join(f"{name}={share:.3f}" for name, share in sorted(shares.items()))
    )
    return result


# ---------------------------------------------------------------------- #
# Driver and report
# ---------------------------------------------------------------------- #
def run_churn(
    settings: ChurnSettings | None = None,
    scenarios: tuple[str, ...] = SCENARIOS,
) -> ChurnResult:
    """Run the selected scenarios and render the churn report."""
    settings = settings or ChurnSettings()
    unknown = [name for name in scenarios if name not in SCENARIOS]
    if unknown:
        raise ReproError(f"unknown churn scenarios: {unknown}")
    result = ChurnResult(settings=settings)
    baseline: _Baseline | None = None
    if any(name != "hotspot" for name in scenarios):
        baseline = run_fault_free(settings)
    runners = {
        "spine-kill": lambda: run_spine_kill(settings, baseline),
        "flap": lambda: run_flap(settings, baseline),
        "straggler": lambda: run_straggler(settings, baseline),
        "hotspot": lambda: run_hotspot(settings),
    }
    for name in SCENARIOS:
        if name in scenarios:
            result.results[name] = runners[name]()
    if settings.reliability and not result.recovery_exact:
        raise ReproError(
            "a reliability-on churn arm diverged from the fault-free aggregate"
        )
    result.report = _render_report(result)
    return result


_COLUMNS = [
    ("arm", ">14s", lambda arm: arm.name),
    ("exact", ">6s", lambda arm: yes_no(arm.exact)),
    ("done", ">5s", lambda arm: yes_no(arm.done)),
    ("keys", ">6d", lambda arm: arm.keys),
    ("deficit", ">8d", lambda arm: arm.value_deficit),
    ("sim-us", ">10.3f", lambda arm: arm.sim_seconds * 1e6),
    ("drops", ">6d", lambda arm: arm.fault_drops),
]


def _render_report(result: ChurnResult) -> str:
    settings = result.settings
    mode = "ON (replay retained)" if settings.reliability else "OFF (degraded mode)"
    lines = [
        "Fault-churn scenarios (2x2 leaf-spine, crash/flap/straggler/hotspot)",
        "",
        f"Reliability {mode}; {settings.keys_per_mapper} keys/mapper; "
        f"heartbeat {settings.heartbeat_interval * 1e6:.0f} us.",
        "deficit = ground-truth value mass minus received value mass "
        "(0 = bit-exact; positive = bounded degradation, never corruption).",
    ]
    for name, scenario in result.results.items():
        lines.append("")
        lines.append(f"== {name} ==")
        lines.append(render_table(_COLUMNS, scenario.arms))
        for note in scenario.notes:
            lines.append(f"  note: {note}")
        if scenario.fault_log:
            lines.append("  fault log:")
            for _when, entry in scenario.fault_log:
                lines.append(f"    {entry}")  # describe() embeds the time
        if scenario.control_log:
            lines.append("  control-plane log:")
            for when, entry in scenario.control_log:
                lines.append(f"    t={when:.6f} {entry}")
    lines.append("")
    if settings.reliability:
        verdict = (
            "every recovery and ride-through arm bit-identical to fault-free"
            if result.recovery_exact
            else "SOME RECOVERY ARMS DIVERGED"
        )
    else:
        verdict = (
            "reliability off: deficits above are bounded and reported, "
            "re-run with --reliability for bit-exact recovery"
        )
    lines.append(f"Verdict: {verdict}.")
    return "\n".join(lines)
