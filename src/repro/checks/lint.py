"""The ``repro lint`` driver: determinism + parity + dataplane checks.

The default run lints the whole ``src/repro`` tree with the determinism
linter (whose AST pass also flags unused imports), verifies fast-path/oracle parity, and builds three small reference
DAIET systems (unreliable and reliable single-rack jobs, and a leaf-spine
job) to run the dataplane config checker against real constructed
switches. Passing an
explicit ``root`` restricts the run to the determinism linter over that
file or directory — that is what the fixture tests use.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.checks.dataplane import check_simulator
from repro.checks.determinism import lint_paths
from repro.checks.findings import Finding
from repro.checks.parity import check_fastpath_parity, repo_root


@dataclass(frozen=True)
class LintReport:
    """Outcome of one lint run."""

    findings: tuple[Finding, ...]
    #: Human-readable labels of the check groups that ran.
    checked: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.findings

    def render(self) -> str:
        lines = [finding.render() for finding in self.findings]
        checks = ", ".join(self.checked)
        if self.findings:
            noun = "finding" if len(self.findings) == 1 else "findings"
            lines.append(f"repro lint: {len(self.findings)} {noun} ({checks})")
        else:
            lines.append(f"repro lint: clean ({checks})")
        return "\n".join(lines)


def _check_reference_dataplanes() -> list[Finding]:
    """Build canonical jobs and validate their switches.

    One unreliable and one reliable single-rack configuration, covering
    both wire formats the parser budget has to absorb and both steering
    layouts, and one leaf-spine job whose forwarding tables hold rack
    entries and ECMP groups.
    """
    from repro.core.config import DaietConfig
    from repro.core.daiet import DaietSystem
    from repro.netsim.topology import leaf_spine

    findings: list[Finding] = []
    for label, config in (
        ("rack-sum", DaietConfig(register_slots=256, pairs_per_packet=4)),
        (
            "rack-sum-reliable",
            DaietConfig(register_slots=256, pairs_per_packet=4, reliability=True),
        ),
    ):
        system = DaietSystem.single_rack(4, config=config)
        system.install_job(mappers=["h0", "h1", "h2"], reducers=["h3"])
        findings += check_simulator(system.simulator, label=label)
    fabric = DaietSystem(
        leaf_spine(num_leaves=3, num_spines=2, hosts_per_leaf=2),
        config=DaietConfig(register_slots=256, pairs_per_packet=4),
    )
    fabric.install_job(mappers=["h0", "h2", "h3"], reducers=["h5"])
    findings += check_simulator(fabric.simulator, label="fabric-sum")
    return findings


def run_lint(root: str | Path | None = None) -> LintReport:
    """Run the configured checks; ``root`` restricts to determinism lint."""
    if root is not None:
        findings = lint_paths(Path(root))
        return LintReport(findings=tuple(findings), checked=("determinism",))
    findings = lint_paths(repo_root() / "src" / "repro")
    findings += check_fastpath_parity()
    findings += _check_reference_dataplanes()
    return LintReport(
        findings=tuple(findings),
        checked=("determinism", "fastpath-parity", "dataplane-config"),
    )
