"""Fast-path parity checker.

Every compiled fast path in the simulator core must be registered with
:func:`repro.checks.fastpath` and paired with an oracle test module that
drives the fast path side by side with a reference: the generic path it
shortcuts, or a test-side model of what it implements (the switch program's
two stages). This checker
imports the known fast-path modules (registration happens at import time),
then verifies:

* every *required* fast path name is registered (the five compiled paths
  the repo ships today are hard-required, so deleting a decorator fails
  lint rather than silently dropping coverage);
* every registered fast path's oracle module exists on disk;
* the oracle module actually contains tests (``def test``).
"""

from __future__ import annotations

import importlib
from pathlib import Path

import repro
from repro.checks.findings import Finding
from repro.checks.registry import FastPathInfo, registered_fastpaths

#: Modules that define compiled fast paths. Imported before reading the
#: registry so decorators have run even if nothing else touched them.
FASTPATH_MODULES: tuple[str, ...] = (
    "repro.dataplane.switch",
    "repro.netsim.events",
    "repro.netsim.devices",
    "repro.netsim.simulator",
    "repro.core.aggregation",
)

#: Fast paths that must exist in the registry. Keep in sync with the
#: ``@fastpath`` decorators in :data:`FASTPATH_MODULES`.
REQUIRED_FASTPATHS: frozenset[str] = frozenset(
    {
        "calendar-queue",
        "switch-delivery",
        "switch-burst-delivery",
        "switch-forwarding",
        "vector-register-kernel",
    }
)


def repo_root() -> Path:
    """Repository root, derived from the installed package location."""
    return Path(repro.__file__).resolve().parents[2]


def check_fastpath_parity(
    root: Path | None = None,
    registry: dict[str, FastPathInfo] | None = None,
) -> list[Finding]:
    """Return findings for unregistered or oracle-less fast paths.

    ``root`` and ``registry`` exist for tests; the defaults check the live
    registry against the real repository tree.
    """
    if registry is None:
        for module in FASTPATH_MODULES:
            importlib.import_module(module)
        registry = registered_fastpaths()
    if root is None:
        root = repo_root()

    findings: list[Finding] = []
    for name in sorted(REQUIRED_FASTPATHS - registry.keys()):
        findings.append(
            Finding(
                rule="fastpath-missing",
                path="<registry>",
                line=0,
                message=f"required fast path {name!r} is not registered; "
                "restore its @fastpath decorator",
            )
        )
    for name in sorted(registry):
        info = registry[name]
        oracle = root / info.oracle
        if not oracle.is_file():
            findings.append(
                Finding(
                    rule="fastpath-oracle-missing",
                    path=info.source_path(),
                    line=0,
                    message=f"fast path {name!r} ({info.qualname}) declares "
                    f"oracle {info.oracle!r} but the file does not exist",
                )
            )
            continue
        if "def test" not in oracle.read_text(encoding="utf-8"):
            findings.append(
                Finding(
                    rule="fastpath-oracle-empty",
                    path=info.oracle,
                    line=0,
                    message=f"oracle module for fast path {name!r} contains no tests",
                )
            )
    return findings
