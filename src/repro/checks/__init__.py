"""Static analysis and runtime sanitizer for the simulator core.

The package has two halves:

* **Static checks** (``repro lint``): an AST determinism linter over
  ``src/repro`` (:mod:`repro.checks.determinism`), a fast-path parity
  checker tying every compiled hot path to its oracle test module
  (:mod:`repro.checks.parity` + the :func:`fastpath` registry decorator),
  and a dataplane configuration checker over constructed switches
  (:mod:`repro.checks.dataplane`). :mod:`repro.checks.lint` drives all
  three for the CLI.
* **Runtime sanitizer** (``REPRO_SANITIZE=1`` or ``--sanitize``):
  :mod:`repro.checks.sanitize` attaches to one :class:`~repro.netsim.
  simulator.NetworkSimulator` as an observer: a packet-conservation ledger,
  scheduler heap/calendar invariant checks and register-leak detection.
  Nothing here touches the hot path when the sanitizer is off — the
  observer is only attached to an opted-in simulator instance.

This module deliberately imports only the lightweight pieces (the registry
and the finding record); the lint driver and the sanitizer are imported on
demand so that decorating a hot-path module with :func:`fastpath` costs one
dict store at import time and nothing per packet.
"""

from __future__ import annotations

from repro.checks.findings import Finding
from repro.checks.registry import FastPathInfo, fastpath, registered_fastpaths

__all__ = ["FastPathInfo", "Finding", "fastpath", "registered_fastpaths"]
