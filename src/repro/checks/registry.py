"""Registry tying each compiled fast path to its oracle test module.

The simulator core carries several *compiled* hot paths — closures and
specialized loops that replicate the observable behaviour of a generic
(slow) path or of a reference model kept in the tests. Their correctness
rests on twin tests that drive both and compare every observable effect. The
:func:`fastpath` decorator makes that pairing explicit and machine
checkable: decorating the hot path records its name and the repo-relative
path of its oracle test module, and ``repro lint`` fails when a registered
fast path has no oracle (or the oracle module has no tests).

Registration is pure metadata: the decorator stores one record in a module
dictionary at import time and returns the decorated object unchanged, so
there is zero per-call cost on the hot path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, TypeVar

T = TypeVar("T")


@dataclass(frozen=True)
class FastPathInfo:
    """Metadata of one registered compiled fast path."""

    #: Stable short name (used in lint output and the parity gate).
    name: str
    #: Repo-relative path of the twin/oracle test module.
    oracle: str
    #: Module defining the fast path (``obj.__module__``).
    module: str
    #: Qualified name of the decorated function or class.
    qualname: str

    def source_path(self) -> str:
        """Repo-relative path of the module defining this fast path."""
        return "src/" + self.module.replace(".", "/") + ".py"


#: name -> :class:`FastPathInfo`. Re-importing a module re-registers the
#: same record, so the mapping is idempotent across reloads.
_REGISTRY: dict[str, FastPathInfo] = {}


def fastpath(name: str, *, oracle: str) -> Callable[[T], T]:
    """Register a compiled fast path with its paired oracle test module.

    Usage::

        @fastpath("calendar-queue", oracle="tests/netsim/test_calendar_queue.py")
        class CalendarQueue: ...

    The decorated object is returned unchanged.
    """

    def register(obj: T) -> T:
        _REGISTRY[name] = FastPathInfo(
            name=name,
            oracle=oracle,
            module=getattr(obj, "__module__", "<unknown>"),
            qualname=getattr(obj, "__qualname__", repr(obj)),
        )
        return obj

    return register


def registered_fastpaths() -> dict[str, FastPathInfo]:
    """Snapshot of every registered fast path, keyed by name."""
    return dict(_REGISTRY)
