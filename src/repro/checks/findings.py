"""The finding record shared by every ``repro lint`` check."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Finding:
    """One lint finding: a rule identifier anchored to a location.

    ``path`` is a display path (repo-relative where possible); ``line`` is
    1-based, with 0 meaning the finding has no meaningful line (e.g. a
    missing registration or a constructed-switch violation).
    """

    rule: str
    path: str
    line: int
    message: str

    def render(self) -> str:
        """The conventional ``path:line: [rule] message`` form."""
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"
