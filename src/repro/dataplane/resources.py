"""Resource model of a programmable switch ASIC.

Section 2 of the paper lists the constraints of the RMT/Tofino "network
machine architecture" that in-network computation has to live within:

* **Limited memory size** — a few tens of MB of SRAM/TCAM.
* **Limited set of actions** — simple arithmetic, data manipulation, hashing.
* **Few operations per packet** — tens of nanoseconds per packet, no unbounded
  loops; the parser can only inspect the first ~200-300 bytes of each packet.

This module makes those limits explicit and enforceable, so that the DAIET
switch program fails loudly when it would not fit real hardware.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.errors import ResourceExhaustedError

#: SRAM available to stateful registers on a Tofino-class chip (paper: "the
#: expected available SRAM is in the range of few tens of MBs").
DEFAULT_SRAM_BYTES = 32 * 1024 * 1024

#: Maximum number of bytes the parser may inspect per packet (paper: "current
#: P4 hardware switches are expected to parse only around 200-300 B").
DEFAULT_MAX_PARSE_BYTES = 300

#: Maximum ALU operations the switch may perform on a single packet. This is
#: a coarse stand-in for the per-stage VLIW instruction budget.
DEFAULT_MAX_OPS_PER_PACKET = 512


@dataclass(frozen=True)
class SwitchResources:
    """Static resource budget of one switch chip."""

    sram_bytes: int = DEFAULT_SRAM_BYTES
    max_parse_bytes: int = DEFAULT_MAX_PARSE_BYTES
    max_ops_per_packet: int = DEFAULT_MAX_OPS_PER_PACKET

    def __post_init__(self) -> None:
        if self.sram_bytes <= 0:
            raise ResourceExhaustedError("sram_bytes must be positive")
        if self.max_parse_bytes <= 0:
            raise ResourceExhaustedError("max_parse_bytes must be positive")
        if self.max_ops_per_packet <= 0:
            raise ResourceExhaustedError("max_ops_per_packet must be positive")


@dataclass
class ResourceLedger:
    """Tracks how much of a :class:`SwitchResources` budget has been allocated.

    The controller allocates SRAM when it installs per-tree register arrays,
    and the ledger raises :class:`ResourceExhaustedError` when the budget is
    exceeded, mirroring a P4 compiler rejecting a program that does not fit
    the target. (The per-packet parse and op budgets are charged by the
    switch program itself; see :mod:`repro.dataplane.switch`.)
    """

    budget: SwitchResources = field(default_factory=SwitchResources)
    sram_allocated: int = 0
    _allocations: dict[str, int] = field(default_factory=dict, repr=False)

    def allocate_sram(self, owner: str, nbytes: int) -> None:
        """Reserve ``nbytes`` of SRAM for ``owner`` (e.g. a tree's registers)."""
        if nbytes < 0:
            raise ResourceExhaustedError("cannot allocate a negative SRAM amount")
        if self.sram_allocated + nbytes > self.budget.sram_bytes:
            raise ResourceExhaustedError(
                f"SRAM exhausted: {owner!r} requested {nbytes} B but only "
                f"{self.budget.sram_bytes - self.sram_allocated} B remain"
            )
        self.sram_allocated += nbytes
        self._allocations[owner] = self._allocations.get(owner, 0) + nbytes

    def release_sram(self, owner: str) -> int:
        """Release everything allocated to ``owner``; returns the byte count."""
        released = self._allocations.pop(owner, 0)
        self.sram_allocated -= released
        return released

    def allocations(self) -> dict[str, int]:
        """Copy of the per-owner allocation map."""
        return dict(self._allocations)
