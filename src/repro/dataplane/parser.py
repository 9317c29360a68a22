"""Parse-depth budget of the switch parser.

Hardware P4 parsers can only inspect the first few hundred bytes of a packet
("around 200-300 B", Section 5), which is why one DAIET packet carries at most
~10 key-value pairs. Every packet the switch program knows declares how deep
it must be parsed, ``parse_depth_bytes()``: all of a DAIET packet or ACK (the
preamble and every pair are headers), only the encapsulation of a transport
packet. :class:`HeaderParser` charges that depth against the target's budget.
"""

from __future__ import annotations

from typing import Any

from repro.core.errors import ResourceExhaustedError
from repro.dataplane.resources import SwitchResources


class HeaderParser:
    """The switch's parser: the parse-depth budget and the bytes it parsed."""

    def __init__(self, resources: SwitchResources | None = None) -> None:
        self.resources = resources or SwitchResources()
        self.bytes_parsed = 0

    def charge(self, packet: Any) -> int:
        """Charge ``packet``'s parse depth; return it.

        The one place an over-budget parse raises. The switch's compiled
        stages inline the in-budget case and call this for the error.

        Raises
        ------
        ResourceExhaustedError
            If the packet is deeper than the target's ``max_parse_bytes``.
        """
        parsed = packet.parse_depth_bytes()
        limit = self.resources.max_parse_bytes
        if parsed > limit:
            raise ResourceExhaustedError(
                f"parse depth exceeded: a {type(packet).__name__} needs {parsed} B, "
                f"target limit is {limit} B"
            )
        self.bytes_parsed += parsed
        return parsed
