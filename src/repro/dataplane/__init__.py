"""Programmable data-plane substrate (RMT/P4-style switch model).

This subpackage models the "network machine architecture" the paper targets:
index stacks (:mod:`registers`), the
resource limits of the ASIC (:mod:`resources`), exact-match tables with
declared action sets and flow rules (:mod:`tables`, :mod:`actions`), the
parse-depth budget (:mod:`parser`) and the switch running DAIET's one
program, steer then forward (:mod:`switch`).
"""

from repro.dataplane.actions import EcmpAction, Extern, ForwardAction
from repro.dataplane.parser import HeaderParser
from repro.dataplane.registers import IndexStack
from repro.dataplane.resources import ResourceLedger, SwitchResources
from repro.dataplane.switch import ProgrammableSwitch, SwitchCounters
from repro.dataplane.tables import FlowRule, MatchActionTable, TableEntry

__all__ = [
    "EcmpAction",
    "Extern",
    "ForwardAction",
    "HeaderParser",
    "IndexStack",
    "ResourceLedger",
    "SwitchResources",
    "ProgrammableSwitch",
    "SwitchCounters",
    "FlowRule",
    "MatchActionTable",
    "TableEntry",
]
