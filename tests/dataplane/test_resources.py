"""Unit tests for the switch resource model."""

from __future__ import annotations

import pytest

from repro.core.errors import ResourceExhaustedError
from repro.dataplane.resources import ResourceLedger, SwitchResources


class TestSwitchResources:
    def test_defaults_are_tofino_like(self):
        resources = SwitchResources()
        assert resources.sram_bytes >= 10 * 1024 * 1024
        assert resources.max_parse_bytes <= 300
        assert resources.max_ops_per_packet >= 3 + 10

    def test_invalid_values_rejected(self):
        with pytest.raises(ResourceExhaustedError):
            SwitchResources(sram_bytes=0)
        with pytest.raises(ResourceExhaustedError):
            SwitchResources(max_parse_bytes=-1)
        with pytest.raises(ResourceExhaustedError):
            SwitchResources(max_ops_per_packet=0)


class TestResourceLedger:
    def test_allocate_and_release(self):
        ledger = ResourceLedger(budget=SwitchResources(sram_bytes=1000))
        ledger.allocate_sram("tree1", 400)
        ledger.allocate_sram("tree2", 500)
        assert ledger.sram_allocated == 900
        assert ledger.allocations() == {"tree1": 400, "tree2": 500}
        released = ledger.release_sram("tree1")
        assert released == 400
        assert ledger.sram_allocated == 500

    def test_overallocation_raises(self):
        ledger = ResourceLedger(budget=SwitchResources(sram_bytes=100))
        ledger.allocate_sram("a", 90)
        with pytest.raises(ResourceExhaustedError):
            ledger.allocate_sram("b", 20)

    def test_negative_allocation_rejected(self):
        ledger = ResourceLedger()
        with pytest.raises(ResourceExhaustedError):
            ledger.allocate_sram("x", -1)

    def test_release_unknown_owner_is_zero(self):
        ledger = ResourceLedger()
        assert ledger.release_sram("nobody") == 0

    def test_repeated_allocation_accumulates_per_owner(self):
        ledger = ResourceLedger(budget=SwitchResources(sram_bytes=1000))
        ledger.allocate_sram("tree1", 100)
        ledger.allocate_sram("tree1", 200)
        assert ledger.allocations()["tree1"] == 300
        assert ledger.release_sram("tree1") == 300
