"""Fast-path parity checker: registry contents and oracle validation."""

from __future__ import annotations

from repro.checks.parity import (
    REQUIRED_FASTPATHS,
    check_fastpath_parity,
    repo_root,
)
from repro.checks.registry import FastPathInfo, fastpath, registered_fastpaths


class TestRegistry:
    def test_all_required_fastpaths_registered(self):
        registry = registered_fastpaths()
        # Importing via the checker side-effect registers them; go through
        # the real checker so the test exercises the discovery path.
        assert check_fastpath_parity() == []
        registry = registered_fastpaths()
        assert REQUIRED_FASTPATHS <= set(registry)

    def test_registered_oracles_exist_with_tests(self):
        check_fastpath_parity()
        root = repo_root()
        for info in registered_fastpaths().values():
            oracle = root / info.oracle
            assert oracle.is_file(), info
            assert "def test" in oracle.read_text()

    def test_the_switch_paths_are_the_program_stages(self):
        # Steering is the device's; forwarding is the switch's own stage.
        check_fastpath_parity()
        registry = registered_fastpaths()
        assert (registry["switch-delivery"].module, registry["switch-delivery"].qualname) == (
            "repro.netsim.devices",
            "SwitchDevice.deliver",
        )
        assert (registry["switch-forwarding"].module, registry["switch-forwarding"].qualname) == (
            "repro.dataplane.switch",
            "ProgrammableSwitch.receive",
        )

    def test_decorator_returns_object_unchanged(self):
        sentinel = object()
        assert fastpath("tmp-path", oracle="tests/nope.py")(sentinel) is sentinel
        # Clean up the registry entry the line above created.
        import repro.checks.registry as registry_module

        registry_module._REGISTRY.pop("tmp-path")

    def test_source_path_derived_from_module(self):
        info = FastPathInfo(
            name="x", oracle="tests/x.py", module="repro.netsim.events", qualname="Y"
        )
        assert info.source_path() == "src/repro/netsim/events.py"


class TestFindings:
    def test_missing_required_fastpath_is_flagged(self, tmp_path):
        findings = check_fastpath_parity(root=tmp_path, registry={})
        assert {f.rule for f in findings} == {"fastpath-missing"}
        assert len(findings) == len(REQUIRED_FASTPATHS)

    def test_missing_oracle_file_is_flagged(self, tmp_path):
        registry = {
            name: FastPathInfo(
                name=name, oracle=f"tests/{name}.py", module="repro.x", qualname="f"
            )
            for name in REQUIRED_FASTPATHS
        }
        findings = check_fastpath_parity(root=tmp_path, registry=registry)
        assert {f.rule for f in findings} == {"fastpath-oracle-missing"}

    def test_testless_oracle_is_flagged(self, tmp_path):
        oracle = tmp_path / "tests" / "empty.py"
        oracle.parent.mkdir()
        oracle.write_text("# placeholder, no tests\n")
        registry = {
            "calendar-queue": FastPathInfo(
                name="calendar-queue",
                oracle="tests/empty.py",
                module="repro.netsim.events",
                qualname="CalendarQueue",
            )
        }
        findings = check_fastpath_parity(root=tmp_path, registry=registry)
        rules = sorted(f.rule for f in findings)
        assert "fastpath-oracle-empty" in rules
        # The other three required paths are missing from this registry.
        assert rules.count("fastpath-missing") == len(REQUIRED_FASTPATHS) - 1
