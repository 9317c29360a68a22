"""Determinism linter: every rule fires on its fixture, clean code passes."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.checks.determinism import (
    RULE_MUTABLE_DEFAULT,
    RULE_SET_ITERATION,
    RULE_UNSEEDED_RANDOM,
    RULE_UNUSED_IMPORT,
    RULE_WALL_CLOCK,
    lint_paths,
    lint_source,
)
from repro.cli import main

FIXTURES = Path(__file__).parent / "fixtures"

FIXTURE_RULES = {
    "bad_unseeded_random.py": RULE_UNSEEDED_RANDOM,
    "bad_wall_clock.py": RULE_WALL_CLOCK,
    "bad_set_iteration.py": RULE_SET_ITERATION,
    "bad_mutable_default.py": RULE_MUTABLE_DEFAULT,
    "bad_unused_import.py": RULE_UNUSED_IMPORT,
}


class TestFixtureCorpus:
    @pytest.mark.parametrize("filename,rule", sorted(FIXTURE_RULES.items()))
    def test_rule_fires_on_fixture(self, filename, rule):
        findings = lint_paths(FIXTURES / filename)
        assert findings, f"{filename} produced no findings"
        assert {f.rule for f in findings} == {rule}

    def test_unseeded_random_covers_every_pattern(self):
        findings = lint_paths(FIXTURES / "bad_unseeded_random.py")
        messages = " ".join(f.message for f in findings)
        assert "random.random()" in messages
        assert "random.randint()" in messages
        assert "without a seed" in messages
        assert "SystemRandom" in messages
        # NumPy's generators, called bare or named as a field's factory.
        numpy = sorted((f.line, f.message.split("(")[0]) for f in findings if "np." in f.message)
        assert numpy == [
            (28, "np.random.RandomState"),
            (28, "np.random.default_rng"),
            (33, "np.random.default_rng"),
        ]

    def test_wall_clock_covers_module_and_from_imports(self):
        findings = lint_paths(FIXTURES / "bad_wall_clock.py")
        messages = " ".join(f.message for f in findings)
        assert "time.time()" in messages
        assert "time.perf_counter()" in messages
        assert "datetime.now()" in messages
        # Both perf_counter call sites are flagged.
        assert len([f for f in findings if "perf_counter" in f.message]) == 2

    def test_set_iteration_covers_literal_constructor_and_local(self):
        findings = lint_paths(FIXTURES / "bad_set_iteration.py")
        assert len(findings) == 3

    def test_mutable_default_covers_list_dict_set(self):
        findings = lint_paths(FIXTURES / "bad_mutable_default.py")
        assert len(findings) == 3
        assert {"'__init__'" in f.message for f in findings} == {True, False}

    def test_unused_import_covers_plain_dotted_aliased_and_from_imports(self):
        # Flagged: a dotted import (it binds ``collections``), an aliased
        # one, a plain one and one name of a from-import. Not flagged: the
        # __future__ import, a name read only in a string annotation, one
        # listed in __all__ and one the module calls.
        findings = lint_paths(FIXTURES / "bad_unused_import.py")
        flagged = sorted(f.message.split("'")[1] for f in findings)
        assert flagged == ["codec", "collections", "os"]
        assert [f.line for f in findings] == [5, 6, 7]

    @pytest.mark.parametrize("filename", sorted(FIXTURE_RULES))
    def test_cli_exits_nonzero_on_fixture(self, filename, capsys):
        status = main(["lint", "--root", str(FIXTURES / filename)])
        assert status == 1
        out = capsys.readouterr().out
        assert FIXTURE_RULES[filename] in out

    def test_whole_fixture_directory_trips_every_rule(self):
        findings = lint_paths(FIXTURES)
        assert {f.rule for f in findings} == set(FIXTURE_RULES.values())


class TestCleanCode:
    def test_seeded_random_is_clean(self):
        source = (
            "import random\n"
            "rng = random.Random(2017)\n"
            "def draw():\n"
            "    return rng.random()\n"
        )
        assert lint_source(source, "clean.py") == []

    def test_random_seed_call_is_not_a_draw(self):
        source = "import random\nrandom.seed(1)\n"
        assert lint_source(source, "clean.py") == []

    def test_wall_clock_allowed_inside_allowlist(self):
        source = "import time\ndef wall():\n    return time.time()\n"
        assert lint_source(source, "repro/mapreduce/reducer.py") != []
        assert (
            lint_source(source, "repro/mapreduce/reducer.py", wall_clock_allowed=True)
            == []
        )

    def test_sorted_set_iteration_is_clean(self):
        source = (
            "def drain(pending):\n"
            "    fresh = {1, 2, 3}\n"
            "    for item in sorted(fresh):\n"
            "        yield item\n"
        )
        assert lint_source(source, "clean.py") == []

    def test_rebound_local_is_not_treated_as_set(self):
        source = (
            "def f(xs):\n"
            "    items = {1, 2}\n"
            "    items = sorted(items)\n"
            "    for item in items:\n"
            "        yield item\n"
        )
        assert lint_source(source, "clean.py") == []

    def test_parameters_are_not_set_locals(self):
        source = "def f(items):\n    for item in items:\n        yield item\n"
        assert lint_source(source, "clean.py") == []

    def test_none_default_is_clean(self):
        source = "def f(sinks=None):\n    return sinks or []\n"
        assert lint_source(source, "clean.py") == []

    def test_nested_scopes_do_not_leak_set_locals(self):
        source = (
            "def outer():\n"
            "    marks = {1, 2}\n"
            "    def inner(marks):\n"
            "        for m in marks:\n"
            "            yield m\n"
            "    return sorted(marks), inner\n"
        )
        assert lint_source(source, "clean.py") == []

    def test_a_package_init_re_exports_what_it_imports(self):
        source = "from repro.core.packet import DaietPacket\n"
        assert lint_source(source, "repro/core/__init__.py") == []
        assert [f.rule for f in lint_source(source, "repro/core/view.py")] == [
            RULE_UNUSED_IMPORT
        ]

    def test_an_import_read_in_another_scope_is_used(self):
        source = (
            "import zlib\n"
            "def outer():\n"
            "    from bisect import bisect_left\n"
            "    return lambda xs: bisect_left(xs, zlib.crc32(b''))\n"
        )
        assert lint_source(source, "clean.py") == []

    def test_syntax_error_becomes_a_finding(self):
        findings = lint_source("def broken(:\n", "broken.py")
        assert len(findings) == 1
        assert findings[0].rule == "syntax-error"
