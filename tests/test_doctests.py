"""Every example in a ``src/repro`` docstring runs and prints what it shows.

A module is collected when its source holds a ``>>>`` prompt; each one is a
test of its own, run with :func:`doctest.testmod`, and any failing example
fails it.
"""

from __future__ import annotations

import doctest
import importlib
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "repro"


def modules_with_examples() -> list[str]:
    """Dotted names of the ``repro`` modules whose source shows a ``>>>``."""
    names = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if ">>>" in path.read_text(encoding="utf-8"):
            parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
            names.append(".".join(parts[:-1] if parts[-1] == "__init__" else parts))
    return names


def test_the_examples_are_found():
    assert "repro.core.daiet" in modules_with_examples()


@pytest.mark.parametrize("name", modules_with_examples())
def test_docstring_examples(name):
    module = importlib.import_module(name)
    failed, attempted = doctest.testmod(module, report=False)
    assert attempted > 0, f"{name} shows a >>> prompt doctest does not collect"
    assert failed == 0, f"{failed} of {attempted} examples in {name} failed"
