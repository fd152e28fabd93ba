"""Run the ``>>>`` examples in the ``repro`` sources as tests.

Every module under ``src/repro`` whose source contains a doctest prompt
is imported and run through :func:`doctest.testmod`; a failing example
fails its test id.  The module count is asserted, so a broken discovery
cannot pass vacuously.
"""

from __future__ import annotations

import doctest
import importlib
from pathlib import Path

import pytest

import repro

_ROOT = Path(repro.__file__).resolve().parent


def _doctest_modules() -> list[str]:
    names = []
    for path in sorted(_ROOT.rglob("*.py")):
        if ">>>" not in path.read_text(encoding="utf-8"):
            continue
        parts = path.relative_to(_ROOT.parent).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        names.append(".".join(parts))
    return names


MODULES = _doctest_modules()


def test_doctest_modules_are_found():
    assert len(MODULES) >= 9, MODULES


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests_pass(name):
    module = importlib.import_module(name)
    result = doctest.testmod(module)
    assert result.attempted > 0, f"{name} has a '>>>' but no example ran"
    assert result.failed == 0, f"{result.failed} doctest(s) failed in {name}"
