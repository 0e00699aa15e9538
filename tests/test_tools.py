"""The scripts under ``tools/`` import the library's private names, and
``report_diff`` imports ``bench_verify``: importing each one, without
running its ``main``, catches a rename that would break it."""

import importlib
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"


@pytest.mark.parametrize("path", sorted(TOOLS.glob("*.py")), ids=lambda p: p.stem)
def test_tool_imports_without_running(path, monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    module = importlib.import_module(path.stem)
    assert callable(module.main)


def test_newton_split_finds_the_geometry_cache_and_sincos(monkeypatch):
    # it falls back to None for a checkout without them, which would hide a rename
    monkeypatch.syspath_prepend(str(TOOLS))
    newton_split = importlib.import_module("newton_split")
    assert newton_split._geometry is not None and newton_split._sincos is not None
