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


def test_newton_split_times_the_solvers_own_solve(monkeypatch):
    # split checks that its timed dpbsv call returns _newton_direction's
    # solution bit for bit, so a layout flag that disagrees with the band fails
    monkeypatch.syspath_prepend(str(TOOLS))
    parts = importlib.import_module("newton_split").split(400)
    assert all(ms >= 0.0 for ms, _ in parts.values())
