"""The scripts under ``tools/`` import the library's private names, and
``report_diff`` imports ``bench_verify``: importing each one, without
running its ``main``, catches a rename that would break it.  The report
pin's own logic (which README commands it runs, how it keys and compares
cells) is checked without running git or the command line."""

import importlib
import math
import re
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


@pytest.fixture
def report_diff(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    return importlib.import_module("report_diff")


def test_readme_commands_are_the_six_that_write_to_stdout(report_diff):
    commands = report_diff.readme_commands()
    assert [" ".join(argv) for argv in commands] == [
        "dilation-table --alpha 1,1.5 --lambda 2,10,100",
        "energy --map identity --alpha 1.5",
        "energy --map mobius:2,0,0,0.5 --alpha 1.2",
        "radial-solve --alpha 1.5,1.3,1.2,1.1 --n 3 --N 4000",
        "dilation-table --alpha 1.1,1.3 --lambda 1,2,4,8",
        "radial-solve --alpha 1.2,1.3 --n 1,3 --N 1000"]
    assert not any({"-o", "--profile-out"} & set(argv) for argv in commands)


def test_by_check_keys_a_repeated_check_by_its_repeat(report_diff):
    rows = [{"criterion": "c", "check": "x", "value": str(k)} for k in range(2)]
    keyed = report_diff.by_check([*rows, {"criterion": "c", "check": "y", "value": "2"}])
    assert list(keyed) == ["c/x", "c/x#1", "c/y"] and keyed["c/x#1"]["value"] == "1"


def test_change_is_relative_and_absolute(report_diff):
    assert report_diff.change("1.0", "1.5") == (0.5, 0.5)
    assert report_diff.change("0", "1e-16") == (math.inf, 1e-16)
    for old, new in (("true", "false"), ("", "1"), ("1", ""), ("1", None)):
        assert report_diff.change(old, new) is None


def test_diff_cells_lists_each_differing_cell_of_shared_rows(report_diff, capsys):
    # a column that one side lacks is the header's difference, not a cell's
    old = {"a": {"v": "1.0", "w": "x", "z": "1"}, "b": {"v": "2"}}
    new = {"a": {"v": "1.5", "w": "y"}, "c": {"v": "3"}}
    assert report_diff.diff_cells(old, new) == [("a", (0.5, 0.5)), ("a", None)]
    assert capsys.readouterr().out == "a v: 1.0 -> 1.5\na w: x -> y\n"


def test_header_changes_name_each_one_sided_column_once(report_diff):
    assert report_diff.header_changes(["a", "b", "c"], ["a", "c", "d"], "REV") == [
        "columns only in REV: b", "columns only in the working tree: d"]
    assert report_diff.header_changes(["a", "b"], ["b", "a"], "REV") == []


def test_a_lost_column_alone_fails_the_pin(report_diff, monkeypatch, capsys):
    verify = ["criterion", "check", "value", "bound", "passed", "note"]
    rows = [dict(zip(verify, ("c01", "x", "1", "1", "True", "")))]

    def table(root, argv):
        if argv[0] == "verify":
            return 0, verify, rows
        header = ["n", "degree", "energy"] if root != report_diff.ROOT else ["n", "energy"]
        return 0, header, [{c: str(k) for c in header} for k in range(3)]

    monkeypatch.setattr(report_diff, "export", lambda rev, dest: "0" * 40)
    monkeypatch.setattr(report_diff, "source_lines", lambda root: 0)
    monkeypatch.setattr(report_diff, "readme_commands", lambda: [["radial-solve"]])
    monkeypatch.setattr(report_diff, "table", table)
    assert report_diff.main(["--parent", "REV"]) == 1
    out = capsys.readouterr().out
    assert "radial-solve: columns only in REV (000000000000): degree\n" in out
    assert "0 cells differ; the header differs" in out and "-> None" not in out


def test_public_names_are_counted_and_one_sided_ones_named(report_diff, monkeypatch, capsys):
    verify = ["criterion", "check", "value", "bound", "passed", "note"]
    rows = [dict(zip(verify, ("c01", "x", "1", "1", "True", "")))]
    names = {"REV": ["maps.degree", "maps.pullback", "maps.old"],
             "tree": ["maps.degree", "maps.new", "maps.pullback", "radial.newer"]}
    monkeypatch.setattr(report_diff, "export", lambda rev, dest: "0" * 40)
    monkeypatch.setattr(report_diff, "source_lines", lambda root: 0)
    monkeypatch.setattr(report_diff, "public_names",
                        lambda root: names["tree" if root == report_diff.ROOT else "REV"])
    monkeypatch.setattr(report_diff, "readme_commands", lambda: [])
    monkeypatch.setattr(report_diff, "table", lambda root, argv: (0, verify, rows))
    assert report_diff.main(["--parent", "REV"]) == 0
    out = capsys.readouterr().out
    assert "public names: REV (000000000000) 3, working tree 4 (+1)\n" in out
    assert "names only in REV (000000000000): maps.old\n" in out
    assert "names only in the working tree: maps.new, radial.newer\n" in out


def test_idle_stall_times_one_fresh_battery(monkeypatch, capsys):
    import alphasphere
    monkeypatch.setenv("PYTHONPATH", str(Path(alphasphere.__file__).parents[1]))
    monkeypatch.syspath_prepend(str(TOOLS))
    idle_stall = importlib.import_module("idle_stall")
    assert idle_stall.main(["--processes", "1", "--sleep", "0"]) == 0
    line, = capsys.readouterr().out.splitlines()
    c01, battery = (float(s) for s in re.findall(r"(\d+\.\d+) s", line))
    assert line.startswith("process 1:") and 0.0 < c01 < battery
