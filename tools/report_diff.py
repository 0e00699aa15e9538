"""Cell-by-cell difference of the verify report and the README reports between a
revision and this checkout.

    python3 tools/report_diff.py --parent HEAD~1

Exports ``--parent`` with ``bench_verify.export`` into a temporary
directory and runs, there and in this checkout (the working tree as it
stands on disk), ``alphasphere verify --level full --seed 2024`` and each
command of this checkout's README command-line block that writes its report
to stdout (those without ``-o`` or ``--profile-out``).  Prints the line
count of ``src/alphasphere/*.py`` on both sides, then each cell
that differs: a verify cell as ``criterion/check column: old -> new``, a
check name that repeats within a criterion told apart by ``#k``, its k-th
repeat; a README cell as ``command row k column: old -> new``.  Then
prints one line per criterion or command with differing cells: how many,
and the largest relative and the largest absolute change among its numeric
cells.  Exits 1 when the verify reports differ in their set of rows or in
their ``passed`` column, a README report in its header or its number of
rows, or any run in its exit status, which is printed then; else 0.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import os
import re
import shlex
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_verify import ROOT, export

ARGV = ["verify", "--level", "full", "--seed", "2024"]


def readme_commands() -> list[list[str]]:
    """The README's command lines that write their report to stdout, as argv
    lists without the leading ``alphasphere``."""
    section = (ROOT / "README.md").read_text().split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    argvs = [shlex.split(line)[1:] for line in block.splitlines()
             if line.startswith("alphasphere ")]
    return [argv for argv in argvs if not {"-o", "--profile-out"} & set(argv)]


def source_lines(root: Path) -> int:
    """Lines of the package's modules, as ``wc -l src/alphasphere/*.py``
    counts them."""
    return sum(p.read_bytes().count(b"\n") for p in (root / "src" / "alphasphere").glob("*.py"))


def table(root: Path, argv: list[str]) -> tuple[int, list[str], list[dict[str, str]]]:
    """The exit status, the header and the rows of the CSV report of
    ``alphasphere argv`` run from checkout ``root``."""
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.run([sys.executable, "-m", "alphasphere", *argv], cwd=root, env=env,
                          capture_output=True, text=True, timeout=3600)
    if proc.returncode not in (0, 1) or not proc.stdout:
        raise RuntimeError(f"{shlex.join(argv)} in {root}: exit {proc.returncode}\n{proc.stderr}")
    header, *rows = csv.reader(io.StringIO(proc.stdout))
    return proc.returncode, header, [dict(zip(header, row)) for row in rows]


def by_check(rows: list[dict[str, str]]) -> dict[str, dict[str, str]]:
    """Verify rows keyed ``criterion/check``, a repeat as ``#k``."""
    keyed: dict[str, dict[str, str]] = {}
    seen: dict[str, int] = {}
    for row in rows:
        key = f"{row['criterion']}/{row['check']}"
        k = seen[key] = seen.get(key, -1) + 1
        keyed[f"{key}#{k}" if k else key] = row
    return keyed


def change(old: str, new: str) -> tuple[float, float] | None:
    """|new - old| / |old| (inf when old is 0 or not finite) and |new - old|
    of two numeric cells, or None when either cell is not a number."""
    try:
        a, b = float(old), float(new)
    except ValueError:
        return None
    return abs(b - a) / abs(a) if math.isfinite(a) and a != 0.0 else math.inf, abs(b - a)


def diff_cells(old: dict[str, dict[str, str]], new: dict[str, dict[str, str]],
               prefix: str = "") -> list[tuple[str, tuple[float, float] | None]]:
    """Print each cell of a row in both reports that differs; returns, per
    such cell, its row key and its relative and absolute change."""
    changes = []
    for key in (key for key in old if key in new):
        for column, value in old[key].items():
            if new[key].get(column) != value:
                changes.append((key, change(value, new[key].get(column))))
                print(f"{prefix}{key} {column}: {value} -> {new[key].get(column)}")
    return changes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", default="HEAD~1", help="revision to compare against")
    args = ap.parse_args(argv)
    commands = [ARGV, *readme_commands()]
    tmp = Path(tempfile.mkdtemp(prefix="report-diff-"))
    try:
        sha = export(args.parent, tmp / "parent")
        old_lines = source_lines(tmp / "parent")
        olds = [table(tmp / "parent", c) for c in commands]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    news = [table(ROOT, c) for c in commands]
    side = f"{args.parent} ({sha[:12]})"
    print(f"src/alphasphere/*.py: {side} {old_lines} lines, "
          f"working tree {source_lines(ROOT)} lines")

    statuses_differ = False
    for command, (old_code, _, _), (new_code, _, _) in zip(commands, olds, news):
        if old_code != new_code:
            print(f"{shlex.join(command)}: exit {old_code} at {side}, "
                  f"{new_code} in the working tree")
            statuses_differ = True

    old, new = by_check(olds[0][2]), by_check(news[0][2])
    changes = diff_cells(old, new)
    groups: dict[str, list[tuple[float, float] | None]] = {}
    for key, cell in changes:
        groups.setdefault(key.split("/", 1)[0], []).append(cell)
    for key in sorted(old.keys() - new.keys()):
        print(f"{key}: only in {args.parent}")
    for key in sorted(new.keys() - old.keys()):
        print(f"{key}: only in the working tree")
    rows_differ = old.keys() != new.keys()
    passed_differ = any(old[k]["passed"] != new[k]["passed"] for k in old.keys() & new.keys())
    print(f"{' '.join(ARGV)}: {side} {len(old)} rows, working tree {len(new)} rows, "
          f"{len(changes)} cells differ"
          + ("; the row set differs" if rows_differ else "")
          + ("; the passed column differs" if passed_differ else ""))
    failed = statuses_differ or rows_differ or passed_differ

    for command, (_, old_h, old_t), (_, new_h, new_t) in zip(commands[1:], olds[1:], news[1:]):
        name = shlex.join(command)
        changes = diff_cells(dict(enumerate(old_t)), dict(enumerate(new_t)), prefix=f"{name} row ")
        if changes:
            groups[name] = [cell for _, cell in changes]
        header_differs = old_h != new_h
        count_differs = len(old_t) != len(new_t)
        print(f"{name}: {side} {len(old_t)} rows, working tree {len(new_t)} rows, "
              f"{len(changes)} cells differ"
              + ("; the header differs" if header_differs else "")
              + ("; the row count differs" if count_differs else ""))
        failed = failed or header_differs or count_differs
    for group, group_changes in groups.items():
        numeric = [c for c in group_changes if c is not None]
        print(f"{group}: {len(group_changes)} cells differ, "
              + (f"largest relative change {max(r for r, _ in numeric):.3g}, largest "
                 f"absolute change {max(d for _, d in numeric):.3g}" if numeric
                 else "none numeric"))
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
