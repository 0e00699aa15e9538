"""Cell-by-cell difference of the verify report between a revision and this checkout.

    python3 tools/report_diff.py --parent HEAD~1

Exports ``--parent`` with ``bench_verify.export`` into a temporary
directory, runs ``alphasphere verify --level full --seed 2024`` (CSV) there
and in this checkout (the working tree as it stands on disk), and prints
each cell that differs as ``criterion/check column: old -> new``.  A check
name that repeats within a criterion is told apart by ``#k``, its k-th
repeat.  Exits 1 when the two reports differ in their set of rows or in
their ``passed`` column, else 0.
"""

from __future__ import annotations

import argparse
import csv
import io
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_verify import ROOT, export

ARGV = ["verify", "--level", "full", "--seed", "2024"]


def report(root: Path) -> dict[str, dict[str, str]]:
    """The verify report run from checkout ``root``, by row key."""
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.run([sys.executable, "-m", "alphasphere", *ARGV], cwd=root, env=env,
                          capture_output=True, text=True, timeout=3600)
    if proc.returncode not in (0, 1) or not proc.stdout:
        raise RuntimeError(f"verify in {root}: exit {proc.returncode}\n{proc.stderr}")
    rows: dict[str, dict[str, str]] = {}
    seen: dict[str, int] = {}
    for row in csv.DictReader(io.StringIO(proc.stdout)):
        key = f"{row['criterion']}/{row['check']}"
        k = seen[key] = seen.get(key, -1) + 1
        rows[f"{key}#{k}" if k else key] = row
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", default="HEAD~1", help="revision to compare against")
    args = ap.parse_args(argv)
    tmp = Path(tempfile.mkdtemp(prefix="report-diff-"))
    try:
        sha = export(args.parent, tmp / "parent")
        old = report(tmp / "parent")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    new = report(ROOT)

    both = [key for key in old if key in new]
    cells = 0
    for key in both:
        for column, value in old[key].items():
            if new[key].get(column) != value:
                cells += 1
                print(f"{key} {column}: {value} -> {new[key].get(column)}")
    for key in sorted(old.keys() - new.keys()):
        print(f"{key}: only in {args.parent}")
    for key in sorted(new.keys() - old.keys()):
        print(f"{key}: only in the working tree")
    rows_differ = old.keys() != new.keys()
    passed_differ = any(old[k]["passed"] != new[k].get("passed") for k in both)
    print(f"{' '.join(ARGV)}: {args.parent} ({sha[:12]}) {len(old)} rows, working tree "
          f"{len(new)} rows, {cells} cells differ"
          + ("; the row set differs" if rows_differ else "")
          + ("; the passed column differs" if passed_differ else ""))
    return 1 if rows_differ or passed_differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
