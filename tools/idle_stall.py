"""Fresh verify batteries, each started after an idle spell.

    PYTHONPATH=src python3 tools/idle_stall.py --processes 6 --sleep 8
    PYTHONPATH=/path/to/other/checkout/src python3 tools/idle_stall.py

Starts K fresh interpreters, one after another.  Each imports
``alphasphere`` from the ``PYTHONPATH`` it inherits, sleeps S seconds, runs
``run_criteria`` at the full level (seed 2024) and reports its c01 time and
its battery time, which this script prints one line per process.  c01 is
where a battery builds its first high-order Gauss-Legendre rule: with
numpy's ``leggauss``, whose ``eigvalsh`` runs on OpenBLAS threads, a process
that had sat idle for a few seconds could stall there for about a second.
Standard library only; the library is imported by the child interpreters.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

CHILD = """
import json, sys, time
from alphasphere.verification import VerifySettings, run_criteria
time.sleep(float(sys.argv[1]))
timings = {}
t0 = time.perf_counter()
run_criteria(VerifySettings(level="full"), timings=timings)
battery = time.perf_counter() - t0
c01 = next(s for name, s in timings.items() if name.startswith("c01"))
print(json.dumps({"c01_s": c01, "battery_s": battery}))
"""


def run(processes: int, sleep: float) -> list[dict]:
    """c01 and battery wall times, in seconds, of each fresh process."""
    out = []
    for _ in range(processes):
        proc = subprocess.run([sys.executable, "-c", CHILD, str(sleep)], capture_output=True,
                              text=True, check=True)
        out.append(json.loads(proc.stdout))
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--processes", type=int, default=6, help="fresh processes K")
    ap.add_argument("--sleep", type=float, default=8.0, help="idle seconds S before each battery")
    args = ap.parse_args(argv)
    for i, t in enumerate(run(args.processes, args.sleep), 1):
        print(f"process {i}: c01 {t['c01_s']:.3f} s, battery {t['battery_s']:.3f} s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
