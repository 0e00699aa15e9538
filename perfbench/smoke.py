"""Smoke check of the benchmark itself.

    python3 perfbench/smoke.py

Runs a tiny op list per workload, untraced and traced, each in a fresh
process (tracing wraps the library for the life of a process).  Checks that
the result line has the contract's keys, that every metric BENCHMARK.json
names appears with its unit, and that traced self times sum to no more
than the traced wall time.  Exits 1 on the first failed check.
"""

import json
import subprocess
import sys
from pathlib import Path

import run

TINY = {
    "verify": [7],
    "radial-ladder": [(1.2, 3, 1000), (1.5, 1, 2000)],
    "radial-continuation": [(1.15, 2000, True, (1.3,))],
}


def one(workload: str, trace: bool) -> dict:
    run.cap_threads()
    sys.path.insert(0, str(run.ROOT / "src"))
    run.OUT.mkdir(exist_ok=True)
    result, details = run.run_workload(workload, seed=0, seconds=0.0, trace=trace,
                                       ops=TINY[workload])
    out = {"result": result, "wall_s": details["wall_s"]}
    if trace:
        import tracing
        out["self_s"] = sum(tracing.self_times(details["spans"]))
    return out


def check(workload: str, trace: bool, out: dict, spec: dict) -> list[str]:
    res, problems = out["result"], []
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(res)}")
    if not res["correct"] or res["attempted"] != len(TINY[workload]):
        problems.append(f"correct={res['correct']} attempted={res['attempted']}")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v.get("unit") for k, v in res["metrics"].items()}
    if got != wanted:
        problems.append(f"metrics/units differ: missing {sorted(set(wanted) - set(got))}, "
                        f"extra {sorted(set(got) - set(wanted))}, "
                        f"units {[k for k in wanted if k in got and got[k] != wanted[k]]}")
    if not all(isinstance(v.get("value"), (int, float)) for v in res["metrics"].values()):
        problems.append("non-numeric metric value")
    if trace and not out["self_s"] <= out["wall_s"]:
        problems.append(f"self times {out['self_s']:.6f} s exceed traced wall {out['wall_s']:.6f} s")
    return problems


def main() -> int:
    if sys.argv[1:2] == ["--one"]:
        print(json.dumps(one(sys.argv[2], sys.argv[3] == "1")))
        return 0
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for workload in TINY:
        for trace in (False, True):
            proc = subprocess.run([sys.executable, __file__, "--one", workload, str(int(trace))],
                                  cwd=run.ROOT, capture_output=True, text=True, timeout=300)
            if proc.returncode != 0:
                print(f"FAIL {workload} trace={int(trace)}: exit {proc.returncode}\n{proc.stderr}")
                return 1
            problems = check(workload, trace, json.loads(proc.stdout.splitlines()[-1]), spec)
            print(f"{'FAIL' if problems else 'ok  '} {workload} trace={int(trace)} {problems or ''}")
            if problems:
                return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
