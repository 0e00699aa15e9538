"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload radial-ladder --seeds 1 2 3 4 5

Runs the benchmark command from BENCHMARK.json once per seed, untraced, and
prints per metric the median and the distance between the first and third
quartiles (``statistics.quantiles(values, n=4)``) as a share of the median,
next to a third of the metric's bound.  Appends every result line to
``.perfbench/spread.jsonl``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
    log = ROOT / ".perfbench" / "spread.jsonl"
    log.parent.mkdir(exist_ok=True)
    for seed in args.seeds:
        cmd = [*spec["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        with log.open("a") as fh:
            fh.write(json.dumps({"workload": args.workload, "seed": seed, **result}) + "\n")
        print(f"seed {seed}: attempted={result['attempted']} failed={result['failed']} "
              + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
              flush=True)
        for k, v in result["metrics"].items():
            values[k].append(v["value"])
    if len(args.seeds) < 2:
        return 0
    for m in spec["end_to_end"]:
        xs = values[m["name"]]
        q1, med, q3 = statistics.quantiles(xs, n=4)
        share = (q3 - q1) / med
        verdict = "ok" if share < m["bound"] / 3 else "WIDE"
        print(f"{m['name']:16s} median {med:.6g} {m['unit']:6s} spread {share:.4f} "
              f"(bound/3 {m['bound'] / 3:.4f}) {verdict}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
