"""Before/after numbers for one benchmark workload, written to a BENCH file.

    python3 tools/bench_verify.py --parent HEAD~1 --what "one line on the change"
    python3 tools/bench_verify.py --workload radial-ladder --what "..."

``--workload verify`` (the default) writes BENCH_verify.json,
``--workload radial-ladder`` BENCH_radial.json and ``--workload
radial-continuation`` BENCH_continuation.json.  Exports the parent
revision with ``git archive`` into a temporary directory and runs
BENCHMARK.json's command with that workload and its ``run_seconds`` there
and in this checkout (the change, as it stands on disk), one after the
other, switching which side goes first from seed to seed (``--parent
HEAD`` measures uncommitted work against its base):

- traced (``--trace 1``) once per seed in ``TRACE_SEEDS``, for the
  workload's per-layer metrics: the per-criterion times and the
  maps/mobius/energy/quadrature counts for verify, the per-size solve
  medians, the Newton, energy, residual and resampling times, the
  iterations per solve and the converged share for the radial ladder, the
  Newton iterations per solve, their cost and the resampling time for the
  continuation chains;
- untraced (``--trace 0``) once per seed in ``E2E_SEEDS``, for the
  end-to-end metrics that BENCHMARK.json declares.

Per-layer metrics are reported as the median over the seeds; end-to-end
metrics as the median and quartiles over the seeds and the number of seeds
at which the change did better.  Only one benchmark process runs at a time.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TRACE_SEEDS = [1, 2, 3, 4, 5]
E2E_SEEDS = list(range(11, 21))
# workload -> (topic of the BENCH file, per-layer metrics it records)
TOPICS = {
    "verify": ("verify", (*(f"verification.c{i:02d}_s" for i in range(1, 13)),
                          "maps.calls", "maps.points", "maps.self_s", "maps.points_per_s",
                          "mobius.calls", "mobius.self_s", "energy.calls", "energy.self_s",
                          "quadrature.calls",
                          "quadrature.integrand_calls", "quadrature.integrand_points",
                          "quadrature.self_s")),
    "radial-ladder": ("radial", (*(f"radial.N{N}_p50_s" for N in (1000, 2000, 4000, 8000,
                                                                  16000, 32000)),
                                 "radial.s_per_iter_kcell", "radial.energy_s",
                                 "radial.residual_s", "radial.resample_s",
                                 "radial.iters_per_solve", "radial.converged_ratio")),
    "radial-continuation": ("continuation", ("radial.iters_per_solve",
                                             "radial.s_per_iter_kcell", "radial.resample_s")),
}


def export(rev: str, dest: Path) -> str:
    """Extract the committed files of ``rev`` into ``dest``; returns its hash."""
    sha = subprocess.run(["git", "rev-parse", rev], cwd=ROOT, check=True,
                         capture_output=True, text=True).stdout.strip()
    tar_path = dest.with_suffix(".tar")
    subprocess.run(["git", "archive", "--format=tar", "-o", str(tar_path), sha],
                   cwd=ROOT, check=True)
    with tarfile.open(tar_path) as tar:
        kwargs = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
        tar.extractall(dest, **kwargs)
    tar_path.unlink()
    return sha


def command(workload, seed, trace) -> list[str]:
    return [*SPEC["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]


def run(workload: str, root: Path, seed: int, trace: int) -> tuple[dict, dict]:
    """(result, environment) of one benchmark run in checkout ``root``."""
    cmd = command(workload, seed, trace)
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=3600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {root}: exit {proc.returncode}\n{proc.stderr}")
    env = next((json.loads(ln[4:]) for ln in lines if ln.startswith("env ")), {})
    return json.loads(lines[-1]), env


def paired(workload: str, seeds: list[int], sides: dict[str, Path], trace: int):
    """Per side, the results in seed order; the first side alternates."""
    out: dict[str, list[dict]] = {name: [] for name in sides}
    env: dict = {}
    for i, seed in enumerate(seeds):
        order = list(sides) if i % 2 == 0 else list(sides)[::-1]
        for name in order:
            result, env = run(workload, sides[name], seed, trace)
            if not result["correct"]:
                raise RuntimeError(f"{name} gave a wrong answer at seed {seed}: {result}")
            out[name].append(result)
            print(f"trace={trace} seed={seed} {name}: " + " ".join(
                f"{k}={result['metrics'][k]['value']:.4g}"
                for k in ("latency_p50_s", TOPICS[workload][1][0]) if k in result["metrics"]),
                flush=True)
    return out, env


def values(results: list[dict], key: str) -> list[float]:
    return [r["metrics"][key]["value"] for r in results]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", default="HEAD~1", help="revision to compare against")
    ap.add_argument("--what", required=True, help="one line on what the change does")
    ap.add_argument("--workload", default="verify", choices=tuple(TOPICS),
                    help="benchmark workload to measure (default: verify)")
    args = ap.parse_args(argv)
    topic, layers = TOPICS[args.workload]
    out = ROOT / f"BENCH_{topic}.json"

    tmp = Path(tempfile.mkdtemp(prefix="bench-"))
    try:
        parent_sha = export(args.parent, tmp / "parent")
        sides = {"parent": tmp / "parent", "change": ROOT}
        traced, env = paired(args.workload, TRACE_SEEDS, sides, 1)
        untraced, _ = paired(args.workload, E2E_SEEDS, sides, 0)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    per_layer = {}
    for key in layers:
        p, c = values(traced["parent"], key), values(traced["change"], key)
        pm, cm = statistics.median(p), statistics.median(c)
        per_layer[key] = {"unit": traced["parent"][0]["metrics"][key]["unit"],
                          "parent": round(pm, 6), "change": round(cm, 6),
                          "change_over_parent": round(cm / pm, 3) if pm else None,
                          "parent_runs": [round(v, 6) for v in p],
                          "change_runs": [round(v, 6) for v in c]}
    end_to_end = {}
    for m in SPEC["end_to_end"]:
        p, c = values(untraced["parent"], m["name"]), values(untraced["change"], m["name"])
        sign = 1.0 if m["better"] == "lower" else -1.0
        pm, cm = statistics.median(p), statistics.median(c)
        end_to_end[m["name"]] = {
            "unit": m["unit"],
            "parent_median": round(pm, 4),
            "parent_quartiles": [round(q, 4) for q in statistics.quantiles(p, n=4)[::2]],
            "change_median": round(cm, 4),
            "change_quartiles": [round(q, 4) for q in statistics.quantiles(c, n=4)[::2]],
            "change_over_parent": round(cm / pm, 3) if pm else None,
            "pairs_won_by_change": sum(sign * (b - a) < 0 for a, b in zip(p, c)),
            "pairs": len(p)}
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True).stdout.strip()
    doc = {
        "topic": topic,
        "what": args.what,
        "parent_commit": parent_sha,
        "change": f"working tree on top of {head}",
        "machine": {k: env.get(k) for k in ("nproc", "cpu", "python", "numpy", "scipy",
                                             "blas", "threads")},
        "script": f"python3 tools/bench_verify.py --workload {args.workload}",
        "per_layer": {
            "command": " ".join(command(args.workload, "S", 1)),
            "seeds": TRACE_SEEDS,
            "statistic": "median over the seeds of each run's value, taken over the run's "
                         "traced ops; one run per seed and side, the side that runs "
                         "first alternating from seed to seed",
            "metrics": per_layer},
        "end_to_end": {
            "command": " ".join(command(args.workload, "S", 0)),
            "seeds": E2E_SEEDS,
            "statistic": "median and quartiles over the seeds; one run per seed and side, "
                         "the side that runs first alternating from seed to seed",
            "failed_ops": {side: sum(r["failed"] for r in untraced[side]) for side in untraced},
            "metrics": end_to_end},
    }
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {out}")
    for key in ("latency_p50_s", "ops_per_s"):
        e = end_to_end[key]
        print(f"{key}: {e['parent_median']} -> {e['change_median']} "
              f"({e['pairs_won_by_change']}/{e['pairs']} pairs won)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
