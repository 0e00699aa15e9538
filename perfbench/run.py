"""alphasphere benchmark: one workload per run, result as the last stdout line.

    python3 perfbench/run.py --workload radial-ladder --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

Workloads: verify, radial-ladder, radial-continuation (see NOTES.md).  With
``--trace 0`` the run issues whole batches of seeded ops until ``--seconds``
have elapsed and reports the end-to-end metrics.  With ``--trace 1`` it runs
one fixed op list (a pass of the radial grids; three ops for verify)
untraced and then traced, and reports the per-layer metrics and the
tracing overhead.  Details of every
run go to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".perfbench"
SETUP_PROBES = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("verify", "radial-ladder", "radial-continuation")


def cap_threads() -> int:
    """Cap BLAS/OpenMP threads at nproc; must run before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        cur = os.environ.get(var, "")
        if not (cur.isdigit() and 0 < int(cur) <= nproc):
            os.environ[var] = str(nproc)
    return nproc


def environment(seed: int, nproc: int) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"nproc": nproc, "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas,
            "threads": {v: os.environ[v] for v in THREAD_VARS},
            "commit": commit, "seed": seed}


def measure_setup(workload: str, seed: int) -> list[float]:
    """Spawn-to-ready times of fresh interpreters running the set-up."""
    import workloads

    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, str(BENCH / "child.py"), "setup", workload,
                               str(seed)], cwd=ROOT, env=workloads.child_env(),
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe for {workload} failed (exit {code})")
        times.append(t1 - t0)
    return times


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) of the highest percentile that
    has at least ten samples beyond it; the maximum when there are <= 10."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, 0
    return xs[n - 11], 100.0 * (n - 10) / n, 10


def run_ops(wl, asph, ops, tracer=None):
    outcomes = []
    for i, spec in enumerate(ops):
        if tracer is None:
            outcomes.append(wl.run_op(asph, spec))
            continue
        tracer.op = i
        rec = tracer.open("op", "bench", "op")
        try:
            outcomes.append(wl.run_op(asph, spec, tracer))
        finally:
            tracer.close(rec)
    return outcomes


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 ops=None) -> tuple[dict, dict]:
    """Run one workload; returns (result line, details).  ``ops`` replaces
    the seeded op list and turns off the time budget."""
    import tracing
    import workloads

    wl = workloads.WORKLOADS[name]
    setups = [] if trace else measure_setup(name, seed)
    asph, first = workloads.setup(name, seed)
    t0 = time.perf_counter()
    if trace:
        if ops is None:
            ops = [spec for i in range(wl.trace_batches) for spec in wl.make_batch(seed, i)]
        run_ops(wl, asph, ops)
        wall0 = time.perf_counter() - t0
        tracer = tracing.Tracer()
        if wl.in_process:
            tracing.install(tracer)
        t1 = time.perf_counter()
        outcomes = run_ops(wl, asph, ops, tracer)
        wall = time.perf_counter() - t1
    else:
        if ops is None:
            ops, outcomes, batch, index = [], [], first, 0
            while True:
                outcomes += run_ops(wl, asph, batch)
                ops += batch
                index += 1
                if time.perf_counter() - t0 >= seconds:
                    break
                batch = wl.make_batch(seed, index)
        else:
            outcomes = run_ops(wl, asph, ops)
        wall = time.perf_counter() - t0

    lat = [o.latency for o in outcomes]
    failed = sum(not o.ok for o in outcomes)
    details = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
               "wall_s": wall, "setup_probes_s": setups,
               "ops": [{"spec": spec, "latency_s": o.latency, "ok": o.ok, "error": o.error,
                        "reason": o.reason} for spec, o in zip(ops, outcomes)]}
    if trace:
        metrics = tracing.layer_metrics(tracer.spans, len(ops), wall / wall0)
        details["spans"] = tracer.spans
    else:
        tail_value, tail_pct, beyond = tail(lat)
        who = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "latency_p50_s": (statistics.median(lat), "s"),
            "latency_tail_s": (tail_value, "s"),
            "ops_per_s": (len(outcomes) / wall, "1/s"),
            "ok_ratio": ((len(outcomes) - failed) / len(outcomes), "ratio"),
            "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024.0, "MB"),
        }
        details["tail"] = {"percentile": tail_pct, "beyond": beyond, "samples": len(lat)}
    result = {"correct": all(o.error is None for o in outcomes),
              "attempted": len(outcomes), "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    return result, details


def summary(result: dict, details: dict) -> list[str]:
    lines = []
    for key, m in result["metrics"].items():
        note = ""
        if key == "setup_s":
            note = f"  (median of {len(details['setup_probes_s'])} fresh set-ups)"
        elif key == "latency_tail_s":
            t = details["tail"]
            note = f"  (p{t['percentile']:.1f}, {t['beyond']} of {t['samples']} samples beyond)"
        lines.append(f"  {key:28s} {m['value']:.6g} {m['unit']}{note}")
    a, f = result["attempted"], result["failed"]
    lines.append(f"  {'failed_ratio':28s} {f / a:.6g} ratio  ({f} failed of {a} attempted)")
    errors: dict[str, int] = {}
    for op in details["ops"]:
        if not op["ok"]:
            key = op["error"] or f"{op['reason']}: {json.dumps(op['spec'])}"
            errors[key] = errors.get(key, 0) + 1
    for key, count in sorted(errors.items(), key=lambda kv: -kv[1])[:20]:
        lines.append(f"  failed x{count}: {key}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    nproc = cap_threads()
    if not (ROOT / "src" / "alphasphere" / "__init__.py").is_file():
        print(f"perfbench: no library source at {ROOT / 'src' / 'alphasphere'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(ROOT / "src"))
    OUT.mkdir(exist_ok=True)
    try:
        result, details = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except (ImportError, RuntimeError, OSError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {args.workload} could not run: {exc}", file=sys.stderr)
        return 2
    details["env"] = environment(args.seed, nproc)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        import tracing
        tracing.dump(details.pop("spans"), stem.with_suffix(".spans.jsonl"))
    stem.with_suffix(".json").write_text(json.dumps({**details, "result": result}, indent=1))
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(details["env"]))
    if not args.trace:
        print("\n".join(summary(result, details)))
    else:
        for key, m in result["metrics"].items():
            print(f"  {key:32s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    results, code = {}, 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], cwd=ROOT, text=True,
                              stdout=subprocess.PIPE)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            code = proc.returncode or 1
            continue
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
