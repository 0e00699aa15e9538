"""The benchmark's workloads: seeded op lists, op execution and output checks.

Every workload is a closed loop with one client.  Ops are issued in
batches; batch i is drawn from ``(seed, i)`` alone, so the same seed always
gives the same ops, and a run stops only between batches.  A radial batch
is a whole pass over the workload's input grid in seeded order, so that the
mix of inputs, and hence the latency percentiles and the failed share, does
not depend on the seed.

An op outcome is one of: success; an honest failure (the program reports
that a solve did not converge, or the battery reports a failing check and
exits with status 1); or an error (an exception, a timeout or a wrong
answer).  Every op that is not a success counts as failed; errors also make
the run incorrect.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

MAX_ITERS = 30
RESIDUAL_GATE = 1e-2     # minimize_radial's residual_tol: the program's own gate
ENERGY_RTOL = 1e-8       # c01's relative tolerance
SPLIT_ATOL = 1e-9        # c10's split_additivity bound
RADIAL_TIMEOUT_S = 60.0
VERIFY_TIMEOUT_S = 120.0
VERIFY_ROWS = 732
TRACE_VERIFY_OPS = 3

LADDER_ALPHAS = (1.1, 1.15, 1.2, 1.3, 1.5, 2.0)
LADDER_SIZES = (1000, 2000, 4000, 8000, 16000, 32000)

CHAIN_START = 1.5
CHAIN_TARGETS = (1.05, 1.1, 1.15)
CHAIN_SIZES = (2000, 4000, 8000)
CHAIN_MIDS = ((1.3,), (1.2,), (1.3, 1.2))   # the README's intermediates and their subsets

# Energies of the n = 3 minimisers, from cold minimize_radial solves at
# N = 8000 on the initial library; solves at N = 2000 ... 16000 agree with
# them to 3e-14 relative.
N3_ENERGY = {
    1.05: 64.21533995002842,
    1.1: 77.21704084658931,
    1.15: 91.15486944579632,
    1.2: 106.55824666566966,
    1.3: 143.2757707585812,
    1.5: 251.20381591224057,
    2.0: 964.6029224580998,
}


@dataclass
class Outcome:
    latency: float
    ok: bool
    error: str | None = None    # exception, timeout or wrong answer
    reason: str | None = None   # why an honest answer was a failure


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def reference_energy(alpha: float, n: int) -> float:
    if n == 1:
        return 2.0 ** (2.0 * alpha + 1.0) * math.pi  # degree-one floor, attained by rotations
    return N3_ENERGY[alpha]


def residual_sup(rs: np.ndarray, fs: np.ndarray, n: int, alpha: float) -> float:
    """Sup over interior nodes of the critical-profile equation

        f'' + cot(r) f' - sin f cos f / sin^2 r + (alpha - 1) f' W' / (2 + W),

    W = f'^2 + sin^2 f / sin^2 r, with fourth-order central differences and
    the odd reflections of f about both poles for the stencil tails."""
    h = rs[1] - rs[0]
    top = 2.0 * n * math.pi
    e = np.concatenate(([-fs[2], -fs[1]], fs, [top - fs[-2], top - fs[-3]]))
    f, r = fs[1:-1], rs[1:-1]
    m2, m1, p1, p2 = e[1:-5], e[2:-4], e[4:-2], e[5:-1]
    fp = (-p2 + 8.0 * p1 - 8.0 * m1 + m2) / (12.0 * h)
    fpp = (-p2 + 16.0 * p1 - 30.0 * f + 16.0 * m1 - m2) / (12.0 * h * h)
    s, c = np.sin(r), np.cos(r)
    sf, cf = np.sin(f), np.cos(f)
    W = fp * fp + (sf / s) ** 2
    Wp = 2.0 * fp * fpp + 2.0 * sf * cf * fp / (s * s) - 2.0 * sf * sf * c / s ** 3
    res = fpp + (c / s) * fp - sf * cf / (s * s) + (alpha - 1.0) * fp * Wp / (2.0 + W)
    return float(np.max(np.abs(res)))


def check_solve(res, alpha: float, n: int, N: int) -> tuple[bool, str | None]:
    """(success, wrong-answer message) for one minimize_radial result."""
    if not res.converged:
        return False, None
    p = res.profile
    if p.n != n or p.N != N:
        return False, f"profile (n={p.n}, N={p.N}) for a solve at (n={n}, N={N})"
    if res.degree_int != 1:
        return False, f"degree_int {res.degree_int} at alpha={alpha} n={n} N={N}"
    sup = residual_sup(p.rs, p.fs, n, alpha)
    if not sup <= RESIDUAL_GATE:
        return False, f"residual {sup:.3e} > {RESIDUAL_GATE} at alpha={alpha} n={n} N={N}"
    ref = reference_energy(alpha, n)
    rel = abs(res.energy - ref) / ref
    if not rel <= ENERGY_RTOL:
        return False, f"energy {res.energy!r} off reference {ref!r} by {rel:.1e} at alpha={alpha} n={n} N={N}"
    return True, None


def _radial_outcome(latency: float, verdicts: list[tuple[bool, str | None]]) -> Outcome:
    wrong = next((w for _, w in verdicts if w), None)
    if wrong is None and latency > RADIAL_TIMEOUT_S:
        wrong = f"timeout: {latency:.1f} s > {RADIAL_TIMEOUT_S} s"
    ok = wrong is None and all(ok for ok, _ in verdicts)
    return Outcome(latency, ok, wrong, None if ok or wrong else "solve did not converge")


# --- radial-ladder ---------------------------------------------------------

def ladder_batch(seed: int, index: int) -> list[tuple]:
    """A pass: every (alpha, n, N) cell of the grid once, in seeded order."""
    cells = list(itertools.product(LADDER_ALPHAS, (1, 3), LADDER_SIZES))
    order = np.random.default_rng([seed, index]).permutation(len(cells))
    return [cells[i] for i in order]


def ladder_op(asph, spec: tuple, tracer=None) -> Outcome:
    """One cold solve, then the disc/annulus/cap split of a converged n = 3."""
    alpha, n, N = spec
    t0 = time.perf_counter()
    try:
        res = asph.minimize_radial(alpha, n, N, max_iters=MAX_ITERS)
        split = asph.annulus_split(res) if n == 3 and res.converged else None
    except Exception as exc:  # any exception fails the op; the run goes on
        return Outcome(time.perf_counter() - t0, False, f"{type(exc).__name__}: {exc}")
    latency = time.perf_counter() - t0
    verdicts = [check_solve(res, alpha, n, N)]
    if split is not None:
        gap = abs(sum(split) - res.energy)
        if not (gap <= SPLIT_ATOL and min(split) > 0.0):
            verdicts.append((False, f"split {split} misses energy {res.energy!r} by {gap:.1e}"))
    return _radial_outcome(latency, verdicts)


# --- radial-continuation ---------------------------------------------------

def continuation_batch(seed: int, index: int) -> list[tuple]:
    """A pass: every (target, N, coarse start, intermediates) cell once, in
    seeded order; the README chain is one of the cells."""
    cells = list(itertools.product(CHAIN_TARGETS, CHAIN_SIZES, (False, True), CHAIN_MIDS))
    order = np.random.default_rng([seed, index]).permutation(len(cells))
    return [cells[i] for i in order]


def continuation_op(asph, spec: tuple, tracer=None) -> Outcome:
    """Cold solve at alpha = 1.5 (at N/4 when ``coarse``), then each
    exponent of the chain warm-started from the previous profile."""
    target, N, coarse, mids = spec
    alphas = (CHAIN_START, *mids, target)
    results = []
    t0 = time.perf_counter()
    try:
        init = None
        for i, alpha in enumerate(alphas):
            size = N // 4 if coarse and i == 0 else N
            res = asph.minimize_radial(alpha, 3, size, init, max_iters=MAX_ITERS)
            results.append((alpha, size, res))
            init = res.profile
    except Exception as exc:
        return Outcome(time.perf_counter() - t0, False, f"{type(exc).__name__}: {exc}")
    latency = time.perf_counter() - t0
    return _radial_outcome(latency, [check_solve(r, a, 3, s) for a, s, r in results])


# --- verify ----------------------------------------------------------------

def verify_batch(seed: int, index: int) -> list[int]:
    return [int(np.random.default_rng([seed, index]).integers(0, 2 ** 31 - 1))]


def check_report(proc: subprocess.CompletedProcess) -> tuple[list[str], str | None]:
    """(failing rows, wrong-answer message).  Exit status 1 with failing
    rows is the battery's honest verdict; anything inconsistent is wrong."""
    if proc.returncode not in (0, 1):
        return [], f"exit status {proc.returncode}: {proc.stderr.strip()[-300:]}"
    rows = list(csv.DictReader(io.StringIO(proc.stdout)))
    if len(rows) != VERIFY_ROWS:
        return [], f"{len(rows)} report rows, expected {VERIFY_ROWS}"
    # the report spells a passing numpy bool "True" and a Python bool "true"
    bad = [r["criterion"] + "/" + r["check"] for r in rows
           if (r.get("passed") or "").lower() != "true"]
    if (proc.returncode == 1) != bool(bad):
        return bad, f"exit status {proc.returncode} with {len(bad)} failing rows"
    return bad, None


def verify_op(asph, s: int, tracer=None) -> Outcome:
    """One fresh ``python -m alphasphere verify --level full --seed s``; when
    traced, the child is ``child.py verify`` with the wrappers installed."""
    argv = ["verify", "--level", "full", "--seed", str(s)]
    spans_path = None
    if tracer is None:
        cmd = [sys.executable, "-m", "alphasphere", *argv]
    else:
        spans_path = ROOT / ".perfbench" / f"child-spans-{os.getpid()}.json"
        cmd = [sys.executable, str(Path(__file__).with_name("child.py")),
               "verify", str(spans_path), *argv]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=VERIFY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return Outcome(time.perf_counter() - t0, False, f"timeout after {VERIFY_TIMEOUT_S} s")
    latency = time.perf_counter() - t0
    if spans_path is not None:
        try:
            tracer.adopt(json.loads(spans_path.read_text()), tracer.stack[-1])
            spans_path.unlink()
        except (OSError, ValueError) as exc:
            return Outcome(latency, False, f"traced child wrote no spans: {exc}")
    bad, wrong = check_report(proc)
    ok = not bad and wrong is None
    return Outcome(latency, ok, wrong, f"failing rows {bad}" if bad and not wrong else None)


@dataclass(frozen=True)
class Workload:
    make_batch: object     # (seed, index) -> ops; runs stop only between batches
    run_op: object
    in_process: bool       # False: every op is a child process
    trace_batches: int     # the fixed op list of a traced run


WORKLOADS = {
    "verify": Workload(verify_batch, verify_op, False, TRACE_VERIFY_OPS),
    "radial-ladder": Workload(ladder_batch, ladder_op, True, 1),
    "radial-continuation": Workload(continuation_batch, continuation_op, True, 1),
}


def setup(name: str, seed: int):
    """Everything a run does before its first timed op: import the library,
    draw the first batch and, for in-process workloads, one warm-up solve
    that triggers the library's lazy imports.  Returns (module, first batch)."""
    wl = WORKLOADS[name]
    if wl.in_process:
        import alphasphere as asph
        asph.minimize_radial(1.2, 3, 1000, max_iters=MAX_ITERS)
    else:
        import alphasphere.cli as asph
    if not str(Path(asph.__file__).resolve()).startswith(str(ROOT / "src")):
        raise ImportError(f"alphasphere imported from {asph.__file__}, not {ROOT / 'src'}")
    return asph, wl.make_batch(seed, 0)
