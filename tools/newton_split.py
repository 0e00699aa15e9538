"""Per-step split of a radial Newton iteration, timed and fault-counted
piece by piece.

    PYTHONPATH=src python3 tools/newton_split.py
    PYTHONPATH=/path/to/other/checkout/src python3 tools/newton_split.py

Times, with ``timeit``, the four pieces of one step of ``minimize_radial``
at alpha = 1.2, n = 3, on the minimiser at N = 4000 and N = 32000, in the
``alphasphere`` that ``PYTHONPATH`` selects (so the same script measures
any checkout):

- value and gradient: ``value_and_grad`` of a profile the instance has not
  seen, as each line-search trial is;
- band assembly: ``hessian_band`` of the profile whose value and gradient
  were formed last, as the solver calls it after accepting a step;
- Cholesky solve: one call of the LAPACK dpbsv that ``_newton_direction``
  loads, with its flags (the band is the lower one), which factors and
  solves a fresh copy of the band in place (the copy is made outside the
  timed call); before timing, its solution is checked to be
  ``_newton_direction``'s, bit for bit;
- line search: one trial step as the solver makes it (copy, step, value
  and gradient of the new profile, Armijo test);
- sine and cosine: ``_sincos`` of the minimiser's values at the (G, N)
  Gauss points into given arrays, as ``_DiscreteEnergy`` calls it, next to
  ``np.sin`` plus ``np.cos`` (libm) of the same points into the same arrays;
- crossings and residual: ``_crossings`` and ``radial_residual`` of the
  minimiser, which ``minimize_radial`` calls once per solve after its last
  step;
- restriction and prolongation: ``resampled`` of the minimiser to N // 4
  cells, and of that profile back to N, the transfers between a solve's
  levels;
- windows: ``window_energies`` of the solved profile at its own alpha
  between 0, the crossings and pi, the disc/annulus/cap split;
- instance set-up: ``_DiscreteEnergy(alpha, n, N)``, once with the grid
  geometry's cache cleared before each call (a first solve on N cells) and
  once with it warm (every later solve on N cells).

Prints, for each piece, the median over ``REPEATS`` calls in ms and the
minor page faults per call (``resource.getrusage().ru_minflt`` read around
each call); for one level's Newton loop, ``_newton_solve`` from the linear
start f = 3 r on N cells alone (its coarsest level moved above N), its
median wall time divided by its steps and its minor page faults per solve;
for the cold solve, which starts from the solves on the coarser grids
N // 4, N // 16, ..., and for the warm solve from the alpha = 1.3
minimiser, which descends through the same grids from that profile, the
median wall time and minor page faults per solve.  Faults count the fresh pages of large arrays that the allocator
handed back to the system and maps again; a piece repeated alone keeps its
blocks, so they show most in the whole solve, which builds its instance
and interleaves the pieces.

Last, for each N, the stop margin: the discrete gradient's sup-norm at the
exact minimiser f = r of winding count 1, at alpha = 1.2, over the roundoff
floor eps * |I| * N that both of ``minimize_radial``'s stops read.  Below 1,
a cold n = 1 solve ends on its start by the gradient test.
"""

from __future__ import annotations

import resource
import statistics
import timeit
from unittest import mock

import numpy as np

from alphasphere import radial
from alphasphere.radial import (RadialProfile, _crossings, _DiscreteEnergy, _dpbsv, _geometry,
                                _newton_direction, _newton_solve, _sincos, minimize_radial,
                                radial_residual, window_energies)

ALPHA, N_WIND, SIZES, REPEATS = 1.2, 3, (4000, 32000), 20
WARM_FROM, MAX_ITERS = 1.3, 200   # the warm solve's start; minimize_radial's default budget


def measure(stmt, setup=lambda: None, repeats=REPEATS) -> tuple[float, float]:
    """Median wall time in ms and mean minor page faults of one ``stmt``."""
    times, faults = [], 0
    for _ in range(repeats):
        setup()
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        times.append(timeit.timeit(stmt, number=1))
        faults += resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    return 1e3 * statistics.median(times), faults / repeats


def split(N: int) -> dict[str, tuple[float, float]]:
    linear = RadialProfile.linear(N_WIND, N)
    warm = minimize_radial(WARM_FROM, N_WIND, N).profile
    res = minimize_radial(ALPHA, N_WIND, N)
    fs, coarse = res.profile.fs, res.profile.resampled(N // 4)
    edges = (0.0, *res.crossings, np.pi)
    other = fs.copy()
    other[1:-1] += 1e-9 * np.sin(np.arange(1, N))
    disc = _DiscreteEnergy(ALPHA, N_WIND, N)
    val, grad = disc.value_and_grad(fs)
    g = grad[1:-1]
    ab = disc.hessian_band(fs)
    d = _newton_direction(disc, fs, g)
    spent = np.empty_like(ab)   # the band that each timed solve overwrites

    def cholesky():
        return _dpbsv()(spent, -g, lower=1, overwrite_ab=1)

    np.copyto(spent, ab)
    assert np.array_equal(cholesky()[1], d), "the timed solve is not the solver's"
    gd = float(np.dot(g, d))
    profiles = [fs, other]

    def fresh_value_and_grad():
        profiles.reverse()           # never the profile evaluated last
        disc.value_and_grad(profiles[0])

    steps = [1.0, 0.5]

    def trial():
        steps.reverse()              # a profile the instance has not seen
        t = fs.copy()
        t[1:-1] += steps[0] * d
        tval, _ = disc.value_and_grad(t)
        return tval <= val + 1e-4 * steps[0] * gd

    points = res.profile.value_and_slope(res.profile.rs[:-1] + disc.h * disc.t[:, None])[0]
    sin, cos, scratch = np.empty((3, *points.shape))

    def libm():
        np.sin(points, out=sin)
        np.cos(points, out=cos)

    def make():
        _DiscreteEnergy(ALPHA, N_WIND, N)

    def level():
        return _newton_solve(ALPHA, N_WIND, N, linear, MAX_ITERS)

    def cold_solve():
        minimize_radial(ALPHA, N_WIND, N)

    def warm_solve():
        minimize_radial(ALPHA, N_WIND, N, warm)

    parts = {
        "value and gradient": measure(fresh_value_and_grad),
        "band assembly": measure(lambda: disc.hessian_band(fs),
                                 setup=lambda: disc.value_and_grad(fs)),
        "Cholesky solve": measure(cholesky, setup=lambda: np.copyto(spent, ab)),
        "line search": measure(trial),
        "sine and cosine, libm": measure(libm),
        "sine and cosine, _sincos": measure(lambda: _sincos(points, out=(sin, cos, scratch))),
        "crossings": measure(lambda: _crossings(res.profile)),
        "residual": measure(lambda: radial_residual(res.profile, ALPHA)),
        "restriction N -> N/4": measure(lambda: res.profile.resampled(N // 4)),
        "prolongation N/4 -> N": measure(lambda: coarse.resampled(N)),
        "windows of the solve": measure(lambda: window_energies(res.profile, ALPHA, edges)),
        "instance set-up, cold": measure(make, setup=_geometry.cache_clear),
        "instance set-up, warm": measure(make),
    }
    with mock.patch.object(radial, "_COARSEST", N + 1):   # N cells alone
        steps = len(level()[3]) - 1   # the energy history: the start's, then one per step
        level_ms, level_faults = measure(level, repeats=5)
    parts["one level, per iteration"] = (level_ms / steps, level_faults)
    parts["cold solve, total"] = measure(cold_solve, repeats=5)
    parts["warm solve, total"] = measure(warm_solve, repeats=5)
    return parts


def stop_margin(N: int) -> float:
    """|g| / floor at f = r, n = 1, alpha = ALPHA on N cells."""
    val, grad = _DiscreteEnergy(ALPHA, 1, N).value_and_grad(RadialProfile.linear(1, N).fs)
    return float(np.max(np.abs(grad))) / (radial._EPS * abs(val) * N)


def main() -> int:
    for N in SIZES:
        print(f"N = {N}: median ms, minor page faults per call (per solve for whole solves)")
        for piece, (ms, faults) in split(N).items():
            print(f"  {piece:<30}{ms:8.3f} ms {faults:9.0f} faults")
        print(f"  stop margin |g| / floor at f = r, n = 1: {stop_margin(N):.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
