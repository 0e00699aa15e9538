"""Per-step split of a radial Newton iteration, timed piece by piece.

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
- Cholesky solve: ``cholesky_banded`` and ``cho_solve_banded`` of the band;
- line search: one trial step as the solver makes it (copy, step, value
  and gradient of the new profile, Armijo test).

Prints the median over ``REPEATS`` calls of each piece in ms, and the
median wall time of the whole solve divided by its iterations.
"""

from __future__ import annotations

import statistics
import timeit

import numpy as np
from scipy.linalg import cho_solve_banded, cholesky_banded

from alphasphere.radial import _DiscreteEnergy, minimize_radial

ALPHA, N_WIND, SIZES, REPEATS = 1.2, 3, (4000, 32000), 20


def median_ms(stmt, setup=lambda: None, repeats=REPEATS) -> float:
    times = []
    for _ in range(repeats):
        setup()
        times.append(timeit.timeit(stmt, number=1))
    return 1e3 * statistics.median(times)


def split(N: int) -> dict[str, float]:
    res = minimize_radial(ALPHA, N_WIND, N)
    fs = res.profile.fs
    other = fs.copy()
    other[1:-1] += 1e-9 * np.sin(np.arange(1, N))
    disc = _DiscreteEnergy(ALPHA, N_WIND, N)
    val, grad = disc.value_and_grad(fs)
    g = grad[1:-1]
    ab = disc.hessian_band(fs)
    d = cho_solve_banded((cholesky_banded(ab), False), -g)
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

    def solve():
        minimize_radial(ALPHA, N_WIND, N)

    return {
        "value and gradient": median_ms(fresh_value_and_grad),
        "band assembly": median_ms(lambda: disc.hessian_band(fs),
                                   setup=lambda: disc.value_and_grad(fs)),
        "Cholesky solve": median_ms(lambda: cho_solve_banded((cholesky_banded(ab), False), -g)),
        "line search": median_ms(trial),
        "whole solve per iteration": median_ms(solve, repeats=5) / res.iterations,
    }


def main() -> int:
    for N in SIZES:
        parts = split(N)
        print(f"N = {N}: " + ", ".join(f"{k} {v:.2f} ms" for k, v in parts.items()))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
