"""Adaptive panel quadrature built on Gauss-Legendre rules.

Two entry points: :func:`adaptive_gauss_legendre` integrates a vectorised
callable over a finite interval, repeatedly splitting the panel with the
worst error estimate; :func:`adaptive_gauss_legendre_log` does the same for
positive integrands supplied as log-values, keeping every intermediate in
log space so that magnitudes far beyond double range stay usable.

Error estimates compare an n-point rule against the 2n-point rule on the
same panel.  Summation order is deterministic for a fixed refinement
history, so repeated runs give bit-identical results.
"""

from __future__ import annotations

import functools
import heapq
import math
from typing import Callable

import numpy as np
from scipy.special import logsumexp

__all__ = [
    "QuadratureConvergenceError",
    "adaptive_gauss_legendre",
    "adaptive_gauss_legendre_log",
]


class QuadratureConvergenceError(RuntimeError):
    """Adaptive refinement exhausted its subdivision budget."""


@functools.cache
def _rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], shared by every caller."""
    return np.polynomial.legendre.leggauss(order)


def _panel(f: Callable[[np.ndarray], np.ndarray], a: float, b: float,
           order: int) -> tuple[float, float]:
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    x, w = _rule(order)
    coarse = half * float(np.sum(w * f(mid + half * x)))
    x2, w2 = _rule(2 * order)
    fine = half * float(np.sum(w2 * f(mid + half * x2)))
    return fine, abs(fine - coarse)


def adaptive_gauss_legendre(f: Callable[[np.ndarray], np.ndarray],
                            a: float, b: float, *,
                            rel_tol: float = 1e-9,
                            abs_tol: float = 0.0,
                            order: int = 12,
                            max_panels: int = 4000) -> float:
    """Integrate the vectorised callable ``f`` over ``[a, b]``.

    Stops once the summed panel error estimates drop below
    ``max(abs_tol, rel_tol * |integral|)``; raises
    :class:`QuadratureConvergenceError` if ``max_panels`` splits do not
    get there.
    """
    if a == b:
        return 0.0
    val, err = _panel(f, a, b, order)
    heap = [(-err, 0, a, b, val, err)]
    total_val, total_err = val, err
    count = 1
    while len(heap) < max_panels:
        if total_err <= max(abs_tol, rel_tol * abs(total_val)) or total_err == 0.0:
            return total_val
        _, _, pa, pb, pval, perr = heapq.heappop(heap)
        total_val -= pval
        total_err -= perr
        mid = 0.5 * (pa + pb)
        for qa, qb in ((pa, mid), (mid, pb)):
            v, e = _panel(f, qa, qb, order)
            count += 1
            heapq.heappush(heap, (-e, count, qa, qb, v, e))
            total_val += v
            total_err += e
        # rebuild the accumulators occasionally to shed cancellation drift
        if count % 512 == 0:
            total_val = math.fsum(item[4] for item in heap)
            total_err = math.fsum(item[5] for item in heap)
    if total_err <= max(abs_tol, rel_tol * abs(total_val)):
        return total_val
    raise QuadratureConvergenceError(
        f"no convergence to rel_tol={rel_tol:g} after {max_panels} panels "
        f"(estimated error {total_err:.3e} on value {total_val:.6e})")


def _panel_log(logf: Callable[[np.ndarray], np.ndarray], a: float, b: float,
               order: int) -> tuple[float, float]:
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    x, w = _rule(order)
    coarse = float(logsumexp(logf(mid + half * x) + np.log(half * w)))
    x2, w2 = _rule(2 * order)
    fine = float(logsumexp(logf(mid + half * x2) + np.log(half * w2)))
    diff = abs(-math.expm1(min(coarse - fine, 700.0)))
    logerr = fine + math.log(diff) if diff > 0.0 else -math.inf
    return fine, logerr


def adaptive_gauss_legendre_log(logf: Callable[[np.ndarray], np.ndarray],
                                a: float, b: float, *,
                                rel_tol: float = 1e-9,
                                order: int = 12,
                                max_panels: int = 4000) -> float:
    """Return ``log`` of the integral of ``exp(logf)`` over ``[a, b]``.

    For strictly positive integrands whose values overflow doubles.
    """
    if a == b:
        return -math.inf
    lval, lerr = _panel_log(logf, a, b, order)
    heap = [(-lerr, 0, a, b, lval, lerr)]
    count = 1
    log_rel = math.log(rel_tol)
    while len(heap) < max_panels:
        log_total = float(logsumexp([item[4] for item in heap]))
        log_err = float(logsumexp([item[5] for item in heap]))
        if log_err <= log_total + log_rel or log_err == -math.inf:
            return log_total
        _, _, pa, pb, _, _ = heapq.heappop(heap)
        mid = 0.5 * (pa + pb)
        for qa, qb in ((pa, mid), (mid, pb)):
            v, e = _panel_log(logf, qa, qb, order)
            count += 1
            heapq.heappush(heap, (-e, count, qa, qb, v, e))
    log_total = float(logsumexp([item[4] for item in heap]))
    log_err = float(logsumexp([item[5] for item in heap]))
    if log_err <= log_total + log_rel:
        return log_total
    raise QuadratureConvergenceError(
        f"log-domain quadrature did not reach rel_tol={rel_tol:g} "
        f"after {max_panels} panels")
