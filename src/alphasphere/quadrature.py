"""Adaptive panel quadrature built on Gauss-Legendre rules.

:func:`adaptive_gauss_legendre` integrates a vectorised callable over a
finite interval.  Each panel's error estimate compares the ``ORDER``-point
rule against the ``2 * ORDER``-point rule on it.  Refinement goes level by
level: every panel whose error exceeds its share of the tolerance (in
proportion to its width) is halved, and the nodes of all new panels are
evaluated in one call of the integrand.  Integrands whose values leave
double range are the caller's to scale; the dilation integrals in
:mod:`alphasphere.energy` divide by their value at the right end.

Panels are kept in interval order and summed with :func:`math.fsum`, so a
fixed refinement history gives bit-identical results.
"""

from __future__ import annotations

import functools
import math
from typing import Callable

import numpy as np

__all__ = [
    "QuadratureConvergenceError",
    "adaptive_gauss_legendre",
]

ORDER = 12
MAX_PANELS = 4000


class QuadratureConvergenceError(RuntimeError):
    """Adaptive refinement exhausted its subdivision budget."""


@functools.cache
def _rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], shared by every caller."""
    return np.polynomial.legendre.leggauss(order)


def _panels(f: Callable[[np.ndarray], np.ndarray], lo: np.ndarray,
            hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Fine-rule values and error estimates of the panels [lo, hi]."""
    x, w = _rule(ORDER)
    x2, w2 = _rule(2 * ORDER)
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    pts = mid[:, None] + half[:, None] * np.concatenate((x, x2))
    vals = f(pts.ravel()).reshape(pts.shape)
    coarse = half * (vals[:, :ORDER] @ w)
    fine = half * (vals[:, ORDER:] @ w2)
    return fine, np.abs(fine - coarse)


def adaptive_gauss_legendre(f: Callable[[np.ndarray], np.ndarray],
                            a: float, b: float, *,
                            rel_tol: float = 1e-9) -> float:
    """Integrate the vectorised callable ``f`` over ``[a, b]``.

    Stops once the summed panel error estimates drop below
    ``rel_tol * |integral|``; raises :class:`QuadratureConvergenceError`
    if that would take more than ``MAX_PANELS`` panels.
    """
    if a == b:
        return 0.0
    edges = np.array([a, b], dtype=float)
    val, err = _panels(f, edges[:-1], edges[1:])
    while True:
        total, total_err = math.fsum(val), math.fsum(err)
        tol = rel_tol * abs(total)
        if total_err <= tol or total_err == 0.0:
            return total
        split = err > tol * np.diff(edges) / (b - a)
        if not split.any():
            split[np.argmax(err)] = True
        if len(val) + np.count_nonzero(split) > MAX_PANELS:
            raise QuadratureConvergenceError(
                f"no convergence to rel_tol={rel_tol:g} within {MAX_PANELS} "
                f"panels (estimated error {total_err:.3e} on value {total:.6e})")
        idx = np.flatnonzero(split)
        edges = np.insert(edges, idx + 1, 0.5 * (edges[idx] + edges[idx + 1]))
        fresh = np.repeat(split, split + 1)
        val, err = np.repeat(val, split + 1), np.repeat(err, split + 1)
        val[fresh], err[fresh] = _panels(f, edges[:-1][fresh], edges[1:][fresh])
