"""Adaptive panel quadrature built on Gauss-Legendre rules, which Newton's method
on the three-term recurrence builds once per order, with no eigensolve.

:func:`adaptive_gauss_legendre` integrates a vectorised callable from ``a``
to ``b``, or to every end of a sorted array ``b`` in one pass.  Each panel's
error estimate compares the ``ORDER``-point rule against the
``2 * ORDER``-point rule on it.  Refinement goes level by level until each
segment between two ends meets the relative tolerance of its own value: a
panel of an unconverged segment is halved when its error exceeds its share,
in proportion to its width, of that segment's tolerance, and the nodes of all
new panels are evaluated in one integrand call.  For an integrand of one sign
this bounds every prefix as well; one that falls across its ends pays extra
refinement for segments that vanish inside their prefixes.  A level sums all
segments with one :func:`numpy.bincount`, each in panel order, which is
deterministic: a fixed refinement history gives identical bits, a one-element
``b`` the scalar call's, and k panels of one sign a sum within (k - 1) eps.
"""

from __future__ import annotations

import functools
from typing import Callable

import numpy as np

__all__ = ["QuadratureConvergenceError", "adaptive_gauss_legendre"]

ORDER = 12
MAX_PANELS = 4000


class QuadratureConvergenceError(RuntimeError):
    """Adaptive refinement exhausted its subdivision budget."""


@functools.cache
def _rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes (ascending) and weights on [-1, 1], shared read-only
    by every caller: Newton's method on P_n from Tricomi's estimates of the
    nodes in [0, 1), reflected (Hale and Townsend, SIAM J. Sci. Comput. 2013)."""
    theta = (4 * np.arange(1, (n + 1) // 2 + 1) - 1) * np.pi / (4 * n + 2)
    x = (1.0 - (n - 1) / (8.0 * n ** 3)
         - (39.0 - 28.0 / np.sin(theta) ** 2) / (384.0 * n ** 4)) * np.cos(theta)
    x[n // 2:] = 0.0   # an odd order's middle node, where P_n vanishes exactly
    done = False
    for _ in range(12):   # P_(k+1) = x P_k + k/(k+1) (x P_k - P_(k-1)), then P_n'
        p0, p1 = np.ones_like(x), x
        for k in range(1, n):
            xp = x * p1
            p0, p1 = p1, xp + k / (k + 1) * (xp - p0)
        dp = n * (p0 - x * p1) / (1.0 - x * x)
        if done:   # the sweep after a step of at most a few eps gives the weights
            break
        x -= (dx := p1 / dp)
        done = np.max(np.abs(dx)) <= 4.0 * np.finfo(float).eps
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    x, w = np.concatenate((-x[:n // 2], x[::-1])), np.concatenate((w[:n // 2], w[::-1]))
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _panels(f: Callable[[np.ndarray], np.ndarray], lo: np.ndarray, hi: np.ndarray,
            log_scale: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """Fine-rule values and error estimates of the panels [lo, hi]; with
    ``log_scale``, of exp(f - log_scale), one scale per panel."""
    x, w = _rule(ORDER)
    x2, w2 = _rule(2 * ORDER)
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    pts = mid[:, None] + half[:, None] * np.concatenate((x, x2))
    vals = f(pts.ravel()).reshape(pts.shape)
    if log_scale is not None:
        vals = np.exp(vals - log_scale[:, None])
    coarse = half * (vals[:, :ORDER] @ w)
    fine = half * (vals[:, ORDER:] @ w2)
    return fine, np.abs(fine - coarse)


def adaptive_gauss_legendre(f: Callable[[np.ndarray], np.ndarray], a: float, b, *,
                            rel_tol: float, log_scale=None):
    """Integrate the vectorised callable ``f`` over ``[a, b]``, or over
    ``[a, b_i]`` for every end of a sorted array ``b`` (then returns an array).

    Stops once the summed panel error estimates of each segment [b_(i-1), b_i]
    (b_(-1) = a) drop below ``rel_tol`` times its absolute value, which holds
    every prefix to ``rel_tol`` too where ``f`` keeps one sign; raises
    :class:`QuadratureConvergenceError` if that takes more than ``MAX_PANELS``
    panels, plus one for each further segment that it starts with, and
    ``ValueError`` unless ``a <= b_0 <= b_1 ...`` are finite.  With
    ``log_scale``, ``f`` returns the log of a positive integrand whose log at
    ``b_i`` is ``log_scale[i]``, and segment i and prefix i are integrated and
    returned divided by ``exp(log_scale[i])``: nothing leaves double range
    where the integrand stays below its value at each segment's end.
    """
    ends = np.atleast_1d(np.asarray(b, dtype=float))
    starts = np.concatenate(([a], ends[:-1]))
    if not (ends.size and np.isfinite([a, ends[-1]]).all() and (ends >= starts).all()):
        raise ValueError("right ends must be finite and sorted, none below a")
    logs = np.zeros(ends.size) if log_scale is None else np.atleast_1d(log_scale)
    seg = np.flatnonzero(ends > starts)   # panel -> segment; equal ends add no panel
    budget = MAX_PANELS + max(seg.size - 1, 0)   # refinement adds at most MAX_PANELS - 1
    edges = np.concatenate(([a], ends[seg]))
    width = ends - starts
    val, err, fresh = np.zeros(seg.size), np.zeros(seg.size), np.ones(seg.size, dtype=bool)
    while True:
        val[fresh], err[fresh] = _panels(f, edges[:-1][fresh], edges[1:][fresh],   # new panels
                                         None if log_scale is None else logs[seg[fresh]])
        seg_val, seg_err = np.bincount(seg, val, ends.size), np.bincount(seg, err, ends.size)
        tol = rel_tol * np.abs(seg_val)
        done = (seg_err <= tol) | (seg_err == 0.0)
        if done.all():
            break
        split = ~done[seg] & (err > tol[seg] * (np.diff(edges) / width[seg]))
        if not split.any():
            split[np.argmax(np.where(done[seg], -1.0, err))] = True
        if len(val) + np.count_nonzero(split) > budget:
            i = int(np.argmin(done))
            raise QuadratureConvergenceError(
                f"no convergence to rel_tol={rel_tol:g} within {budget} panels (estimated error "
                f"{seg_err[i]:.3e} on value {seg_val[i]:.6e} over [{starts[i]:g}, {ends[i]:g}])")
        idx = np.flatnonzero(split)
        edges = np.insert(edges, idx + 1, 0.5 * (edges[idx] + edges[idx + 1]))
        seg, val, err, fresh = (np.repeat(x, split + 1) for x in (seg, val, err, split))
    # prefix i = prefix i-1 in units of exp(log_scale[i]), plus segment i
    ratio = np.exp(np.concatenate(([0.0], logs[:-1] - logs[1:])))
    acc = 0.0
    total = np.array([acc := acc * r + s for s, r in zip(seg_val.tolist(), ratio.tolist())])
    return float(total[0]) if np.ndim(b) == 0 else total
