"""Adaptive panel quadrature built on Gauss-Legendre rules.

:func:`adaptive_gauss_legendre` integrates a vectorised callable from ``a``
to ``b``, or to every end of a sorted array ``b`` in one pass.  Each panel's
error estimate compares the ``ORDER``-point rule against the
``2 * ORDER``-point rule on it.  Refinement goes level by level until each
segment between two ends meets the relative tolerance of its own value: a
panel of an unconverged segment is halved when its error exceeds its share,
in proportion to its width, of that segment's tolerance, and the nodes of all
new panels are evaluated in one integrand call.  For an integrand of one sign
this bounds every prefix as well; one that falls across its ends pays extra
refinement for segments that vanish inside their prefixes.  Panels are kept
in interval order and each segment is summed with :func:`math.fsum`, so a
fixed refinement history gives bit-identical results, and a one-element
``b`` those of the scalar call.
"""

from __future__ import annotations

import functools
import math
from typing import Callable

import numpy as np

__all__ = ["QuadratureConvergenceError", "adaptive_gauss_legendre"]

ORDER = 12
MAX_PANELS = 4000


class QuadratureConvergenceError(RuntimeError):
    """Adaptive refinement exhausted its subdivision budget."""


@functools.cache
def _rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], shared read-only by every caller."""
    x, w = np.polynomial.legendre.leggauss(order)
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
    seg_val, seg_err = np.zeros(ends.size), np.zeros(ends.size)
    while True:
        val[fresh], err[fresh] = _panels(f, edges[:-1][fresh], edges[1:][fresh],   # new panels
                                         None if log_scale is None else logs[seg[fresh]])
        first = np.searchsorted(seg, np.arange(ends.size + 1))
        for j in set(seg[fresh].tolist()):   # re-sum only the refined segments
            seg_val[j] = math.fsum(val[first[j]:first[j + 1]])
            seg_err[j] = math.fsum(err[first[j]:first[j + 1]])
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
