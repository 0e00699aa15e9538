"""Rotationally symmetric maps of the sphere and their construction.

A profile f on [0, pi] with f(0) = 0 and f(pi) = n*pi determines the
equivariant map

    (r, theta) -> (sin f(r) cos theta, sin f(r) sin theta, cos f(r))

in polar-angle coordinates about the z-axis (r = 0 is the north pole).
Its energy with exponent ``alpha`` reduces to the one-dimensional integral

    I(f) = pi * int_0^pi (2 + f'^2 + sin^2 f / sin^2 r)^alpha sin r dr

and critical profiles solve

    f'' + cot(r) f' - sin f cos f / sin^2 r
        + (alpha - 1) f' (d/dr W) / (2 + W) = 0,   W = f'^2 + sin^2 f/sin^2 r.

A profile is known by its values on a uniform grid.  Its one continuous
reconstruction is the local cubic through the four nodes around each cell,
with nodes beyond the endpoints supplied by the odd reflections that every
regular profile satisfies; 4-point Gauss-Legendre on each cell integrates
it.  This one per-cell integrator serves the minimiser's objective, the
reported energy, the degree and the window energies; only a cell that a
window's end cuts is integrated point by point through the reconstruction,
which the k pi crossings and the 2-d map read as well.

The module provides the energy and the energies of the windows between the
k pi crossings, a finite-difference residual for the above equation, a
direct minimiser over nodal values (damped Newton with a banded Cholesky
solve, Armijo backtracking and analytic discrete derivatives), and a
shooting integrator as an independent construction.  Importing it loads
numpy alone: scipy.linalg loads on the first Newton step, and
scipy.integrate and scipy.optimize on the first shot.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .quadrature import _rule

__all__ = [
    "ShootFailedError",
    "RadialProfile",
    "SolveResult",
    "radial_energy",
    "window_energies",
    "radial_residual",
    "minimize_radial",
    "shoot_radial",
    "annulus_split",
    "save_profile",
    "load_profile",
]

_PI = math.pi
_GL_ORDER = 4          # Gauss points per cell of the discrete energy
_GRAD_TOL = 1e-8       # gradient sup-norm of a "gradient" stop, per h max(1, I)
_RESIDUAL_TOL = 1e-2   # sup of radial_residual that a converged solve may leave
_COARSEN, _COARSEST = 4, 500   # a cold start's coarse levels: N // 4 cells, at least 500
_EPS = float(np.finfo(float).eps)
# shooting: series start at r = _SHOOT_EPS, DOP853 tolerances, the
# returned profile's node count and the slope bracket's expansion budget
_SHOOT_EPS, _SHOOT_RTOL, _SHOOT_ATOL = 1e-6, 1e-10, 1e-12
_SHOOT_NODES, _SHOOT_EXPAND = 2001, 60


class ShootFailedError(RuntimeError):
    """The shooting integrator blew up before reaching the far endpoint."""

    def __init__(self, message: str, last_r: float):
        super().__init__(message)
        self.last_r = last_r


@dataclass(frozen=True)
class RadialProfile:
    """Nodal values ``fs`` on the uniform grid of N = len(fs) - 1 >= 100
    cells over [0, pi], which ``rs`` returns.

    ``n`` is the winding count: f(0) = 0 and f(pi) = n*pi exactly.  Between
    nodes the profile is the local cubic that :func:`minimize_radial`
    integrates, so :func:`radial_energy` of a profile is the discrete
    objective the minimiser minimised.
    """

    n: int
    fs: np.ndarray

    def __post_init__(self) -> None:
        fs = np.asarray(self.fs, dtype=float)
        object.__setattr__(self, "fs", fs)
        if self.n < 1:
            raise ValueError("winding count n must be >= 1")
        if fs.ndim != 1:
            raise ValueError("fs must be a 1-d array")
        if len(fs) < 101:
            raise ValueError("profile needs at least 100 cells")
        if not np.isfinite(fs).all():
            raise ValueError("nodal values must be finite")
        if fs[0] != 0.0 or fs[-1] != self.n * _PI:
            raise ValueError("endpoint values must be exactly 0 and n*pi")

    @property
    def N(self) -> int:
        return len(self.fs) - 1

    @functools.cached_property
    def rs(self) -> np.ndarray:
        return np.linspace(0.0, _PI, self.N + 1)

    @property
    def h(self) -> float:
        return _PI / self.N

    def value_and_slope(self, r):
        """f and f' at polar angles r in [0, pi]: the Lagrange cubic through
        the nodes f_{c-1} .. f_{c+2} around the cell c that holds r."""
        u = np.asarray(r, dtype=float) / self.h
        k = np.rint(u)
        # r / h misses a node's index by an ulp or so; snap it, so that the
        # nodes land on t = 0 (or t = 1 at pi) and return fs exactly
        u = np.where(np.abs(u - k) <= 4.0 * _EPS * k, k, u)
        c = np.clip(np.floor(u), 0, self.N - 1).astype(np.intp)
        fe = _reflect(self.fs, self.n, 1)
        f, fp = _cubic(fe[c], fe[c + 1], fe[c + 2], fe[c + 3], u - c)
        return f, fp / self.h

    def value(self, r):
        return self.value_and_slope(r)[0]

    def resampled(self, N: int) -> "RadialProfile":
        return self if N == self.N else RadialProfile.from_function(self.n, N, self.value)

    @classmethod
    def linear(cls, n: int, N: int) -> "RadialProfile":
        return cls.from_function(n, N, lambda r: n * r)

    @classmethod
    def from_function(cls, n: int, N: int, fn) -> "RadialProfile":
        """Sample ``fn`` on the uniform grid; endpoint values are pinned to
        0 and n*pi regardless of fn."""
        fs = np.asarray(fn(np.linspace(0.0, _PI, N + 1)), dtype=float)
        fs[0], fs[-1] = 0.0, n * _PI
        return cls(n, fs)


@dataclass(frozen=True)
class SolveResult:
    """Outcome of a radial minimisation.

    ``stop_reason`` names the rule that ended the iteration: "gradient",
    "stagnation", "max_iters" or "line_search".  ``energy`` is the
    discrete objective the iteration minimised, evaluated at the final
    profile; ``history`` holds it for the initial and every accepted
    iterate, and ``iterations`` counts the steps, both on the final grid
    alone (not a cold start's coarser levels).  ``crossings`` holds the
    first upward crossings of pi, 2 pi, ..., (n - 1) pi, which every
    finite profile has.
    """

    profile: RadialProfile
    alpha: float
    energy: float
    residual_sup: float
    grad_norm: float
    degree: float
    degree_int: int
    crossings: tuple[float, ...]
    iterations: int
    converged: bool
    stop_reason: str
    history: tuple = field(default=(), repr=False)


def window_energies(profile: RadialProfile, alpha: float, edges) -> list[float]:
    """Energies of the windows between consecutive ``edges``: the cell
    energies of the cells a window holds whole, plus 4-point Gauss-Legendre
    through the local cubic on the panels its ends cut from at most two
    cells, so that adjacent windows add up to the total up to the
    quadrature error of those panels."""
    if not 1.0 <= alpha < math.inf:
        raise ValueError("alpha must be >= 1")
    disc = _DiscreteEnergy(alpha, profile.n, profile.N)
    cells = disc.cell_energies(profile.fs)
    rs, out = profile.rs, []
    for a, b in zip(edges[:-1], edges[1:]):
        if not 0.0 <= a <= b <= _PI:
            raise ValueError("window must satisfy 0 <= a <= b <= pi")
        i = int(np.searchsorted(rs, a, "left"))        # first node >= a
        j = int(np.searchsorted(rs, b, "right")) - 1   # last node <= b
        cuts = np.array([(a, b)] if i > j else [(a, rs[i]), (rs[j], b)])
        lo, hi = cuts[cuts[:, 1] > cuts[:, 0]].T[:, :, None]   # (panels, 1) each
        xg = lo + (hi - lo) * disc.t
        f, fp = profile.value_and_slope(xg)
        s = np.sin(xg)
        dens = (2.0 + fp * fp + (np.sin(f) / s) ** 2) ** alpha * s
        out.append(float(np.sum(cells[i:j]) + _PI * np.sum(disc.w * dens * (hi - lo))))
    return out


def radial_energy(profile: RadialProfile, alpha: float) -> float:
    """Energy I(f) of the profile's local-cubic reconstruction: the sum of
    the cell energies of the discrete objective :func:`minimize_radial`
    minimises."""
    return window_energies(profile, alpha, (0.0, _PI))[0]


def radial_residual(profile: RadialProfile, alpha: float) -> np.ndarray:
    """Finite-difference evaluation of the critical-profile equation at the
    interior nodes r in [h, pi - h].

    Uses fourth-order central stencils for f' and f''; the stencil values
    beyond the endpoints come from the odd reflections f(-r) = -f(r) and
    f(pi + s) = 2 n pi - f(pi - s) that every regular profile satisfies.
    Lower-order differences are too blunt here: the cot(r) coefficient
    turns their O(h^2) slope error into an O(h) boundary artefact that
    swamps the residual of steep solutions.
    """
    fs, rs, h = profile.fs, profile.rs, profile.h
    ext = _reflect(fs, profile.n, 2)
    f = fs[1:-1]
    r = rs[1:-1]
    i = np.arange(1, len(fs) - 1) + 2  # index of f_i inside ext
    fp = (-ext[i + 2] + 8.0 * ext[i + 1] - 8.0 * ext[i - 1] + ext[i - 2]) / (12.0 * h)
    fpp = (-ext[i + 2] + 16.0 * ext[i + 1] - 30.0 * ext[i]
           + 16.0 * ext[i - 1] - ext[i - 2]) / (12.0 * h * h)
    s, c = np.sin(r), np.cos(r)
    sf, cf = np.sin(f), np.cos(f)
    W = fp * fp + (sf / s) ** 2
    Wp = 2.0 * fp * fpp + 2.0 * sf * cf * fp / (s * s) - 2.0 * sf * sf * c / (s ** 3)
    return fpp + (c / s) * fp - sf * cf / (s * s) + (alpha - 1.0) * fp * Wp / (2.0 + W)


def _reflect(fs: np.ndarray, n: int, k: int) -> np.ndarray:
    """Nodal values extended by k ghost nodes per side through the odd
    reflections f(-r) = -f(r) and f(pi + s) = 2 n pi - f(pi - s)."""
    return np.concatenate((-fs[k:0:-1], fs, 2.0 * n * _PI - fs[-2:-k - 2:-1]))


def _cubic(f0, f1, f2, f3, t):
    """Value and t-derivative at t of the cubic through (-1, f0), (0, f1),
    (1, f2) and (2, f3), written as the chord from f1 to f2 plus a bubble
    t (t - 1) q(t) that vanishes at both ends, so that t = 0 and t = 1
    return f1 and f2 exactly."""
    d1 = f0 - 2.0 * f1 + f2
    d2 = f1 - 2.0 * f2 + f3
    q1 = (d2 - d1) / 6.0
    q = (2.0 * d1 + d2) / 6.0 + t * q1
    w = t * (t - 1.0)
    return (1.0 - t) * f1 + t * f2 + w * q, f2 - f1 + (2.0 * t - 1.0) * q + w * q1


class _DiscreteEnergy:
    """Cell-based discretisation of I(f), the per-cell Gauss quadrature of
    the local cubic described above.  Value, gradient and Hessian are exact
    derivatives of one another, which makes the gradient stopping rule
    trustworthy; the Hessian is seven-banded, so Newton steps cost O(N).

    One instance serves one solve, with one workspace of (G, N) planes, G
    Gauss points by N cells, that every evaluation writes in place: five
    hold the last profile's fields, kept under a copy of its values (arrays
    change in place) so that an accepted iterate's Hessian and degree reuse
    its line search's, and seven are scratch.  The fields are views, valid
    until another profile is evaluated; what the methods return is fresh.
    """

    def __init__(self, alpha: float, n: int, N: int):
        self.alpha = alpha
        self.n = n
        self.N = N
        self.h = _PI / N
        x, w = _rule(_GL_ORDER)
        self.t, self.w = 0.5 * (x + 1.0), 0.5 * w   # the rule on [0, 1]
        # the local cubic's Lagrange basis: row k is the cubic through the
        # k-th unit vector of nodes, at the Gauss points; shape (4, G)
        self.B, self.Bp = _cubic(*np.eye(4)[:, :, None], self.t)
        # the rows of Bp sum to zero, so F @ Bp = diff(F) @ Dp with
        # Dp[j] = sum of Bp[k] over k > j; node differences keep the
        # slope's roundoff at eps |f'| rather than eps |f| / h
        self.Dp = np.cumsum(self.Bp[::-1], axis=0)[-2::-1]
        xg = np.linspace(0.0, _PI, N + 1)[:-1] + self.h * self.t[:, None]
        sin_xg = np.sin(xg)
        self.inv_sin2 = 1.0 / (sin_xg * sin_xg)
        self.wgt = _PI * self.h * self.w[:, None] * sin_xg
        # hessian_band's basis products at a block's entries k <= l
        B, Bq, (k, l) = self.B, self.Bp / self.h, np.triu_indices(4)
        self.table = np.hstack((Bq[k] * Bq[l], Bq[k] * B[l] + B[k] * Bq[l], B[k] * B[l]))
        self._work = np.empty((12, len(self.t), N))
        self._key = None

    def _fields(self, fs: np.ndarray):
        """f', sin f, dW/df = sin 2f / sin^2 r, W and (2 + W)^(alpha - 1)."""
        fields = fp, sf, dW_df, W, core = self._work[:5]
        if self._key is not None and np.array_equal(self._key, fs):
            return fields
        self._key = None
        fc, tmp = self._work[5:7]
        fe = _reflect(fs, self.n, 1)
        # cell c reads the extended nodes c .. c+3, i.e. f_{c-1} .. f_{c+2}
        window = np.lib.stride_tricks.sliding_window_view
        np.matmul(self.B.T, window(fe, 4).T, out=fc)
        np.matmul(self.Dp.T, window(np.diff(fe), 3).T, out=fp)
        fp /= self.h
        np.sin(fc, out=sf)
        np.multiply(fp, fp, out=W)
        W += np.multiply(np.multiply(sf, sf, out=tmp), self.inv_sin2, out=tmp)
        np.multiply(np.multiply(sf, 2.0, out=dW_df), np.cos(fc, out=tmp), out=dW_df)
        dW_df *= self.inv_sin2
        np.add(W, 2.0, out=core)
        core **= self.alpha - 1.0
        self._key = fs.copy()
        return fields

    def cell_energies(self, fs: np.ndarray) -> np.ndarray:
        """The energy of each cell, shape (N,); they sum to the value."""
        _, _, _, W, core = self._fields(fs)
        return np.sum(self.wgt * core * (2.0 + W), axis=0)

    def degree(self, fs: np.ndarray) -> float:
        """Degree of the map, the integral of sin(f) f' / 2 over [0, pi]."""
        fp, sf, _, _, _ = self._fields(fs)
        return 0.5 * self.h * float(np.sum(self.w @ (sf * fp)))

    def value_and_grad(self, fs: np.ndarray) -> tuple[float, np.ndarray]:
        N = self.N
        fp, _, dW_df, W, core = self._fields(fs)
        t, u, A, cell_grad, other = self._work[5:10]
        np.multiply(self.wgt, core, out=t)
        val = float(np.sum(np.multiply(t, np.add(W, 2.0, out=u), out=t)))
        np.multiply(core, self.alpha, out=A)   # alpha core wgt, in this order
        A *= self.wgt
        # per cell, dval/d(node at slot k) sums A dW_k (hessian_band): (4, N),
        # a plane's shape as G = 4
        np.matmul(self.Bp, np.multiply(np.multiply(fp, 2.0, out=t), A, out=t), out=cell_grad)
        cell_grad /= self.h
        cell_grad += np.matmul(self.B, np.multiply(dW_df, A, out=u), out=other)
        grad_e = np.zeros(N + 3)
        for k in range(4):
            grad_e[k:k + N] += cell_grad[k]
        grad = grad_e[1:-1].copy()
        grad[1] -= grad_e[0]      # ghost f(-h) = -f(h)
        grad[-2] -= grad_e[-1]    # ghost f(pi+h) = 2 n pi - f(pi-h)
        grad[0] = grad[-1] = 0.0
        return val, grad

    def hessian_band(self, fs: np.ndarray) -> np.ndarray:
        """Hessian over the interior unknowns fs[1:-1] in LAPACK upper
        banded form, shape (4, N-1): row 3 - j holds the j-th upper
        diagonal, right-aligned.  Ghost nodes fold onto nodes 1 and N-1
        with a sign flip; the endpoint nodes drop out.

        At a Gauss point, wgt (2 + W)^alpha has the second derivative
        p2 dW_k dW_l + p1 d2W_kl in the cell's nodes k, l, where
        p1 = alpha (2 + W)^(alpha - 1) wgt, p2 = (alpha - 1) p1 / (2 + W),
        dW_k = a Bp[k] + b B[k] with a = 2 f' / h, b = sin 2f / sin^2 r, and
        d2W_kl = 2 Bp[k] Bp[l] / h^2 + 2 cos 2f / sin^2 r B[k] B[l].  A block
        is p2 a^2 + 2 p1 / h^2 times Bp[k] Bp[l], p2 a b times Bp[k] B[l] +
        B[k] Bp[l], and p2 b^2 + 2 p1 cos 2f / sin^2 r times B[k] B[l]: one
        product of these (3G, N) coefficients with the table.
        """
        N = self.N
        fp, sf, b, W, core = self._fields(fs)
        coef, (p1, p2, a, t) = self._work[5:8], self._work[8:12]
        np.multiply(np.multiply(self.wgt, self.alpha, out=p1), core, out=p1)
        np.divide(np.multiply(p1, self.alpha - 1.0, out=p2), np.add(W, 2.0, out=t), out=p2)
        np.multiply(fp, 2.0, out=a)   # without its 1/h, which the table carries
        np.multiply(np.multiply(p2, a, out=t), a, out=coef[0])
        np.multiply(t, b, out=coef[1])
        np.multiply(np.multiply(p2, b, out=t), b, out=coef[2])
        coef[0] += np.multiply(p1, 2.0, out=t)
        # 2 / sin^2 r (1 - 2 sin^2 f) p1, multiplied in that order
        np.subtract(1.0, np.multiply(np.multiply(sf, 2.0, out=a), sf, out=a), out=a)
        np.multiply(np.multiply(self.inv_sin2, 2.0, out=t), a, out=t)
        coef[2] += np.multiply(t, p1, out=t)
        # the product overwrites p1 .. t, which are spent
        prod = np.matmul(self.table, coef.reshape(-1, N),
                         out=self._work[8:].reshape(-1)[:10 * N].reshape(10, N))
        # band over the extended nodes 0 .. N+2 (f_{-1} .. f_{N+1}): entry
        # (e - j, e) sits at ab[3 - j, e]; cell c covers nodes c .. c+3
        ab = np.zeros((4, N + 3), order="F")   # so that LAPACK solves it in place
        for row, k, l in zip(prod, *np.triu_indices(4)):
            ab[3 - (l - k), l:l + N] += row
        # fold f_{-1} = -f_1 (extended node 0 onto 2) and
        # f_{N+1} = 2 n pi - f_{N-1} (extended node N+2 onto N)
        ab[3, 2] += ab[3, 0] - 2.0 * ab[1, 2]
        ab[2, 3] -= ab[0, 3]
        ab[3, N] += ab[3, N + 2] - 2.0 * ab[1, N + 2]
        ab[2, N] -= ab[0, N + 2]
        return ab[:, 2:N + 1]


def _newton_direction(disc: _DiscreteEnergy, fs: np.ndarray,
                      g: np.ndarray) -> np.ndarray:
    """Newton direction on the interior nodes by one in-place banded
    Cholesky solve (LAPACK pbsv); a Levenberg shift of the diagonal,
    doubling from 1e-12 of its largest entry, guards an indefinite Hessian,
    and -g is the last resort.  A failed factorisation overwrites its band,
    so each retry forms the band again from the memoised fields."""
    from scipy.linalg import LinAlgError, solveh_banded
    ab = disc.hessian_band(fs)
    if not np.all(np.isfinite(ab)):   # it overflows first, before the energy
        raise OverflowError(f"the radial Hessian at alpha = {disc.alpha} overflows double range")
    base = float(np.max(np.abs(ab[3])))
    shift = 0.0
    for _ in range(40):
        try:
            return solveh_banded(ab, -g, overwrite_ab=True, check_finite=False)
        except LinAlgError:
            shift = max(2.0 * shift, 1e-12 * base)
            ab = disc.hessian_band(fs)
            ab[3] += shift
    return -g


@np.errstate(over="ignore", invalid="ignore")   # _newton_direction reports an overflow
def minimize_radial(alpha: float, n: int, N: int = 2000,
                    init: RadialProfile | None = None, *,
                    max_iters: int = 200) -> SolveResult:
    """Minimise I over profiles with fixed endpoints f(0) = 0, f(pi) = n*pi.

    Damped Newton on the interior nodal values of the discrete energy: the
    Hessian is banded, so a direction costs O(N) through a banded Cholesky
    solve, and an Armijo line search starting at the full step backtracks
    along it.  A cold start (``init`` None) with n >= 2 and N // 4 >= 500
    starts from this solve on N // 4 cells, which leaves one or two steps on
    N cells; ``max_iters`` bounds each level.  Other cold starts take f = n r,
    for n = 1 the minimiser.  The iteration stops on the first of:

    - "gradient": the sup-norm of the analytic discrete gradient is at or
      below ``1e-8 * h * max(1, I)``;
    - "stagnation": the Newton decrement -g.d is at or below the roundoff
      floor eps * |I| * N, where no line search can resolve a decrease; the
      full step is kept if it lowers the gradient's sup-norm;
    - "line_search": 60 halvings found no sufficient decrease;
    - "max_iters": the iteration budget ran out.

    ``converged`` means a gradient or stagnation stop that also leaves the
    independent finite-difference residual at or below 1e-2.  The
    construction needs alpha > 1: at alpha = 1 minimising sequences in the
    nontrivial classes concentrate and no minimiser exists.  A Hessian that
    leaves double range (alpha in the hundreds) raises OverflowError.
    """
    if not 1.0 < alpha < math.inf:
        raise ValueError("minimize_radial requires alpha > 1")
    if init is None:
        init = (minimize_radial(alpha, n, N // _COARSEN, max_iters=max_iters).profile
                if n >= 2 and N // _COARSEN >= _COARSEST else RadialProfile.linear(n, N))
    if init.n != n:
        raise ValueError("init profile has the wrong winding count")
    init = init.resampled(N)

    disc = _DiscreteEnergy(alpha, n, N)
    fs = init.fs.copy()
    val, grad = disc.value_and_grad(fs)
    g = grad[1:-1]
    history = [val]
    stop_reason = "max_iters"
    it = 0
    for it in range(1, max_iters + 1):
        gnorm = float(np.max(np.abs(g)))
        if gnorm <= _GRAD_TOL * disc.h * max(1.0, abs(val)):
            stop_reason = "gradient"
            break
        d = _newton_direction(disc, fs, g)
        gd = float(np.dot(g, d))
        # a predicted decrease below the energy's roundoff leaves the energy
        # unable to judge the full step; the gradient still can
        stalled = -gd <= _EPS * abs(val) * N
        s = 1.0
        for _ in range(60):
            trial = fs.copy()
            trial[1:-1] += s * d
            tval, tgrad = disc.value_and_grad(trial)
            if stalled or tval <= val + 1e-4 * s * gd:
                break
            s *= 0.5
        else:
            stop_reason = "line_search"
            break
        if not stalled or float(np.max(np.abs(tgrad))) < gnorm:
            fs, val, g = trial, tval, tgrad[1:-1]
            history.append(val)
        if stalled:
            stop_reason = "stagnation"
            break

    final = RadialProfile(n, fs)
    residual_sup = float(np.max(np.abs(radial_residual(final, alpha))))
    converged = (stop_reason in ("gradient", "stagnation")
                 and residual_sup <= _RESIDUAL_TOL)
    deg = disc.degree(fs)
    return SolveResult(
        profile=final,
        alpha=alpha,
        energy=val,
        residual_sup=residual_sup,
        grad_norm=float(np.max(np.abs(g))),
        degree=deg,
        degree_int=int(round(deg)),
        crossings=_crossings(final),
        iterations=it,
        converged=converged,
        stop_reason=stop_reason,
        history=tuple(history),
    )


def _crossings(profile: RadialProfile) -> tuple[float, ...]:
    """The r where the reconstruction first climbs through pi, 2 pi, ...,
    (n - 1) pi.  As fs[0] = 0 and fs[N] = n pi, level k pi is first crossed
    in the cell that ends at the first node at or above it.  The
    reconstruction returns the nodal values exactly, so that cell brackets a
    root of its cubic: Newton steps from the chord's root, each replaced by
    bisection when it leaves the shrinking bracket (a right node on the
    level is the chord's root, and exact)."""
    out = []
    for k in range(1, profile.n):
        level = k * _PI
        gs = profile.fs - level
        i = int(np.argmax(gs >= 0.0)) - 1
        a, b = float(profile.rs[i]), float(profile.rs[i + 1])
        r = a + (b - a) * float(gs[i] / (gs[i] - gs[i + 1]))
        for _ in range(64):   # bisection alone narrows a cell to two floats in 64
            f, fp = profile.value_and_slope(r)
            g = float(f) - level
            if g == 0.0:
                break
            a, b = (r, b) if g < 0.0 else (a, r)
            step = r - g / float(fp) if fp else math.nan
            if not a < step < b and step != r:
                step = 0.5 * (a + b)
            if not a < step < b:
                break   # Newton stands still, or the bracket is two adjacent floats
            r = step
        out.append(r)
    return tuple(out)


def _series_coeff(alpha: float, a: float) -> float:
    """Cubic coefficient of the regular expansion f = a r + c r^3 + ...
    solving the critical-profile equation near r = 0."""
    beta = alpha - 1.0
    return (a * (1.0 - a * a) * (2.0 * (1.0 + a * a) - beta * a * a)
            / (24.0 * (1.0 + a * a + beta * a * a)))


def _shot(alpha: float, n: int, slope: float):
    from scipy.integrate import solve_ivp
    beta = alpha - 1.0
    eps = _SHOOT_EPS

    def rhs(r, y):
        f, p = y
        s, cs = math.sin(r), math.cos(r)
        sf, cf = math.sin(f), math.cos(f)
        q = sf / s
        W = p * p + q * q
        dW_rest = 2.0 * sf * cf * p / (s * s) - 2.0 * sf * sf * cs / (s ** 3)
        denom = 1.0 + 2.0 * beta * p * p / (2.0 + W)
        fpp = (-cs / s * p + sf * cf / (s * s) - beta * p * dW_rest / (2.0 + W)) / denom
        return (p, fpp)

    def blown(r, y):
        return (n + 3.0) * _PI - abs(y[0])

    blown.terminal = True
    c = _series_coeff(alpha, slope)
    y0 = (slope * eps + c * eps ** 3, slope + 3.0 * c * eps ** 2)
    sol = solve_ivp(rhs, (eps, _PI - eps), y0, method="DOP853",
                    rtol=_SHOOT_RTOL, atol=_SHOOT_ATOL, events=blown,
                    dense_output=True)
    return sol


def shoot_radial(alpha: float, n: int, slope0: float) -> RadialProfile:
    """Construct a profile with f(pi) = n*pi by shooting from r = 0, sampled
    on 2000 cells.

    ``slope0`` seeds a bracketing search over the initial slope, widened by
    factors of 1.3 up to 60 times; each shot starts at r = 1e-6 from the
    regular series f = a r + c r^3 with c fitted from the equation's leading
    balance.  Raises :class:`ShootFailedError` when shots blow up before the
    far endpoint and no bracket exists.
    """
    if not 1.0 <= alpha < math.inf:
        raise ValueError("alpha must be >= 1")
    if not 0.0 < slope0 < math.inf:
        raise ValueError("slope0 must be positive")
    from scipy.optimize import brentq
    target = n * _PI
    eps = _SHOOT_EPS
    last_reached = 0.0

    def miss(a: float) -> float:
        nonlocal last_reached
        sol = _shot(alpha, n, a)
        last_reached = max(last_reached, float(sol.t[-1]))
        if sol.status != 0 or sol.t[-1] < _PI - eps:
            # blow-up: report a huge signed miss so bracketing can proceed
            return math.copysign(1e6, sol.y[0][-1] - target)
        f_end, p_end = sol.y[0][-1], sol.y[1][-1]
        return f_end + eps * p_end - target

    m0 = miss(slope0)
    if m0 != 0.0:
        for k in range(1, _SHOOT_EXPAND + 1):
            cand = slope0 * 1.3 ** (k if m0 < 0.0 else -k)
            mc = miss(cand)
            if mc * m0 <= 0.0:
                break
        else:
            raise ShootFailedError(
                f"no slope bracket around {slope0:g}; furthest shot reached "
                f"r = {last_reached:.6f}", last_reached)
        slope0 = cand if mc == 0.0 else brentq(miss, min(slope0, cand), max(slope0, cand),
                                               xtol=1e-13, rtol=1e-15)

    sol = _shot(alpha, n, slope0)
    if sol.status != 0 or sol.t[-1] < _PI - eps:
        raise ShootFailedError("matched shot failed to reach the endpoint",
                               float(sol.t[-1]))
    rs = np.linspace(0.0, _PI, _SHOOT_NODES)
    fs = np.empty_like(rs)
    inner = (rs >= eps) & (rs <= _PI - eps)
    fs[inner] = sol.sol(rs[inner])[0]
    c = _series_coeff(alpha, slope0)
    small = rs < eps
    fs[small] = slope0 * rs[small] + c * rs[small] ** 3
    fs[rs > _PI - eps] = target
    fs[0], fs[-1] = 0.0, target
    return RadialProfile(n, fs)


def annulus_split(result: SolveResult) -> tuple[float, float, float]:
    """Split the energy of a threefold-winding solution into the geodesic
    disc about the north pole where f climbs to pi, the annulus where it
    climbs to 2 pi, and the remaining cap: the n = 3 case of
    :func:`window_energies` between the crossings."""
    if result.profile.n != 3 or not result.converged:
        raise ValueError("the split needs a converged solve of winding count 3")
    return tuple(window_energies(result.profile, result.alpha,
                                 (0.0, *result.crossings, _PI)))


def save_profile(profile: RadialProfile, path) -> None:
    """Two-column text export (r, f(r))."""
    np.savetxt(path, np.column_stack([profile.rs, profile.fs]), fmt="%.17g")


def load_profile(path, n: int | None = None) -> RadialProfile:
    """Read a :func:`save_profile` file; raises ``ValueError`` unless it is
    two columns of finite numbers, r on the uniform grid over [0, pi] and f
    with endpoints 0 and n*pi."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)   # numpy's note on empty input
        data = np.loadtxt(path, ndmin=2)
    if not data.size:
        raise ValueError("profile file holds no numbers")
    if data.shape[1] != 2 or not np.isfinite(data).all():
        raise ValueError("profile file must be two columns of finite numbers")
    rs, fs = data[:, 0], data[:, 1]
    if np.max(np.abs(rs - np.linspace(0.0, _PI, len(rs)))) > 1e-12:
        raise ValueError("r column must be the uniform grid on [0, pi]")
    if n is None:
        n = int(round(fs[-1] / _PI))
    if not (abs(fs[-1] - n * _PI) <= 1e-9 and abs(fs[0]) <= 1e-9):
        raise ValueError("file endpoints are not compatible with f(0)=0, f(pi)=n*pi")
    fs[0], fs[-1] = 0.0, n * _PI
    return RadialProfile(n, fs)
