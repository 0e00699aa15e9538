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
reported energy and the window energies, differences of one cumulative
energy whose panel past the last node reads f' and sin f / sin r point by
point from the reconstruction, as the 2-d map does.  The degree is
(1 - cos n pi) / 2, and each k pi crossing is bisected on its cell's cubic.

The module provides the window energies (the energy is the window from 0
to pi), a finite-difference residual for the above equation and a direct
minimiser over nodal values (damped Newton with a banded Cholesky solve,
Armijo backtracking and analytic discrete derivatives).  A grid's geometry
is built once per N and shared read-only, a solve writes its own
workspace, and every sine comes from the half-angle tangent.  Importing it
loads numpy alone: the first Newton step loads LAPACK's dpbsv from scipy's
compiled module, without importing scipy.linalg.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field
from importlib import machinery, util

import numpy as np

__all__ = [
    "RadialProfile",
    "SolveResult",
    "window_energies",
    "radial_residual",
    "minimize_radial",
    "annulus_split",
    "save_profile",
    "load_profile",
]

_PI = math.pi
# 4-point Gauss-Legendre per cell: leggauss(4)'s bits, to which every radial number is pinned
_CELL_X = (-0.8611363115940526, -0.33998104358485626, 0.33998104358485626, 0.8611363115940526)
_CELL_W = (0.34785484513745357, 0.6521451548625464, 0.6521451548625464, 0.34785484513745357)
_GRAD_TOL = 1e-8       # gradient sup-norm of a "gradient" stop, per h I
_RESIDUAL_TOL = 1e-2   # sup of radial_residual that a converged solve may leave
_COARSEN, _COARSEST = 4, 500   # a solve's coarse levels: N // 4 cells, at least 500
_EPS = float(np.finfo(float).eps)
_PAIRS = [(k, l) for k in range(4) for l in range(k, 4)]   # a cell's nodes k <= l


@dataclass(frozen=True)
class RadialProfile:
    """Nodal values ``fs`` on the uniform grid of N = len(fs) - 1 >= 100
    cells over [0, pi], which ``rs`` returns.

    ``n`` is the winding count: f(0) = 0 and f(pi) = n*pi exactly.  Between
    nodes the profile is the local cubic that :func:`minimize_radial`
    integrates, so :func:`window_energies` of a profile over (0, pi) is
    the discrete objective the minimiser minimised.
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
        fe = _reflect(self.fs, self.n)
        f, fp = _cubic(fe[c], fe[c + 1], fe[c + 2], fe[c + 3], u - c)
        return f, fp / self.h

    def _slope_and_ratio(self, r):
        """f', q = sin f / sin r and sin r at polar angles r, every sine from _sincos.  Where
        sin r <= 1e-7, q is its limit: f' at 0, (-1)^(n+1) f' = lim sin(n pi - f' x) / x at pi."""
        (f, fp), s = self.value_and_slope(r), _sincos(r)[0]
        far, pole = s > 1e-7, np.where(r < 0.5 * _PI, fp, (-1) ** (self.n + 1) * fp)
        return fp, np.where(far, _sincos(f)[0] / np.where(far, s, 1.0), pole), s

    def resampled(self, N: int) -> "RadialProfile":
        """The profile on N cells: nested grids take nodes, or each cell's cubic at j / m."""
        if self.N % N == 0:   # a coarser grid's nodes are among these
            return self if N == self.N else RadialProfile(self.n, self.fs[::self.N // N].copy())
        if N % self.N:
            return RadialProfile.from_function(self.n, N, lambda r: self.value_and_slope(r)[0])
        fe, fs = _reflect(self.fs, self.n), np.full(N + 1, self.n * _PI)
        nodes = np.lib.stride_tricks.as_strided(fe, (4, self.N), 2 * fe.strides)   # (4, cells)
        np.matmul(_fractions(N // self.N), nodes, out=fs[:-1].reshape(self.N, -1).T)
        return RadialProfile(self.n, fs)

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
    "stagnation" (its full step taken), "max_iters" or "line_search".
    ``energy`` is the discrete objective the iteration minimised, evaluated at
    the final profile; ``history`` holds it for the initial and every accepted
    iterate, and ``iterations`` counts the steps, both on the final grid alone
    (not the coarser levels that every start with n >= 2 and N // 4 >= 500
    descends through).  ``degree_int`` is n mod 2, the exact (1 - cos n pi) / 2.
    ``crossings`` holds the first upward crossings of pi, 2 pi, ...,
    (n - 1) pi, which every finite profile has.
    """

    profile: RadialProfile
    alpha: float
    energy: float
    residual_sup: float
    grad_norm: float
    degree_int: int
    crossings: tuple[float, ...]
    iterations: int
    converged: bool
    stop_reason: str
    history: tuple = field(default=(), repr=False)


def window_energies(profile: RadialProfile, alpha: float, edges) -> list[float]:
    """Energies of the windows between consecutive ``edges``, the
    differences of F(x), the energy from 0 to x: the cell energies before
    the node at or before x, plus 4-point Gauss-Legendre through the local
    cubic from that node to x.  Adjacent windows add up to the total up to
    the quadrature error of those panels."""
    if not 1.0 <= alpha < math.inf:
        raise ValueError("alpha must be >= 1")
    x = np.asarray(edges, dtype=float)
    if not (np.all((0.0 <= x) & (x <= _PI)) and np.all(np.diff(x) >= 0.0)):   # NaN fails
        raise ValueError("window must satisfy 0 <= a <= b <= pi")
    rs, (t, w) = profile.rs, _geometry(profile.N)[:2]
    c = np.searchsorted(rs, x, "right") - 1   # the node at or before x, in [0, N]
    kept_alpha, cells = getattr(profile, "_cells", (None, None))   # a solve's, at its alpha
    if kept_alpha != alpha or profile.fs.flags.writeable:   # kept only while fs cannot change
        cells = _DiscreteEnergy(alpha, profile.n, profile.N).cell_energies(profile.fs)
    F = np.array([np.sum(cells[:j]) for j in c])   # pairwise, as the solve sums
    cut = x > rs[c]   # an edge on a node has no panel (at r = 0 its density is 0/0)
    span = (x - rs[c])[cut, None]
    xg = rs[c[cut], None] + span * t
    fp, q, s = profile._slope_and_ratio(xg)
    F[cut] += _PI * ((2.0 + fp * fp + q ** 2) ** alpha * s * span) @ w
    return np.diff(F).tolist()


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
    if not 1.0 <= alpha < math.inf:
        raise ValueError("alpha must be >= 1")
    fs, h = profile.fs, profile.h
    e = _reflect(fs, profile.n)   # e[k:k + N - 1] is f_{k-1} .. f_{k+N-3}
    fp = (8.0 * e[3:-1] - e[4:] - 8.0 * e[1:-3] + e[:-4]) / (12.0 * h)   # b - a is -a + b
    fpp = (16.0 * e[3:-1] - e[4:] - 30.0 * e[2:-2] + 16.0 * e[1:-3] - e[:-4]) / (12.0 * h * h)
    s, c, s2, s3, cot = _geometry(profile.N)[8:]
    sf, cf = _sincos(fs[1:-1])
    W, sc = fp * fp + (sf / s) ** 2, sf * cf
    half_Wp = fp * fpp + sc * fp / s2 - sf * sf * c / s3   # its 2 moves exactly into 2 alpha - 2
    return fpp + cot * fp - sc / s2 + (2.0 * alpha - 2.0) * fp * half_Wp / (2.0 + W)


def _reflect(fs: np.ndarray, n: int, out=None) -> np.ndarray:
    """Nodal values extended by one ghost node per side through the odd
    reflections f(-r) = -f(r) and f(pi + s) = 2 n pi - f(pi - s)."""
    return np.concatenate((-fs[1:2], fs, 2.0 * n * _PI - fs[-2:-1]), out=out)


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


@functools.lru_cache(maxsize=16)
def _geometry(N: int) -> tuple:
    """The read-only grid data on N cells: _DiscreteEnergy's t, w, B, Bp, Dp,
    table, inv_sin2, wgt; radial_residual's interior sin, cos, sin^2, sin^3, cot."""
    h = _PI / N
    t, w = 0.5 * (np.array(_CELL_X) + 1.0), 0.5 * np.array(_CELL_W)   # the rule on [0, 1]
    # the local cubic's Lagrange basis: row k is the cubic through the
    # k-th unit vector of nodes, at the Gauss points; shape (4, G)
    B, Bp = _cubic(*np.eye(4)[:, :, None], t)
    # the rows of Bp sum to zero, so F @ Bp = diff(F) @ Dp with
    # Dp[j] = sum of Bp[k] over k > j; node differences keep the
    # slope's roundoff at eps |f'| rather than eps |f| / h
    Dp = np.cumsum(Bp[::-1], axis=0)[-2::-1]
    # hessian_band's basis products at a block's entries k <= l
    Bq, (k, l) = Bp / h, np.transpose(_PAIRS)
    table = np.hstack((Bq[k] * Bq[l], Bq[k] * B[l] + B[k] * Bq[l], B[k] * B[l]))
    rs = np.linspace(0.0, _PI, N + 1)
    sin_xg, (s, c) = _sincos(rs[:-1] + h * t[:, None])[0], _sincos(rs[1:-1])
    return tuple(map(_read_only, (t, w, B, Bp, Dp, table, 1.0 / (sin_xg * sin_xg),
                                  _PI * h * w[:, None] * sin_xg, s, c, s * s, s ** 3, c / s)))


@functools.lru_cache(maxsize=4)
def _fractions(m: int) -> np.ndarray:
    """The local cubic's Lagrange basis at t = j / m: row j, shape (m, 4)."""
    return _read_only(_cubic(*np.eye(4)[:, :, None], np.arange(m) / m)[0].T.copy())


def _read_only(a: np.ndarray) -> np.ndarray:
    """a, made read-only: shared by callers, or kept beside what it was computed from."""
    a.flags.writeable = False
    return a


def _sincos(x, out=None):
    """sin x and cos x as 2t/(1+t^2) and (1-t^2)/(1+t^2), t = tan(x/2): numpy
    vectorises tan, not sin and cos.  sin is within 2 ulp, cos within 2 eps.
    ``out`` holds arrays shaped like x for sin, cos and scratch (may be x)."""
    s, c, u = np.empty((3, *np.shape(x))) if out is None else out
    t = np.tan(np.multiply(x, 0.5, out=s), out=s)
    q = np.divide(1.0, np.add(np.multiply(t, t, out=u), 1.0, out=c), out=c)
    np.subtract(1.0, u, out=u)
    np.multiply(np.multiply(t, 2.0, out=t), q, out=t)
    return s, np.multiply(q, u, out=c)


class _DiscreteEnergy:
    """Cell-based discretisation of I(f), the per-cell Gauss quadrature of
    the local cubic described above.  Value, gradient and Hessian are exact
    derivatives of one another, which makes the gradient stopping rule
    trustworthy; the Hessian is seven-banded, so Newton steps cost O(N).

    Every instance on N cells reads one read-only geometry (_geometry); one
    instance serves one solve, with its own workspace of (G, N) planes, G
    Gauss points by N cells, that every evaluation writes in place: five
    hold the last profile's fields, kept under a copy of its values, the
    extended nodes that cell windows made once read (arrays change in
    place), so that an accepted iterate's Hessian reuses its line search's,
    and seven are scratch.  The fields are views, valid until another
    profile is evaluated; what the methods return is fresh.
    """

    def __init__(self, alpha: float, n: int, N: int):
        self.alpha, self.n, self.N, self.h = alpha, n, N, _PI / N
        (self.t, self.w, self.B, self.Bp, self.Dp, self.table,
         self.inv_sin2, self.wgt) = _geometry(N)[:8]
        self._work = np.empty((12, len(self.t), N))
        # cell c reads the extended nodes c .. c+3, i.e. f_{c-1} .. f_{c+2}
        self._fe, self._dfe = np.empty(N + 3), np.empty(N + 2)
        self._windows = [np.lib.stride_tricks.as_strided(v, (m, N), 2 * v.strides, writeable=False)
                         for v, m in ((self._fe, 4), (self._dfe, 3))]
        self._key = None

    def _fields(self, fs: np.ndarray):
        """f', sin f, dW/df = sin 2f / sin^2 r, S = 2 + W and S^(alpha - 1)."""
        fields = fp, sf, dW_df, S, core = self._work[:5]
        if self._key is not None and np.array_equal(self._key, fs):
            return fields
        self._key, fe = None, self._fe
        fc, tmp = self._work[5:7]
        _reflect(fs, self.n, out=fe)
        np.subtract(fe[1:], fe[:-1], out=self._dfe)
        np.matmul(self.B.T, self._windows[0], out=fc)
        np.matmul(self.Dp.T, self._windows[1], out=fp)
        fp /= self.h
        _, cf = _sincos(fc, out=(sf, tmp, fc))
        np.multiply(np.multiply(sf, 2.0, out=dW_df), cf, out=dW_df)
        dW_df *= self.inv_sin2
        np.multiply(fp, fp, out=S)
        S += np.multiply(np.multiply(sf, sf, out=tmp), self.inv_sin2, out=tmp)
        S += 2.0
        np.power(S, self.alpha - 1.0, out=core)
        self._key = fe[1:-1]
        return fields

    def cell_energies(self, fs: np.ndarray) -> np.ndarray:
        """The energy of each cell, shape (N,); they sum to the value."""
        _, _, _, S, core = self._fields(fs)
        return np.sum(self.wgt * core * S, axis=0)

    def value_and_grad(self, fs: np.ndarray) -> tuple[float, np.ndarray]:
        N = self.N
        fp, _, dW_df, S, core = self._fields(fs)
        t, u, A, cell_grad, other = self._work[5:10]
        np.multiply(self.wgt, core, out=t)
        val = float(np.sum(np.multiply(t, S, out=t)))
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
        """Hessian A over the interior unknowns fs[1:-1] in LAPACK lower
        banded form, shape (4, N-1): row d, ab[d, j] = A[j + d, j], is the
        d-th lower diagonal, left-aligned (LAPACK reads no entry past its
        end).  Ghost nodes fold onto nodes 1 and N-1 with a sign flip.

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
        fp, sf, b, S, core = self._fields(fs)
        coef, (p1, p2, a, t) = self._work[5:8], self._work[8:12]
        np.multiply(np.multiply(self.wgt, self.alpha, out=p1), core, out=p1)
        np.divide(np.multiply(p1, self.alpha - 1.0, out=p2), S, out=p2)
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
        # (e + d, e) sits at ab[d, e]; cell c covers nodes c .. c+3
        ab = np.zeros((4, N + 3), order="F")   # so that LAPACK solves it in place
        for row, (k, l) in zip(prod, _PAIRS):
            ab[l - k, k:k + N] += row
        # fold f_{-1} = -f_1 (extended node 0 onto 2) and
        # f_{N+1} = 2 n pi - f_{N-1} (extended node N+2 onto N)
        ab[0, 2] += ab[0, 0] - 2.0 * ab[2, 0]
        ab[1, 2] -= ab[3, 0]
        ab[0, N] += ab[0, N + 2] - 2.0 * ab[2, N]
        ab[1, N - 1] -= ab[3, N - 1]
        return ab[:, 2:N + 1]


@functools.cache
def _dpbsv():
    """LAPACK's dpbsv, loaded by path from scipy's compiled module so that
    scipy.linalg's package init (0.25 s) never runs; where none loads, scipy.linalg's."""
    stem = util.find_spec("scipy").submodule_search_locations[0] + "/linalg/_flapack"
    for suffix in machinery.EXTENSION_SUFFIXES:
        spec = util.spec_from_file_location("scipy.linalg._flapack", stem + suffix)
        try:
            module = util.module_from_spec(spec)
        except ImportError:   # no such file, or it does not load
            continue
        spec.loader.exec_module(module)
        return module.dpbsv
    from scipy.linalg.lapack import dpbsv
    return dpbsv


def _newton_direction(disc: _DiscreteEnergy, fs: np.ndarray,
                      g: np.ndarray) -> np.ndarray:
    """Newton direction on the interior nodes by one in-place banded
    Cholesky solve (LAPACK dpbsv, called as solveh_banded(..., lower=True)
    calls it); a Levenberg shift of the diagonal, doubling from 1e-12 of its
    largest entry, guards an indefinite Hessian (info > 0), and -g is the
    last resort.  A failed factorisation overwrites its band, so each retry
    forms the band again.  An illegal argument (info < 0) raises
    RuntimeError.  The band is the lower form, whose columns dpbsv's
    factorisation updates at unit stride: half the upper form's time."""
    ab = disc.hessian_band(fs)
    if not np.all(np.isfinite(ab)):   # it overflows first, before the energy
        raise OverflowError(f"the radial Hessian at alpha = {disc.alpha} overflows double range")
    base = float(np.max(np.abs(ab[0])))
    shift = 0.0
    for _ in range(40):
        _, x, info = _dpbsv()(ab, -g, lower=1, overwrite_ab=1)
        if info == 0:
            return x
        if info < 0:
            raise RuntimeError(f"illegal value in argument {-info} of LAPACK dpbsv")
        shift = max(2.0 * shift, 1e-12 * base)
        ab = disc.hessian_band(fs)
        ab[0] += shift
    return -g


def _newton_solve(alpha: float, n: int, N: int, init: RadialProfile | None,
                  max_iters: int) -> tuple:
    """The Newton iteration of :func:`minimize_radial` on N cells, from
    ``init`` (None: f = n r) resampled to N.  With n >= 2 and N // 4 >= 500
    it first runs on N // 4 cells, recursively, from ``init`` resampled there
    and starts from that level's nodes.  Returns the final nodal values, interior gradient, stop
    reason, energy history (the start's, then one per step) and _DiscreteEnergy."""
    if n >= 2 and N // _COARSEN >= _COARSEST:
        coarse = None if init is None else init.resampled(N // _COARSEN)
        init = RadialProfile(n, _newton_solve(alpha, n, N // _COARSEN, coarse, max_iters)[0])
    elif init is None:
        init = RadialProfile.linear(n, N)
    disc = _DiscreteEnergy(alpha, n, N)
    fs = init.resampled(N).fs.copy()
    val, grad = disc.value_and_grad(fs)
    g = grad[1:-1]
    history = [val]
    stop_reason = "max_iters"
    for _ in range(max_iters):
        floor = _EPS * abs(val) * N   # the energy's roundoff: no test resolves a change below it
        if np.max(np.abs(g)) <= max(_GRAD_TOL * disc.h * abs(val), floor):
            stop_reason = "gradient"
            break
        d = _newton_direction(disc, fs, g)
        gd = float(np.dot(g, d))
        # a predicted decrease at the floor leaves the energy unable to judge
        # the full step: it is taken, and the solve ends
        stalled = -gd <= floor
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
        fs, val, g = trial, tval, tgrad[1:-1]
        history.append(val)
        if stalled:
            stop_reason = "stagnation"
            break
    return fs, g, stop_reason, history, disc


@np.errstate(over="ignore", invalid="ignore")   # _newton_direction reports an overflow
def minimize_radial(alpha: float, n: int, N: int = 2000,
                    init: RadialProfile | None = None, *,
                    max_iters: int = 200) -> SolveResult:
    """Minimise I over profiles with fixed endpoints f(0) = 0, f(pi) = n*pi.

    Damped Newton on the interior nodal values of the discrete energy: the
    Hessian is banded, so a direction costs O(N) through a banded Cholesky
    solve, and an Armijo line search starting at the full step backtracks
    along it.  Every start with n >= 2 and N // 4 >= 500, cold (``init``
    None) or warm, first solves on N // 4 cells from the start resampled
    there, recursively, and starts from that solve, which leaves one or two
    steps on N cells; ``max_iters`` bounds each level, and ``iterations``
    and ``history`` count the final grid's steps alone.  Other cold starts
    take f = n r, for n = 1 the minimiser, and other warm ones ``init``
    resampled to N.  The iteration stops on the first of:

    - "gradient": the sup-norm of the analytic discrete gradient is at or
      below the larger of ``1e-8 * h * |I|`` and the roundoff floor eps * |I| * N;
    - "stagnation": the Newton decrement -g.d is at or below that floor, where no
      line search can resolve a decrease; the full step is taken, and the solve ends;
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
    if init is not None and init.n != n:
        raise ValueError("init profile has the wrong winding count")
    fs, g, stop_reason, history, disc = _newton_solve(alpha, n, N, init, max_iters)
    final = RadialProfile(n, _read_only(fs))   # so that the cell energies kept below stay its own
    object.__setattr__(final, "_cells", (alpha, _read_only(disc.cell_energies(fs))))   # for windows
    residual_sup = float(np.max(np.abs(radial_residual(final, alpha))))
    converged = (stop_reason in ("gradient", "stagnation")
                 and residual_sup <= _RESIDUAL_TOL)
    return SolveResult(
        profile=final,
        alpha=alpha,
        energy=history[-1],
        residual_sup=residual_sup,
        grad_norm=float(np.max(np.abs(g))),
        degree_int=n % 2,
        crossings=_crossings(final),
        iterations=len(history) - 1,
        converged=converged,
        stop_reason=stop_reason,
        history=tuple(history),
    )


def _crossings(profile: RadialProfile) -> tuple[float, ...]:
    """The r where the reconstruction first climbs through pi, 2 pi, ...,
    (n - 1) pi.  As fs[0] = 0 and fs[N] = n pi, level k pi is first crossed
    in the cell i that ends at the first node at or above it.  The cubic of
    that cell returns its nodal values exactly, so it brackets a root:
    bisection on it halves the cell until its ends are adjacent floats and
    returns the right end (a right node on the level, exactly)."""
    fe, rs, h, out = _reflect(profile.fs, profile.n), profile.rs, profile.h, []
    for k in range(1, profile.n):
        level = k * _PI
        i = int(np.argmax(profile.fs >= level)) - 1
        nodes, (a, b) = fe[i:i + 4].tolist(), rs[i:i + 2].tolist()
        left, m = a, (b if nodes[2] == level else 0.5 * (a + b))
        while a < m < b:
            a, b = (m, b) if _cubic(*nodes, (m - left) / h)[0] < level else (a, m)
            m = 0.5 * (a + b)
        out.append(b)
    return tuple(out)


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
