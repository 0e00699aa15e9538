"""Stereographic charts, the Moebius group of the Riemann sphere, and the
conformal factor of dilations.

The unit sphere is identified with the extended complex plane by projecting
from the north pole: a chart point is a complex number, zeta = 0 is the
south pole (0, 0, -1) and zeta = inf the north pole (0, 0, 1).  A
unit-determinant complex 2x2 matrix M = (a, b; c, d), or a batch of them
(a :class:`MobiusElement` with array entries), acts by the fractional linear
map zeta -> (a zeta + b)/(c zeta + d), which :func:`mobius_apply` evaluates
vectorised over complex scalars or arrays.  Its singular value decomposition
U diag(sqrt(lam), 1/sqrt(lam)) V*, with U, V special unitary, splits the
action into a rotation, the dilation zeta -> lam * zeta and another
rotation, so every energy computation that only sees rotation-invariant
quantities reduces to dilations.

Chart points are lifted once to projective pairs (p, q), zeta = p/q, with
max(|p|, |q|) = 1.  M maps a pair to the image pair (P, Q) = M (p, q), and
its conformal factor ((|p|^2 + |q|^2)/(|P|^2 + |Q|^2))^2 needs only the
Hermitian form |P|^2 + |Q|^2 = h11 |p|^2 + h22 |q|^2 + 2 Re(h12 conj(p) q)
of H = M*M: three numbers per matrix (h11, h12 and det H once the square is
completed) against the lifted points.  The dilation factor

    chi_lam(zeta) = (1 + lam^2 |zeta|^2)^2 / (lam^2 (1 + |zeta|^2)^2)

(:func:`chi_values`) is its reciprocal for diag(sqrt(lam), 1/sqrt(lam)).
The L2 norm of grad log chi_lam is provided together with the explicit
closed-form upper bound obtained by splitting the radial integral at
r = 1/lam and r = 1.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .quadrature import adaptive_gauss_legendre

__all__ = [
    "DegenerateMatrixError", "SpherePoint", "MobiusElement", "MobiusSVD", "mobius_apply",
    "mobius_svd", "chi_values", "grad_log_chi", "norm_grad_log_chi_L2",
    "grad_log_chi_l2_bound", "GRAD_LOG_CHI_L2_REGIME_CONSTANT",
]

_GRAD_LOG_CHI_REL_TOL = 1e-9   # of the quadrature in norm_grad_log_chi_L2


class DegenerateMatrixError(ValueError):
    """Matrix is too far from unit determinant to act on the sphere."""


@dataclass(frozen=True)
class SpherePoint:
    """Point on the unit sphere in R^3."""

    x: float
    y: float
    z: float

    def __post_init__(self) -> None:
        nrm = self.x * self.x + self.y * self.y + self.z * self.z
        if abs(nrm - 1.0) > 1e-12:
            raise ValueError(f"point is off the unit sphere: |p|^2 - 1 = {nrm - 1.0:.3e}")


@dataclass(frozen=True)
class MobiusElement:
    """Unit-determinant 2x2 complex matrix acting on the Riemann sphere, or a
    batch of them whose entries broadcast: operations act element by element,
    and :meth:`matrix` stacks a batch to shape (..., 2, 2).

    Construction checks ``a d - b c`` against 1 with a loose gate (1e-8);
    :meth:`normalized` rescales an arbitrary invertible matrix so the
    determinant is 1 to machine precision.
    """

    a: complex | np.ndarray
    b: complex | np.ndarray
    c: complex | np.ndarray
    d: complex | np.ndarray

    def __post_init__(self) -> None:
        for name in ("a", "b", "c", "d"):
            # [()] leaves a 0-d entry a numpy scalar, hashable like a complex
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=complex)[()])
        _check_unit(self.det())

    @classmethod
    def normalized(cls, a: complex, b: complex, c: complex, d: complex) -> "MobiusElement":
        det = complex(a) * complex(d) - complex(b) * complex(c)
        if det == 0:
            raise DegenerateMatrixError("matrix is singular")
        s = cmath.sqrt(det)
        return cls(a / s, b / s, c / s, d / s)

    @classmethod
    def identity(cls) -> "MobiusElement":
        return cls(1.0, 0.0, 0.0, 1.0)

    @classmethod
    def dilation(cls, lam) -> "MobiusElement":
        """diag(sqrt(lam), 1/sqrt(lam)); a batch for an array of lam."""
        lam = np.asarray(lam, dtype=float)
        if not np.all((0.0 < lam) & (lam < math.inf)):
            raise ValueError("dilation factor must be finite and positive")
        s = np.sqrt(lam)
        return cls(s, 0.0, 0.0, 1.0 / s)

    def matrix(self) -> np.ndarray:
        entries = np.broadcast_arrays(self.a, self.b, self.c, self.d)
        return np.stack(entries, axis=-1).reshape(entries[0].shape + (2, 2))

    def det(self) -> complex | np.ndarray:
        return self.a * self.d - self.b * self.c

    def __matmul__(self, other: "MobiusElement") -> "MobiusElement":
        return MobiusElement(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "MobiusElement":
        return MobiusElement(self.d, -self.b, -self.c, self.a)


def _check_unit(det) -> None:
    ok = np.abs(det - 1.0) <= 1e-8   # NaN entries fail too
    if not ok.all():
        raise DegenerateMatrixError(f"determinant {np.asarray(det)[~ok][0]} is not 1")


@dataclass(frozen=True)
class MobiusSVD:
    """Decomposition M = U diag(sqrt(lam), 1/sqrt(lam)) V* with special
    unitary factors and lam >= 1 (the larger eigenvalue of M M*); for a
    batch M, a batch of decompositions."""

    U: MobiusElement
    V: MobiusElement
    lam: float | np.ndarray


def _abs2(z):
    return z.real * z.real + z.imag * z.imag


@dataclass(frozen=True, eq=False)
class _Lifted:
    """Chart points ``zs`` with their pairs (p, q), |p|^2 and |q|^2; reads as
    ``zs`` wherever an array is expected."""

    zs: np.ndarray
    p: np.ndarray
    q: np.ndarray
    pp: np.ndarray
    qq: np.ndarray

    def __array__(self, dtype=None, copy=None):
        return np.array(self.zs, dtype=dtype, copy=copy)


def _lift(z) -> _Lifted:
    """Lift chart points to (z, 1) on |z| <= 1, (1, 1/z) outside and (1, 0)
    at inf; points already lifted pass through."""
    if isinstance(z, _Lifted):
        return z
    z = np.asarray(z, dtype=complex)
    with np.errstate(over="ignore"):
        big = ~(_abs2(z) <= 1.0)  # inf and nan land here too
    q = np.divide(1.0, z, out=np.where(big, 0j, 1.0 + 0j),
                  where=big & np.isfinite(z))
    p = np.where(big & ~np.isnan(z), 1.0 + 0j, z)  # a nan point stays nan
    return _Lifted(z, p, q, _abs2(p), _abs2(q))


def _sphere_xyz(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Stack of unit vectors for the points with projective pairs (p, q)."""
    pp, qq = _abs2(p), _abs2(q)
    n = pp + qq
    w = 2.0 * p * np.conj(q) / n
    return np.stack([w.real, w.imag, (pp - qq) / n])


def _form_density(m: MobiusElement, pts: _Lifted) -> np.ndarray:
    """Conformal factor ((|p|^2 + |q|^2)/(|P|^2 + |Q|^2))^2 of ``m`` at
    lifted points, broadcast over a batch and over the points.  The form is
    evaluated as the completed square
    h11 |p + (h12/h11) q|^2 + |det M|^2 |q|^2 / h11: two nonnegative terms,
    whose relative error grows like the singular value ratio of M, where
    the expanded form loses the square of it to cancellation."""
    h11 = _abs2(m.a) + _abs2(m.c)
    h12 = np.conj(m.a) * m.b + np.conj(m.c) * m.d
    form = h11 * _abs2(pts.p + (h12 / h11) * pts.q) + _abs2(m.det()) * pts.qq / h11
    return ((pts.pp + pts.qq) / form) ** 2


def _image_pair(m: MobiusElement, pts: _Lifted) -> tuple[np.ndarray, np.ndarray]:
    """Image pair (P, Q) = (a p + b q, c p + d q) of lifted points, broadcast
    as in :func:`_form_density`."""
    return m.a * pts.p + m.b * pts.q, m.c * pts.p + m.d * pts.q


def mobius_apply(m: MobiusElement, z) -> np.ndarray:
    """Fractional linear action zeta -> (a zeta + b)/(c zeta + d) at complex
    chart points (or at points lifted once): the image pair's P/Q, inf
    where Q = 0.  A scalar point gives a 0-d array; a batch ``m`` acts
    element by element, broadcast against the points."""
    P, Q = _image_pair(m, _lift(z))
    return np.divide(P, Q, out=np.full(np.shape(P), complex(math.inf, 0.0)), where=Q != 0)


def _su2_from_column(col: np.ndarray) -> MobiusElement:
    # [[p, -conj(q)], [q, conj(p)]] is special unitary for any unit column (..., 2)
    p, q = np.moveaxis(col / np.linalg.norm(col, axis=-1, keepdims=True), -1, 0)
    return MobiusElement(p, -np.conj(q), q, np.conj(p))


def _where(mask, x: MobiusElement, y: MobiusElement) -> MobiusElement:
    """x where ``mask`` holds and y elsewhere, for one element or a batch."""
    return MobiusElement(*(np.where(mask, getattr(x, k), getattr(y, k)) for k in "abcd"))


def mobius_svd(m: MobiusElement) -> MobiusSVD:
    """Singular value decomposition with special unitary factors, of one
    element or, by one stacked eigensolve, of each element of a batch.

    ``lam`` is the larger eigenvalue of M M*.  Where M M* = I (up to 1e-12)
    the decomposition is the degenerate one U = M, V = I, lam = 1.
    """
    _check_unit(m.det())
    A = m.matrix()
    Ah = np.conj(np.swapaxes(A, -1, -2))
    evals, evecs = np.linalg.eigh(A @ Ah)
    lam = np.maximum(evals[..., 1], 1.0)
    u1 = evecs[..., 1]  # eigenvector of the larger eigenvalue
    v1 = (Ah @ u1[..., None])[..., 0] / np.sqrt(lam)[..., None]
    rot = np.abs(lam - 1.0) <= 1e-12
    return MobiusSVD(U=_where(rot, m, _su2_from_column(u1)),
                     V=_where(rot, MobiusElement.identity(), _su2_from_column(v1)),
                     lam=np.where(rot, 1.0, lam)[()])


def chi_values(lam, zs) -> np.ndarray:
    """Vectorised conformal factor chi_lam at complex chart points (or at
    points lifted once, see :func:`_lift`): the reciprocal of the factor of
    diag(sqrt(lam), 1/sqrt(lam)), whose form has h11 = lam, h12 = 0 and
    det H = 1, so ((lam |p|^2 + |q|^2/lam)/(|p|^2 + |q|^2))^2 on the lifted
    pair.  Equals lam^2 exactly at inf, where the pair is (1, 0);
    broadcasts over an array of lam."""
    pts = _lift(zs)
    return ((lam * pts.pp + pts.qq / lam) / (pts.pp + pts.qq)) ** 2


def grad_log_chi(lam: float, r):
    """Radial derivative (d/dr) log chi_lam = 4 r (lam^2-1) /
    ((1+r^2)(1+lam^2 r^2)); vectorised over r >= 0."""
    r = np.asarray(r, dtype=float)
    return (4.0 * r * (lam * lam - 1.0) / ((1.0 + r * r) * (1.0 + lam * lam * r * r)))[()]


def norm_grad_log_chi_L2(lam: float) -> float:
    """L2 norm of the chart derivative d/dr log chi_lam against spherical
    area: its square is 8 pi int_0^inf (d/dr log chi_lam)^2 r (1+r^2)^(-2) dr,
    computed with r = tan(theta/2) as 2 pi int_0^pi (...)^2 sin(theta) dtheta
    by adaptive Gauss-Legendre panels.  The conformally invariant Dirichlet
    norm, 2 pi int (...)^2 r dr, is smaller (11.6 against 20.0 at lam = 10);
    :func:`grad_log_chi_l2_bound` lies above both on verify's c07 lam grid.
    """
    if not 1.0 <= lam < math.inf:
        raise ValueError("norm_grad_log_chi_L2 expects lam >= 1")

    def integrand(theta: np.ndarray) -> np.ndarray:
        g = grad_log_chi(lam, np.tan(0.5 * theta))
        return g * g * np.sin(theta)

    val = adaptive_gauss_legendre(integrand, 0.0, math.pi, rel_tol=_GRAD_LOG_CHI_REL_TOL)
    return math.sqrt(2.0 * math.pi * val)


def grad_log_chi_l2_bound(lam: float) -> float:
    """Closed-form upper bound for :func:`norm_grad_log_chi_L2`:
    4 sqrt(8 pi) ((lam+1)/lam) ((lam-1)/lam) (1/4 + 1/8 + log lam)^(1/2),
    obtained by splitting the radial integral at 1/lam and 1."""
    if not 1.0 <= lam < math.inf:
        raise ValueError("bound expects lam >= 1")
    return (4.0 * math.sqrt(8.0 * math.pi) * ((lam + 1.0) / lam)
            * ((lam - 1.0) / lam) * math.sqrt(0.25 + 0.125 + math.log(lam)))


# envelope constant for the two-regime growth of the bound:
# norm <= C log(lam) for lam <= e and C sqrt(log lam) for lam >= e,
# with C = 4 sqrt(8 pi) * 2 * sqrt(2)
GRAD_LOG_CHI_L2_REGIME_CONSTANT = 8.0 * math.sqrt(2.0) * math.sqrt(8.0 * math.pi)
