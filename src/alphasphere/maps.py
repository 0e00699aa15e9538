"""Pointwise evaluators for maps of the sphere and quadrature over it.

An evaluator answers, at any chart point zeta, with the image point on the
sphere, the energy density e(u) = |grad u|^2 / 2, and the signed Jacobian
density J(u).  For every map here |J| <= e pointwise, with equality exactly
at conformal points, and (1/4 pi) times the integral of J is the degree.

All maps in scope have closed-form pointwise data (fractional linear maps,
rotationally symmetric maps, and compositions with fractional linear maps),
so quadrature consumes evaluators directly and no interpolation enters the
bound checks.  Evaluators take complex chart points, or the points a
:class:`QuadratureGrid` lifted once to projective pairs (p, q), zeta = p/q
and max(|p|, |q|) = 1, which keeps every density finite through the poles
of the chart.  The map of M = (a, b; c, d) sends a pair to
(P, Q) = (a p + b q, c p + d q); its density
((|p|^2 + |q|^2)/(|P|^2 + |Q|^2))^2 is a Hermitian form of M*M evaluated on
the lifted points, and its position (2 P conj(Q), |P|^2 - |Q|^2)/(|P|^2 + |Q|^2)
reads off the image pair.  Pulling a fractional linear map back by another
one multiplies the matrices, so :class:`PullbackMap` serves the other maps.
"""

from __future__ import annotations

import math
import warnings
from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

from .mobius import MobiusElement, SpherePoint, _form_density, _Lifted, _lift, _sphere_xyz
from .quadrature import _rule
from .radial import RadialProfile

__all__ = [
    "NonIntegerDegreeWarning",
    "MapEvaluator",
    "MobiusMap",
    "ConjugationMap",
    "ConstantMap",
    "PullbackMap",
    "RadialMap",
    "identity_map",
    "mobius_map",
    "pullback",
    "QuadratureGrid",
    "make_grid",
    "degree",
    "EnergyReport",
    "energy_report",
]

_FLOOR_TOL = 1e-8   # quadrature slack of energy_report's degree-one floor check


class NonIntegerDegreeWarning(UserWarning):
    """Jacobian quadrature landed further than 0.01 from an integer."""


def _image_pair(m: MobiusElement, pts: _Lifted) -> tuple[np.ndarray, np.ndarray]:
    return m.a * pts.p + m.b * pts.q, m.c * pts.p + m.d * pts.q


class MapEvaluator(ABC):
    """Abstract pointwise description of a map from the sphere to itself.

    The methods accept complex chart coordinates (entries may be inf for
    the pole) or a grid's lifted points, which read as their chart
    coordinates wherever an array is expected.
    """

    @abstractmethod
    def position(self, z: np.ndarray) -> np.ndarray:
        """(3, N) array of image unit vectors."""

    @abstractmethod
    def density(self, z: np.ndarray) -> np.ndarray:
        """Energy density e(u) >= 0."""

    @abstractmethod
    def jacobian(self, z: np.ndarray) -> np.ndarray:
        """Signed Jacobian density, |J| <= e pointwise."""


class MobiusMap(MapEvaluator):
    """The fractional linear map itself, viewed as a map of the sphere.

    Holomorphic, hence conformal: J = e everywhere and the degree is 1.
    """

    def __init__(self, m: MobiusElement):
        self.m = m

    def position(self, z):
        return _sphere_xyz(*_image_pair(self.m, _lift(z)))

    def density(self, z):
        m = self.m
        return _form_density(m.a, m.b, m.c, m.d, _lift(z))

    def jacobian(self, z):
        return self.density(z)


class ConjugationMap(MapEvaluator):
    """zeta -> conj(zeta): an isometry reversing orientation (degree -1)."""

    def position(self, z):
        pts = _lift(z)
        return _sphere_xyz(np.conj(pts.p), np.conj(pts.q))

    def density(self, z):
        return np.ones(np.asarray(z).shape)

    def jacobian(self, z):
        return -np.ones(np.asarray(z).shape)


class ConstantMap(MapEvaluator):
    def __init__(self, q: SpherePoint):
        self.q = q

    def position(self, z):
        n = np.asarray(z).shape[0]
        return np.tile(self.q.as_array()[:, None], (1, n))

    def density(self, z):
        return np.zeros(np.asarray(z).shape)

    def jacobian(self, z):
        return np.zeros(np.asarray(z).shape)


class PullbackMap(MapEvaluator):
    """Composition u o M for an evaluator u and fractional linear M.  By
    the chain rule the conformal factor of M multiplies both e(u) and J(u)
    at the image point M zeta.  :func:`pullback` builds one only for u that
    is not itself fractional linear."""

    def __init__(self, u: MapEvaluator, m: MobiusElement):
        self.u = u
        self.m = m

    def _factor_and_image(self, z):
        pts, m = _lift(z), self.m
        factor = _form_density(m.a, m.b, m.c, m.d, pts)
        w, Q = _image_pair(m, pts)  # image P/Q in place of P, inf where Q = 0
        np.copyto(w, complex(math.inf, 0.0), where=Q == 0)
        return factor, np.divide(w, Q, out=w, where=Q != 0)

    def position(self, z):
        return self.u.position(self._factor_and_image(z)[1])

    def density(self, z):
        factor, w = self._factor_and_image(z)
        return factor * self.u.density(w)

    def jacobian(self, z):
        factor, w = self._factor_and_image(z)
        return factor * self.u.jacobian(w)


class RadialMap(MapEvaluator):
    """Equivariant map determined by a radial profile.

    The chart radius fixes the polar angle r = pi - 2 arctan|zeta| from the
    north pole; the image is (sin f cos t, sin f sin t, cos f) with t the
    chart argument.  e = (f'^2 + (sin f / sin r)^2)/2 and
    J = f' sin f / sin r; near the poles the ratio sin f / sin r is replaced
    by its limit f'.
    """

    def __init__(self, profile: RadialProfile):
        self.profile = profile

    def _polar(self, z):
        z = np.asarray(z, dtype=complex)
        # arctan(inf) = pi/2, so the pole lands exactly on r = 0
        return math.pi - 2.0 * np.arctan(np.abs(z)), np.angle(z)

    def _f_fp_ratio(self, r):
        f, fp = self.profile.value_and_slope(r)
        s = np.sin(r)
        safe = s > 1e-7
        ratio = np.where(safe, np.sin(f) / np.where(safe, s, 1.0), fp)
        return f, fp, ratio

    def position(self, z):
        r, ang = self._polar(z)
        f, _, _ = self._f_fp_ratio(r)
        sf = np.sin(f)
        return np.stack([sf * np.cos(ang), sf * np.sin(ang), np.cos(f)])

    def density(self, z):
        r, _ = self._polar(z)
        _, fp, ratio = self._f_fp_ratio(r)
        return 0.5 * (fp * fp + ratio * ratio)

    def jacobian(self, z):
        r, _ = self._polar(z)
        _, fp, ratio = self._f_fp_ratio(r)
        return fp * ratio


def identity_map() -> MobiusMap:
    return MobiusMap(MobiusElement.identity())


def mobius_map(m: MobiusElement) -> MobiusMap:
    return MobiusMap(m)


def pullback(u: MapEvaluator, m: MobiusElement) -> MapEvaluator:
    """u o m; for fractional linear u this is the map of the matrix product."""
    if isinstance(u, MobiusMap):
        return MobiusMap(u.m @ m)
    return PullbackMap(u, m)


@dataclass(frozen=True)
class QuadratureGrid:
    """Product quadrature on the sphere in stereographic polar coordinates:
    Gauss-Legendre in the polar angle against sin(theta) d theta, uniform
    (trapezoidal on the circle) in the chart argument.  Weights sum to
    4 pi; node summation is pairwise, hence deterministic.  The nodes are
    lifted once, and evaluators take ``lifted`` in place of ``zs``."""

    zs: np.ndarray
    weights: np.ndarray
    n_radial: int
    n_angular: int
    lifted: _Lifted = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "lifted", _lift(self.zs))

    def integrate(self, values: np.ndarray) -> float:
        return float(np.sum(self.weights * values))

    @property
    def total_weight(self) -> float:
        return float(np.sum(self.weights))


def make_grid(n_radial: int, n_angular: int) -> QuadratureGrid:
    if n_radial < 4 or n_angular < 4:
        raise ValueError("grid needs n_radial >= 4 and n_angular >= 4")
    x, w = _rule(n_radial)
    theta = 0.5 * math.pi * (x + 1.0)
    w_theta = 0.5 * math.pi * w * np.sin(theta)
    r = np.tan(0.5 * theta)
    phi = 2.0 * math.pi * np.arange(n_angular) / n_angular
    zs = np.outer(r, np.exp(1j * phi)).ravel()
    weights = np.outer(w_theta * (2.0 * math.pi / n_angular),
                       np.ones(n_angular)).ravel()
    return QuadratureGrid(zs=zs, weights=weights,
                          n_radial=n_radial, n_angular=n_angular)


def degree(u: MapEvaluator, grid: QuadratureGrid) -> tuple[float, int]:
    """(1/4 pi) times the Jacobian integral, raw and rounded; warns when
    the raw value sits further than 0.01 from the nearest integer."""
    raw = grid.integrate(u.jacobian(grid.lifted)) / (4.0 * math.pi)
    nearest = int(round(raw))
    if abs(raw - nearest) > 0.01:
        warnings.warn(f"degree quadrature {raw:.6f} is {abs(raw - nearest):.3g} "
                      "away from an integer; refine the grid",
                      NonIntegerDegreeWarning, stacklevel=2)
    return raw, nearest


@dataclass(frozen=True)
class EnergyReport:
    """Energy/degree summary for one map at one exponent."""

    alpha: float
    e_alpha: float
    e_dirichlet_plus_area: float
    degree: float
    degree_int: int
    floor_2_2a1_pi: float
    passes_floor: bool


def energy_report(u: MapEvaluator, alpha: float,
                  grid: QuadratureGrid) -> EnergyReport:
    """Report e_alpha, the Dirichlet-plus-area integral of (1 + e), the
    degree, and whether a degree-1 map clears the floor 2^(2 alpha + 1) pi.
    """
    from .energy import alpha_energy, energy_floor  # local import: energy builds on maps

    if alpha < 1.0:
        raise ValueError("alpha must be >= 1")
    dens = u.density(grid.lifted)
    e1 = grid.integrate(1.0 + dens)
    ea = alpha_energy(u, alpha, grid)
    raw, nearest = degree(u, grid)
    floor = energy_floor(alpha)
    passes = (nearest != 1) or (ea >= floor - _FLOOR_TOL)
    return EnergyReport(alpha=alpha, e_alpha=ea, e_dirichlet_plus_area=e1,
                        degree=raw, degree_int=nearest,
                        floor_2_2a1_pi=floor, passes_floor=passes)
