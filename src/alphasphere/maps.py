"""Pointwise evaluators for maps of the sphere and quadrature over it.

An evaluator answers, at any chart point zeta, with the image point on the
sphere, the energy density e(u) = |grad u|^2 / 2, and the signed Jacobian
density J(u).  For every map here |J| <= e pointwise, with equality exactly
at conformal points, and (1/4 pi) times the integral of J is the degree.

All maps in scope have closed-form pointwise data (fractional linear maps,
rotationally symmetric maps, and compositions with fractional linear maps),
so quadrature consumes evaluators directly and no interpolation enters the
bound checks.  Evaluators take complex chart points or a grid, whose nodes
:class:`QuadratureGrid` lifts once to projective pairs (p, q), zeta = p/q
and max(|p|, |q|) = 1, which keeps every density finite through the poles
of the chart.  The map of M sends a pair to its image pair (P, Q) = M (p, q)
(:mod:`alphasphere.mobius`); its density ((|p|^2 + |q|^2)/(|P|^2 + |Q|^2))^2
is a Hermitian form of M*M on the lifted points, and its position
(2 P conj(Q), |P|^2 - |Q|^2)/(|P|^2 + |Q|^2) reads off the image pair.
Pulling a fractional linear map back by another multiplies the matrices, so
:class:`PullbackMap`, at ``mobius_apply``'s image points, serves the others.
Evaluators are immutable, so :class:`MobiusMap`, :class:`PullbackMap` and
:class:`RadialMap` keep their density on the last grid given, read-only.
"""

from __future__ import annotations

import functools
import math
import warnings
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from .mobius import (MobiusElement, SpherePoint, _form_density, _image_pair, _Lifted,
                     _lift, _sphere_xyz, mobius_apply)
from .quadrature import _rule
from .radial import RadialProfile

__all__ = [
    "NonIntegerDegreeWarning", "MapEvaluator", "MobiusMap", "ConjugationMap", "ConstantMap",
    "PullbackMap", "RadialMap", "identity_map", "pullback", "QuadratureGrid", "make_grid",
    "degree",
]


class NonIntegerDegreeWarning(UserWarning):
    """Jacobian quadrature landed further than 0.01 from an integer."""


class MapEvaluator(ABC):
    """Abstract pointwise description of a map from the sphere to itself.

    The methods accept complex chart coordinates (entries may be inf for
    the pole) or a grid, which reads as its chart coordinates wherever an
    array is expected.
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


def _per_grid(density):
    """``density``, kept read-only for the last grid given (by identity), not for points."""
    @functools.wraps(density)
    def memoised(self, z):
        grid = isinstance(z, QuadratureGrid)
        if grid and getattr(self, "_memo", (None,))[0] is not z:
            self._memo = (z, density(self, z))
            self._memo[1].flags.writeable = False
        return self._memo[1] if grid else density(self, z)
    return memoised


class MobiusMap(MapEvaluator):
    """The fractional linear map itself, viewed as a map of the sphere.

    Holomorphic, hence conformal: J = e everywhere and the degree is 1.
    """

    def __init__(self, m: MobiusElement):
        self.m = m

    def position(self, z):
        return _sphere_xyz(*_image_pair(self.m, _lift(z)))

    @_per_grid
    def density(self, z):
        return _form_density(self.m, _lift(z))

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
        return np.multiply.outer([self.q.x, self.q.y, self.q.z], np.ones(np.shape(z)))

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
        pts = _lift(z)
        return _form_density(self.m, pts), mobius_apply(self.m, pts)

    def position(self, z):
        return self.u.position(mobius_apply(self.m, z))

    @_per_grid
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

    def _fields(self, z):
        """f, f' and sin f / sin r at the chart points' polar angles r."""
        # arctan(inf) = pi/2, so the pole lands exactly on r = 0
        r = math.pi - 2.0 * np.arctan(np.abs(np.asarray(z, dtype=complex)))
        f, fp = self.profile.value_and_slope(r)
        s = np.sin(r)
        safe = s > 1e-7
        return f, fp, np.where(safe, np.sin(f) / np.where(safe, s, 1.0), fp)

    def position(self, z):
        f = self._fields(z)[0]
        sf, ang = np.sin(f), np.angle(z)
        return np.stack([sf * np.cos(ang), sf * np.sin(ang), np.cos(f)])

    @_per_grid
    def density(self, z):
        _, fp, ratio = self._fields(z)
        return 0.5 * (fp * fp + ratio * ratio)

    def jacobian(self, z):
        _, fp, ratio = self._fields(z)
        return fp * ratio


def identity_map() -> MobiusMap:
    return MobiusMap(MobiusElement.identity())


def pullback(u: MapEvaluator, m: MobiusElement) -> MapEvaluator:
    """u o m; for fractional linear u this is the map of the matrix product."""
    if isinstance(u, MobiusMap):
        return MobiusMap(u.m @ m)
    return PullbackMap(u, m)


@dataclass(frozen=True, eq=False)
class QuadratureGrid(_Lifted):
    """Product quadrature on the sphere in stereographic polar coordinates:
    Gauss-Legendre in the polar angle against sin(theta) d theta, uniform
    (trapezoidal on the circle) in the chart argument.  Weights sum to
    4 pi; node summation is pairwise, hence deterministic.  A grid is its
    nodes lifted once, so evaluators take the grid itself."""

    weights: np.ndarray

    def integrate(self, values: np.ndarray) -> float:
        return float(np.sum(self.weights * values))


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
    return QuadratureGrid(**vars(_lift(zs)), weights=weights)


def degree(u: MapEvaluator, grid: QuadratureGrid) -> tuple[float, int]:
    """(1/4 pi) times the Jacobian integral, raw and rounded; warns when
    the raw value sits further than 0.01 from the nearest integer."""
    raw = grid.integrate(u.jacobian(grid)) / (4.0 * math.pi)
    nearest = int(round(raw))
    if abs(raw - nearest) > 0.01:
        warnings.warn(f"degree quadrature {raw:.6f} is {abs(raw - nearest):.3g} "
                      "away from an integer; refine the grid",
                      NonIntegerDegreeWarning, stacklevel=2)
    return raw, nearest
