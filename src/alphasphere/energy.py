"""Perturbed Dirichlet energies on the sphere and their dilation calculus.

For exponent alpha >= 1 the energy of a map u is

    E_alpha(u) = (1/2) int (2 + |grad u|^2)^alpha dA
               = 2^(alpha-1) int (1 + e(u))^alpha dA,

and the deformed family twisted by the dilation factor chi_lam is

    E_(alpha,lam)(v) = (1/2) int (2 + chi_lam |grad v|^2)^alpha / chi_lam dA,

which satisfies E_alpha(u) = E_(alpha,lam)(u o m_lam) for the dilation
m_lam(zeta) = lam zeta.  On the identity the family has the closed form

    E_alpha(m_(e^tau)) = 2^(2 alpha + 1) pi / sinh(tau)
                         * int_0^tau (cosh t)^alpha cosh((alpha-1) t) dt
                       = 2^(2 alpha + 1) pi * G(sigma),

with beta = alpha - 1 and sigma = beta * tau.  The excess
xi = E_alpha(m_lam) - 2^(2 alpha + 1) pi is integrated cancellation-free as

    (cosh t)^alpha cosh(beta t) - cosh t
        = cosh(t) * expm1(beta log cosh t + log cosh(beta t)),

so xi is accurate in absolute terms even for lam barely above 1, and
dilation_energy(alpha, lam).G comes from it alone.  G', the derivative of
the dilation energy in log lam up to the factor beta * 2^(2 alpha + 1) pi,
is the independent route, its own quadrature

    G'(sigma) = cosh(sigma/beta) / (beta sinh^2(sigma/beta))
                * int_0^sigma sinh(s/beta) (cosh(s/beta))^(beta-1)
                              sinh(alpha s / beta) ds.

Both integrands are positive and increasing.  Both quantities take an array
of tau (sigma), whose integrals are prefixes of one: one quadrature pass
returns them all, each segment given as a log and divided by the
integrand's value at its own right end, which keeps every value in (0, 1]
however large sigma is.  The explicit lower-bound constants are those of
check_xi_lower_bounds and check_growth.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .mobius import chi_values
from .maps import MapEvaluator, QuadratureGrid, degree
from .quadrature import adaptive_gauss_legendre

__all__ = [
    "RegimeError", "DilationEnergyResult", "BoundCheck", "EnergyReport", "alpha_energy",
    "energy_report", "e_alpha_lambda", "dilation_energy", "Gprime", "check_xi_lower_bounds",
    "check_growth", "d_energy_d_loglambda", "eaclose_gap", "energy_floor",
    "XI_SIGMA_LARGE_CONSTANT", "XI_SIGMA_SMALL_CONSTANT", "GROWTH_THETA_CONSTANT",
]

_LOG2 = math.log(2.0)
_LOG_MAX = math.log(sys.float_info.max)   # exp overflows exactly above this
_XI_REL_TOL = 1e-12       # quadrature tolerance of the excess xi
_GPRIME_REL_TOL = 1e-11   # quadrature tolerance of G'
_FLOOR_TOL = 1e-10        # relative quadrature slack of energy_report's degree-one floor check


class RegimeError(ValueError):
    """Parameters fall outside the regime a bound is stated for."""


def _pow2(x: float) -> float:
    """2^x, and inf where that leaves double range (x >= 1024)."""
    return math.inf if x >= 1024.0 else 2.0 ** x


def energy_floor(alpha: float) -> float:
    """2^(2 alpha + 1) pi, the least energy of a degree-one map."""
    return _pow2(2.0 * alpha + 1.0) * math.pi


# explicit lower-bound constants: of xi for sigma >= 2 and for log lam <= 1, and
# the max of tanh(t)(1 - cosh(t)/sinh 1), attained where cosh^3 t = sinh 1
XI_SIGMA_LARGE_CONSTANT = (math.e ** 2 - math.e - 2.0) / (2.0 * math.e ** 4)
XI_SIGMA_SMALL_CONSTANT = 1.0 / (6.0 * math.cosh(1.0) ** 2)
GROWTH_THETA_CONSTANT = (1.0 - math.sinh(1.0) ** (-2.0 / 3.0)) ** 1.5


@dataclass(frozen=True)
class DilationEnergyResult:
    """Dilation energy E_alpha(m_lam) together with its excess over the degree-one
    floor and the normalised profile G; for an array of lam, every field but
    alpha is an array, and ``res[i]`` is the scalar result at index i."""

    alpha: float
    lam: float
    tau: float
    sigma: float
    value: float
    G: float
    xi: float
    log_excess: float   # log(G - 1), finite where xi overflows

    def __getitem__(self, i) -> "DilationEnergyResult":
        return DilationEnergyResult(**{k: v if np.ndim(v) == 0 else float(v[i])
                                       for k, v in vars(self).items()})


@dataclass(frozen=True)
class BoundCheck:
    """Record of one inequality evaluation.

    Every bound reads lhs >= rhs, and ``margin`` = lhs - rhs, so that
    nonnegative means the bound holds.
    """

    name: str
    lhs: float
    rhs: float
    margin: float
    passed: bool
    regime: str | None = None

    @classmethod
    def compare(cls, name: str, lhs: float, rhs: float, *,
                regime: str | None = None) -> "BoundCheck":
        margin = lhs - rhs
        return cls(name=name, lhs=lhs, rhs=rhs, margin=margin,
                   passed=bool(margin >= 0.0), regime=regime)


def _log_cosh(t: np.ndarray) -> np.ndarray:
    t = np.abs(np.asarray(t, dtype=float))
    big = t > 20.0
    ts = np.where(big, 0.0, t)
    # log1p(2 sinh^2(t/2)) keeps full relative accuracy down to t = 0
    small_val = np.log1p(2.0 * np.sinh(0.5 * ts) ** 2)
    return np.where(big, t - _LOG2 + np.log1p(np.exp(-2.0 * t)), small_val)


def _log_sinh(t: np.ndarray) -> np.ndarray:
    return t - _LOG2 + np.log(-np.expm1(-2.0 * t))


def _scaled_integral(log_f, log_prefactor, b: np.ndarray, rel_tol: float) -> np.ndarray:
    """log_prefactor(b) + log of int_0^b exp(log_f) at every element of the
    positive 1-d array b, for an integrand positive and increasing on
    [0, max b], by one prefix pass of the quadrature.  Far past double range
    it stops converging, so where the integral's lower bound (b/2) f(b/2)
    already puts the result past _LOG_MAX, that bound is returned instead:
    either exponentiates to inf."""
    order = np.argsort(b)
    ends = b[order]
    log_end, offset = log_f(ends), log_prefactor(ends)
    res = offset + log_end + np.log(ends)
    far = res > _LOG_MAX
    if far.any():
        res[far] = offset[far] + np.log(0.5 * ends[far]) + log_f(0.5 * ends[far])
        far &= res > _LOG_MAX
    if not far.all():
        scaled = adaptive_gauss_legendre(log_f, 0.0, ends[~far], rel_tol=rel_tol,
                                         log_scale=log_end[~far])
        res[~far] = offset[~far] + (log_end[~far] + np.log(scaled))
    return res[np.argsort(order)]


def _exp_or_inf(x: float) -> float:
    return math.inf if x > _LOG_MAX else math.exp(x)


def _log_excess_ratio(alpha: float, tau: np.ndarray) -> np.ndarray:
    """log(G(sigma) - 1) at every tau = |log lam| of an array, without
    cancellation; finite for finite tau > 0, and a lower bound past _LOG_MAX."""
    beta = alpha - 1.0
    out, pos = np.full(tau.shape, -math.inf), tau > 0.0
    if beta == 0.0:
        return out

    # log of cosh(t) expm1(g) with g = beta log cosh t + log cosh(beta t),
    # using log expm1(g) = g + log(-expm1(-g))
    def log_phi(t: np.ndarray) -> np.ndarray:
        lc = _log_cosh(t)
        g = beta * lc + _log_cosh(beta * t)
        return lc + g + np.log(-np.expm1(-g))

    out[pos] = _scaled_integral(log_phi, lambda t: -_log_sinh(t), tau[pos], _XI_REL_TOL)
    return out


@np.errstate(over="ignore", invalid="ignore")   # inf and nan, silently as in float arithmetic
def dilation_energy(alpha: float, lam) -> DilationEnergyResult:
    """Closed-form energy of the dilation zeta -> lam zeta, at one lam or,
    from one quadrature pass, at every lam of an array.

    Symmetric in lam <-> 1/lam by construction (only |log lam| enters);
    equals 2^(2 alpha + 1) pi exactly at lam = 1 and for alpha = 1 at
    every lam.  Raises ValueError unless alpha >= 1 and 0 < lam < inf.
    """
    if not 1.0 <= alpha < math.inf:
        raise ValueError("alpha must be finite and >= 1")
    lams = np.array(lam, dtype=float, ndmin=1)   # a copy, kept by the result
    if not ((0.0 < lams) & (lams < math.inf)).all():
        raise ValueError("lam must be finite and positive")
    tau, beta, base = np.log(lams), alpha - 1.0, energy_floor(alpha)
    log_excess = _log_excess_ratio(alpha, np.abs(tau))
    ratio = np.exp(log_excess)
    xi = base * ratio
    res = DilationEnergyResult(alpha=alpha, lam=lams, tau=tau, sigma=beta * tau,
                               value=base + xi, G=1.0 + ratio, xi=xi, log_excess=log_excess)
    return res if np.ndim(lam) else res[0]


@np.errstate(over="ignore")   # inf is G' past double range
def Gprime(alpha: float, sigma):
    """G'(sigma), the derivative of the normalised dilation-energy profile
    G = dilation_energy(alpha, e^(sigma/beta)).G, by its own integral: a
    route independent of the excess quadrature that gives G, so their
    consistency is a finite-difference test away; an array of sigma gives an
    array.  Requires 1 < alpha < inf (the change of variables degenerates at
    beta = 0) and 0 <= sigma < inf."""
    beta = alpha - 1.0
    if not 0.0 < beta < math.inf:
        raise ValueError("G' needs finite alpha > 1")
    sig = np.asarray(sigma, dtype=float)
    if not ((0.0 <= sig) & (sig < math.inf)).all():
        raise ValueError("sigma must be finite and >= 0")

    # log of the increasing integrand sinh(s/beta) cosh(s/beta)^(beta-1) sinh(alpha s/beta)
    def log_k(s: np.ndarray) -> np.ndarray:
        sb = s / beta
        return _log_sinh(sb) + (beta - 1.0) * _log_cosh(sb) + _log_sinh(alpha * sb)

    def log_prefactor(s: np.ndarray) -> np.ndarray:   # of cosh(s/beta) / (beta sinh^2(s/beta))
        return _log_cosh(s / beta) - math.log(beta) - 2.0 * _log_sinh(s / beta)

    out, pos = np.zeros(sig.shape), sig > 0.0
    out[pos] = np.exp(_scaled_integral(log_k, log_prefactor, sig[pos], _GPRIME_REL_TOL))
    return float(out) if np.ndim(sigma) == 0 else out


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
    degree, and whether a degree-1 map clears the floor 2^(2 alpha + 1) pi
    up to a relative slack of 1e-10."""
    if not 1.0 <= alpha < math.inf:
        raise ValueError("alpha must be >= 1")
    dens = u.density(grid)
    e1 = grid.integrate(1.0 + dens)
    ea = _deformed_energy(1.0, dens, alpha, grid)
    raw, nearest = degree(u, grid)
    floor = energy_floor(alpha)
    passes = (nearest != 1) or (ea >= floor * (1.0 - _FLOOR_TOL))
    return EnergyReport(alpha=alpha, e_alpha=ea, e_dirichlet_plus_area=e1,
                        degree=raw, degree_int=nearest,
                        floor_2_2a1_pi=floor, passes_floor=passes)


def alpha_energy(u: MapEvaluator, alpha: float, grid: QuadratureGrid) -> float:
    """E_alpha(u) = 2^(alpha-1) int (1 + e(u))^alpha dA by grid quadrature."""
    if not 1.0 <= alpha < math.inf:
        raise ValueError("alpha must be >= 1")
    return _deformed_energy(1.0, u.density(grid), alpha, grid)


def e_alpha_lambda(u: MapEvaluator, alpha: float, lam: float,
                   grid: QuadratureGrid) -> float:
    """Deformed energy E_(alpha,lam)(u); at lam = 1 this is alpha_energy."""
    if not (1.0 <= alpha < math.inf and 1.0 <= lam < math.inf):
        raise ValueError("needs alpha >= 1 and lam >= 1")
    return _deformed_energy(chi_values(lam, grid), u.density(grid), alpha, grid)


@np.errstate(over="ignore")   # inf is the energy reported past double range
def _deformed_energy(ch, dens, alpha: float, grid: QuadratureGrid) -> float:
    """2^(alpha-1) int (1 + chi e)^alpha / chi dA on the grid; chi = 1 gives E_alpha."""
    return _pow2(alpha - 1.0) * grid.integrate((1.0 + ch * dens) ** alpha / ch)


def d_energy_d_loglambda(u: MapEvaluator, alpha: float, lam: float,
                         grid: QuadratureGrid) -> float:
    """Derivative of E_(alpha,lam)(u) in log lam at fixed u:

        int (2 + chi_lam W)^(alpha-1) ((alpha-1) W - 2/chi_lam) z(lam zeta) dA

    with W = |grad u|^2 and z the height of the dilated chart point,
    (lam^2 |p|^2 - |q|^2)/(lam^2 |p|^2 + |q|^2) on the lifted pair."""
    if not (1.0 <= alpha < math.inf and 1.0 <= lam < math.inf):
        raise ValueError("needs alpha >= 1 and lam >= 1")
    ch = chi_values(lam, grid)
    W = 2.0 * u.density(grid)
    t = lam * lam * grid.pp
    height = (t - grid.qq) / (t + grid.qq)
    vals = (2.0 + ch * W) ** (alpha - 1.0) * ((alpha - 1.0) * W - 2.0 / ch) * height
    return grid.integrate(vals)


def check_xi_lower_bounds(res: DilationEnergyResult) -> list[BoundCheck]:
    """Evaluate the applicable explicit lower bounds on the excess xi of the
    scalar dilation energy ``res``.

    Large regime (sigma >= 2):   xi >= base * (e^2-e-2)/(2 e^4) * lam^(2a-2)
    Small regime (log lam <= 1): xi >= base * (a-1) (log lam)^2 / (6 cosh^2 1)
    Middle regime (a-1 <= sigma <= 2): no explicit constant exists in
    closed form; the check composes the adjacent explicit constants,
    xi >= base * [beta/(6 cosh^2 1) + C_theta (sigma - beta)], and is named
    ``xi_sigma_mid_composed`` to flag that.  The large-regime verdict
    compares log excesses, finite where both sides overflow; for alpha <= 2
    and finite lam the lower bound of :func:`_scaled_integral` stays below
    360, so that log is the quadrature's value.
    """
    if not 1.0 < res.alpha <= 2.0:
        raise RegimeError("bounds are stated for 1 < alpha <= 2")
    if not res.lam >= 1.0:
        raise RegimeError("bounds are stated for lam >= 1")
    base, beta, tau, sigma, xi = energy_floor(res.alpha), res.alpha - 1, res.tau, res.sigma, res.xi
    checks: list[BoundCheck] = []
    if sigma >= 2.0:
        log_gap = res.log_excess - math.log(XI_SIGMA_LARGE_CONSTANT) - 2.0 * sigma
        rhs = base * XI_SIGMA_LARGE_CONSTANT * _exp_or_inf(2.0 * sigma)
        margin = xi - rhs if rhs < math.inf else math.copysign(math.inf, log_gap)
        checks.append(BoundCheck("xi_sigma_large", xi, rhs, margin, log_gap >= 0.0,
                                 regime="sigma_large"))
    if beta <= sigma <= 2.0:
        rhs = base * (beta * XI_SIGMA_SMALL_CONSTANT
                      + GROWTH_THETA_CONSTANT * (sigma - beta))
        checks.append(BoundCheck.compare("xi_sigma_mid_composed", xi, rhs,
                                         regime="sigma_mid"))
    if tau <= 1.0:
        rhs = base * beta * tau * tau * XI_SIGMA_SMALL_CONSTANT
        checks.append(BoundCheck.compare("xi_sigma_small", xi, rhs,
                                         regime="sigma_small"))
    return checks


def check_growth(alpha: float, lam: float, gprime: float) -> BoundCheck:
    """Check the growth of the dilation energy in log lam against the
    explicit derivative bounds: G' >= sigma/(3 beta cosh^2 1) below
    sigma = beta, and G' >= the optimised theta constant above it; gprime
    is Gprime(alpha, sigma) at sigma = (alpha - 1) log lam."""
    if not 1.0 < alpha <= 2.0:
        raise RegimeError("growth bound is stated for 1 < alpha <= 2")
    if not lam >= 1.0:
        raise RegimeError("growth bound is stated for lam >= 1")
    beta = alpha - 1.0
    sigma = beta * math.log(lam)
    if not 0.0 <= sigma <= 2.0:
        raise RegimeError("growth bound needs 0 <= (alpha-1) log lam <= 2")
    base = energy_floor(alpha)
    lhs = beta * base * gprime
    if sigma <= beta:
        rhs = beta * base * sigma / (3.0 * beta * math.cosh(1.0) ** 2)
        regime = "sigma_small"
    else:
        rhs = beta * base * GROWTH_THETA_CONSTANT
        regime = "sigma_mid"
    return BoundCheck.compare("growth_dloglam", lhs, rhs, regime=regime)


def eaclose_gap(u: MapEvaluator, alpha: float, lam: float,
                grid: QuadratureGrid) -> BoundCheck:
    """Mean-value bound for the deformed energy gap:

        E_(alpha,lam)(v) - E_(alpha,lam)(Id)
            >= -alpha 2^(alpha-2) (1 + lam^2)^(alpha-1) || |grad v|^2 - 2 ||_1.
    """
    if not (1.0 <= alpha <= 2.0 and 1.0 <= lam < math.inf):
        raise RegimeError("gap bound is stated for 1 <= alpha <= 2, lam >= 1")
    ch, dens = chi_values(lam, grid), u.density(grid)
    # the identity's density is exactly 1 on the lifted points
    lhs = _deformed_energy(ch, dens, alpha, grid) - _deformed_energy(ch, 1.0, alpha, grid)
    l1 = grid.integrate(np.abs(2.0 * dens - 2.0))
    rhs = -alpha * 2.0 ** (alpha - 2.0) * (1.0 + lam * lam) ** (alpha - 1.0) * l1
    return BoundCheck.compare("deformed_energy_gap", lhs, rhs)

