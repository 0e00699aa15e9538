"""Shooting construction of critical radial profiles: the independent ODE
oracle that the tests compare the direct minimiser against.

It integrates the critical-profile equation of :mod:`alphasphere.radial`
from r = 0 with scipy's DOP853 and matches f(pi) = n*pi by a bracketed
root search over the initial slope, so it shares no discretisation with
:func:`alphasphere.minimize_radial`.
"""

from __future__ import annotations

import math

import numpy as np

from alphasphere import RadialProfile

_PI = math.pi
# shooting: series start at r = _SHOOT_EPS, DOP853 tolerances, the
# returned profile's node count and the slope bracket's expansion budget
_SHOOT_EPS, _SHOOT_RTOL, _SHOOT_ATOL = 1e-6, 1e-10, 1e-12
_SHOOT_NODES, _SHOOT_EXPAND = 2001, 60


class ShootFailedError(RuntimeError):
    """The shooting integrator blew up before reaching the far endpoint."""

    def __init__(self, message: str, last_r: float):
        super().__init__(message)
        self.last_r = last_r


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
