import math

import numpy as np
import pytest

from alphasphere import QuadratureConvergenceError, adaptive_gauss_legendre, grad_log_chi


def test_adaptive_gauss_legendre_refines_to_closed_form():
    calls = []

    def f(t):
        calls.append(t.size)
        return np.exp(t - 400.0)

    val = adaptive_gauss_legendre(f, 0.0, 400.0, rel_tol=1e-12)
    assert abs(val - (1.0 - math.exp(-400.0))) < 1e-12
    assert len(calls) >= 3  # one integrand call per refinement level
    assert adaptive_gauss_legendre(f, 0.0, 400.0, rel_tol=1e-12) == val


def test_quadrature_non_convergence_raises():
    # the squared gradient of log chi_40 over theta, as in
    # norm_grad_log_chi_L2: roundoff keeps every panel's error estimate far
    # above a relative tolerance of 1e-30, so refinement hits its budget
    def f(theta):
        return grad_log_chi(40.0, np.tan(0.5 * theta)) ** 2 * np.sin(theta)

    with pytest.raises(QuadratureConvergenceError, match="within 4000 panels"):
        adaptive_gauss_legendre(f, 0.0, math.pi, rel_tol=1e-30)
