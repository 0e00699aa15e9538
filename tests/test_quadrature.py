import math

import numpy as np

from alphasphere import adaptive_gauss_legendre


def test_adaptive_gauss_legendre_refines_to_closed_form():
    calls = []

    def f(t):
        calls.append(t.size)
        return np.exp(t - 400.0)

    val = adaptive_gauss_legendre(f, 0.0, 400.0, rel_tol=1e-12)
    assert abs(val - (1.0 - math.exp(-400.0))) < 1e-12
    assert len(calls) >= 3  # one integrand call per refinement level
    assert adaptive_gauss_legendre(f, 0.0, 400.0, rel_tol=1e-12) == val
