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


def _grad_log_chi_40_squared(theta):
    # the squared gradient of log chi_40 over theta, as in norm_grad_log_chi_L2
    return grad_log_chi(40.0, np.tan(0.5 * theta)) ** 2 * np.sin(theta)


def test_quadrature_non_convergence_raises():
    # roundoff keeps every panel's error estimate far above a relative
    # tolerance of 1e-30, so refinement hits its budget
    with pytest.raises(QuadratureConvergenceError, match="within 4000 panels"):
        adaptive_gauss_legendre(_grad_log_chi_40_squared, 0.0, math.pi, rel_tol=1e-30)


# ------------------------------------------------------------ prefix mode

def _exp400(t):
    return np.exp(t - 400.0)


def test_prefixes_meet_their_own_relative_tolerance():
    # the prefixes of e^(t - 400) (1.5 + sin 20t) from 0 span 1e-170 to 1;
    # each segment holds some 25 periods, so the early ones need refining
    # for their own prefix though they add nothing to the last
    ends = np.linspace(9.0, 400.0, 50)
    vals = adaptive_gauss_legendre(lambda t: _exp400(t) * (1.5 + np.sin(20.0 * t)), 0.0, ends,
                                   rel_tol=1e-12)
    exact = np.array([math.exp(-400.0) * (1.5 * math.expm1(b) + (
        math.exp(b) * (math.sin(20.0 * b) - 20.0 * math.cos(20.0 * b)) + 20.0) / 401.0)
        for b in ends])
    assert vals.shape == ends.shape and 1e-171 < exact[0] < 1e-169
    assert np.all(np.abs(vals - exact) <= 1e-12 * exact)


def test_one_element_array_gives_the_scalar_bits():
    for f, b in ((_exp400, 400.0), (np.cos, 1.0), (lambda t: t ** 3 - t, 2.5)):
        scalar = adaptive_gauss_legendre(f, 0.0, b, rel_tol=1e-12)
        [element] = adaptive_gauss_legendre(f, 0.0, np.array([b]), rel_tol=1e-12)
        assert isinstance(scalar, float) and element == scalar


def test_duplicate_ends_give_identical_values():
    ends = np.array([0.0, 1.0, 1.0, 2.0, 2.0, 2.0, 3.0])
    vals = adaptive_gauss_legendre(np.exp, 0.0, ends, rel_tol=1e-12)
    assert vals[0] == 0.0 and vals[1] == vals[2] and vals[3] == vals[4] == vals[5]
    assert np.all(np.abs(vals - np.expm1(ends)) <= 1e-12 * np.expm1(ends))


@pytest.mark.parametrize("ends", [[2.0, 1.0], [-1.0, 1.0], [1.0, math.nan],
                                  [1.0, math.inf], [math.nan], []],
                         ids=["unsorted", "below-a", "nan", "inf", "nan-only", "empty"])
def test_bad_ends_raise(ends):
    with pytest.raises(ValueError, match="sorted"):
        adaptive_gauss_legendre(np.exp, 0.0, np.array(ends), rel_tol=1e-12)


def test_log_scale_keeps_every_prefix_in_double_range():
    # int_0^b e^(3t) dt overflows doubles past b = 237; with log_scale each
    # prefix comes back to rel_tol in units of e^(3b), as (1 - e^(-3b)) / 3
    ends = np.array([1e-3, 1.0, 100.0, 237.0, 400.0])
    vals = adaptive_gauss_legendre(lambda t: 3.0 * t, 0.0, ends, rel_tol=1e-12,
                                   log_scale=3.0 * ends)
    exact = -np.expm1(-3.0 * ends) / 3.0
    assert np.all(np.abs(vals - exact) <= 1e-12 * exact)


def test_prefix_mode_non_convergence_raises():
    # three segments start with three panels, and refinement may add 3999
    with pytest.raises(QuadratureConvergenceError, match="within 4002 panels"):
        adaptive_gauss_legendre(_grad_log_chi_40_squared, 0.0, np.array([1.0, 2.0, math.pi]),
                                rel_tol=1e-30)


def test_many_ends_get_the_refinement_budget_of_one_call():
    # 10 000 ends near 0 converge on their first panels; the one long last
    # segment still gets the refinement that a scalar call would
    ends = np.concatenate((np.linspace(1e-3, 1.0, 10_000), [40.0]))
    vals = adaptive_gauss_legendre(np.exp, 0.0, ends, rel_tol=1e-12)
    assert abs(vals[-1] - math.expm1(40.0)) <= 1e-12 * math.expm1(40.0)
