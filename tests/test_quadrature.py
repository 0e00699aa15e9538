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


def _exact_increasing(b):
    # int_0^b e^(t - 400) (1.5 + sin 20t) dt
    return math.exp(-400.0) * (1.5 * math.expm1(b) + (
        math.exp(b) * (math.sin(20.0 * b) - 20.0 * math.cos(20.0 * b)) + 20.0) / 401.0)


def _exact_decreasing(b):
    # int_0^b e^(-t) (1.5 + sin 20t) dt
    return 1.5 * -math.expm1(-b) + (
        20.0 - math.exp(-b) * (math.sin(20.0 * b) + 20.0 * math.cos(20.0 * b))) / 401.0


@pytest.mark.parametrize("f, exact, first", [
    (lambda t: _exp400(t) * (1.5 + np.sin(20.0 * t)), _exact_increasing, (1e-171, 1e-169)),
    (lambda t: np.exp(-t) * (1.5 + np.sin(20.0 * t)), _exact_decreasing, (1.5, 1.6))],
    ids=["increasing", "decreasing"])
def test_prefixes_meet_their_own_relative_tolerance(f, exact, first):
    # each segment holds some 25 periods.  The increasing prefixes span
    # 1e-170 to 1, so the early segments need refining for their own prefix
    # though they add nothing to the last; the decreasing ones end in
    # segments that vanish inside their prefixes
    ends = np.linspace(9.0, 400.0, 50)
    vals = adaptive_gauss_legendre(f, 0.0, ends, rel_tol=1e-12)
    ref = np.array([exact(b) for b in ends])
    assert vals.shape == ends.shape and first[0] < ref[0] < first[1]
    assert np.all(np.abs(vals - ref) <= 1e-12 * ref)


def test_one_element_array_gives_the_scalar_bits():
    for f, b in ((_exp400, 400.0), (np.cos, 1.0), (lambda t: t ** 3 - t, 2.5)):
        scalar = adaptive_gauss_legendre(f, 0.0, b, rel_tol=1e-12)
        [element] = adaptive_gauss_legendre(f, 0.0, np.array([b]), rel_tol=1e-12)
        assert isinstance(scalar, float) and element == scalar


def test_duplicate_ends_give_identical_values():
    # the second input has 200 ends, as many as c04 passes, so one level sums
    # many segments at once, empty ones among them; the third is its log mode,
    # whose prefixes in units of e^b are -expm1(-b)
    rng = np.random.default_rng(34)
    many = np.sort(np.concatenate((np.zeros(3), rng.integers(1, 601, 197) / 10.0)))
    assert many.size == 200 and np.unique(many).size < 180
    few = np.array([0.0, 1.0, 1.0, 2.0, 2.0, 2.0, 3.0])
    for ends, f, log_scale, exact in ((few, np.exp, None, np.expm1(few)),
                                      (many, np.exp, None, np.expm1(many)),
                                      (many, lambda t: t, many, -np.expm1(-many))):
        vals = adaptive_gauss_legendre(f, 0.0, ends, rel_tol=1e-12, log_scale=log_scale)
        repeat = np.flatnonzero(ends[1:] == ends[:-1])
        assert np.all(vals[ends == 0.0] == 0.0) and np.all(vals[repeat] == vals[repeat + 1])
        assert np.all(np.abs(vals - exact) <= 1e-12 * exact)


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


def test_rule_arrays_are_read_only():
    # one cached pair per order is shared by every caller
    from alphasphere.quadrature import _rule
    for a in _rule(12):
        with pytest.raises(ValueError):
            a[0] = 0.0


RULE_ORDERS = [*range(4, 65), 150, 151, 300, 600, 1000]


@pytest.mark.parametrize("n", RULE_ORDERS)
def test_rule_is_symmetric_with_a_zero_middle_node(n):
    from alphasphere.quadrature import _rule
    x, w = _rule(n)
    assert x.shape == w.shape == (n,)
    assert (x == -x[::-1]).all() and (w == w[::-1]).all()
    assert n % 2 == 0 or x[n // 2] == 0.0


@pytest.mark.parametrize("n", RULE_ORDERS)
def test_rule_is_exact_on_even_monomials_and_matches_leggauss(n):
    # numpy's leggauss(1000) is the less exact of the two: its end weights sit
    # 8.3e-9 from 40-digit values, where the recurrence's sit 8e-12 from them
    from alphasphere.quadrature import _rule
    x, w = _rule(n)
    for k in range(n):
        exact = 2.0 / (2 * k + 1)
        assert abs(math.fsum(w * x ** (2 * k)) - exact) <= 2e-13 * exact
    xl, wl = np.polynomial.legendre.leggauss(n)
    assert np.max(np.abs(x - xl)) <= 1e-15
    assert np.max(np.abs(w / wl - 1.0)) <= (1e-9 if n <= 600 else 1e-8)


def test_rule_needs_no_eigensolve(monkeypatch):
    from alphasphere import quadrature

    def refuse(*args, **kwargs):
        raise AssertionError("a rule was built by an eigensolve")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    monkeypatch.setattr(np.polynomial.legendre, "leggauss", refuse)
    quadrature._rule.cache_clear()
    x, w = quadrature._rule(600)
    assert x.size == 600 and abs(math.fsum(w) - 2.0) < 1e-14


def test_radial_cell_rule_is_leggauss_4_bit_for_bit():
    from alphasphere.radial import _CELL_W, _CELL_X, _geometry
    x, w = np.array(_CELL_X), np.array(_CELL_W)
    xl, wl = np.polynomial.legendre.leggauss(4)
    assert x.tobytes() == xl.tobytes() and w.tobytes() == wl.tobytes()
    t, wt = _geometry(100)[:2]
    assert t.tobytes() == (0.5 * (xl + 1.0)).tobytes()
    assert wt.tobytes() == (0.5 * wl).tobytes()
