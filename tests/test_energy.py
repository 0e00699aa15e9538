import math
import warnings

import numpy as np
import pytest

from alphasphere import (
    BoundCheck,
    GROWTH_THETA_CONSTANT,
    Gprime,
    MobiusElement,
    MobiusMap,
    RadialProfile,
    RegimeError,
    XI_SIGMA_LARGE_CONSTANT,
    XI_SIGMA_SMALL_CONSTANT,
    alpha_energy,
    check_growth,
    check_xi_lower_bounds,
    d_energy_d_loglambda,
    dilation_energy,
    e_alpha_lambda,
    eaclose_gap,
    energy_floor,
    energy_report,
    grad_log_chi_l2_bound,
    identity_map,
    make_grid,
    minimize_radial,
    norm_grad_log_chi_L2,
    pullback,
    radial_residual,
    window_energies,
)

from alphasphere.cli import main
from alphasphere.energy import _LOG_MAX, _exp_or_inf
from alphasphere.quadrature import adaptive_gauss_legendre
from shooting import shoot_radial
from test_mobius import random_element


@pytest.fixture(scope="module")
def grid():
    return make_grid(320, 48)


# ---------------------------------------------------------- alpha energy

def test_identity_energy_alpha2(grid):
    assert alpha_energy(identity_map(), 2.0, grid) == pytest.approx(
        32.0 * math.pi, rel=1e-12)


def test_dilation_energy_alpha1_by_quadrature(grid):
    u = MobiusMap(MobiusElement.dilation(7.0))
    assert alpha_energy(u, 1.0, grid) == pytest.approx(8.0 * math.pi, rel=1e-9)


def test_quadrature_matches_closed_form(grid):
    u = MobiusMap(MobiusElement.dilation(5.0))
    assert alpha_energy(u, 1.2, grid) == pytest.approx(
        dilation_energy(1.2, 5.0).value, rel=1e-8)


def test_alpha_energy_requires_alpha_geq_one(grid):
    with pytest.raises(ValueError):
        alpha_energy(identity_map(), 0.9, grid)
    p = RadialProfile.linear(1, 200)
    with pytest.raises(ValueError):
        window_energies(p, 0.9, (0.0, math.pi))
    with pytest.raises(ValueError):
        window_energies(p, 0.9, (0.0, 1.0))


# ------------------------------------------------------- deformed energy

def test_deformed_energy_at_lam1_is_plain(grid):
    rng = np.random.default_rng(1)
    u = pullback(identity_map(), random_element(rng))
    a = 1.6
    assert e_alpha_lambda(u, a, 1.0, grid) == pytest.approx(
        alpha_energy(u, a, grid), rel=1e-13)


def test_deformed_energy_of_identity_is_dilation_energy(grid):
    for a, lam in ((1.3, 2.0), (1.8, 9.0)):
        assert e_alpha_lambda(identity_map(), a, lam, grid) == pytest.approx(
            dilation_energy(a, lam).value, rel=1e-10)


def test_pullback_invariance(grid):
    rng = np.random.default_rng(6)
    a = 1.4
    for lam in (1.5, 4.0):
        u = MobiusMap(random_element(rng))
        ul = pullback(u, MobiusElement.dilation(lam))
        assert abs(alpha_energy(u, a, grid)
                   - e_alpha_lambda(ul, a, lam, grid)) < 1e-8 * alpha_energy(u, a, grid)


# ------------------------------------------------------- dilation energy

def test_dilation_energy_at_lam1():
    for a in (1.0, 1.25, 1.5, 2.0):
        r = dilation_energy(a, 1.0)
        assert r.value == energy_floor(a)
        assert r.xi == 0.0
        assert r.G == 1.0


def test_dilation_energy_alpha1_exact():
    for lam in (2.0, 10.0, 100.0, 1e4):
        assert dilation_energy(1.0, lam).value == 8.0 * math.pi


@pytest.mark.parametrize("alpha", [1.05, 2.0, 50.0])
@pytest.mark.parametrize("lam", [1.0 + 2.0 ** -52, 1.0 + 1e-12, 1.0 + 1e-9])
def test_tiny_tau_takes_the_quadrature_to_the_quadratic_limit(alpha, lam):
    # G - 1 = alpha beta tau^2 / 6 + O(tau^4): at tau <= 1e-9 the O(tau^2)
    # relative correction is below 1e-14 even at alpha = 50
    res = dilation_energy(alpha, lam)
    limit = math.log(alpha * (alpha - 1.0) / 6.0) + 2.0 * math.log(res.tau)
    assert res.tau > 0.0 and abs(res.log_excess - limit) <= 1e-13


def test_dilation_energy_regression():
    # frozen against independent high-precision quadrature
    r = dilation_energy(1.2, 5.0)
    assert r.value == pytest.approx(37.163457332819246899, rel=1e-11)
    assert r.xi == pytest.approx(4.0006064621173188934, rel=1e-10)


def test_dilation_energy_log_domain_branch():
    # tau = 260 at alpha = 2 leaves double range inside the integrand;
    # frozen against independent high-precision quadrature
    r = dilation_energy(2.0, math.exp(260.0))
    assert r.value == pytest.approx(5.7049152180131907825e226, rel=1e-11)


def test_G_log_domain_branch():
    # sigma/beta = 500 forces the log-space route for both quantities;
    # frozen against independent high-precision quadrature
    G, gp = _G(1.004, 2.0), Gprime(1.004, 2.0)
    assert G == pytest.approx(27.506046914892534558, rel=1e-11)
    assert gp == pytest.approx(54.014862578432999629, rel=1e-11)


def test_dilation_energy_symmetry_and_fields():
    r = dilation_energy(1.5, 0.25)
    assert r.value == dilation_energy(1.5, 4.0).value
    assert r.tau == pytest.approx(math.log(0.25))
    assert r.sigma == pytest.approx(0.5 * math.log(0.25))
    assert r.value == pytest.approx(energy_floor(1.5) * r.G, rel=1e-14)


def test_dilation_energy_monotone():
    cases = [(a, np.linspace(0.0, 20.0 / (a - 1.0), 120)) for a in (1.05, 1.5, 2.0)]
    # across (2 alpha - 1) tau = 690, where the integrand leaves double range
    cases.append((2.0, np.linspace(225.0, 235.0, 101)))
    cases.append((2.0, 230.0 + np.linspace(-1e-9, 1e-9, 21)))
    for a, taus in cases:
        vals = [dilation_energy(a, math.exp(t)).value for t in taus]
        assert all(v2 >= v1 * (1.0 - 1e-12) for v1, v2 in zip(vals, vals[1:]))


def test_dilation_energy_validates():
    with pytest.raises(ValueError):
        dilation_energy(0.9, 2.0)
    with pytest.raises(ValueError):
        dilation_energy(1.2, 0.0)
    for alpha, lam in ((math.nan, 2.0), (math.inf, 2.0), (1.5, math.nan),
                       (1.5, math.inf), (1.5, -1.0)):
        with pytest.raises(ValueError):
            dilation_energy(alpha, lam)


# ----------------------------------------------------------- G, G prime

def _G(alpha, sigma):
    """G(sigma), read from the dilation energy at lam = e^(sigma/beta)."""
    return dilation_energy(alpha, math.exp(sigma / (alpha - 1.0))).G


def test_G_basepoint():
    assert (_G(1.4, 0.0), Gprime(1.4, 0.0)) == (1.0, 0.0)


def test_G_spot_value():
    # frozen against independent high-precision quadrature
    G, Gp = _G(1.4, 0.8), Gprime(1.4, 0.8)
    assert G == pytest.approx(1.561086457946803821, rel=1e-10)
    assert Gp == pytest.approx(1.8441575083947459866, rel=1e-10)


def test_Gprime_positive_on_grid():
    for a in (1.1, 1.5, 2.0):
        for s in np.linspace(0.05, 4.0, 25):
            assert Gprime(a, float(s)) > 0.0


def test_Gprime_matches_finite_difference():
    rng = np.random.default_rng(13)
    cases = [(float(rng.uniform(1.05, 2.0)), float(rng.uniform(0.01, 4.0)))
             for _ in range(25)]
    # both sides of sigma/beta = 350 and of (2 alpha - 1) sigma/beta = 690
    cases += [(1.5, 174.9), (1.5, 175.1), (2.0, 229.9), (2.0, 230.1),
              (2.0, 349.9), (2.0, 350.1)]
    for a, s in cases:
        gp = Gprime(a, s)
        d = 1e-5
        fd = (_G(a, s + d) - _G(a, s - d)) / (2.0 * d)
        assert abs(gp - fd) < 1e-6 * abs(fd)


def _count_quadratures(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return adaptive_gauss_legendre(*args, **kwargs)

    monkeypatch.setattr("alphasphere.energy.adaptive_gauss_legendre", counting)
    return calls


@pytest.mark.parametrize("call, count", [
    (lambda: dilation_energy(1.4, math.e ** 2), 1),
    (lambda: Gprime(1.4, 0.8), 1),
    (lambda: check_growth(1.5, math.e, Gprime(1.5, 0.5)), 1),
    (lambda: main(["dilation-table", "--alpha", "1.5", "--lambda", "2.718281828459045"]), 2),
], ids=["dilation_energy", "Gprime", "check_growth", "dilation-table"])
def test_one_quadrature_per_dilation_quantity(monkeypatch, capsys, call, count):
    # G and G' each come from one route, so no call computes the other, and
    # the checkers take the values that a dilation-table row already holds
    calls = _count_quadratures(monkeypatch)
    call()
    assert len(calls) == count


def test_G_rejects_alpha_one():
    with pytest.raises(ValueError):
        Gprime(1.0, 0.5)
    for alpha, sigma in ((math.nan, 0.5), (math.inf, 0.5), (1.5, math.nan),
                         (1.5, math.inf), (1.5, -0.5)):
        with pytest.raises(ValueError):
            Gprime(alpha, sigma)


def test_Gprime_finite_for_large_exponent():
    # exercises the log-domain switch where sinh(s/beta) sinh(alpha s/beta)
    # alone would overflow doubles
    a, s = 3.0, 340.0
    G, gp = _G(a, s), Gprime(a, s)
    assert math.isfinite(G) and math.isfinite(gp) and gp > 0.0
    gp25 = Gprime(2.5, 3.0)
    d = 1e-5
    fd = (_G(2.5, 3.0 + d) - _G(2.5, 3.0 - d)) / (2 * d)
    assert abs(gp25 - fd) < 1e-6 * fd


# -------------------------------------------------- arrays of tau and sigma

@pytest.mark.parametrize("alpha", [1.05, 1.5, 2.0])
def test_dilation_energy_array_matches_scalar_calls(monkeypatch, alpha):
    # verify's c04 grid, plus tau = 0 and two tau below 1e-6
    taus = np.concatenate(([0.0, 3e-7, 8e-7], np.linspace(0.0, 20.0 / (alpha - 1.0), 200)))
    lams = np.exp(taus)
    scalar = [dilation_energy(alpha, float(lam)) for lam in lams]
    calls = _count_quadratures(monkeypatch)
    res = dilation_energy(alpha, lams)
    assert len(calls) == 1 and res.xi.shape == lams.shape
    xi = np.array([r.xi for r in scalar])
    assert np.all(np.abs(res.xi - xi) <= 1e-12 * xi)
    assert res.xi[0] == res.xi[3] == 0.0 and res.xi[1] == xi[1] and res.xi[2] == xi[2]
    for i in (0, 1, 100, -1):
        assert res[i] == scalar[i] or abs(res[i].xi - scalar[i].xi) <= 1e-12 * scalar[i].xi
        assert type(res[i].value) is float


@pytest.mark.parametrize("alpha", [1.05, 1.5, 2.0])
def test_Gprime_array_matches_scalar_calls(monkeypatch, alpha):
    sigmas = np.concatenate(([0.0, 1e-7], np.linspace(0.0, 20.0, 200)))
    scalar = np.array([Gprime(alpha, float(s)) for s in sigmas])
    calls = _count_quadratures(monkeypatch)
    gp = Gprime(alpha, sigmas)
    assert len(calls) == 1 and gp.shape == sigmas.shape
    assert gp[0] == gp[2] == 0.0
    assert np.all(np.abs(gp - scalar) <= 1e-12 * scalar)


def test_arrays_keep_their_order_and_a_scalar_gives_a_float():
    lams = np.array([40.0, 1.0, 1.5, 7.0, 1.5])
    res = dilation_energy(1.5, lams)
    assert res.lam is not lams and np.array_equal(res.lam, lams)
    assert res.xi[1] == 0.0 and res.value[2] == res.value[4]
    assert list(np.argsort(res.value)) == [1, 2, 4, 3, 0]
    assert all(type(v) is float for v in vars(dilation_energy(1.5, 7.0)).values())
    assert type(Gprime(1.5, 0.3)) is float
    assert Gprime(1.5, np.array([0.9, 0.3]))[1] == pytest.approx(Gprime(1.5, 0.3), rel=1e-12)


def test_reciprocal_dilations_are_bit_equal_in_one_array():
    # powers of two have exact reciprocals, whose logs are exact negatives
    lams = 2.0 ** np.array([1.0, 2.0, 3.0, 10.0, 40.0])
    res = dilation_energy(1.5, np.concatenate((lams, 1.0 / lams)))
    assert np.array_equal(res.value[:5], res.value[5:])
    assert np.array_equal(res.sigma[:5], -res.sigma[5:])


def test_arrays_past_double_range_follow_the_scalar_calls():
    with warnings.catch_warnings():   # overflow to inf stays silent
        warnings.simplefilter("error")
        lams = np.geomspace(1.0001, 1e300, 80)
        res = dilation_energy(2.0, lams)
        xi = np.array([dilation_energy(2.0, float(lam)).xi for lam in lams])
        assert np.array_equal(np.isfinite(res.xi), np.isfinite(xi))
        assert 0 < np.count_nonzero(np.isfinite(xi)) < len(xi)
        ok = np.isfinite(xi)
        assert np.all(np.abs(res.xi[ok] - xi[ok]) <= 1e-12 * xi[ok])
        assert np.all(np.isfinite(res.log_excess))
        assert np.array_equal(np.isinf(res.G - 1.0), res.log_excess > _LOG_MAX)
        sigmas = np.linspace(0.0, 700.0, 80)
        gp = Gprime(2.0, sigmas)
        scalar = np.array([Gprime(2.0, float(s)) for s in sigmas])
        assert np.array_equal(np.isfinite(gp), np.isfinite(scalar))
        assert 0 < np.count_nonzero(np.isfinite(scalar)) < len(scalar)


def test_alpha_one_array_takes_no_quadrature(monkeypatch):
    calls = _count_quadratures(monkeypatch)
    res = dilation_energy(1.0, np.array([0.5, 1.0, 2.0, 1e300]))
    assert not calls
    assert np.all(res.xi == 0.0) and np.all(res.value == 8.0 * math.pi)


def test_arrays_match_high_precision_quadrature():
    # G - 1 and G' at three points each, against 50-digit mpmath.quad,
    # every point taken inside a longer array
    mp = pytest.importorskip("mpmath")
    cosh, sinh = mp.cosh, mp.sinh
    with mp.workdps(50):
        for a, tau in ((1.05, 3.0), (1.5, 0.7), (2.0, 15.0)):
            a_, b_ = mp.mpf(a), mp.mpf(a) - 1
            ref = mp.quad(lambda t: cosh(t) ** a_ * cosh(b_ * t) - cosh(t), [0, tau]) / sinh(tau)
            taus = np.concatenate((np.linspace(0.0, 20.0 / (a - 1.0), 50), [tau]))
            res = dilation_energy(a, np.exp(taus))
            assert abs(math.exp(res.log_excess[-1]) - ref) <= 1e-11 * ref
        for a, s in ((1.05, 0.15), (1.5, 0.35), (2.0, 15.0)):
            a_, b_ = mp.mpf(a), mp.mpf(a) - 1
            x = mp.mpf(s) / b_
            ref = cosh(x) / (b_ * sinh(x) ** 2) * mp.quad(
                lambda u: sinh(u / b_) * cosh(u / b_) ** (b_ - 1) * sinh(a_ * u / b_), [0, s])
            gp = Gprime(a, np.concatenate((np.linspace(0.0, 20.0, 50), [s])))
            assert abs(gp[-1] - ref) <= 1e-11 * ref


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -2.0])
def test_arrays_with_one_bad_entry_raise(bad):
    with pytest.raises(ValueError, match="lam must be finite and positive"):
        dilation_energy(1.5, np.array([2.0, bad, 3.0]))
    if bad != 0.0:
        with pytest.raises(ValueError, match="sigma must be finite and >= 0"):
            Gprime(1.5, np.array([0.5, bad, 1.0]))


# ------------------------------------------------------- explicit bounds

def test_xi_bound_sigma_large_example():
    lam = math.exp(8.0)  # sigma = 4 at alpha = 1.5
    checks = {c.name: c for c in check_xi_lower_bounds(dilation_energy(1.5, lam))}
    c = checks["xi_sigma_large"]
    assert c.passed
    assert c.rhs == pytest.approx(energy_floor(1.5) * XI_SIGMA_LARGE_CONSTANT
                                  * lam, rel=1e-12)  # lam^(2a-2) = lam at 1.5


def test_xi_bound_small_example():
    lam = math.exp(0.5)
    checks = {c.name: c for c in check_xi_lower_bounds(dilation_energy(1.5, lam))}
    c = checks["xi_sigma_small"]
    assert c.passed
    assert c.rhs == pytest.approx(energy_floor(1.5) * 0.5 * 0.25
                                  * XI_SIGMA_SMALL_CONSTANT, rel=1e-12)


def test_xi_bounds_zero_margin_at_lam1():
    for c in check_xi_lower_bounds(dilation_energy(1.01, 1.0)):
        assert c.passed
        assert c.lhs == 0.0 and c.rhs == 0.0


def test_xi_bounds_regime_selection():
    names = {c.name for c in check_xi_lower_bounds(dilation_energy(1.5, math.exp(0.5)))}
    assert names == {"xi_sigma_small"}
    names = {c.name for c in check_xi_lower_bounds(dilation_energy(1.5, math.exp(3.0)))}
    assert names == {"xi_sigma_mid_composed"}
    names = {c.name for c in check_xi_lower_bounds(dilation_energy(1.5, math.exp(8.0)))}
    assert names == {"xi_sigma_large"}


def test_xi_bounds_read_dilation_energy():
    # every lhs is dilation_energy's xi; where it overflows, the large-regime
    # verdict still compares finite logs
    for alpha, lam in ((1.5, math.exp(0.5)), (1.5, math.exp(3.0)), (1.3, math.exp(9.0)),
                       (1.05, 1.0), (1.5, 1e308)):
        xi = dilation_energy(alpha, lam).xi
        for c in check_xi_lower_bounds(dilation_energy(alpha, lam)):
            assert c.lhs == xi
    res = dilation_energy(1.5, 1e308)
    assert res.xi == math.inf and res.log_excess == pytest.approx(math.log(res.G - 1.0))
    [c] = check_xi_lower_bounds(res)
    assert c.name == "xi_sigma_large" and c.passed


def test_xi_bounds_validate_regime():
    with pytest.raises(RegimeError):
        check_xi_lower_bounds(dilation_energy(1.0, 2.0))
    with pytest.raises(RegimeError):
        check_xi_lower_bounds(dilation_energy(1.5, 0.5))


def _growth(alpha, lam):
    """check_growth with G' at sigma = (alpha - 1) log lam."""
    return check_growth(alpha, lam, Gprime(alpha, (alpha - 1.0) * math.log(lam)))


def test_growth_check_zero_at_lam1():
    c = _growth(1.4, 1.0)
    assert c.passed and c.lhs == 0.0 and c.rhs == 0.0


@pytest.mark.parametrize("alpha", [1.01, 1.4, 2.0])
def test_growth_check_at_lam1_is_the_small_sigma_row_of_a_zero_slope(alpha):
    assert check_growth(alpha, 1.0, 0.0) == BoundCheck(
        "growth_dloglam", 0.0, 0.0, 0.0, True, regime="sigma_small")


def test_growth_check_small_sigma_example():
    c = _growth(1.3, math.exp(0.5))  # sigma = 0.15 <= beta = 0.3
    assert c.passed
    assert c.regime == "sigma_small"
    expected = (0.3 * energy_floor(1.3)
                * 0.15 / (3.0 * 0.3 * math.cosh(1.0) ** 2))
    assert c.rhs == pytest.approx(expected, rel=1e-12)


def test_growth_check_regime_error():
    with pytest.raises(RegimeError):
        _growth(1.5, math.exp(10.0))  # sigma = 5 > 2


@pytest.mark.parametrize("lam", [0.0, -1.0, 0.5, math.nan])
def test_growth_check_rejects_lam_below_one(lam):
    # checked before log(lam), which raises a math domain error for lam <= 0
    with pytest.raises(RegimeError, match="lam >= 1"):
        check_growth(1.5, lam, 1.0)


def test_growth_theta_constant_is_the_closed_form_maximum():
    # the maximiser of tanh(t)(1 - cosh(t)/sinh 1) solves cosh^3 t = sinh 1
    t_star = math.acosh(math.sinh(1.0) ** (1.0 / 3.0))
    assert math.cosh(t_star) ** 3 == pytest.approx(math.sinh(1.0), rel=1e-15)
    value = math.tanh(t_star) * (1.0 - math.cosh(t_star) / math.sinh(1.0))
    assert GROWTH_THETA_CONSTANT == pytest.approx(value, rel=1e-15)
    # no smaller than the grid maximum it replaces
    ts = np.linspace(1e-4, math.acosh(math.sinh(1.0)) - 1e-4, 20001)
    grid_max = float(np.max(np.tanh(ts) * (1.0 - np.cosh(ts) / math.sinh(1.0))))
    assert GROWTH_THETA_CONSTANT >= grid_max


def test_exp_or_inf_cuts_at_the_overflow_point():
    assert _exp_or_inf(709.5) == math.exp(709.5)
    assert _exp_or_inf(_LOG_MAX) == math.exp(_LOG_MAX) < math.inf
    assert _exp_or_inf(math.nextafter(_LOG_MAX, math.inf)) == math.inf


@pytest.mark.parametrize("alpha", [3e3, 1e7])
def test_dilation_far_past_double_range_is_inf(alpha):
    # there the excess quadratures stop converging or integrate to 0
    for tau in (15.0, 50.0):
        res = dilation_energy(alpha, math.exp(tau))
        assert res.value == res.xi == res.G == math.inf
        assert Gprime(alpha, res.sigma) == math.inf


# --------------------------------------------------- log lam derivative

def test_d_loglam_identity_at_lam1(grid):
    assert abs(d_energy_d_loglambda(identity_map(), 1.4, 1.0, grid)) < 1e-12


def test_d_loglam_identity_matches_growth_display(grid):
    for a, lam in ((1.2, 2.0), (1.7, 5.0)):
        lhs = d_energy_d_loglambda(identity_map(), a, lam, grid)
        rhs = (a - 1.0) * energy_floor(a) * Gprime(a, (a - 1.0) * math.log(lam))
        assert abs(lhs - rhs) < 1e-7 * abs(rhs)


def test_d_loglam_matches_finite_difference(grid):
    rng = np.random.default_rng(23)
    for _ in range(10):
        a = float(rng.uniform(1.05, 2.0))
        lam = math.exp(float(rng.uniform(0.1, 2.0)))
        u = pullback(identity_map(), random_element(rng, lam_max=4.0))
        lhs = d_energy_d_loglambda(u, a, lam, grid)
        d = 1e-5
        fd = (e_alpha_lambda(u, a, lam * math.exp(d), grid)
              - e_alpha_lambda(u, a, lam * math.exp(-d), grid)) / (2.0 * d)
        assert abs(lhs - fd) < 1e-6 * abs(fd)


def test_d_loglam_finite_difference_for_radial_map(grid):
    from alphasphere import RadialMap
    u = RadialMap(RadialProfile.from_function(3, 300,
                                              lambda r: 3 * r + 0.2 * np.sin(r)))
    a, lam = 1.3, 1.8
    lhs = d_energy_d_loglambda(u, a, lam, grid)
    d = 1e-5
    fd = (e_alpha_lambda(u, a, lam * math.exp(d), grid)
          - e_alpha_lambda(u, a, lam * math.exp(-d), grid)) / (2.0 * d)
    assert abs(lhs - fd) < 1e-6 * abs(fd)


# ------------------------------------------------------------- gap bound

def test_gap_bound_identity_zero_margin(grid):
    c = eaclose_gap(identity_map(), 1.5, 2.0, grid)
    assert c.passed
    assert abs(c.lhs) < 1e-10 and abs(c.rhs) < 1e-10


def test_gap_bound_random_pullbacks(grid):
    rng = np.random.default_rng(29)
    for _ in range(10):
        v = pullback(identity_map(), random_element(rng, lam_max=5.0))
        lam = math.exp(float(rng.uniform(0.0, 1.5)))
        a = float(rng.uniform(1.0, 2.0))
        assert eaclose_gap(v, a, lam, grid).passed



# ---------------------------------------------------------- domain guards

def _guarded_calls():
    """name -> call of one library function with x in the place of a
    parameter whose domain excludes NaN and +inf."""
    grid, u = make_grid(20, 8), identity_map()
    p = RadialProfile.linear(3, 200)
    return {
        "alpha_energy": lambda x: alpha_energy(u, x, grid),
        "energy_report": lambda x: energy_report(u, x, grid),
        "e_alpha_lambda:alpha": lambda x: e_alpha_lambda(u, x, 1.5, grid),
        "e_alpha_lambda:lam": lambda x: e_alpha_lambda(u, 1.5, x, grid),
        "d_energy_d_loglambda:alpha": lambda x: d_energy_d_loglambda(u, x, 1.5, grid),
        "d_energy_d_loglambda:lam": lambda x: d_energy_d_loglambda(u, 1.5, x, grid),
        "eaclose_gap:lam": lambda x: eaclose_gap(u, 1.5, x, grid),
        "window_energies": lambda x: window_energies(p, x, (0.0, 1.0, math.pi)),
        # the total radial energy, the single window from 0 to pi
        "radial_energy": lambda x: window_energies(p, x, (0.0, math.pi))[0],
        "radial_residual": lambda x: radial_residual(p, x),
        "minimize_radial": lambda x: minimize_radial(x, 3, 1000),
        "shoot_radial:alpha": lambda x: shoot_radial(x, 1, 1.0),
        "shoot_radial:slope0": lambda x: shoot_radial(1.4, 1, x),
        "norm_grad_log_chi_L2": norm_grad_log_chi_L2,
        "grad_log_chi_l2_bound": grad_log_chi_l2_bound,
        "check_xi_lower_bounds:lam": lambda x: check_xi_lower_bounds(dilation_energy(1.5, x)),
        "dilation_energy:alpha": lambda x: dilation_energy(x, 2.0),
        "dilation_energy:lam": lambda x: dilation_energy(1.5, x),
        "MobiusElement.dilation": MobiusElement.dilation,
    }


# messages that a call's ValueError must match, where a subclass raised
# further on (DegenerateMatrixError) would pass a bare ValueError check
_GUARD_MESSAGES = {"MobiusElement.dilation": "finite and positive"}


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("name", list(_guarded_calls()))
def test_domain_guards_reject_nan_and_inf(name, bad):
    # a guard written as x < bound lets NaN through to a nan result, a
    # failing verdict or a quadrature that never converges
    with pytest.raises(ValueError, match=_GUARD_MESSAGES.get(name)):
        _guarded_calls()[name](bad)
