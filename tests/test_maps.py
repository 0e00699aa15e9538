import cmath
import gc
import math
import weakref

import numpy as np
import pytest

from alphasphere import (
    ConjugationMap,
    ConstantMap,
    MapEvaluator,
    MobiusElement,
    MobiusMap,
    NonIntegerDegreeWarning,
    PullbackMap,
    RadialMap,
    RadialProfile,
    SpherePoint,
    alpha_energy,
    degree,
    dilation_energy,
    energy_report,
    identity_map,
    make_grid,
    minimize_radial,
    mobius_svd,
    pullback,
)

from alphasphere.mobius import _form_density, _lift
from test_mobius import random_element, su2


@pytest.fixture(scope="module")
def grid():
    return make_grid(240, 48)


# ------------------------------------------------------------------ grid

def test_grid_total_weight(grid):
    assert abs(grid.integrate(1.0) - 4.0 * math.pi) < 1e-9


def test_grid_rejects_small():
    with pytest.raises(ValueError):
        make_grid(2, 64)


def test_grid_odd_integrand_vanishes(grid):
    z = grid.zs
    height = (np.abs(z) ** 2 - 1.0) / (np.abs(z) ** 2 + 1.0)
    assert abs(grid.integrate(height)) < 1e-9


def test_grid_integrates_identity_density(grid):
    assert abs(grid.integrate(identity_map().density(grid.zs)) - 4.0 * math.pi) < 1e-9


def test_grid_convergence_smooth_map():
    rng = np.random.default_rng(4)
    u = pullback(identity_map(), random_element(rng, lam_max=3.0))
    coarse = alpha_energy(u, 1.4, make_grid(200, 48))
    fine = alpha_energy(u, 1.4, make_grid(400, 96))
    assert abs(coarse - fine) / fine < 1e-8


def test_grid_nodes_and_weights():
    g = make_grid(8, 8)
    assert g.zs.shape == g.weights.shape == (64,) and np.size(g) == 64
    assert np.all(g.weights > 0.0)
    assert abs(math.fsum(g.weights) - g.integrate(1.0)) < 1e-12


# ------------------------------------------------------------ evaluators

def test_identity_density_is_one(grid):
    d = identity_map().density(grid.zs)
    assert np.max(np.abs(d - 1.0)) < 1e-12


def test_dilation_density_is_inverse_chi(grid):
    from alphasphere import chi_values
    lam = 6.0
    d = MobiusMap(MobiusElement.dilation(lam)).density(grid.zs)
    rsq = np.abs(grid.zs) ** 2
    explicit = lam * lam * (1.0 + rsq) ** 2 / (1.0 + lam * lam * rsq) ** 2
    assert np.max(np.abs(d - explicit) / explicit) < 1e-13
    assert np.max(np.abs(d * chi_values(lam, grid.zs) - 1.0)) < 1e-13


def test_jacobian_bounded_by_density(grid):
    rng = np.random.default_rng(9)
    profile = RadialProfile.from_function(3, 300, lambda r: 3 * r + 0.2 * np.sin(2 * r))
    maps = [identity_map(), ConjugationMap(), ConstantMap(SpherePoint(0, 0, 1)),
            MobiusMap(random_element(rng)), RadialMap(profile),
            pullback(MobiusMap(random_element(rng)), random_element(rng))]
    for u in maps:
        e = u.density(grid.zs)
        j = u.jacobian(grid.zs)
        assert np.all(np.abs(j) <= e + 1e-12)


def test_degrees(grid):
    assert degree(identity_map(), grid) == (pytest.approx(1.0, abs=1e-10), 1)
    assert degree(ConstantMap(SpherePoint(0, 0, -1)), grid)[1] == 0
    raw, k = degree(ConjugationMap(), grid)
    assert k == -1 and abs(raw + 1.0) < 1e-10


def test_degree_of_random_mobius_maps(grid):
    rng = np.random.default_rng(21)
    for _ in range(20):
        raw, k = degree(MobiusMap(random_element(rng)), grid)
        assert k == 1 and abs(raw - 1.0) < 0.01


def test_degree_warns_on_coarse_grid():
    coarse = make_grid(4, 4)
    profile = RadialProfile.linear(3, 200)
    with pytest.warns(NonIntegerDegreeWarning):
        degree(RadialMap(profile), coarse)


def test_degree_invariant_under_pullback(grid):
    rng = np.random.default_rng(31)
    for u, expected in ((identity_map(), 1), (ConjugationMap(), -1)):
        for _ in range(5):
            raw, k = degree(pullback(u, random_element(rng)), grid)
            assert k == expected and abs(raw - expected) < 0.01


# -------------------------------------------------------------- pullback

def test_pullback_by_identity_is_pointwise_identity(grid):
    rng = np.random.default_rng(3)
    u = MobiusMap(random_element(rng))
    v = pullback(u, MobiusElement.identity())
    z = grid.zs[::97]
    assert np.max(np.abs(u.density(z) - v.density(z))) < 1e-14
    assert np.max(np.abs(u.position(z) - v.position(z))) < 1e-14


def test_pullback_matches_matrix_product():
    # oracle: composing evaluators must equal the algebraic product map
    rng = np.random.default_rng(8)
    for _ in range(10):
        n = random_element(rng)
        m = random_element(rng)
        # built directly: pullback() itself folds into the product
        composed = PullbackMap(MobiusMap(n), m)
        product = MobiusMap(n @ m)
        z = np.array([complex(rng.normal(), rng.normal()) for _ in range(50)])
        assert np.max(np.abs(composed.density(z) - product.density(z))
                      / product.density(z)) < 1e-10
        assert np.max(np.abs(composed.position(z) - product.position(z))) < 1e-9


def test_pullback_of_mobius_map_folds_into_product():
    rng = np.random.default_rng(6)
    n, m = random_element(rng), random_element(rng)
    folded = pullback(MobiusMap(n), m)
    assert type(folded) is MobiusMap
    assert folded.m == n @ m


def test_pullback_of_other_maps_stays_a_composition():
    rng = np.random.default_rng(7)
    m = random_element(rng)
    for u in (ConjugationMap(), RadialMap(RadialProfile.linear(3, 200))):
        v = pullback(u, m)
        assert type(v) is PullbackMap and v.u is u and v.m == m


class _ImageProbe(ConstantMap):
    """Constant map that records the points it was evaluated at."""

    def _fields(self, z):
        self.seen = z
        return super()._fields(z)


def _closed_form_density(m, z):
    # (1 + |z|^2)^2 / (|a z + b|^2 + |c z + d|^2)^2, divided through by
    # |z|^4 when |z| > 1 so that it stays finite out to the pole
    if cmath.isinf(z):
        return 1.0 / (abs(m.a) ** 2 + abs(m.c) ** 2) ** 2
    if abs(z) <= 1.0:
        return ((1.0 + abs(z) ** 2)
                / (abs(m.a * z + m.b) ** 2 + abs(m.c * z + m.d) ** 2)) ** 2
    v = 1.0 / z
    return ((abs(v) ** 2 + 1.0)
            / (abs(m.a + m.b * v) ** 2 + abs(m.c + m.d * v) ** 2)) ** 2


@pytest.mark.parametrize("m, exact_pole", [
    (MobiusElement(2.0, 1.0, 1.0, 1.0), True),      # pole -1, on the unit circle
    (MobiusElement(1.0, 2.0, 0.5, 2.0), True),      # pole -4, outside it
    (MobiusElement(1.0, 0.25j, 4.0j, 0.0), True),   # pole 0
    (MobiusElement.normalized(0.3 + 1.1j, -2.0, 0.7j, 0.4 - 0.2j), False),
])
def test_mobius_evaluators_at_special_points(m, exact_pole):
    pole = -m.d / m.c
    zs = np.array([0.0, 1.0, -1.0, 1j, 1e200, complex(math.inf, 0.0), pole])
    for u in (MobiusMap(m), PullbackMap(identity_map(), m)):
        dens = u.density(zs)
        expected = np.array([_closed_form_density(m, z) for z in zs])
        assert np.all(np.isfinite(dens))
        assert np.max(np.abs(dens - expected) / expected) < 1e-13
        xyz = u.position(zs)
        assert np.all(np.isfinite(xyz))
        assert np.max(np.abs(np.sum(xyz * xyz, axis=0) - 1.0)) < 1e-14
        assert np.max(np.abs(xyz[:, -1] - [0.0, 0.0, 1.0])) < 1e-14
    # the image of the pole: inf when c zeta + d rounds to 0 there, and
    # otherwise a point within roundoff of it
    probe = _ImageProbe(SpherePoint(0.0, 0.0, 1.0))
    PullbackMap(probe, m).density(zs)
    assert cmath.isinf(probe.seen[-1]) if exact_pole else abs(probe.seen[-1]) > 1e14


def _svd_ratio_element(rng, ratio):
    # U diag(sqrt(ratio), 1/sqrt(ratio)) V* with random special unitary U, V
    u, v = (su2(complex(*rng.normal(size=2)), complex(*rng.normal(size=2)))
            for _ in range(2))
    return u @ MobiusElement.dilation(ratio) @ v


@pytest.mark.parametrize("ratio", [1.0, 10.0, 1e2, 1e3, 1e4])
def test_form_density_against_pair_path_and_closed_form(ratio):
    rng = np.random.default_rng(int(math.log10(ratio)) + 40)
    for _ in range(8):
        m = _svd_ratio_element(rng, ratio)
        zs = np.array([0.0, 1.0, -1.0, 1j, 1e200, complex(math.inf, 0.0), -m.d / m.c])
        pts = _lift(zs)
        P, Q = m.a * pts.p + m.b * pts.q, m.c * pts.p + m.d * pts.q
        pair = ((pts.pp + pts.qq) / (np.abs(P) ** 2 + np.abs(Q) ** 2)) ** 2
        closed = np.array([_closed_form_density(m, z) for z in zs])
        # one matrix, and the same matrix as a batch broadcast over the points
        batch = MobiusElement(*(np.full(zs.shape, getattr(m, k)) for k in "abcd"))
        for dens in (_form_density(m, pts), _form_density(batch, pts)):
            assert np.all(np.isfinite(dens))
            assert np.max(np.abs(dens - pair) / pair) <= 1e-11
            assert np.max(np.abs(dens - closed) / closed) <= 1e-11


def test_evaluators_read_the_same_from_a_grid_as_from_raw_points(grid):
    from alphasphere import chi_values
    rng = np.random.default_rng(5)
    assert np.size(grid) == grid.zs.size
    for lam in (1.0, 3.7, 250.0):
        assert np.array_equal(chi_values(lam, grid), chi_values(lam, grid.zs))
    profile = RadialProfile.from_function(3, 300, lambda r: 3 * r + 0.2 * np.sin(2 * r))
    for u in (MobiusMap(random_element(rng)), ConjugationMap(), RadialMap(profile),
              pullback(RadialMap(profile), random_element(rng))):
        for method in ("position", "density", "jacobian"):
            assert np.array_equal(getattr(u, method)(grid),
                                  getattr(u, method)(grid.zs))


def test_every_position_answers_in_the_shape_of_its_points(grid):
    rng = np.random.default_rng(11)
    profile = RadialProfile.from_function(3, 300, lambda r: 3 * r + 0.2 * np.sin(2 * r))
    evaluators = (identity_map(), MobiusMap(random_element(rng)), ConjugationMap(),
                  ConstantMap(SpherePoint(0.6, 0.0, 0.8)), RadialMap(profile),
                  pullback(RadialMap(profile), random_element(rng)))
    points = (0.3 - 0.4j, np.array([0.5, 2j]),
              np.array([[0.0, 0.5, 3.0], [1j, -2.0, 0.1 + 0.1j]]), grid)
    for u in evaluators:
        for z in points:
            xyz = u.position(z)
            assert xyz.shape == (3, *np.shape(z)), (type(u).__name__, np.shape(z))
            assert np.allclose(np.sum(xyz * xyz, axis=0), 1.0, rtol=0.0, atol=1e-12)


def test_nan_chart_points_stay_nan():
    from alphasphere import chi_values
    z = np.array([complex(math.nan, 0.0), complex(math.inf, 0.0), 0.5j])
    u = MobiusMap(MobiusElement.dilation(4.0))
    with np.errstate(invalid="ignore"):
        evals = (u.density(z), u.position(z)[2], chi_values(4.0, z),
                 PullbackMap(identity_map(), MobiusElement.dilation(4.0)).density(z))
    for vals in evals:
        assert math.isnan(vals[0]) and np.all(np.isfinite(vals[1:]))


def test_dilation_pullback_identity_pointwise():
    rng = np.random.default_rng(12)
    from alphasphere import chi_values
    for _ in range(100):
        lam = math.exp(rng.uniform(0.0, 2.5))
        u = MobiusMap(random_element(rng))
        um = pullback(u, MobiusElement.dilation(lam))
        z = np.array([complex(rng.normal(), rng.normal())])
        lhs = um.density(z) * chi_values(lam, z)
        rhs = u.density(lam * z)
        assert abs(lhs[0] - rhs[0]) < 1e-10 * abs(rhs[0])


def test_conformal_invariance_of_dirichlet_part(grid):
    rng = np.random.default_rng(14)
    u = identity_map()
    base = grid.integrate(u.density(grid.zs))
    for _ in range(5):
        um = pullback(u, random_element(rng, lam_max=4.0))
        val = grid.integrate(um.density(grid.zs))
        assert abs(val - base) / base < 1e-7


# ---------------------------------------------------------------- radial

def test_radial_map_of_linear_profile_is_identity(grid):
    u = RadialMap(RadialProfile.linear(1, 400))
    z = np.append(grid.zs, [0.0, math.inf])
    e, j = u.density(z), u.jacobian(z)
    assert np.max(np.abs(e[-2:] - 1.0)) <= 1e-12 and np.max(np.abs(j[-2:] - 1.0)) <= 1e-12
    # elsewhere f and r each carry an ulp of pi, which sin f / sin r divides by
    # sin r = 2 |zeta| / (1 + |zeta|^2): 5.6e-12 at the node nearest the south pole
    az = np.abs(grid.zs)
    tol = 1e-12 + 4.0 * np.spacing(math.pi) * (1.0 + az * az) / (2.0 * az)
    assert np.all(np.abs(e[:-2] - 1.0) <= tol) and np.all(np.abs(j[:-2] - 1.0) <= tol)
    z = grid.zs[::53]
    assert np.max(np.abs(u.position(z) - identity_map().position(z))) < 1e-10


def test_radial_map_at_the_poles():
    u = RadialMap(RadialProfile.linear(3, 200))
    z = np.array([complex(math.inf, 0.0), 0.0])
    pos, e, j = u.position(z), u.density(z), u.jacobian(z)
    assert pos[2, 0] == pytest.approx(1.0)
    assert e[0] == pytest.approx(9.0, rel=1e-9)   # slope 3 at the pole
    assert j[0] == pytest.approx(9.0, rel=1e-9)
    assert pos[2, 1] == pytest.approx(math.cos(3 * math.pi), abs=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_radial_map_takes_its_pole_limits(n):
    # near r = pi, sin f / sin r tends to (-1)^(n+1) f'(pi): J < 0 there for even n
    u = RadialMap(RadialProfile.from_function(n, 400, lambda r: n * r + 0.3 * np.sin(r)))
    for pole, near in ((0.0, 1e-6), (math.inf, 1e6)):
        z = np.array([pole, near, near * 1j, -near], dtype=complex)
        for values in (u.density(z), u.jacobian(z)):
            assert values[1:] == pytest.approx(values[0], rel=1e-5)
    assert u.jacobian(np.array([0.0]))[0] == pytest.approx((-1) ** (n + 1) * (n - 0.3) ** 2)


def _libm_radial_fields(profile, z):
    """RadialMap's density and Jacobian through libm sines, away from the poles."""
    r = math.pi - 2.0 * np.arctan(np.abs(np.asarray(z, dtype=complex)))
    f, fp = profile.value_and_slope(r)
    ratio = np.sin(f) / np.sin(r)
    return 0.5 * (fp * fp + ratio * ratio), fp * ratio


@pytest.mark.parametrize("shape", [(600, 8), (400, 96)], ids=["c10", "c11"])
def test_radial_map_on_verify_grids_matches_libm_sines(shape):
    profile = minimize_radial(1.2, 3, 4000).profile
    grid, u = make_grid(*shape), RadialMap(profile)
    fields = u.density(grid), u.jacobian(grid)
    for got, want in zip(fields, _libm_radial_fields(profile, grid)):
        assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))


# ---------------------------------------------------------------- report

def test_energy_report_identity(grid):
    rep = energy_report(identity_map(), 1.5, grid)
    assert rep.e_alpha == pytest.approx(16.0 * math.pi, rel=1e-10)
    assert rep.e_dirichlet_plus_area == pytest.approx(8.0 * math.pi, rel=1e-10)
    assert rep.degree_int == 1
    assert rep.passes_floor


class _ShrunkIdentity(MapEvaluator):
    """The identity's position and Jacobian, so degree one, with its density
    scaled by 1 - 2 delta / alpha: E_alpha is about 2^(2 alpha + 1) pi (1 - delta).
    J then exceeds e by that factor; energy_report does not check |J| <= e."""

    def __init__(self, alpha, delta):
        self.u, self.scale = identity_map(), 1.0 - 2.0 * delta / alpha

    def position(self, z):
        return self.u.position(z)

    def _fields(self, z):
        return self.scale * self.u.density(z), self.u.jacobian(z)


@pytest.mark.parametrize("alpha", [1.0, 1.5, 3.0])
def test_degree_one_map_below_the_floor_fails_it(alpha):
    # the floor's relative slack is 1e-10: a map 1e-6 below the floor fails
    # it, and one 1e-12 below passes
    grid = make_grid(300, 64)
    for delta, passes in ((1e-6, False), (1e-12, True)):
        rep = energy_report(_ShrunkIdentity(alpha, delta), alpha, grid)
        assert rep.degree_int == 1 and rep.passes_floor == passes
        assert rep.e_alpha / rep.floor_2_2a1_pi - 1.0 == pytest.approx(-delta, rel=0.05)


class _CountingMap(MapEvaluator):
    """An evaluator that counts its density evaluations."""

    def __init__(self, u):
        self.u, self.density_calls = u, 0

    def position(self, z):
        return self.u.position(z)

    def _fields(self, z):
        self.density_calls += 1
        return self.u.density(z), self.u.jacobian(z)


def test_energy_report_evaluates_the_density_once(grid):
    u = _CountingMap(pullback(identity_map(), MobiusElement.dilation(3.0)))
    rep = energy_report(u, 1.4, grid)
    assert u.density_calls == 1
    assert rep.e_alpha == alpha_energy(u, 1.4, grid)


def test_energy_report_constant(grid):
    alpha = 1.7
    rep = energy_report(ConstantMap(SpherePoint(0, 0, 1)), alpha, grid)
    assert rep.e_alpha == pytest.approx(2.0 ** (alpha - 1.0) * 4.0 * math.pi, rel=1e-12)
    assert rep.degree_int == 0
    assert rep.passes_floor  # floor only binds degree-one maps


def test_degree_one_holder_chain(grid):
    # for degree-one maps: 8 pi = int (1 + J) <= int (1 + e)
    #                        <= (2^(1-a) E_a)^(1/a) (4 pi)^((a-1)/a)
    rng = np.random.default_rng(55)
    alpha = 1.35
    profile = RadialProfile.from_function(3, 300, lambda r: 3 * r + 0.2 * np.sin(2 * r))
    for u in (identity_map(), pullback(identity_map(), random_element(rng)),
              RadialMap(profile)):
        from alphasphere import alpha_energy as ea
        one_plus_j = grid.integrate(1.0 + u.jacobian(grid.zs))
        one_plus_e = grid.integrate(1.0 + u.density(grid.zs))
        bound = ((2.0 ** (1.0 - alpha) * ea(u, alpha, grid)) ** (1.0 / alpha)
                 * (4.0 * math.pi) ** ((alpha - 1.0) / alpha))
        assert one_plus_j == pytest.approx(8.0 * math.pi, rel=1e-4)
        assert one_plus_j <= one_plus_e + 1e-9
        assert one_plus_e <= bound + 1e-9


def test_energy_report_pullback_floor(grid):
    rng = np.random.default_rng(77)
    alpha = 1.2
    for _ in range(5):
        m = random_element(rng, lam_max=6.0)
        rep = energy_report(pullback(identity_map(), m), alpha, grid)
        assert rep.degree_int == 1
        assert rep.passes_floor
        # cross-check the energy against the closed form at this dilation
        lam = mobius_svd(m).lam
        assert rep.e_alpha == pytest.approx(dilation_energy(alpha, lam).value,
                                            rel=1e-7)


# ----------------------------------------------------- one density per grid

def _memo_maps():
    """Builders, each of one map every time it is called."""
    profile = RadialProfile.from_function(3, 300, lambda r: 3 * r + 0.2 * np.sin(2 * r))
    return [lambda: MobiusMap(random_element(np.random.default_rng(12))),
            lambda: PullbackMap(ConjugationMap(), random_element(np.random.default_rng(13))),
            lambda: RadialMap(profile)]


@pytest.mark.parametrize("build", _memo_maps(), ids=["mobius", "pullback", "radial"])
def test_density_is_kept_per_grid_as_a_read_only_array(build, grid):
    u = build()
    first = u.density(grid)
    assert u.density(grid) is first and not first.flags.writeable
    other = make_grid(240, 48)   # the fixture's nodes, in another grid
    again = u.density(other)
    assert again is not first and again.tobytes() == first.tobytes()
    fresh = [u.density(grid.zs) for _ in range(2)]
    assert fresh[0] is not fresh[1] and fresh[0].flags.writeable


@pytest.mark.parametrize("build", _memo_maps(), ids=["mobius", "pullback", "radial"])
def test_memoised_density_equals_a_fresh_evaluators(build, grid):
    u = build()
    kept = u.density(grid)
    u.density(make_grid(16, 8))   # the memo moves to another grid and back
    assert u.density(grid) is not kept
    assert u.density(grid).tobytes() == kept.tobytes()
    assert build().density(grid).tobytes() == kept.tobytes()
    assert u.density(grid.zs).tobytes() == kept.tobytes()


@pytest.mark.parametrize("build", _memo_maps(), ids=["mobius", "pullback", "radial"])
def test_kept_density_does_not_keep_its_grid_alive(build, grid):
    u = build()
    dropped = make_grid(40, 8)
    u.density(dropped)
    ref = weakref.ref(dropped)
    del dropped
    gc.collect()
    assert ref() is None
    kept = u.density(grid)   # a live grid still reads its kept array
    assert u.density(grid) is kept and not kept.flags.writeable


@pytest.mark.parametrize("build", _memo_maps(), ids=["mobius", "pullback", "radial"])
def test_kept_pair_is_read_only_and_goes_with_its_grid(build, grid):
    u = build()
    kept = u.jacobian(grid)
    assert u.jacobian(grid) is kept and not kept.flags.writeable
    dropped = make_grid(500, 160)
    refs = [weakref.ref(u.density(dropped)), weakref.ref(u.jacobian(dropped))]
    del dropped
    gc.collect()
    assert [ref() for ref in refs] == [None, None]


def test_energy_report_of_a_radial_map_evaluates_its_profile_once(grid, monkeypatch):
    u = RadialMap(RadialProfile.from_function(3, 300, lambda r: 3 * r + 0.2 * np.sin(2 * r)))
    value_and_slope, calls = RadialProfile.value_and_slope, []

    def counting(self, r):
        calls.append(np.size(r))
        return value_and_slope(self, r)

    monkeypatch.setattr(RadialProfile, "value_and_slope", counting)
    energy_report(u, 1.4, grid)
    assert calls == [grid.zs.size]


def test_mobius_jacobian_reads_the_kept_density(grid):
    u = pullback(identity_map(), MobiusElement.dilation(3.0))
    assert u.jacobian(grid) is u.density(grid)


# _form_density calls of the quick battery at seed 2024: measured 90 (c01 9,
# c03 1, c05 11, c08 14, c11 5 and c12 50); without the per-grid density, 258
QUICK_FORM_DENSITY_CALLS = 90


def test_quick_battery_form_density_ceiling(monkeypatch):
    from alphasphere import maps
    from alphasphere.verification import VerifySettings, run_criteria
    calls = []

    def counting(m, pts):
        calls.append(m)
        return _form_density(m, pts)

    monkeypatch.setattr(maps, "_form_density", counting)
    rows = run_criteria(VerifySettings(seed=2024, level="quick"))
    assert all(r.passed for r in rows)
    assert len(calls) <= QUICK_FORM_DENSITY_CALLS
