import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from alphasphere import (
    DegenerateMatrixError,
    GRAD_LOG_CHI_L2_REGIME_CONSTANT,
    MobiusElement,
    SpherePoint,
    chi_values,
    grad_log_chi,
    grad_log_chi_l2_bound,
    identity_map,
    mobius_apply,
    mobius_svd,
    norm_grad_log_chi_L2,
)

INF = complex(math.inf, 0.0)


finite_c = st.complex_numbers(min_magnitude=0.0, max_magnitude=5.0,
                              allow_nan=False, allow_infinity=False)


def su2(z1, z2):
    n = math.sqrt(abs(z1) ** 2 + abs(z2) ** 2)
    z1, z2 = z1 / n, z2 / n
    return MobiusElement(z1, -z2.conjugate(), z2, z1.conjugate())


def random_element(rng, lam_max=10.0):
    lam = math.exp(rng.uniform(0.0, math.log(lam_max)))
    u = su2(complex(*rng.normal(size=2)), complex(*rng.normal(size=2)))
    v = su2(complex(*rng.normal(size=2)), complex(*rng.normal(size=2)))
    return u @ MobiusElement.dilation(lam) @ v


# ---------------------------------------------------------------- charts

def test_chart_named_points():
    chart = identity_map().position
    assert np.array_equal(chart(0j), [0.0, 0.0, -1.0])
    assert np.allclose(chart(1 + 0j), [1.0, 0.0, 0.0], rtol=0.0, atol=1e-15)
    assert np.array_equal(chart(INF), [0.0, 0.0, 1.0])


def test_sphere_point_rejects_off_sphere():
    with pytest.raises(ValueError):
        SpherePoint(1.0, 1.0, 1.0)


# ---------------------------------------------------------------- action

def test_apply_identity_and_dilation():
    z = 0.3 - 0.7j
    assert mobius_apply(MobiusElement.identity(), z) == z
    lam = 3.7
    assert abs(mobius_apply(MobiusElement.dilation(lam), z) - lam * z) < 1e-14


def test_apply_pole_and_infinity():
    m = MobiusElement(0.0, 1.0, -1.0, 0.0)  # zeta -> -1/zeta
    assert mobius_apply(m, 0j) == INF
    assert abs(mobius_apply(m, INF)) < 1e-15
    assert mobius_apply(MobiusElement.dilation(2.0), INF) == INF


def test_apply_is_one_vectorised_action():
    # dyadic entries with a d - b c = 1 make c (-d/c) + d vanish exactly
    a, b, c, d = 1.5 + 0.5j, -0.5 + 0.625j, 2.0 + 0j, 0.25 + 0.75j
    m = MobiusElement(a, b, c, d)
    assert m.det() == 1 and c * (-d / c) + d == 0
    rng = np.random.default_rng(11)
    rand = rng.normal(size=200) + 1j * rng.normal(size=200)
    out = mobius_apply(m, np.concatenate(([0j, INF, -d / c], rand)))
    assert out.shape == (203,)
    assert out[2] == INF
    scalar = np.array([b / d, a / c] + [(a * z + b) / (c * z + d) for z in rand.tolist()])
    finite = np.delete(out, 2)
    assert np.max(np.abs(finite - scalar) / np.abs(scalar)) <= 1e-14
    # a scalar point gives a 0-d array, an array keeps its shape
    assert mobius_apply(m, 0.5j).shape == ()
    assert mobius_apply(m, rand.reshape(20, 10)).shape == (20, 10)


@settings(max_examples=80, deadline=None)
@given(finite_c, finite_c, finite_c, finite_c)
def test_group_law(w1, w2, w3, w4):
    rng = np.random.default_rng(abs(hash((w1, w2, w3, w4))) % 2 ** 31)
    m1 = random_element(rng)
    m2 = random_element(rng)
    z = complex(w1.real, w2.imag) / 5.0
    lhs = mobius_apply(m1, mobius_apply(m2, z))
    rhs = mobius_apply(m1 @ m2, z)
    if np.isinf(lhs) or np.isinf(rhs):
        assert np.isinf(lhs) and np.isinf(rhs)
    else:
        assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(rhs))


def test_compose_inverse():
    rng = np.random.default_rng(5)
    m = random_element(rng)
    r = m @ m.inverse()
    assert abs(r.a - 1.0) < 1e-12 and abs(r.d - 1.0) < 1e-12
    assert abs(r.b) < 1e-12 and abs(r.c) < 1e-12


# ------------------------------------------------------------------- svd

def test_svd_su2_degenerate_branch():
    m = su2(complex(0.6, 0.3), complex(-0.2, 0.9))
    sv = mobius_svd(m)
    assert sv.lam == 1.0
    assert np.array_equal(sv.U.matrix(), m.matrix())
    assert np.allclose(sv.V.matrix(), np.eye(2))


def test_svd_diagonal_case():
    sv = mobius_svd(MobiusElement.dilation(4.0))  # diag(2, 1/2)
    assert abs(sv.lam - 4.0) < 1e-12
    assert np.allclose(np.abs(sv.U.matrix()), np.eye(2), atol=1e-12)
    assert np.allclose(np.abs(sv.V.matrix()), np.eye(2), atol=1e-12)


def test_svd_reconstruction_and_eigen_oracle():
    rng = np.random.default_rng(17)
    for _ in range(1000):
        vals = rng.normal(size=8)
        m = MobiusElement.normalized(complex(vals[0], vals[1]),
                                     complex(vals[2], vals[3]),
                                     complex(vals[4], vals[5]),
                                     complex(vals[6], vals[7]))
        sv = mobius_svd(m)
        A = m.matrix()
        B = (sv.U @ MobiusElement.dilation(sv.lam) @ sv.V.inverse()).matrix()
        err = min(np.max(np.abs(B - A)), np.max(np.abs(B + A)))
        assert err < 1e-10
        # oracle: larger eigenvalue of M M* from an independent routine
        lam_oracle = float(np.max(np.linalg.eigvalsh(A @ A.conj().T)))
        assert abs(sv.lam - lam_oracle) < 1e-10 * lam_oracle
        assert sv.lam >= 1.0
        for q in (sv.U, sv.V):
            assert np.max(np.abs(q.matrix() @ q.matrix().conj().T - np.eye(2))) < 1e-10
            assert abs(q.det() - 1.0) < 1e-10


def test_svd_rejects_degenerate():
    m = MobiusElement.identity()
    object.__setattr__(m, "a", 2.0 + 0j)
    with pytest.raises(DegenerateMatrixError):
        mobius_svd(m)
    with pytest.raises(DegenerateMatrixError):
        MobiusElement(1.0, 0.0, 0.0, 2.0)
    with pytest.raises(DegenerateMatrixError):
        MobiusElement.normalized(1.0, 0.0, 0.0, 0.0)
    # a NaN determinant compares false with everything, so it must fail too
    with pytest.raises(DegenerateMatrixError):
        MobiusElement(math.nan, 0.0, 0.0, 1.0)
    with pytest.raises(DegenerateMatrixError):
        MobiusElement.normalized(math.nan, 0.0, 0.0, 1.0)


def _stack(elements):
    return MobiusElement(*(np.array([getattr(e, k) for e in elements]) for k in "abcd"))


def _entries(m):
    return np.array(np.broadcast_arrays(m.a, m.b, m.c, m.d))


def test_batch_equals_its_elements():
    rng = np.random.default_rng(23)
    els = [random_element(rng) for _ in range(60)]
    els += [su2(complex(0.6, 0.3), complex(-0.2, 0.9)), MobiusElement.identity()]
    others = [random_element(rng) for _ in els]
    m, other = _stack(els), _stack(others)
    z = rng.normal(size=len(els)) + 1j * rng.normal(size=len(els))
    z[0], z[1] = INF, 0j
    sv, image = mobius_svd(m), mobius_apply(m, z)
    assert np.array_equal(sv.lam[-2:], [1.0, 1.0])
    product = (m @ other).matrix()
    for k, (e, o) in enumerate(zip(els, others)):
        one = mobius_svd(e)
        assert sv.lam[k] == one.lam
        for batch, single in ((sv.U, one.U), (sv.V, one.V), (m.inverse(), e.inverse())):
            assert np.array_equal(_entries(batch)[:, k], _entries(single))
        assert image[k] == mobius_apply(e, z[k])
        # numpy may fuse the multiply and add of a complex product over an
        # array (it does with AVX-512) but not over two scalars, so @ agrees
        # to the rounding of its products, a few ulps of their magnitudes
        bound = 4.0 * np.finfo(float).eps * (np.abs(e.matrix()) @ np.abs(o.matrix()))
        assert np.all(np.abs(product[k] - (e @ o).matrix()) <= bound)


def test_batch_validation():
    ones = np.ones(3)
    for bad in (2.0, math.nan):
        with pytest.raises(DegenerateMatrixError):
            MobiusElement(np.array([1.0, bad, 1.0]), 0.0, 0.0, ones)
    for bad in (2.0, math.nan):
        m = MobiusElement(ones, 0.0, 0.0, ones)
        object.__setattr__(m, "a", np.array([1.0, 1.0, bad], dtype=complex))
        with pytest.raises(DegenerateMatrixError):
            mobius_svd(m)
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="finite and positive"):
            MobiusElement.dilation(np.array([2.0, bad, 0.5]))
    # a scalar element keeps scalar, hashable entries
    assert hash(MobiusElement.dilation(2.0)) == hash(MobiusElement.dilation(2.0))


def test_normalized_hits_unit_determinant():
    m = MobiusElement.normalized(3.0 + 1j, 2.0, -1j, 0.5)
    assert abs(m.det() - 1.0) < 1e-12


# ------------------------------------------------------------------- chi

def test_chi_values():
    assert abs(chi_values(1.0, 0.4 + 2j) - 1.0) < 1e-15
    assert abs(chi_values(3.0, 0j) - 1.0 / 9.0) < 1e-15
    for lam in (5.0, 1.1, 7.3, 1e150):
        assert chi_values(lam, INF) == lam ** 2


def test_chi_sup_is_lam_squared():
    lam = 5.0
    rs = np.linspace(0.0, 50.0, 20001)
    vals = chi_values(lam, rs.astype(complex))
    assert np.all(vals > 0.0)
    assert abs(np.max(vals) - lam * lam) < 1e-2 * lam * lam
    assert np.max(vals) <= lam * lam * (1.0 + 1e-12)


def test_grad_log_chi_trivial_and_fd():
    assert grad_log_chi(1.0, 0.7) == 0.0
    assert grad_log_chi(4.0, 0.0) == 0.0
    rng = np.random.default_rng(2)
    for _ in range(50):
        lam = math.exp(rng.uniform(0.0, 3.0))
        r = rng.uniform(0.01, 5.0)
        d = 1e-6 * max(1.0, r)
        fd = (math.log(chi_values(lam, complex(r + d)))
              - math.log(chi_values(lam, complex(r - d)))) / (2.0 * d)
        assert abs(grad_log_chi(lam, r) - fd) < 1e-6 * max(1.0, abs(fd))


def test_grad_log_chi_nonnegative():
    rs = np.linspace(0.0, 30.0, 500)
    assert np.all(grad_log_chi(7.0, rs) >= 0.0)


# -------------------------------------------------- grad log chi L2 norm

def test_norm_grad_log_chi_trivial_and_regression():
    assert norm_grad_log_chi_L2(1.0) == 0.0
    # frozen high-precision quadrature of the radial integral
    assert abs(norm_grad_log_chi_L2(10.0) - 19.973008756044330617) < 1e-9


def test_norm_grad_log_chi_bound_at_e():
    v = norm_grad_log_chi_L2(math.e)
    cap = (4.0 * math.sqrt(8.0 * math.pi) * ((math.e + 1.0) / math.e)
           * ((math.e - 1.0) / math.e) * math.sqrt(11.0 / 8.0))
    assert v <= cap
    assert abs(grad_log_chi_l2_bound(math.e) - cap) < 1e-12


def _radial_quad(lam, weight):
    """2 pi int_0^inf (d/dr log chi_lam)^2 weight(r) dr by scipy's quad, split
    where the integrand turns: at 1/lam and 1."""
    from scipy.integrate import quad
    ends = (0.0, 1.0 / lam, 1.0, math.inf)
    return 2.0 * math.pi * sum(
        quad(lambda r: grad_log_chi(lam, r) ** 2 * weight(r), lo, hi,
             epsabs=0.0, epsrel=1e-13, limit=200)[0] for lo, hi in zip(ends, ends[1:]))


@pytest.mark.parametrize("lam", [1.5, 2.0, 10.0, 100.0, 1e3, 1e4])
def test_norm_grad_log_chi_is_the_spherical_area_norm(lam):
    # the library integrates against spherical area, 8 pi int g^2 r (1+r^2)^-2
    # dr; the conformally invariant Dirichlet norm 2 pi int g^2 r dr is
    # smaller, its square 16 pi ((mu + 1) log mu - 2 (mu - 1)) / (mu - 1) with
    # mu = lam^2 (a closed form that cancels near lam = 1: 3e-9 at 1.0001)
    mu = lam * lam
    invariant2 = 16.0 * math.pi * ((mu + 1.0) * math.log(mu) - 2.0 * (mu - 1.0)) / (mu - 1.0)
    assert abs(_radial_quad(lam, lambda r: r) - invariant2) <= 1e-12 * invariant2
    area2 = _radial_quad(lam, lambda r: 4.0 * r / (1.0 + r * r) ** 2)
    norm = norm_grad_log_chi_L2(lam)
    assert abs(norm * norm - area2) <= 1e-8 * area2
    assert math.sqrt(invariant2) < norm <= grad_log_chi_l2_bound(lam)


def test_norm_grad_log_chi_two_regime_envelope():
    for lam in np.exp(np.linspace(0.0, 10.0, 25)):
        v = norm_grad_log_chi_L2(float(lam))
        assert v <= grad_log_chi_l2_bound(float(lam)) + 1e-12
        if lam > 1.0:
            t = math.log(lam)
            env = t if t <= 1.0 else math.sqrt(t)
            assert v <= GRAD_LOG_CHI_L2_REGIME_CONSTANT * env

