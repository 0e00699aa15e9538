"""Acceptance battery: every quantitative criterion at its stated
tolerance, full problem sizes.  One pass/fail line is printed per
criterion (run pytest with -s to see them as they complete)."""

import math

import pytest

from alphasphere import energy, maps, mobius, quadrature
from alphasphere.verification import CRITERIA, VerifySettings, _Context, run_criteria


@pytest.fixture(scope="module")
def ctx():
    # shared context so the threefold radial solve is reused across criteria
    return _Context(settings=VerifySettings(seed=2024, level="full"))


def _run(ctx, name):
    rows = CRITERIA[name](ctx)
    ok = all(r.passed for r in rows)
    label = rows[0].criterion if rows else name
    print(f"{label}: {'PASS' if ok else 'FAIL'} "
          f"({sum(r.passed for r in rows)}/{len(rows)} checks)")
    for r in rows:
        assert r.passed, (f"{r.criterion}/{r.check}: value={r.value!r} "
                          f"bound={r.bound!r} {r.note}")


def test_c01_closed_form_vs_direct(ctx):
    _run(ctx, "c01")


def test_c02_alpha1_conformal_invariance(ctx):
    _run(ctx, "c02")


def test_c03_identity_energies(ctx):
    _run(ctx, "c03")


def test_c04_symmetry_and_monotonicity(ctx):
    _run(ctx, "c04")


def test_c05_derivative_consistency(ctx):
    _run(ctx, "c05")


def _dloglam_row(seed, level):
    rows = CRITERIA["c05"](_Context(settings=VerifySettings(seed=seed, level=level)))
    return next(r for r in rows if r.check == "dloglam_vs_fd")


def test_c05_dloglam_detects_a_1e5_relative_error(monkeypatch):
    assert _dloglam_row(2024, "quick").passed
    exact = energy.d_energy_d_loglambda
    monkeypatch.setattr(energy, "d_energy_d_loglambda",
                        lambda *args: exact(*args) * (1.0 + 1e-5))
    row = _dloglam_row(2024, "quick")
    assert not row.passed and row.value > 5e-6


@pytest.mark.parametrize("seed", [580431179, 400653122])
def test_c05_dloglam_passes_where_small_steps_hit_roundoff(seed):
    # both seeds draw a map with |dE/dlog lam| < 4e-4, where central
    # differences at step 1e-5 lost the 1e-6 relative bound to roundoff in E
    row = _dloglam_row(seed, "full")
    assert row.passed and row.value < 1e-7


def test_c06_explicit_lower_bounds(ctx):
    _run(ctx, "c06")


def test_c07_grad_log_chi_l2_bound(ctx):
    _run(ctx, "c07")


def test_c08_degree_and_floor_for_pullbacks(ctx):
    _run(ctx, "c08")


def test_c08_pullback_identity_detects_a_1e9_relative_error(monkeypatch):
    # the batched check takes chi from mobius_svd and chi_values, not from
    # the density it is compared with, so a 1e-9 error in chi must show
    def pullback_row():
        rows = CRITERIA["c08"](_Context(settings=VerifySettings(seed=2024, level="quick")))
        return next(r for r in rows if r.check == "pullback_identity")

    assert pullback_row().passed
    exact = mobius.chi_values
    monkeypatch.setattr(mobius, "chi_values", lambda *args: exact(*args) * (1.0 + 1e-9))
    row = pullback_row()
    assert not row.passed and row.value > 5e-10


def test_c08_degree_one_fails_on_a_wrong_integer_degree(monkeypatch):
    exact = maps.degree
    monkeypatch.setattr(maps, "degree", lambda u, grid: (exact(u, grid)[0], 2))
    rows = CRITERIA["c08"](_Context(settings=VerifySettings(seed=2024, level="quick")))
    row = next(r for r in rows if r.check == "degree_one")
    assert not row.passed and row.value == math.inf


def test_c09_radial_rotation_recovery(ctx):
    _run(ctx, "c09")


def test_c10_radial_threefold_construction(ctx):
    _run(ctx, "c10")


def test_c10_degree_int_fails_on_a_wrong_jacobian_degree(monkeypatch):
    # the row reads the 2-d map's Jacobian, not the solve's exact n mod 2
    exact = maps.degree
    monkeypatch.setattr(maps, "degree", lambda u, grid: (exact(u, grid)[0], 2))
    rows = CRITERIA["c10"](_Context(settings=VerifySettings(seed=2024, level="quick")))
    row = next(r for r in rows if r.check == "degree_int")
    assert not row.passed and row.value == 2.0


def test_c11_deformed_energy_gap(ctx):
    _run(ctx, "c11")


def test_c12_verify_determinism(ctx):
    _run(ctx, "c12")


# adaptive_gauss_legendre calls of the quick battery at seed 2024: measured
# 125 (c01 6, c05 30, c06 16, c07 10, c12 60, and c04 3, one prefix pass per
# exponent), plus a margin of 5.  Evaluating c04's tau grid point by point
# takes 195 calls in c04 alone.
QUICK_QUADRATURE_CALLS = 125 + 5


def test_quick_battery_quadrature_call_ceiling(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return quadrature.adaptive_gauss_legendre(*args, **kwargs)

    for module in (energy, mobius):
        monkeypatch.setattr(module, "adaptive_gauss_legendre", counting)
    rows = run_criteria(VerifySettings(seed=2024, level="quick"))
    assert all(r.passed for r in rows)
    assert len(calls) <= QUICK_QUADRATURE_CALLS


# mobius_svd calls and MobiusElement constructions of the quick battery at
# seed 2024: measured 3 calls (one batched SVD in c08 and one in each of
# c12's two c08 reruns) and 489 constructions, plus margins of 2 and 61.
# An SVD per c08 sample makes 600 calls and 8838 constructions.
QUICK_SVD_CALLS = 3 + 2
QUICK_MOBIUS_CONSTRUCTIONS = 489 + 61


def test_quick_battery_mobius_ceiling(monkeypatch):
    counts = {"svd": 0, "init": 0}
    svd, init = mobius.mobius_svd, mobius.MobiusElement.__post_init__

    def counting_svd(m):
        counts["svd"] += 1
        return svd(m)

    def counting_init(self):
        counts["init"] += 1
        init(self)

    monkeypatch.setattr(mobius, "mobius_svd", counting_svd)
    monkeypatch.setattr(mobius.MobiusElement, "__post_init__", counting_init)
    rows = run_criteria(VerifySettings(seed=2024, level="quick"))
    assert all(r.passed for r in rows)
    assert counts["svd"] <= QUICK_SVD_CALLS
    assert counts["init"] <= QUICK_MOBIUS_CONSTRUCTIONS
