import ast
import math
import os
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from copy import deepcopy
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import LinAlgError, cho_solve_banded, cholesky_banded, solveh_banded

import alphasphere
from alphasphere import (
    RadialProfile,
    annulus_split,
    dilation_energy,
    energy_floor,
    load_profile,
    minimize_radial,
    radial_residual,
    save_profile,
    window_energies,
)
from alphasphere import radial
from alphasphere.radial import (_crossings, _cubic, _DiscreteEnergy, _geometry, _newton_direction,
                                _reflect, _sincos)

import shooting
from shooting import ShootFailedError, shoot_radial


@pytest.fixture(scope="module")
def n3_solve():
    return minimize_radial(1.2, 3, 1000)


# --------------------------------------------------------------- profile

def test_profile_validation():
    with pytest.raises(ValueError):
        RadialProfile.linear(0, 200)
    with pytest.raises(ValueError):
        RadialProfile.linear(1, 50)  # too coarse
    p = RadialProfile.linear(2, 150)
    assert p.fs[0] == 0.0 and p.fs[-1] == 2 * math.pi
    with pytest.raises(ValueError):
        RadialProfile(1, p.fs + 1e-3)  # endpoints off
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            RadialProfile.from_function(3, 200, lambda r: 3 * r + np.where(r > 1, bad, 0))
    with pytest.raises(ValueError, match="1-d"):
        RadialProfile(2, np.stack((p.fs, p.fs)))
    for edges in ((0.0, 2.0, 1.0, math.pi), (0.0, math.nan, math.pi), (math.nan,),
                  (-1e-12, 1.0), (1.0, math.pi + 1e-12)):   # unsorted, NaN, out of [0, pi]
        with pytest.raises(ValueError, match="0 <= a <= b <= pi"):
            window_energies(p, 1.2, edges)


def test_profile_resample_preserves_endpoints():
    p = RadialProfile.from_function(3, 400, lambda r: 3 * r + 0.2 * np.sin(r))
    q = p.resampled(250)
    assert q.fs[0] == 0.0 and q.fs[-1] == 3 * math.pi
    assert abs(q.value_and_slope(1.0)[0] - p.value_and_slope(1.0)[0]) < 1e-8
    assert p.resampled(400) is p   # its own grid needs no resampling


@pytest.mark.parametrize("N", [2000, 4000, 8000, 16000, 32000, 64000])
def test_restriction_takes_the_fine_nodes_bit_for_bit(N):
    # the coarse nodes snap onto fine ones, where the cubic returns nodal values
    p = RadialProfile.from_function(
        3, N, lambda r: 3 * r + 0.3 * np.sin(2 * r) - 0.1 * np.sin(5 * r))
    for m in (2, 4):
        q = p.resampled(N // m)
        assert np.array_equal(q.fs, p.value_and_slope(np.linspace(0.0, math.pi, N // m + 1))[0])
        assert q.fs.flags.writeable and not np.shares_memory(q.fs, p.fs)


@pytest.mark.parametrize("N, m", [(1000, 2), (1000, 4), (8000, 4), (500, 8)])
def test_prolongation_reads_each_cells_cubic_at_exact_fractions(N, m):
    p = minimize_radial(1.2, 3, N).profile
    q = p.resampled(m * N)
    fe = _reflect(p.fs, 3)
    c, t = np.repeat(np.arange(N), m), np.tile(np.arange(m) / m, N)
    cubic = _cubic(fe[c], fe[c + 1], fe[c + 2], fe[c + 3], t)[0]
    assert np.max(np.abs(q.fs[:-1] - cubic)) <= 2.0 * np.spacing(np.max(np.abs(p.fs)))
    assert np.array_equal(q.fs[::m], p.fs)   # the fine nodes on coarse ones are exact
    assert q.fs[0] == 0.0 and q.fs[-1] == 3 * math.pi


def test_profile_save_load_roundtrip(tmp_path):
    p = RadialProfile.from_function(3, 200, lambda r: 3 * r + 0.1 * np.sin(2 * r))
    path = tmp_path / "prof.txt"
    save_profile(p, path)
    q = load_profile(path)
    assert q.n == 3
    assert np.max(np.abs(q.fs - p.fs)) < 1e-12


def test_profile_grid_follows_from_N(tmp_path):
    # the constructor and load_profile both give the one uniform grid of N
    p = RadialProfile(2, RadialProfile.linear(2, 300).fs)
    assert np.array_equal(p.rs, np.linspace(0.0, math.pi, 301))
    assert p.rs is p.rs   # built once per profile
    path = tmp_path / "prof.txt"
    save_profile(p, path)
    assert np.array_equal(load_profile(path).rs, p.rs)


def test_load_profile_rejects_a_grid_off_the_uniform_one(tmp_path):
    p = RadialProfile.linear(2, 200)
    path = tmp_path / "prof.txt"
    moved, nan = p.rs.copy(), p.rs.copy()
    moved[50] += 1e-9
    nan[50] = np.nan
    for rs, match in ((moved, "uniform grid"), (2.0 * p.rs, "uniform grid"),
                      (p.rs + 0.1, "uniform grid"), (nan, "finite")):
        np.savetxt(path, np.column_stack([rs, p.fs]), fmt="%.17g")
        with pytest.raises(ValueError, match=match):
            load_profile(path, n=2)


def test_value_and_slope_returns_nodes_exactly():
    for N in (101, 400, 1000, 4000):
        p = RadialProfile.from_function(3, N, lambda r: 3 * r + 0.3 * np.sin(2 * r))
        f, _ = p.value_and_slope(p.rs)
        assert np.array_equal(f, p.fs)
        assert p.value_and_slope(0.0)[0] == 0.0 and p.value_and_slope(math.pi)[0] == 3 * math.pi


def test_value_and_slope_reproduces_cubics():
    # a cubic with g(0) = 0 and g(pi) = 2 pi; cells 1 .. N-2 see no ghost node
    g = lambda r: 2 * r + 0.4 * r * (r - math.pi) * (r - 1.0)
    dg = lambda r: 2 + 0.4 * (3 * r * r - 2 * (math.pi + 1.0) * r + math.pi)
    p = RadialProfile.from_function(2, 200, g)
    r = np.random.default_rng(3).uniform(p.h, math.pi - p.h, 500)
    f, fp = p.value_and_slope(r)
    assert np.max(np.abs(f - g(r))) < 1e-12
    assert np.max(np.abs(fp - dg(r))) < 1e-12


_LAZY_SCIPY = ("scipy.linalg", "scipy._lib", "scipy.special", "scipy.integrate",
               "scipy.optimize", "scipy.interpolate")


def _fresh_python(code):
    env = {**os.environ, "PYTHONPATH": str(Path(alphasphere.__file__).parents[1])}
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, env=env).stdout


def test_import_leaves_scipy_interpolate_out():
    # scipy is imported where it is used, the Newton step its only site
    for module in ("alphasphere", "alphasphere.cli"):
        code = f"import sys, {module}; print(sorted(set({_LAZY_SCIPY!r}) & set(sys.modules)))"
        assert _fresh_python(code).strip() == "[]", module


def test_import_fills_no_per_grid_cache_and_loads_no_scipy():
    # import-time work shows in every process's set-up: the per-grid caches
    # (geometry with its node trigonometry, quadrature rules, dpbsv) fill on use
    code = ("import sys, alphasphere\n"
            "mods = [m for k, m in list(sys.modules.items()) if k.startswith('alphasphere')]\n"
            "caches = {k: v.cache_info().currsize for m in mods for k, v in vars(m).items()\n"
            "          if hasattr(v, 'cache_info')}\n"
            "print(repr((caches, sorted({k.split('.')[0] for k in sys.modules} & {'scipy'}))))")
    caches, scipy = ast.literal_eval(_fresh_python(code))
    assert {"_geometry", "_dpbsv"} <= set(caches) and not any(caches.values()), caches
    assert scipy == []


def test_library_imports_scipy_linalg_alone():
    # the shooting oracle, the one user of scipy.integrate and
    # scipy.optimize, lives with the tests; the Newton step loads dpbsv by
    # its file's path and imports scipy.linalg.lapack only where that fails
    found = set()
    for path in Path(alphasphere.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                found.update(a.name for a in node.names if a.name.split(".")[0] == "scipy")
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "scipy":
                found.add(node.module)
    assert found == {"scipy.linalg.lapack"}


def test_solves_leave_scipy_linalg_out():
    # a solve, in the library or through the CLI, loads scipy's compiled
    # LAPACK module alone: scipy.linalg's package init never runs
    solves = ("alphasphere.minimize_radial(1.2, 3, 1000)",
              "alphasphere.cli.main(['radial-solve', '--alpha', '1.2', '--n', '3', '--N', '1000'])")
    for solve in solves:
        code = ("import contextlib, io, sys, alphasphere.cli\n"
                f"with contextlib.redirect_stdout(io.StringIO()):\n    {solve}\n"
                f"print(sorted(set({_LAZY_SCIPY!r}) & set(sys.modules)),"
                " 'scipy.linalg._flapack' in sys.modules)")
        assert _fresh_python(code).strip() == "[] True", solve


def test_newton_direction_falls_back_to_scipy_linalg_lapack():
    # scipy's module path is private: where no file of that name loads, the
    # routine comes from scipy.linalg.lapack, with the same bits
    code = ("import sys, numpy as np\n"
            "from importlib import machinery\n"
            "from alphasphere.radial import RadialProfile, _DiscreteEnergy, _dpbsv, _newton_direction\n"
            "disc = _DiscreteEnergy(1.2, 3, 200)\n"
            "fs = RadialProfile.from_function(3, 200, lambda r: 3 * r + 0.2 * np.sin(2 * r)).fs\n"
            "g = disc.value_and_grad(fs)[1][1:-1]\n"
            "loaded, before = _newton_direction(disc, fs, g), 'scipy.linalg' in sys.modules\n"
            "machinery.EXTENSION_SUFFIXES = ['.missing' + s for s in machinery.EXTENSION_SUFFIXES]\n"
            "_dpbsv.cache_clear()\n"
            "fallback = _newton_direction(disc, fs, g)\n"
            "print(before, 'scipy.linalg' in sys.modules, np.array_equal(loaded, fallback))")
    assert _fresh_python(code).split() == ["False", "True", "True"]


def test_dilation_table_loads_no_scipy():
    readme = (Path(alphasphere.__file__).parents[2] / "README.md").read_text()
    line = next(ln for ln in readme.splitlines() if ln.startswith("alphasphere dilation-table"))
    code = ("import contextlib, io, sys, alphasphere.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = alphasphere.cli.main({line.split()[1:]!r})\n"
            "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert _fresh_python(code).strip() == "0 []"


# ---------------------------------------------------------------- energy

def test_linear_profile_energy_exact():
    for alpha in (1.0, 1.3, 2.0):
        [v] = window_energies(RadialProfile.linear(1, 300), alpha, (0.0, math.pi))
        assert v == pytest.approx(energy_floor(alpha), rel=1e-12)


def test_threefold_linear_energy_above_floor():
    [v] = window_energies(RadialProfile.linear(3, 300), 1.2, (0.0, math.pi))
    assert v >= 2.0 ** (3 * 1.2 + 1.0) * math.pi
    assert math.isfinite(v)


def test_energy_reflection_symmetry():
    n, N = 3, 400
    p = RadialProfile.from_function(n, N, lambda r: n * r + 0.3 * np.sin(2 * r))
    q = RadialProfile(n, n * math.pi - p.fs[::-1])
    assert window_energies(p, 1.4, (0.0, math.pi)) == pytest.approx(
        window_energies(q, 1.4, (0.0, math.pi)), rel=1e-12)


def _pointwise_energy(p, alpha):
    """4-point Gauss-Legendre on every cell, with f and f' read point by
    point through value_and_slope."""
    x, w = np.polynomial.legendre.leggauss(4)
    r = p.rs[:-1, None] + 0.5 * p.h * (x + 1.0)
    f, fp = p.value_and_slope(r)
    dens = (2.0 + fp * fp + (np.sin(f) / np.sin(r)) ** 2) ** alpha * np.sin(r)
    return math.pi * 0.5 * p.h * float(np.sum(dens @ w))


@pytest.mark.parametrize("edges", [
    lambda rs: (0.0, 1.0, 2.2, math.pi),
    lambda rs: (0.0, rs[300], 2.2, math.pi),      # a cut on a node
    lambda rs: (0.0, 1.0001, 1.0002, math.pi),    # a and b inside one cell
    lambda rs: (0.0, 1.5, 1.5, math.pi),          # an empty window
    lambda rs: (0.0, 2.0, math.pi, math.pi),      # an empty window at pi
    lambda rs: (0.0, math.pi),
], ids=["cells", "node", "one-cell", "empty", "empty-at-pi", "whole"])
def test_energy_window_additivity(n3_solve, edges):
    p = n3_solve.profile
    cuts = edges(p.rs)
    [total] = window_energies(p, 1.2, (0.0, math.pi))
    parts = window_energies(p, 1.2, cuts)
    assert abs(sum(parts) - total) < 1e-9
    for a, b, part in zip(cuts[:-1], cuts[1:], parts):
        assert part > 0.0 if a < b else part == 0.0
    if len(parts) == 1:
        assert parts[0] == pytest.approx(total, rel=1e-14)


@pytest.mark.parametrize("N", [16000, 32000])
def test_windows_sum_cells_as_the_solve_does(N):
    # F sums the cells before each edge pairwise, as the solve sums its
    # energy, so neither the whole nor the split drifts from it with N
    res = minimize_radial(1.2, 3, N)
    assert window_energies(res.profile, 1.2, (0.0, math.pi)) == [res.energy]
    assert sum(annulus_split(res)) == res.energy


@pytest.mark.parametrize("edges", [(), (1.0,), (math.pi,)])
def test_fewer_than_two_edges_make_no_window(n3_solve, edges):
    assert window_energies(n3_solve.profile, 1.2, edges) == []


def test_energy_is_the_minimised_discrete_objective():
    # the energy from 0 to pi sums the minimiser's cell energies; an independent
    # point-by-point integration of the same local cubic agrees with it
    p = RadialProfile.from_function(3, 400, lambda r: 3 * r + 0.3 * np.sin(2 * r))
    disc, _ = _DiscreteEnergy(1.4, 3, 400).value_and_grad(p.fs)
    [energy] = window_energies(p, 1.4, (0.0, math.pi))
    assert energy == pytest.approx(disc, rel=1e-12)
    assert energy == pytest.approx(_pointwise_energy(p, 1.4), rel=1e-12)
    res = minimize_radial(1.4, 3, 400, p, max_iters=3)
    assert res.energy == res.history[-1]
    assert res.energy == pytest.approx(_pointwise_energy(res.profile, 1.4), rel=1e-12)


def test_pointwise_evaluation_is_confined_to_cut_cells(monkeypatch):
    # the solver reads the per-cell fields and the crossings their cells'
    # cubics; the window energies make one value_and_slope call for the
    # panels from the last node to each edge (4 Gauss points each)
    sizes = []
    value_and_slope = RadialProfile.value_and_slope

    def counted(self, r):
        sizes.append(np.size(r))
        return value_and_slope(self, r)

    monkeypatch.setattr(RadialProfile, "value_and_slope", counted)
    for n in (3, 5):
        sizes.clear()
        res = minimize_radial(1.2, n, 1000)
        assert not sizes
        edges = (0.0, *res.crossings, math.pi)
        window_energies(res.profile, 1.2, edges)
        assert len(sizes) == 1 and sizes[0] <= 4 * len(edges)


# -------------------------------------------------------------- residual

def test_residual_zero_for_rotation():
    for alpha in (1.0, 1.5, 2.0):
        res = radial_residual(RadialProfile.linear(1, 500), alpha)
        assert np.max(np.abs(res)) < 1e-9


@pytest.mark.parametrize("N", [1000, 4000, 32000])
def test_residual_reads_the_grids_node_trigonometry_bit_for_bit(N):
    # the cached sin, cos, sin^2, sin^3 and cot r are the inline expressions' bits
    p = RadialProfile.from_function(3, N, lambda r: 3 * r + 0.3 * np.sin(2 * r))
    fs, h, e = p.fs, p.h, _reflect(p.fs, 3)
    fp = (-e[4:] + 8.0 * e[3:-1] - 8.0 * e[1:-3] + e[:-4]) / (12.0 * h)
    fpp = (-e[4:] + 16.0 * e[3:-1] - 30.0 * e[2:-2] + 16.0 * e[1:-3] - e[:-4]) / (12.0 * h * h)
    s, c = _sincos(p.rs[1:-1])
    sf, cf = _sincos(fs[1:-1])
    W = fp * fp + (sf / s) ** 2
    Wp = 2.0 * fp * fpp + 2.0 * sf * cf * fp / (s * s) - 2.0 * sf * sf * c / (s ** 3)
    inline = fpp + (c / s) * fp - sf * cf / (s * s) + (1.2 - 1.0) * fp * Wp / (2.0 + W)
    assert np.array_equal(radial_residual(p, 1.2), inline)
    assert not any(a.flags.writeable for a in _geometry(N)[8:])


def test_residual_refinement_order(n3_solve):
    sup = {N: minimize_radial(1.2, 3, N).residual_sup for N in (500, 1000)}
    order = math.log2(sup[500] / sup[1000])
    assert order >= 1.5


def test_residual_at_alpha_one_drops_perturbative_term():
    # at exponent 1 the operator is the plain equivariant tension term
    p = RadialProfile.from_function(3, 400, lambda r: 3 * r + 0.2 * np.sin(2 * r))
    res = radial_residual(p, 1.0)
    fs, rs, h = p.fs, p.rs, p.h
    top = 6 * math.pi
    ext = np.concatenate(([-fs[2], -fs[1]], fs, [top - fs[-2], top - fs[-3]]))
    i = np.arange(1, len(fs) - 1) + 2
    fp = (-ext[i + 2] + 8 * ext[i + 1] - 8 * ext[i - 1] + ext[i - 2]) / (12 * h)
    fpp = (-ext[i + 2] + 16 * ext[i + 1] - 30 * ext[i]
           + 16 * ext[i - 1] - ext[i - 2]) / (12 * h * h)
    r, f = rs[1:-1], fs[1:-1]
    plain = fpp + np.cos(r) / np.sin(r) * fp - np.sin(f) * np.cos(f) / np.sin(r) ** 2
    assert np.max(np.abs(res - plain)) < 1e-12


# -------------------------------------------------------------- minimise

def test_minimize_n1_recovers_rotation():
    init = RadialProfile.from_function(1, 500, lambda r: r + 0.3 * np.sin(r))
    res = minimize_radial(1.5, 1, 500, init)
    assert res.converged
    assert abs(res.energy - energy_floor(1.5)) / energy_floor(1.5) < 1e-6
    assert res.residual_sup < 1e-6
    assert res.degree_int == 1
    assert np.max(np.abs(res.profile.fs - res.profile.rs)) < 1e-8


def _dilation_profile(lam, N):
    """f_lam = 2 arctan(lam tan(r/2)), the radial profile of the dilation m_lam."""
    return RadialProfile.from_function(1, N, lambda r: 2.0 * np.arctan(lam * np.tan(0.5 * r)))


@pytest.mark.parametrize("lam", [2.0, 10.0, 100.0])
@pytest.mark.parametrize("alpha", [1.05, 1.2, 2.0])
def test_dilation_profile_energy_matches_closed_form(alpha, lam):
    # a third route to E_alpha(m_lam): the cell quadrature of the profile,
    # converging like h^4 because f_lam is not critical
    exact = dilation_energy(alpha, lam).value
    gap = {N: abs(window_energies(_dilation_profile(lam, N), alpha, (0.0, math.pi))[0] - exact)
           / exact for N in (4000, 16000)}
    assert gap[16000] <= 1e-8
    if lam == 100.0:
        assert 150.0 <= gap[4000] / gap[16000] <= 400.0


@pytest.mark.parametrize("lam", [2.0, 10.0, 100.0])
@pytest.mark.parametrize("alpha", [1.05, 1.2, 2.0])
def test_dilation_profile_descends_to_the_rotation(alpha, lam):
    # a nontrivial dilation is not alpha-critical: Newton from f_lam ends
    # at the rotation f = r, on the energy floor
    res = minimize_radial(alpha, 1, 4000, init=_dilation_profile(lam, 4000))
    assert res.converged
    assert np.max(np.abs(res.profile.fs - res.profile.rs)) <= 1e-7
    floor = energy_floor(alpha)
    assert abs(res.energy - floor) / floor <= 1e-14
    hist = np.array(res.history)
    assert np.all(np.diff(hist) <= 4.0 * np.spacing(hist[:-1]))


def test_minimize_preserves_endpoints(n3_solve):
    assert n3_solve.profile.fs[0] == 0.0
    assert n3_solve.profile.fs[-1] == 3 * math.pi


def test_minimize_energy_descends():
    res = minimize_radial(1.3, 3, 300)
    hist = np.array(res.history)
    assert len(hist) >= 2
    assert np.all(np.diff(hist) <= 1e-12 * np.abs(hist[:-1]))


def test_minimize_n3(n3_solve):
    res = n3_solve
    assert res.converged
    assert res.degree_int == 1
    assert res.energy > 2.0 ** (3 * 1.2 + 1.0) * math.pi
    assert res.residual_sup <= 1e-4
    r1, r2 = res.crossings
    assert 0.0 < r1 < r2 < math.pi
    assert float(res.profile.value_and_slope(r1)[0]) == pytest.approx(math.pi, abs=1e-8)
    assert float(res.profile.value_and_slope(r2)[0]) == pytest.approx(2 * math.pi, abs=1e-8)


def _brentq_crossing(p, level):
    # scipy's root finder on the first cell that climbs through the level
    from scipy.optimize import brentq
    i = next(i for i in range(p.N) if p.fs[i] < level <= p.fs[i + 1])
    return brentq(lambda r: float(p.value_and_slope(r)[0]) - level, p.rs[i], p.rs[i + 1],
                  xtol=1e-14)


@pytest.mark.parametrize("alpha,N,n", [
    (1.1, 333, 3), (1.2, 1000, 3), (1.5, 4000, 3), (2.0, 150, 3),
    (1.2, 1000, 2), (1.2, 1000, 4), (1.2, 1000, 5),
], ids=["1.1-333", "1.2-1000", "1.5-4000", "2.0-150", "n2", "n4", "n5"])
def test_crossings_match_brentq(alpha, N, n):
    res = minimize_radial(alpha, n, N)
    rs = res.crossings
    assert len(rs) == n - 1
    for k, r in enumerate(rs, 1):
        assert abs(r - _brentq_crossing(res.profile, k * math.pi)) <= 1e-14
        assert abs(float(res.profile.value_and_slope(r)[0]) - k * math.pi) <= 1e-12
    # the minimiser is symmetric under r -> pi - r, f -> n pi - f
    for r, mirror in zip(rs, rs[::-1]):
        assert abs(r + mirror - math.pi) <= 1e-12


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_windows_between_crossings(n):
    alpha = 1.2
    res = minimize_radial(alpha, n, 1000)
    edges = (0.0, *res.crossings, math.pi)
    parts = window_energies(res.profile, alpha, edges)
    assert abs(sum(parts) - res.energy) < 1e-9
    for part, a, b in zip(parts, edges[:-1], edges[1:]):
        # f climbs from k pi to (k + 1) pi, so the window's Dirichlet part is
        # at least 4 pi, and (2 + W)^alpha >= 2^alpha (1 + alpha W / 2)
        area = 2.0 * math.pi * (math.cos(a) - math.cos(b))
        assert part >= 2.0 ** (alpha - 1.0) * (area + 4.0 * math.pi * alpha)
        # measured, not implied: the hemispheres of n = 2 lie below the floor
        if n >= 3:
            assert part >= energy_floor(alpha) - 1e-9


@pytest.mark.parametrize("N", [100, 4000, 64000])
def test_crossings_bisect_their_cells_cubic(monkeypatch, N):
    # each crossing reads the cubic of its own cell, once per halving, and
    # never the global evaluator
    p = RadialProfile.from_function(5, N, lambda r: 5 * r + 0.3 * np.sin(2 * r))
    calls = Counter()

    def counted(f0, f1, f2, f3, t):
        calls[f0, f1, f2, f3] += 1
        return _cubic(f0, f1, f2, f3, t)

    def refused(self, r):
        raise AssertionError("the crossings called value_and_slope")

    monkeypatch.setattr("alphasphere.radial._cubic", counted)
    monkeypatch.setattr(RadialProfile, "value_and_slope", refused)
    rs = _crossings(p)
    assert len(rs) == len(calls) == 4
    assert max(calls.values()) <= 64
    monkeypatch.undo()
    for k, r in enumerate(rs, 1):
        assert abs(float(p.value_and_slope(r)[0]) - k * math.pi) <= 1e-12


def test_crossing_after_skips_earlier_climbs():
    # f climbs through pi, falls back below it and climbs again; the
    # crossing is the first climb
    p = RadialProfile.from_function(2, 400, lambda r: 2 * r + 1.2 * np.sin(2 * r))
    [first] = _crossings(p)
    assert np.any((p.rs > first) & (p.fs < math.pi))
    assert first < 1.2
    assert abs(first - _brentq_crossing(p, math.pi)) <= 1e-14


def test_crossing_on_a_node_is_that_node():
    p = RadialProfile.from_function(3, 400, lambda r: 3 * r + 0.3 * np.sin(2 * r))
    fs = p.fs.copy()
    k1, k2 = (int(np.argmax(fs >= v)) for v in (math.pi, 2 * math.pi))
    fs[k1], fs[k2] = math.pi, 2 * math.pi
    q = RadialProfile(3, fs)
    assert _crossings(q) == (q.rs[k1], q.rs[k2])


def test_minimize_n2_has_degree_zero():
    res = minimize_radial(1.2, 2, 400)
    assert res.converged
    assert res.degree_int == 0


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_degree_is_the_winding_count_mod_2(n):
    # (1 - cos n pi) / 2 exactly, as the integral of sin f f' / 2 is for any
    # profile; the 2-d map's Jacobian, which does not read it, agrees
    res = minimize_radial(1.2, n, 200, max_iters=2)
    assert type(res.degree_int) is int and res.degree_int == n % 2
    maps = alphasphere.maps
    assert maps.degree(maps.RadialMap(res.profile), maps.make_grid(300, 8))[1] == n % 2


def test_minimize_reflection_symmetry(n3_solve):
    p = n3_solve.profile
    dev = np.max(np.abs(p.value_and_slope(math.pi - p.rs)[0] - (3 * math.pi - p.fs)))
    assert dev < 1e-6


def test_minimize_validates():
    with pytest.raises(ValueError):
        minimize_radial(1.0, 3, 300)
    with pytest.raises(ValueError):
        minimize_radial(1.2, 3, 300, init=RadialProfile.linear(2, 300))
    for N in (300, 4000):   # the linear start's profile rejects n < 1, coarse level or not
        with pytest.raises(ValueError, match="n must be >= 1"):
            minimize_radial(1.2, 0, N)
    # a Hessian past double range is a numerical limit, not an argument check
    with pytest.raises(OverflowError) as info:
        minimize_radial(400, 3, 1000)
    assert not isinstance(info.value, ValueError)


def test_minimize_cold_large_grid_stops():
    # the gradient stalls at roundoff above its tolerance at this size; the
    # stagnation stop must end the solve instead of the iteration budget
    t0 = time.perf_counter()
    res = minimize_radial(1.2, 3, 32000)
    assert time.perf_counter() - t0 < 10.0
    assert res.converged
    assert res.stop_reason in ("gradient", "stagnation")
    assert res.residual_sup <= 1e-4


def test_slope_roundoff_stays_at_eps_on_fine_grids():
    # f' formed from absolute nodal values up to n pi over h carried
    # roundoff of eps |f| / h: an energy at N = 32000 5.8e-13 away from the
    # N = 4000 solve
    fine, coarse = minimize_radial(1.2, 3, 32000), minimize_radial(1.2, 3, 4000)
    assert abs(fine.energy - coarse.energy) <= 1e-14 * coarse.energy


def _single_level(monkeypatch, N):
    """Make every solve on N cells or fewer run on its own grid alone."""
    monkeypatch.setattr(radial, "_COARSEST", N + 1)


@pytest.mark.parametrize("N", [2000, 8000])
@pytest.mark.parametrize("alpha", [1.1, 1.5])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_cold_start_from_coarse_solve_matches_linear_start(monkeypatch, n, alpha, N):
    cold = minimize_radial(alpha, n, N)
    _single_level(monkeypatch, N)
    linear = minimize_radial(alpha, n, N)
    assert linear.iterations > cold.iterations
    assert cold.converged == linear.converged
    assert abs(cold.energy - linear.energy) <= 1e-12 * linear.energy


@pytest.mark.parametrize("N", [2000, 8000])
@pytest.mark.parametrize("alpha", [1.1, 1.5])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_warm_start_from_coarse_solve_matches_single_level(monkeypatch, n, alpha, N):
    init = minimize_radial(alpha + 0.2, n, N).profile
    warm = minimize_radial(alpha, n, N, init)
    _single_level(monkeypatch, N)
    single = minimize_radial(alpha, n, N, init)
    assert warm.converged == single.converged
    assert abs(warm.energy - single.energy) <= 1e-12 * single.energy


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_warm_chain_to_small_exponents_matches_single_level(monkeypatch, n):
    # the chain whose first unconverged exponents ROADMAP item 1 tabulates;
    # some of its solves end unconverged, and those must stay so
    alphas = (1.5, 1.3, 1.2, 1.1, 1.05, 1.03, 1.02, 1.01)

    def chain():
        init, out = None, []
        for alpha in alphas:
            res = minimize_radial(alpha, n, 4000, init)
            out.append((res.converged, res.energy))
            init = res.profile
        return out

    descent = chain()
    _single_level(monkeypatch, 4000)
    for (flag, energy), (single_flag, single_energy) in zip(descent, chain()):
        assert flag == single_flag
        assert abs(energy - single_energy) <= 1e-12 * single_energy


def test_cold_start_leaves_few_fine_steps():
    # from f = 3 r this solve takes 5 steps on the fine grid
    assert minimize_radial(1.2, 3, 16000).iterations <= 2


def test_cold_start_of_winding_one_stays_linear():
    # f = r is the minimiser, so a coarse solve would only add work
    res = minimize_radial(1.2, 1, 16000)
    assert (res.stop_reason, res.iterations) == ("gradient", 1)


def _levels(monkeypatch):
    """Record (n, N, the start's N or None, max_iters) of every level."""
    calls, plain = [], radial._newton_solve

    def spy(alpha, n, N, init, max_iters):
        calls.append((n, N, None if init is None else init.N, max_iters))
        return plain(alpha, n, N, init, max_iters)

    # the recursion looks the level solver up as a module global
    monkeypatch.setattr(radial, "_newton_solve", spy)
    return calls


def test_cold_start_descends_by_quarters_to_500_cells(monkeypatch):
    calls = _levels(monkeypatch)
    minimize_radial(1.2, 3, 32000, max_iters=7)
    assert calls == [(3, 32000, None, 7), (3, 8000, None, 7), (3, 2000, None, 7),
                     (3, 500, None, 7)]
    calls.clear()
    minimize_radial(1.2, 3, 1999)   # N // 4 < 500: no coarse level
    minimize_radial(1.2, 1, 8000)   # the linear start is the minimiser
    assert [N for _, N, _, _ in calls] == [1999, 8000]


def test_warm_start_descends_by_quarters_to_500_cells(monkeypatch):
    init = minimize_radial(1.3, 3, 8000).profile
    calls = _levels(monkeypatch)
    minimize_radial(1.2, 3, 8000, init)
    # each level starts from the warm profile resampled to its own cells
    assert calls == [(3, 8000, 8000, 200), (3, 2000, 2000, 200), (3, 500, 500, 200)]
    calls.clear()
    minimize_radial(1.2, 3, 1999, init)   # N // 4 < 500: no coarse level
    minimize_radial(1.2, 1, 8000, RadialProfile.linear(1, 8000))   # n = 1 stays warm
    assert calls == [(3, 1999, 8000, 200), (1, 8000, 8000, 200)]


def test_coarse_levels_compute_no_residual_or_crossings(monkeypatch):
    counts = Counter()

    def counted(name, fn):
        def spy(*args):
            counts[name] += 1
            return fn(*args)
        monkeypatch.setattr(radial, name, spy)

    counted("radial_residual", radial.radial_residual)
    counted("_crossings", radial._crossings)
    cold = minimize_radial(1.2, 3, 32000)   # four levels
    assert counts == {"radial_residual": 1, "_crossings": 1}
    minimize_radial(1.1, 3, 32000, cold.profile)
    assert counts == {"radial_residual": 2, "_crossings": 2}


def test_warm_steps_of_the_readme_chain_leave_few_fine_steps():
    # radial-solve --alpha 1.5,1.3,1.2,1.1 --n 3 --N 4000: from the previous
    # exponent's profile on 4000 cells alone these take 4, 4 and 5 steps
    init = minimize_radial(1.5, 3, 4000).profile
    for alpha in (1.3, 1.2, 1.1):
        res = minimize_radial(alpha, 3, 4000, init)
        assert res.converged
        assert res.iterations <= 2
        init = res.profile


def test_cold_start_reaches_large_exponents():
    # from f = 3 r this solve spends all 200 steps and ends with a residual
    # of 1.4e5; the coarse levels bring it near the minimiser
    res = minimize_radial(150, 3, 2000)
    assert res.converged
    assert res.iterations <= 5


def test_minimize_reports_max_iters():
    res = minimize_radial(1.2, 3, 1000, max_iters=2)
    assert res.stop_reason == "max_iters"
    assert not res.converged
    assert res.iterations == 2


def test_minimize_reports_a_failed_line_search(monkeypatch, capsys):
    # every evaluation after a discretisation's first reports that first
    # energy plus one, so no Armijo trial lowers it
    from alphasphere.cli import main
    plain = _DiscreteEnergy.value_and_grad

    def rising(self, fs):
        val, grad = plain(self, fs)
        if not hasattr(self, "first_energy"):
            self.first_energy = val
            return val, grad
        return self.first_energy + 1.0, grad

    monkeypatch.setattr(_DiscreteEnergy, "value_and_grad", rising)
    res = minimize_radial(1.2, 3, 400)
    assert res.stop_reason == "line_search"
    assert not res.converged
    assert res.iterations == 1 and len(res.history) == 1
    assert np.array_equal(res.profile.fs, RadialProfile.linear(3, 400).fs)
    assert main(["radial-solve", "--alpha", "1.2", "--n", "3", "--N", "400"]) == 1
    assert capsys.readouterr().out.endswith(",1,false,line_search\n")


# ------------------------------------------------------- discrete Hessian

def _dense(ab):
    """Symmetric matrix from its LAPACK lower banded form."""
    H = np.diag(ab[0])
    for j in range(1, ab.shape[0]):
        H += np.diag(ab[j, :-j], j) + np.diag(ab[j, :-j], -j)
    return H


def _upper(ab):
    """The LAPACK upper banded form of the matrix whose lower form is ab,
    moved entry for entry."""
    up, m = np.zeros_like(ab), ab.shape[1]
    for j in range(ab.shape[0]):
        up[-1 - j, j:] = ab[j, :m - j]
    return up


@pytest.mark.parametrize("n, N", [(1, 100), (3, 150), (3, 200)])
def test_banded_hessian_matches_gradient_differences(n, N):
    # the band's coefficients carry (2 + W)^(alpha - 2), so alpha spans
    # the near-harmonic, the convex-in-W and the strongly convex cases
    fs = RadialProfile.from_function(n, N, lambda r: n * r + 0.2 * np.sin(2 * r)).fs
    for alpha in (1.05, 1.3, 2.0, 3.0):
        disc = _DiscreteEnergy(alpha, n, N)
        H = _dense(disc.hessian_band(fs))
        m, eps = N - 1, 1e-5
        fd = np.empty((m, m))
        for i in range(m):
            up, down = fs.copy(), fs.copy()
            up[i + 1] += eps
            down[i + 1] -= eps
            fd[:, i] = (disc.value_and_grad(up)[1] - disc.value_and_grad(down)[1])[1:-1] / (2 * eps)
        scale = np.max(np.abs(H))
        assert np.max(np.abs(fd - H)) < 1e-7 * scale, alpha
        # rows 0, 1 and m-2, m-1 carry the ghost nodes folded about the poles
        for rows in (slice(0, 2), slice(m - 2, m)):
            assert np.max(np.abs(fd[rows] - H[rows])) < 1e-8 * scale, alpha
        assert np.max(np.abs(np.triu(fd, 4))) < 1e-8 * scale, alpha  # seven-banded

        g = disc.value_and_grad(fs)[1][1:-1]
        d = _newton_direction(disc, fs, g)
        if np.linalg.eigvalsh(H)[0] > 0.0:
            ref = np.linalg.solve(H, -g)
            assert np.max(np.abs(d - ref)) < 1e-10 * np.max(np.abs(ref)), alpha
        else:   # n = 1 at alpha = 1.05 is indefinite: the Levenberg shift steps in
            assert (n, alpha) == (1, 1.05) and float(np.dot(g, d)) < 0.0


def test_fields_of_an_earlier_profile_are_never_reused():
    # the solver's Hessian reuses the fields of the last value
    # and gradient; any other profile, also the same array changed in
    # place since, must give what a fresh instance gives, bit for bit
    N = 300
    a = RadialProfile.from_function(3, N, lambda r: 3 * r + 0.2 * np.sin(2 * r)).fs
    b = RadialProfile.from_function(3, N, lambda r: 3 * r - 0.1 * np.sin(4 * r)).fs

    def fresh(fs):
        return (_DiscreteEnergy(1.2, 3, N).hessian_band(fs),
                _DiscreteEnergy(1.2, 3, N).cell_energies(fs))

    disc = _DiscreteEnergy(1.2, 3, N)
    disc.value_and_grad(a)
    band, cells = disc.hessian_band(b), disc.cell_energies(b)
    assert np.array_equal(band, fresh(b)[0]) and np.array_equal(cells, fresh(b)[1])
    disc.value_and_grad(a)
    a[1:-1] += 0.05 * np.sin(np.arange(1, N))   # in place: a is now another profile
    band, cells = disc.hessian_band(a), disc.cell_energies(a)
    assert np.array_equal(band, fresh(a)[0]) and np.array_equal(cells, fresh(a)[1])
    # and the reuse itself, as the solver meets it, changes no bit
    disc.value_and_grad(b)
    assert np.array_equal(disc.hessian_band(b.copy()), fresh(b)[0])


def test_cell_windows_are_refilled_for_each_profile():
    # an instance reads its nodes through windows made once; evaluated on
    # a, b, a, with another instance on the same N evaluating, in between,
    # the profile it evaluates next, it returns what fresh instances
    # returned, bit for bit (nodes shared between instances would pass
    # the other's profile off as its own last one)
    N = 300
    a = RadialProfile.from_function(3, N, lambda r: 3 * r + 0.2 * np.sin(2 * r)).fs
    b = RadialProfile.from_function(3, N, lambda r: 3 * r - 0.1 * np.sin(4 * r)).fs

    def evaluate(disc, fs):
        val, grad = disc.value_and_grad(fs)
        return val, grad, disc.hessian_band(fs), disc.cell_energies(fs)

    want = {id(fs): evaluate(_DiscreteEnergy(1.2, 3, N), fs) for fs in (a, b)}
    disc, other = _DiscreteEnergy(1.2, 3, N), _DiscreteEnergy(1.2, 3, N)
    for fs, after in ((a, b), (b, a), (a, b)):
        got = evaluate(disc, fs)
        evaluate(other, after)
        assert got[0] == want[id(fs)][0]
        assert all(np.array_equal(x, y) for x, y in zip(got[1:], want[id(fs)][1:]))
    for window in disc._windows:
        assert not window.flags.writeable
        with pytest.raises(ValueError):
            window[...] = 0.0


def test_sincos_matches_libm():
    # sin and cos from the half-angle tangent, against numpy's libm sin and
    # cos: sin to a few ulp, cos to a few eps absolute (its relative error
    # grows where cos vanishes, but it enters only through products)
    x = np.random.default_rng(7).uniform(-math.pi, 6 * math.pi, 100_000)
    s, c = _sincos(x)
    assert np.max(np.abs(s - np.sin(x)) / np.spacing(np.abs(np.sin(x)))) <= 8
    assert np.max(np.abs(c - np.cos(x))) <= 4 * np.finfo(float).eps
    nodes = np.array([0.0, math.pi, 2 * math.pi])
    s, c = _sincos(nodes)
    assert np.max(np.abs(s - np.sin(nodes)) / np.spacing(np.abs(np.sin(nodes)))) <= 8
    assert np.max(np.abs(c - np.cos(nodes))) <= 4 * np.finfo(float).eps
    # into given arrays, the scratch one being x itself, with the same bits
    out = (np.empty_like(x), np.empty_like(x), x.copy())
    got = _sincos(out[2], out=out)
    assert got[0] is out[0] and got[1] is out[1]
    assert all(np.array_equal(g, want) for g, want in zip(got, _sincos(x)))


def test_geometry_is_built_once_per_grid_and_read_only():
    N = 300
    a, b = _DiscreteEnergy(1.2, 3, N), _DiscreteEnergy(2.0, 1, N)
    names = ("t", "w", "B", "Bp", "Dp", "table", "inv_sin2", "wgt")
    for name in names:
        assert getattr(a, name) is getattr(b, name), name
    geometry = _geometry(N)
    for arr in geometry:
        with pytest.raises(ValueError):
            arr[...] = 0.0
    _geometry.cache_clear()
    rebuilt = _geometry(N)
    assert all(x is not y and np.array_equal(x, y) for x, y in zip(rebuilt, geometry))
    assert _DiscreteEnergy(1.2, 3, N).wgt is rebuilt[7]


def _plain_evaluation(disc, fs):
    """Value, gradient and band from allocating numpy expressions in the
    order the in-place workspace code must keep, as the reference."""
    N, window = disc.N, np.lib.stride_tricks.sliding_window_view
    fe = np.concatenate(([-fs[1]], fs, [2.0 * disc.n * math.pi - fs[-2]]))
    fc = disc.B.T @ window(fe, 4).T
    fp = (disc.Dp.T @ window(np.diff(fe), 3).T) / disc.h
    t = np.tan(fc * 0.5)   # sin and cos from the half-angle tangent
    q = 1.0 / (t * t + 1.0)
    sf, cf = t * 2.0 * q, (1.0 - t * t) * q
    W = fp * fp + sf * sf * disc.inv_sin2
    b = 2.0 * sf * cf * disc.inv_sin2
    core = (2.0 + W) ** (disc.alpha - 1.0)
    val = float(np.sum(disc.wgt * core * (2.0 + W)))
    A = disc.alpha * core * disc.wgt
    cell_grad = disc.Bp @ (2.0 * fp * A) / disc.h + disc.B @ (b * A)
    grad = np.zeros(N + 3)
    for k in range(4):
        grad[k:k + N] += cell_grad[k]
    grad[2] -= grad[0]
    grad[-3] -= grad[-1]
    grad = grad[1:-1]
    grad[0] = grad[-1] = 0.0
    p1 = disc.alpha * disc.wgt * core
    p2 = (disc.alpha - 1.0) * p1 / (2.0 + W)
    a = 2.0 * fp
    coef = np.stack((p2 * a * a + 2.0 * p1, p2 * a * b,
                     p2 * b * b + 2.0 * disc.inv_sin2 * (1.0 - 2.0 * sf * sf) * p1))
    ab = np.zeros((4, N + 3))   # lower banded: ab[d, e] = A[e + d, e]
    for row, k, l in zip(disc.table @ coef.reshape(-1, N), *np.triu_indices(4)):
        ab[l - k, k:k + N] += row
    ab[0, 2] += ab[0, 0] - 2.0 * ab[2, 0]
    ab[1, 2] -= ab[3, 0]
    ab[0, N] += ab[0, N + 2] - 2.0 * ab[2, N]
    ab[1, N - 1] -= ab[3, N - 1]
    return val, grad, ab[:, 2:N + 1]


@pytest.mark.parametrize("alpha", [1.05, 1.2, 1.5, 2.0, 3.0])   # (2 + W) to the 0.5, 1, 2 too
def test_workspace_evaluations_match_the_plain_expressions(alpha):
    # the in-place arithmetic keeps the reference's operation order, so
    # every value, gradient entry and band entry agrees to the bit
    for n, N in ((1, 150), (3, 1000)):
        disc = _DiscreteEnergy(alpha, n, N)
        rng = np.random.default_rng(N)
        for amp in (0.0, 0.05):
            fs = RadialProfile.from_function(n, N, lambda r: n * r + 0.3 * np.sin(2 * r)).fs
            fs[1:-1] += amp * rng.standard_normal(N - 1)
            val, grad, band = _plain_evaluation(disc, fs)
            got_val, got_grad = disc.value_and_grad(fs)
            assert got_val == val and np.array_equal(got_grad, grad), (n, N, amp)
            assert np.array_equal(disc.hessian_band(fs), band), (n, N, amp)


def test_returned_gradient_and_band_outlive_later_evaluations():
    # fields live in the instance's workspace and are overwritten by the
    # next profile; what the evaluations return must not be views on it
    N = 300
    a = RadialProfile.from_function(3, N, lambda r: 3 * r + 0.2 * np.sin(2 * r)).fs
    b = RadialProfile.from_function(3, N, lambda r: 3 * r - 0.1 * np.sin(4 * r)).fs
    disc = _DiscreteEnergy(1.2, 3, N)
    val, grad = disc.value_and_grad(a)
    band, cells = disc.hessian_band(a), disc.cell_energies(a)
    kept = [grad.copy(), band.copy(), cells.copy()]
    c = a.copy()
    c[1:-1] += 0.01 * np.sin(np.arange(1, N))
    for fs in (b, c, b):
        for evaluate in (disc.value_and_grad, disc.hessian_band, disc.cell_energies):
            evaluate(fs)
    for got, want in zip((grad, band, cells), kept):
        assert np.array_equal(got, want)
    assert disc.value_and_grad(a)[0] == val


def test_evaluations_form_no_fresh_planes():
    # value_and_grad and hessian_band form their (G, N) fields, scratch and
    # the band's (10, N) table product in the instance's one workspace, so
    # what they allocate is 1-d node arrays and the returned band; before
    # the workspace each allocated about nine (G, N) planes
    N = 4000
    disc = _DiscreteEnergy(1.2, 3, N)
    plane = len(disc.t) * N * 8   # bytes of one (G, N) float plane
    base = RadialProfile.from_function(3, N, lambda r: 3 * r + 0.2 * np.sin(2 * r)).fs
    bump = np.zeros(N + 1)
    bump[1:-1] = np.sin(np.arange(1, N))

    def peak(fn, fs):
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        out = fn(fs)
        return tracemalloc.get_traced_memory()[1] - before, out

    tracemalloc.start()
    try:
        disc.value_and_grad(base)   # warm-up
        disc.hessian_band(base)
        for k in range(1, 4):   # each a profile the instance has not seen
            vg, _ = peak(disc.value_and_grad, base + 1e-3 * k * bump)
            hb, band = peak(disc.hessian_band, base - 1e-3 * k * bump)
            assert vg < plane, (k, vg / plane)
            assert hb < band.base.nbytes + plane, (k, hb / plane)
    finally:
        tracemalloc.stop()


def test_newton_direction_solves_its_band_in_place():
    # one LAPACK pbsv call factors and solves the Fortran-ordered band it is
    # given, so a direction holds the band, -g and the solution, 1.5 band
    # sizes; a copy for the shift and one for the factor made it 3.5
    N = 4000
    disc = _DiscreteEnergy(1.2, 3, N)
    fs = RadialProfile.from_function(3, N, lambda r: 3 * r + 0.2 * np.sin(2 * r)).fs
    g = disc.value_and_grad(fs)[1][1:-1]
    _newton_direction(disc, fs, g)   # warm-up: loads LAPACK's dpbsv
    tracemalloc.start()
    try:
        _newton_direction(disc, fs, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    band = 4 * (N + 3) * 8
    assert peak < 2 * band, peak / band


@pytest.mark.parametrize("N", [200, 32000])
def test_newton_direction_is_solveh_bandeds_bit_for_bit(N):
    # _newton_direction calls LAPACK's dpbsv with solveh_banded's flags on
    # the same Fortran-ordered lower band, so a converging band gives its bits
    disc = _DiscreteEnergy(1.2, 3, N)
    fs = RadialProfile.from_function(3, N, lambda r: 3 * r + 0.2 * np.sin(2 * r)).fs
    g = disc.value_and_grad(fs)[1][1:-1]
    cholesky_banded(disc.hessian_band(fs), lower=True)   # positive definite: no shift
    assert np.array_equal(_newton_direction(disc, fs, g),
                          solveh_banded(disc.hessian_band(fs), -g, lower=True))


def _identity_spectrum(alpha, N):
    """The six lowest eigenvalues of the band at the identity f = r, scaled
    by the lumped mass h sin r of the interior nodes, and the band.
    eig_banded reads the upper form: with lower=True on the same band the
    alpha = 1.01 error at N = 1600 is 3.7e-9 where the upper form's is 6.1e-10."""
    from scipy.linalg import eig_banded
    rs = np.linspace(0.0, math.pi, N + 1)
    ab = _DiscreteEnergy(alpha, 1, N).hessian_band(rs)
    s = 1.0 / np.sqrt(math.pi / N * np.sin(rs[1:-1]))
    scaled = _upper(ab)
    for j in range(1, 4):
        scaled[3 - j, j:] *= s[j:] * s[:-j]
    scaled[3] *= s * s
    lam = eig_banded(scaled, select="i", select_range=(0, 5), eigvals_only=True)
    return lam, ab


@pytest.mark.parametrize("alpha", [1.01, 1.2, 2.0, 3.0])
@pytest.mark.parametrize("N, tol", [(400, 3e-7), (1600, 2e-9)])
def test_hessian_spectrum_at_the_identity_matches_closed_form(alpha, N, tol):
    # the radial Jacobi operator of the identity: its eigenfunctions are
    # P_l^1(cos r), with eigenvalue 2 pi alpha 4^(alpha-1) (l (l + 1)
    # (alpha + 1) / 2 - 2); l = 1, sin r, is the dilation mode, whose
    # eigenvalue vanishes at alpha = 1
    lam, ab = _identity_spectrum(alpha, N)
    ell = np.arange(1, 7)
    exact = 2 * math.pi * alpha * 4 ** (alpha - 1) * (ell * (ell + 1) * (alpha + 1) / 2 - 2)
    assert np.max(np.abs(lam - exact) / exact) < tol
    # the dilation tangent sin r: d^2 E_alpha(m_(e^tau)) / d tau^2 at 0
    v = np.sin(np.linspace(0.0, math.pi, N + 1)[1:-1])
    curvature = 2 ** (2 * alpha + 1) * math.pi * alpha * (alpha - 1) / 3
    assert abs(v @ _dense(ab) @ v - curvature) < 1e-8 * curvature


def test_newton_direction_descends_on_indefinite_hessian():
    # f = pi/2 away from the poles makes sin^2 f / sin^2 r concave in f,
    # so the Hessian is indefinite and the Levenberg shift must step in
    N = 200
    disc = _DiscreteEnergy(1.3, 1, N)
    fs = RadialProfile.from_function(1, N, lambda r: np.full_like(r, math.pi / 2)).fs
    with pytest.raises(LinAlgError):
        cholesky_banded(disc.hessian_band(fs), lower=True)
    g = disc.value_and_grad(fs)[1][1:-1]
    d = _newton_direction(disc, fs, g)
    assert np.all(np.isfinite(d))
    assert float(np.dot(g, d)) < 0.0
    # a failed factorisation overwrites its band: each retry must factor a
    # fresh band with the doubled shift, as a copy of the first would give
    ab = disc.hessian_band(fs)
    shift = 1e-12 * float(np.max(np.abs(ab[0])))
    while True:
        shifted = ab.copy()
        shifted[0] += shift
        try:
            ref = cho_solve_banded((cholesky_banded(shifted, lower=True), True), -g)
            break
        except LinAlgError:
            shift *= 2.0
    assert np.array_equal(d, ref)
    assert np.array_equal(d, solveh_banded(shifted, -g, lower=True))


def test_newton_direction_falls_back_to_steepest_descent(monkeypatch):
    # a band that no Levenberg shift makes factorable leaves -g
    calls = []

    def failing(ab, b, **flags):
        calls.append(flags)
        return ab, b, 1   # info > 0: a leading minor is not positive definite

    monkeypatch.setattr(radial, "_dpbsv", lambda: failing)
    N = 200
    disc = _DiscreteEnergy(1.2, 3, N)
    fs = RadialProfile.linear(3, N).fs
    g = disc.value_and_grad(fs)[1][1:-1]
    assert np.array_equal(_newton_direction(disc, fs, g), -g)
    assert len(calls) == 40


# -------------------------------------------------------------- shooting

def test_shoot_rotation_is_exact():
    p = shoot_radial(1.4, 1, 1.0)
    assert np.max(np.abs(p.fs - p.rs)) < 1e-8


def test_shoot_matches_minimizer(n3_solve):
    shot = shoot_radial(1.2, 3, 9.0)
    f = shot.value_and_slope(n3_solve.profile.rs)[0]
    assert np.max(np.abs(f - n3_solve.profile.fs)) < 1e-3


def test_shoot_validates_slope():
    with pytest.raises(ValueError):
        shoot_radial(1.2, 3, 0.0)


def test_shoot_reports_failure(monkeypatch):
    # two bracket expansions fail as 60 do, without 58 more blown-up shots
    monkeypatch.setattr(shooting, "_SHOOT_EXPAND", 2)
    with pytest.raises(ShootFailedError) as info:
        shoot_radial(1.2, 3, 1e-6)
    assert info.value.last_r > 0.0


# ----------------------------------------------------------------- split

def test_annulus_split(n3_solve):
    # the n = 3 case of the windows between the crossings
    edges = (0.0, *n3_solve.crossings, math.pi)
    assert annulus_split(n3_solve) == tuple(window_energies(n3_solve.profile, 1.2, edges))


def _count_fields(monkeypatch):
    calls, fields = [], _DiscreteEnergy._fields

    def counted(self, fs):
        calls.append(len(fs))
        return fields(self, fs)

    monkeypatch.setattr(_DiscreteEnergy, "_fields", counted)
    return calls


@pytest.mark.parametrize("alpha, N", [(1.2, 1000), (1.5, 4000), (1.2, 32000)])
def test_windows_of_a_solve_read_its_cell_energies(monkeypatch, alpha, N):
    # the solve's last fields are its final nodes', so its windows form none
    res = minimize_radial(alpha, 3, N)
    calls, edges = _count_fields(monkeypatch), sorted((0.0, *res.crossings, 2.0, math.pi))
    split, windows = annulus_split(res), window_energies(res.profile, res.alpha, edges)
    assert calls == []
    copy = RadialProfile(3, res.profile.fs.copy())
    assert split == tuple(window_energies(copy, alpha, (0.0, *res.crossings, math.pi)))
    assert windows == window_energies(copy, alpha, edges) and calls == [N + 1, N + 1]


def test_solved_values_are_read_only_and_other_exponents_form_fresh_energies(monkeypatch):
    res = minimize_radial(1.2, 3, 4000)
    with pytest.raises(ValueError):
        res.profile.fs[1] = 0.0
    calls, edges = _count_fields(monkeypatch), (0.0, *res.crossings, math.pi)
    copy = RadialProfile(3, res.profile.fs.copy())
    assert window_energies(res.profile, 1.3, edges) == window_energies(copy, 1.3, edges)
    assert len(calls) == 2
    # a deep copy's values are writable again, so its kept energies are not read
    moved = deepcopy(res.profile)
    moved.fs[1:-1] += 1e-3 * np.sin(moved.rs[1:-1])
    fresh = RadialProfile(3, moved.fs.copy())
    assert window_energies(moved, 1.2, edges) == window_energies(fresh, 1.2, edges)
    assert len(calls) == 4


def test_a_solve_whose_last_fields_are_a_trial_keeps_no_cell_energies(monkeypatch):
    # at N = 32000 the n = 1 start stops by stagnation and rejects its trial
    res = minimize_radial(1.2, 1, 32000)
    assert (res.stop_reason, res.iterations) == ("stagnation", 1)
    calls = _count_fields(monkeypatch)
    [energy] = window_energies(res.profile, 1.2, (0.0, math.pi))
    assert energy == res.energy and len(calls) == 1


def test_annulus_split_rejects_wrong_winding():
    res = minimize_radial(1.3, 1, 200)
    with pytest.raises(ValueError, match="winding count 3"):
        annulus_split(res)
