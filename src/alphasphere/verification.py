"""Quantitative verification battery.

Each criterion function returns a list of :class:`CheckRow`; the battery is
shared by the command-line ``verify`` command and the acceptance test
suite.  All randomness flows from a seed through per-criterion
``numpy`` generators, so a fixed seed reproduces every row bit-for-bit.
"""

from __future__ import annotations

import csv
import io
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import energy as en
from . import maps as mp
from . import mobius as mb
from . import radial as rd

__all__ = ["CheckRow", "VerifySettings", "CRITERIA", "run_criteria", "rows_to_csv"]


@dataclass(frozen=True)
class CheckRow:
    criterion: str
    check: str
    value: float | None
    bound: float | None
    passed: bool
    note: str = ""


@dataclass
class VerifySettings:
    seed: int = 2024
    level: str = "full"

    def __post_init__(self):
        if self.level not in ("full", "quick"):
            raise ValueError("level must be 'full' or 'quick'")

    @property
    def quick(self) -> bool:
        return self.level == "quick"


@dataclass
class _Context:
    settings: VerifySettings
    grids: dict = field(default_factory=dict)
    solves: dict = field(default_factory=dict)

    def grid(self, n_radial: int, n_angular: int) -> mp.QuadratureGrid:
        key = (n_radial, n_angular)
        if key not in self.grids:
            self.grids[key] = mp.make_grid(n_radial, n_angular)
        return self.grids[key]

    def solve_n3(self, N: int) -> rd.SolveResult:
        key = (1.2, 3, N)
        if key not in self.solves:
            self.solves[key] = rd.minimize_radial(1.2, 3, N)
        return self.solves[key]

    def rng(self, idx: int) -> np.random.Generator:
        return np.random.default_rng([self.settings.seed, idx])


def _random_su2(rng) -> mb.MobiusElement:
    v = rng.normal(size=4)
    return mb._su2_from_column((complex(v[0], v[1]), complex(v[2], v[3])))


def _random_element(rng, lam_max: float = 8.0) -> mb.MobiusElement:
    lam = math.exp(rng.uniform(0.0, math.log(lam_max)))
    return _random_su2(rng) @ mb.MobiusElement.dilation(lam) @ _random_su2(rng)


def c01_closed_form_vs_direct(ctx: _Context) -> list[CheckRow]:
    """2-D quadrature of the dilation energy against the 1-D closed form."""
    t0 = time.perf_counter()
    grid = ctx.grid(150 if ctx.settings.quick else 400, 8)
    rows = []
    for alpha in (1.1, 1.5, 2.0):
        for lam in (1.0, 2.0, 10.0):
            direct = en.alpha_energy(mp.mobius_map(mb.MobiusElement.dilation(lam)),
                                     alpha, grid)
            closed = en.dilation_energy(alpha, lam).value
            rel = abs(direct - closed) / closed
            rows.append(CheckRow("c01_closed_form_vs_direct",
                                 f"alpha={alpha},lam={lam}", rel, 1e-8,
                                 rel <= 1e-8))
    elapsed = time.perf_counter() - t0
    rows.append(CheckRow("c01_closed_form_vs_direct", "runtime_budget", None,
                         10.0, elapsed < 10.0,
                         note="wall time kept out of the report"))
    return rows


def c02_alpha1_conformal(ctx: _Context) -> list[CheckRow]:
    """At exponent 1 every dilation has energy exactly 8 pi."""
    rows = []
    for lam in (1.0, 2.0, 10.0, 100.0, 1e4):
        v = en.dilation_energy(1.0, lam).value
        rel = abs(v - 8.0 * math.pi) / (8.0 * math.pi)
        rows.append(CheckRow("c02_alpha1_conformal", f"lam={lam}", rel, 1e-9,
                             rel <= 1e-9))
    return rows


def c03_identity_energy(ctx: _Context) -> list[CheckRow]:
    grid = ctx.grid(150 if ctx.settings.quick else 300, 16)
    ident = mp.identity_map()
    rows = []
    for alpha in (1.0, 1.2, 1.5, 2.0):
        v = en.alpha_energy(ident, alpha, grid)
        tgt = en.energy_floor(alpha)
        rel = abs(v - tgt) / tgt
        rows.append(CheckRow("c03_identity_energy", f"alpha={alpha}", rel, 1e-9,
                             rel <= 1e-9))
    return rows


def c04_symmetry_monotonicity(ctx: _Context) -> list[CheckRow]:
    rows = []
    npts = 60 if ctx.settings.quick else 200
    for alpha in (1.05, 1.5, 2.0):
        for lam in (1.5, 7.0, 40.0):
            v1 = en.dilation_energy(alpha, lam).value
            v2 = en.dilation_energy(alpha, 1.0 / lam).value
            rel = abs(v1 - v2) / v1
            rows.append(CheckRow("c04_symmetry_monotonicity",
                                 f"sym:alpha={alpha},lam={lam}", rel, 1e-10,
                                 rel <= 1e-10))
        taus = np.linspace(0.0, 20.0 / (alpha - 1.0), npts)
        vals = np.array([en.dilation_energy(alpha, math.exp(t)).value for t in taus])
        worst = float(np.min(np.diff(vals) / vals[:-1]))
        rows.append(CheckRow("c04_symmetry_monotonicity",
                             f"monotone:alpha={alpha}", worst, -1e-12,
                             worst >= -1e-12, note="min relative increment"))
    return rows


def c05_derivative_consistency(ctx: _Context) -> list[CheckRow]:
    """Analytic derivatives against finite differences, plus the
    closed-form derivative identity.  G' meets central differences at steps
    1e-5 and 5e-6.  d E_(alpha,lam)/d log lam meets the Richardson value
    (4 D(h/2) - D(h))/3 of central differences D at h = 2e-3, whose O(h^4)
    truncation and ulp(E)/h roundoff both sit far below the 1e-6 relative
    bound; roundoff at step 1e-5 broke it when |dE/dlog lam| < 4e-4."""
    rows = []
    count = 10 if ctx.settings.quick else 50
    rng = ctx.rng(5)
    worst_g = 0.0
    for _ in range(count):
        alpha = float(rng.uniform(1.05, 2.0))
        loglam = float(rng.uniform(0.1, 3.0))
        sigma = (alpha - 1.0) * loglam
        _, gp = en.G_and_Gprime(alpha, sigma)
        for step in (1e-5, 5e-6):
            gp_fd = ((en.G_and_Gprime(alpha, sigma + step)[0]
                      - en.G_and_Gprime(alpha, sigma - step)[0]) / (2.0 * step))
            worst_g = max(worst_g, abs(gp - gp_fd) / abs(gp_fd))
    rows.append(CheckRow("c05_derivative_consistency", "Gprime_vs_fd",
                         worst_g, 1e-6, worst_g <= 1e-6))

    grid = ctx.grid(180 if ctx.settings.quick else 320, 48)
    ident = mp.identity_map()
    worst_d = 0.0
    for _ in range(count):
        alpha = float(rng.uniform(1.05, 2.0))
        lam = math.exp(float(rng.uniform(0.1, 2.0)))
        u = mp.pullback(ident, _random_element(rng, lam_max=4.0))
        lhs = en.d_energy_d_loglambda(u, alpha, lam, grid)
        d_h, d_half = (
            (en.e_alpha_lambda(u, alpha, lam * math.exp(step), grid)
             - en.e_alpha_lambda(u, alpha, lam * math.exp(-step), grid))
            / (2.0 * step) for step in (2e-3, 1e-3))
        fd = (4.0 * d_half - d_h) / 3.0
        worst_d = max(worst_d, abs(lhs - fd) / abs(fd))
    rows.append(CheckRow("c05_derivative_consistency", "dloglam_vs_fd",
                         worst_d, 1e-6, worst_d <= 1e-6))

    grid_id = ctx.grid(150 if ctx.settings.quick else 400, 8)
    worst_i = 0.0
    for _ in range(count):
        alpha = float(rng.uniform(1.05, 2.0))
        lam = math.exp(float(rng.uniform(0.05, 2.5)))
        lhs = en.d_energy_d_loglambda(ident, alpha, lam, grid_id)
        rhs = ((alpha - 1.0) * en.energy_floor(alpha)
               * en.G_and_Gprime(alpha, (alpha - 1.0) * math.log(lam))[1])
        worst_i = max(worst_i, abs(lhs - rhs) / abs(rhs))
    rows.append(CheckRow("c05_derivative_consistency", "growth_identity",
                         worst_i, 1e-7, worst_i <= 1e-7))
    return rows


def c06_explicit_bounds(ctx: _Context) -> list[CheckRow]:
    """Excess and growth lower bounds with their explicit constants on a
    grid spanning the small and large regimes; every bound evaluation
    appears as its own row (value = signed margin)."""
    rows = []

    def add(tag: str, alpha: float, lam: float, c: en.BoundCheck) -> None:
        rows.append(CheckRow("c06_explicit_bounds",
                             f"{c.name}:alpha={alpha:.4g},lam={lam:.6g}",
                             c.margin, 0.0, c.passed, note=tag))

    n_alpha = 8 if ctx.settings.quick else 20
    n_lam = 4 if ctx.settings.quick else 10
    for alpha in np.linspace(1.05, 2.0, n_alpha):
        for loglam in np.linspace(0.0, 1.0, n_lam):
            lam = math.exp(loglam)
            for c in en.check_xi_lower_bounds(float(alpha), lam):
                add("small-regime grid", float(alpha), lam, c)
        for sigma in np.linspace(2.0, 6.0, n_lam):
            lam = math.exp(sigma / (alpha - 1.0))
            for c in en.check_xi_lower_bounds(float(alpha), lam):
                add("large-regime grid", float(alpha), lam, c)
        for sigma in np.linspace(0.0, 2.0, n_lam + 1):
            lam = math.exp(sigma / (alpha - 1.0))
            add("growth grid", float(alpha), lam,
                en.check_growth(float(alpha), lam))
    return rows


def c07_grad_log_chi_bound(ctx: _Context) -> list[CheckRow]:
    count = 10 if ctx.settings.quick else 50
    lams = np.exp(np.linspace(0.0, 10.0, count))
    rows = []
    worst_excess = -math.inf
    measured_c = 0.0
    for lam in lams:
        v = mb.norm_grad_log_chi_L2(float(lam))
        b = mb.grad_log_chi_l2_bound(float(lam))
        worst_excess = max(worst_excess, v - b)
        if lam > 1.0:
            t = math.log(lam)
            env = t if t <= 1.0 else math.sqrt(t)
            measured_c = max(measured_c, v / env)
    rows.append(CheckRow("c07_grad_log_chi_bound", "closed_form_bound",
                         worst_excess, 0.0, worst_excess <= 0.0,
                         note="max(norm - bound)"))
    rows.append(CheckRow("c07_grad_log_chi_bound", "two_regime_constant",
                         measured_c, mb.GRAD_LOG_CHI_L2_REGIME_CONSTANT,
                         measured_c <= mb.GRAD_LOG_CHI_L2_REGIME_CONSTANT))
    return rows


def c08_degree_floor_pullback(ctx: _Context) -> list[CheckRow]:
    rows = []
    quick = ctx.settings.quick
    # the largest grid, c08's alone: not cached in ctx, so it goes on return
    grid = mp.make_grid(200 if quick else 500, 64 if quick else 160)
    rng = ctx.rng(8)
    alpha = 1.3
    n_maps = 6 if quick else 20
    floor = en.energy_floor(alpha)
    worst_deg = 0.0
    worst_margin = math.inf
    ident = mp.identity_map()
    for _ in range(n_maps):
        m = _random_element(rng)
        u = mp.pullback(ident, m)
        raw, nearest = mp.degree(u, grid)
        worst_deg = max(worst_deg, abs(raw - 1.0))
        ea = en.alpha_energy(u, alpha, grid)
        worst_margin = min(worst_margin, ea - floor)
        if nearest != 1:
            worst_deg = math.inf
    rows.append(CheckRow("c08_degree_floor_pullback", "degree_one",
                         worst_deg, 0.01, worst_deg <= 0.01,
                         note=f"{n_maps} random pullbacks of the identity"))
    rows.append(CheckRow("c08_degree_floor_pullback", "energy_floor",
                         worst_margin, -1e-8, worst_margin >= -1e-8,
                         note="min(E_alpha - floor)"))

    worst_inv = 0.0
    for u0, d0 in ((ident, 1.0), (mp.ConjugationMap(), -1.0)):
        for _ in range(3 if quick else 6):
            m = _random_element(rng)
            raw, _ = mp.degree(mp.pullback(u0, m), grid)
            worst_inv = max(worst_inv, abs(raw - d0))
    rows.append(CheckRow("c08_degree_floor_pullback", "degree_invariance",
                         worst_inv, 0.01, worst_inv <= 0.01))

    # e(u o m)(zeta) chi_lam(V* zeta) = e(u)(m zeta) for m = U D V*: both
    # sides in one batch, with chi from the SVD and not from the density
    n_pts = 200 if quick else 1000
    els, pts, lams, vzs = [], [], [], []
    for _ in range(n_pts):
        m = _random_element(rng)
        sv = mb.mobius_svd(m)
        u = mp.mobius_map(_random_element(rng))
        z = complex(rng.normal(), rng.normal())
        v = sv.V.inverse()  # V is special unitary, so V^-1 = V*
        els += [mp.pullback(u, m).m, u.m]
        pts += [z, (m.a * z + m.b) / (m.c * z + m.d)]
        lams.append(sv.lam)
        vzs.append((v.a * z + v.b) / (v.c * z + v.d))
    a, b, c, d = (np.array([getattr(e, k) for e in els]) for k in "abcd")
    dens = mb._form_density(a, b, c, d, mb._lift(np.array(pts)))
    lhs, rhs = dens[0::2] * mb.chi_values(np.array(lams), np.array(vzs)), dens[1::2]
    worst_pw = float(np.max(np.abs(lhs - rhs) / rhs))
    rows.append(CheckRow("c08_degree_floor_pullback", "pullback_identity",
                         worst_pw, 1e-10, worst_pw <= 1e-10,
                         note=f"{n_pts} random (zeta, M)"))
    return rows


def c09_radial_n1(ctx: _Context) -> list[CheckRow]:
    N = 500 if ctx.settings.quick else 2000
    t0 = time.perf_counter()
    init = rd.RadialProfile.from_function(1, N, lambda r: r + 0.3 * np.sin(r))
    res = rd.minimize_radial(1.5, 1, N, init)
    elapsed = time.perf_counter() - t0
    rel = abs(res.energy - en.energy_floor(1.5)) / en.energy_floor(1.5)
    return [
        CheckRow("c09_radial_n1", "converged", float(res.converged), 1.0,
                 res.converged, note=f"{res.iterations} iterations"),
        CheckRow("c09_radial_n1", "energy_rel_err", rel, 1e-6, rel <= 1e-6),
        CheckRow("c09_radial_n1", "residual_sup", res.residual_sup, 1e-6,
                 res.residual_sup <= 1e-6),
        CheckRow("c09_radial_n1", "runtime_budget", None, 60.0,
                 elapsed < 60.0, note="wall time kept out of the report"),
    ]


def c10_radial_n3(ctx: _Context) -> list[CheckRow]:
    N = 1000 if ctx.settings.quick else 4000
    t0 = time.perf_counter()
    res = ctx.solve_n3(N)
    elapsed = time.perf_counter() - t0
    floor_n3 = 2.0 ** (3.0 * 1.2 + 1.0) * math.pi  # threefold-winding floor
    rows = [
        CheckRow("c10_radial_n3", "converged", float(res.converged), 1.0,
                 res.converged, note=f"{res.iterations} iterations"),
        CheckRow("c10_radial_n3", "degree_int", float(res.degree_int), 1.0,
                 res.degree_int == 1),
        CheckRow("c10_radial_n3", "energy_above_floor", res.energy, floor_n3,
                 res.energy > floor_n3),
        CheckRow("c10_radial_n3", "residual_sup", res.residual_sup, 1e-4,
                 res.residual_sup <= 1e-4),
    ]
    grid = ctx.grid(300 if ctx.settings.quick else 600, 8)
    crit = en.d_energy_d_loglambda(mp.RadialMap(res.profile), 1.2, 1.0, grid)
    rows.append(CheckRow("c10_radial_n3", "criticality_dloglam", abs(crit),
                         1e-5 * res.energy, abs(crit) <= 1e-5 * res.energy))
    disc_e, ann_e, cap_e = rd.annulus_split(res)
    gap = abs(disc_e + ann_e + cap_e - res.energy)
    rows.append(CheckRow("c10_radial_n3", "split_additivity", gap, 1e-9,
                         gap <= 1e-9,
                         note=f"disc={disc_e:.6f} annulus={ann_e:.6f} cap={cap_e:.6f}"))
    e1 = abs(float(res.profile.value(res.r1)) - math.pi)
    e2 = abs(float(res.profile.value(res.r2)) - 2.0 * math.pi)
    rows.append(CheckRow("c10_radial_n3", "crossing_values", max(e1, e2), 1e-6,
                         max(e1, e2) <= 1e-6, note=f"r1={res.r1:.6f} r2={res.r2:.6f}"))
    rows.append(CheckRow("c10_radial_n3", "runtime_budget", None, 300.0,
                         elapsed < 300.0,
                         note="wall time kept out of the report"))
    return rows


def c11_gap_bound_random(ctx: _Context) -> list[CheckRow]:
    quick = ctx.settings.quick
    grid = ctx.grid(200 if quick else 400, 48 if quick else 96)
    rng = ctx.rng(11)
    count = 6 if quick else 20
    n3 = ctx.solve_n3(1000 if quick else 4000)
    radial_u = mp.RadialMap(n3.profile)
    rows = []
    for i in range(count):
        lam = math.exp(float(rng.uniform(0.0, 1.5)))
        alpha = float(rng.uniform(1.0, 2.0))
        if i % 5 == 4:
            v, tag = radial_u, "threefold radial solution"
        else:
            v = mp.pullback(mp.identity_map(), _random_element(rng, lam_max=5.0))
            tag = "random pullback of the identity"
        c = en.eaclose_gap(v, alpha, lam, grid)
        rows.append(CheckRow("c11_gap_bound_random",
                             f"{c.name}:alpha={alpha:.4g},lam={lam:.4g}",
                             c.margin, 0.0, c.passed, note=tag))
    return rows


def c12_determinism(ctx: _Context) -> list[CheckRow]:
    """The battery's randomised criteria serialise identically when rerun
    with the same seed."""
    sub = VerifySettings(seed=ctx.settings.seed, level="quick")
    blobs = []
    for _ in range(2):
        ctx2 = _Context(settings=sub)
        rows = []
        for fn in (c02_alpha1_conformal, c05_derivative_consistency,
                   c08_degree_floor_pullback):
            rows.extend(fn(ctx2))
        blobs.append(rows_to_csv(rows).encode())
    same = blobs[0] == blobs[1]
    return [CheckRow("c12_determinism", "byte_identical_rerun",
                     float(same), 1.0, same)]


CRITERIA = {
    "c01": c01_closed_form_vs_direct,
    "c02": c02_alpha1_conformal,
    "c03": c03_identity_energy,
    "c04": c04_symmetry_monotonicity,
    "c05": c05_derivative_consistency,
    "c06": c06_explicit_bounds,
    "c07": c07_grad_log_chi_bound,
    "c08": c08_degree_floor_pullback,
    "c09": c09_radial_n1,
    "c10": c10_radial_n3,
    "c11": c11_gap_bound_random,
    "c12": c12_determinism,
}


def run_criteria(settings: VerifySettings, names: list[str] | None = None,
                 timings: dict[str, float] | None = None) -> list[CheckRow]:
    """Rows of the named criteria (all by default); ``timings`` receives each
    criterion's wall time in seconds, keyed like the rows' criterion column."""
    ctx = _Context(settings=settings)
    rows: list[CheckRow] = []
    for name in names or sorted(CRITERIA):
        if name not in CRITERIA:
            raise KeyError(f"unknown criterion {name!r}")
        t0 = time.perf_counter()
        new = CRITERIA[name](ctx)
        if timings is not None and new:
            timings[new[0].criterion] = time.perf_counter() - t0
        rows.extend(new)
    return rows


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "1" if x else "0"
    return f"{x:.17g}"


def rows_to_csv(rows: list[CheckRow]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["criterion", "check", "value", "bound", "passed", "note"])
    for r in rows:
        writer.writerow([r.criterion, r.check, _fmt(r.value), _fmt(r.bound),
                         "pass" if r.passed else "FAIL", r.note])
    return out.getvalue()
