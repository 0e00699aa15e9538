"""Quantitative verification battery.

A criterion ``cNN_name(ctx)`` returns ``(check, value, bound, passed, note)``
tuples.  A bound that ``value`` must stay under, or above, is stated once
through :func:`_at_most` or :func:`_at_least`; rows whose verdict is not a
comparison of value and bound give ``passed`` themselves.  :data:`CRITERIA`
maps ``cNN`` to the criterion wrapped by :func:`_checked`, which names each
row after the function, turns ``passed`` into a ``bool``, reads the clock
once before and once after the criterion, and appends a ``runtime_budget``
row for the criteria in :data:`_BUDGETS`.  The battery is shared by the
command-line ``verify`` command and the acceptance test suite; its one
writer, :func:`_render`, serialises every command's report, so c12 pins the
bytes of the report itself.  All randomness flows from a seed through
per-criterion ``numpy`` generators, so a fixed seed reproduces every row
bit-for-bit.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import time
from dataclasses import dataclass, field, fields

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
        if self.seed < 0:
            raise ValueError("seed must be >= 0")

    @property
    def quick(self) -> bool:
        return self.level == "quick"


@dataclass
class _Context:
    settings: VerifySettings
    solves: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)  # criterion -> wall time, s

    def solve_n3(self, N: int) -> rd.SolveResult:
        key = (1.2, 3, N)
        if key not in self.solves:
            self.solves[key] = rd.minimize_radial(1.2, 3, N)
        return self.solves[key]

    def rng(self, idx: int) -> np.random.Generator:
        return np.random.default_rng([self.settings.seed, idx])


def _random_element(rng, lam_max: float = 8.0, size: tuple = ()) -> mb.MobiusElement:
    """U diag(sqrt(lam), 1/sqrt(lam)) V, log lam uniform, U and V special unitary."""
    lam = np.exp(rng.uniform(0.0, math.log(lam_max), size=size))
    u, v = (mb._su2_from_column(rng.normal(size=size + (4,)).view(complex)) for _ in range(2))
    return u @ mb.MobiusElement.dilation(lam) @ v


def _at_most(check: str, value: float, bound: float, note: str = "") -> tuple:
    return check, value, bound, value <= bound, note


def _at_least(check: str, value: float, bound: float, note: str = "") -> tuple:
    return check, value, bound, value >= bound, note


def c01_closed_form_vs_direct(ctx: _Context) -> list[tuple]:
    """2-D quadrature of the dilation energy against the 1-D closed form."""
    grid = mp.make_grid(150 if ctx.settings.quick else 400, 8)
    rows = []
    for alpha in (1.1, 1.5, 2.0):
        for lam in (1.0, 2.0, 10.0):
            direct = en.alpha_energy(mp.MobiusMap(mb.MobiusElement.dilation(lam)),
                                     alpha, grid)
            closed = en.dilation_energy(alpha, lam).value
            rows.append(_at_most(f"alpha={alpha},lam={lam}",
                                 abs(direct - closed) / closed, 1e-8))
    return rows


def c02_alpha1_conformal(ctx: _Context) -> list[tuple]:
    """At exponent 1 every dilation has energy exactly 8 pi."""
    lams = (1.0, 2.0, 10.0, 100.0, 1e4)
    values = en.dilation_energy(1.0, np.array(lams)).value
    return [_at_most(f"lam={lam}", abs(v - 8.0 * math.pi) / (8.0 * math.pi), 1e-9)
            for lam, v in zip(lams, values.tolist())]


def c03_identity_energy(ctx: _Context) -> list[tuple]:
    grid = mp.make_grid(150 if ctx.settings.quick else 300, 16)
    ident = mp.identity_map()
    rows = []
    for alpha in (1.0, 1.2, 1.5, 2.0):
        v = en.alpha_energy(ident, alpha, grid)
        tgt = en.energy_floor(alpha)
        rows.append(_at_most(f"alpha={alpha}", abs(v - tgt) / tgt, 1e-9))
    return rows


def c04_symmetry_monotonicity(ctx: _Context) -> list[tuple]:
    """Dilation energies at lam and 1/lam agree and increase along a grid of
    tau = log lam; each exponent's values come from one quadrature pass."""
    rows, npts = [], 60 if ctx.settings.quick else 200
    lams = np.array([1.5, 7.0, 40.0])
    for alpha in (1.05, 1.5, 2.0):
        taus = np.linspace(0.0, 20.0 / (alpha - 1.0), npts)
        vals = en.dilation_energy(alpha, np.concatenate((lams, 1.0 / lams, np.exp(taus)))).value
        for lam, v1, v2 in zip(lams.tolist(), vals[:3], vals[3:6]):
            rows.append(_at_most(f"sym:alpha={alpha},lam={lam}", abs(v1 - v2) / v1, 1e-10))
        worst = float(np.min(np.diff(vals[6:]) / vals[6:-1]))
        rows.append(_at_least(f"monotone:alpha={alpha}", worst, -1e-12,
                              note="min relative increment"))
    return rows


def c05_derivative_consistency(ctx: _Context) -> list[tuple]:
    """Analytic derivatives against finite differences, plus the
    closed-form derivative identity.  G' meets central differences, at steps
    1e-5 and 5e-6, of the G that one dilation_energy call reports at the
    four sigma.  d E_(alpha,lam)/d log lam meets the Richardson value
    (4 D(h/2) - D(h))/3 of central differences D at h = 2e-3, whose O(h^4)
    truncation and ulp(E)/h roundoff sit far below the 1e-6 relative bound;
    roundoff at step 1e-5 broke it when |dE/dlog lam| < 4e-4."""
    rows = []
    count = 10 if ctx.settings.quick else 50
    rng = ctx.rng(5)
    worst_g, steps = 0.0, np.array([1e-5, 5e-6])
    for _ in range(count):
        alpha = float(rng.uniform(1.05, 2.0))
        loglam = float(rng.uniform(0.1, 3.0))
        sigma = (alpha - 1.0) * loglam
        gp = en.Gprime(alpha, sigma)
        g = en.dilation_energy(alpha, np.exp((sigma + np.r_[steps, -steps]) / (alpha - 1.0))).G
        gp_fd = (g[:2] - g[2:]) / (2.0 * steps)
        worst_g = max(worst_g, float(np.max(np.abs(gp - gp_fd) / np.abs(gp_fd))))
    rows.append(_at_most("Gprime_vs_fd", worst_g, 1e-6))

    grid = mp.make_grid(180 if ctx.settings.quick else 320, 48)
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
    rows.append(_at_most("dloglam_vs_fd", worst_d, 1e-6))

    grid_id = mp.make_grid(150 if ctx.settings.quick else 400, 8)
    worst_i = 0.0
    for _ in range(count):
        alpha = float(rng.uniform(1.05, 2.0))
        lam = math.exp(float(rng.uniform(0.05, 2.5)))
        lhs = en.d_energy_d_loglambda(ident, alpha, lam, grid_id)
        rhs = ((alpha - 1.0) * en.energy_floor(alpha)
               * en.Gprime(alpha, (alpha - 1.0) * math.log(lam)))
        worst_i = max(worst_i, abs(lhs - rhs) / abs(rhs))
    rows.append(_at_most("growth_identity", worst_i, 1e-7))
    return rows


def c06_explicit_bounds(ctx: _Context) -> list[tuple]:
    """Excess and growth lower bounds with their explicit constants on a
    grid spanning the small and large regimes; every bound evaluation
    appears as its own row (value = signed margin).  Per exponent, the excess
    rows read one dilation_energy call and the growth rows one Gprime call."""
    checks = []   # (tag, alpha, lam, BoundCheck)
    n_alpha = 8 if ctx.settings.quick else 20
    n_lam = 4 if ctx.settings.quick else 10
    for alpha in np.linspace(1.05, 2.0, n_alpha).tolist():
        beta = alpha - 1.0
        lams = [math.exp(t) for t in np.linspace(0.0, 1.0, n_lam).tolist()]
        lams += [math.exp(s / beta) for s in np.linspace(2.0, 6.0, n_lam).tolist()]
        res = en.dilation_energy(alpha, np.array(lams))
        checks += [("small-regime grid" if k < n_lam else "large-regime grid", alpha, lam, c)
                   for k, lam in enumerate(lams) for c in en.check_xi_lower_bounds(res[k])]
        lams = [math.exp(s / beta) for s in np.linspace(0.0, 2.0, n_lam + 1).tolist()]
        gps = en.Gprime(alpha, np.array([beta * math.log(lam) for lam in lams]))
        checks += [("growth grid", alpha, lam, en.check_growth(alpha, lam, gp))
                   for lam, gp in zip(lams, gps.tolist())]
    return [(f"{c.name}:alpha={alpha:.4g},lam={lam:.6g}", c.margin, 0.0, c.passed, tag)
            for tag, alpha, lam, c in checks]


def c07_grad_log_chi_bound(ctx: _Context) -> list[tuple]:
    count = 10 if ctx.settings.quick else 50
    lams = np.exp(np.linspace(0.0, 10.0, count))
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
    return [_at_most("closed_form_bound", worst_excess, 0.0, note="max(norm - bound)"),
            _at_most("two_regime_constant", measured_c,
                     mb.GRAD_LOG_CHI_L2_REGIME_CONSTANT)]


def c08_degree_floor_pullback(ctx: _Context) -> list[tuple]:
    rows = []
    quick = ctx.settings.quick
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
    rows.append(_at_most("degree_one", worst_deg, 0.01,
                         note=f"{n_maps} random pullbacks of the identity"))
    rows.append(_at_least("energy_floor", worst_margin, -1e-8,
                          note="min(E_alpha - floor)"))

    worst_inv = 0.0
    for u0, d0 in ((ident, 1.0), (mp.ConjugationMap(), -1.0)):
        for _ in range(3 if quick else 6):
            m = _random_element(rng)
            raw, _ = mp.degree(mp.pullback(u0, m), grid)
            worst_inv = max(worst_inv, abs(raw - d0))
    rows.append(_at_most("degree_invariance", worst_inv, 0.01))

    # e(u o m)(zeta) chi_lam(V* zeta) = e(u)(m zeta) for m = U D V*, for a
    # batch of samples, with chi from the SVD and not from the density
    n_pts = 200 if quick else 1000
    m, u = (_random_element(rng, size=(n_pts,)) for _ in range(2))
    z = rng.normal(size=(n_pts, 2)).view(complex)[:, 0]
    sv = mb.mobius_svd(m)
    vz = mb.mobius_apply(sv.V.inverse(), z)  # V is special unitary, so V^-1 = V*
    lhs = mp.MobiusMap(u @ m).density(z) * mb.chi_values(sv.lam, vz)
    rhs = mp.MobiusMap(u).density(mb.mobius_apply(m, z))
    rows.append(_at_most("pullback_identity", float(np.max(np.abs(lhs - rhs) / rhs)),
                         1e-10, note=f"{n_pts} random (zeta, M)"))
    return rows


def c09_radial_n1(ctx: _Context) -> list[tuple]:
    N = 500 if ctx.settings.quick else 2000
    init = rd.RadialProfile.from_function(1, N, lambda r: r + 0.3 * np.sin(r))
    res = rd.minimize_radial(1.5, 1, N, init)
    floor = en.energy_floor(1.5)
    return [
        ("converged", float(res.converged), 1.0, res.converged,
         f"{res.iterations} iterations"),
        _at_most("energy_rel_err", abs(res.energy - floor) / floor, 1e-6),
        _at_most("residual_sup", res.residual_sup, 1e-6),
    ]


def c10_radial_n3(ctx: _Context) -> list[tuple]:
    res = ctx.solve_n3(1000 if ctx.settings.quick else 4000)
    floor_n3 = 2.0 ** (3.0 * 1.2 + 1.0) * math.pi  # threefold-winding floor
    grid = mp.make_grid(300 if ctx.settings.quick else 600, 8)
    u = mp.RadialMap(res.profile)
    crit = en.d_energy_d_loglambda(u, 1.2, 1.0, grid)
    deg = mp.degree(u, grid)[1]   # from the 2-d map's Jacobian, not from the solve
    r1, r2 = res.crossings
    disc_e, ann_e, cap_e = rd.window_energies(res.profile, 1.2, (0.0, r1, r2, math.pi))
    err = max(abs(float(res.profile.value_and_slope(r)[0]) - k * math.pi)
              for k, r in ((1, r1), (2, r2)))
    return [
        ("converged", float(res.converged), 1.0, res.converged,
         f"{res.iterations} iterations"),
        ("degree_int", float(deg), 1.0, deg == 1, ""),
        ("energy_above_floor", res.energy, floor_n3, res.energy > floor_n3, ""),
        _at_most("residual_sup", res.residual_sup, 1e-4),
        _at_most("criticality_dloglam", abs(crit), 1e-5 * res.energy),
        _at_most("split_additivity", abs(disc_e + ann_e + cap_e - res.energy), 1e-9,
                 note=f"disc={disc_e:.6f} annulus={ann_e:.6f} cap={cap_e:.6f}"),
        _at_most("crossing_values", err, 1e-6,
                 note=f"r1={r1:.6f} r2={r2:.6f}"),
    ]


def c11_gap_bound_random(ctx: _Context) -> list[tuple]:
    quick = ctx.settings.quick
    grid = mp.make_grid(200 if quick else 400, 48 if quick else 96)
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
        rows.append((f"{c.name}:alpha={alpha:.4g},lam={lam:.4g}",
                     c.margin, 0.0, c.passed, tag))
    return rows


def c12_determinism(ctx: _Context) -> list[tuple]:
    """c05 and c08, which exercise the seeded generator and ``_random_element``,
    serialise identically when rerun with the same seed.  c11 is left out: each
    rerun would repeat its radial solve (about 10 ms at quick level), and its 35
    Moebius constructions per rerun would exceed ``test_quick_battery_mobius_ceiling``.
    The reruns go through ``_checked``, not ``CRITERIA``, whose entries may be wrapped."""
    sub = VerifySettings(seed=ctx.settings.seed, level="quick")
    blobs = []
    for _ in range(2):
        ctx2 = _Context(settings=sub)
        rows = []
        for fn in (c05_derivative_consistency, c08_degree_floor_pullback):
            rows.extend(_checked(fn)(ctx2))
        blobs.append(rows_to_csv(rows).encode())
    same = blobs[0] == blobs[1]
    return [("byte_identical_rerun", float(same), 1.0, same, "")]


# wall-time budget in seconds of a criterion, by key
_BUDGETS = {"c01": 10.0, "c09": 60.0, "c10": 300.0}


def _checked(fn):
    """Criterion ``fn`` returning :class:`CheckRow` objects named after it;
    its wall time goes to ``ctx.timings`` and, where ``_BUDGETS`` gives one,
    against that budget in a trailing ``runtime_budget`` row."""
    name = fn.__name__
    budget = _BUDGETS.get(name[:3])

    @functools.wraps(fn)
    def criterion(ctx: _Context) -> list[CheckRow]:
        t0 = time.perf_counter()
        rows = [CheckRow(name, check, value, bound, bool(passed), note)
                for check, value, bound, passed, note in fn(ctx)]
        ctx.timings[name] = elapsed = time.perf_counter() - t0
        if budget is not None:
            rows.append(CheckRow(name, "runtime_budget", None, budget, elapsed < budget,
                                 note="wall time kept out of the report"))
        return rows

    return criterion


CRITERIA = {fn.__name__[:3]: _checked(fn) for fn in (
    c01_closed_form_vs_direct, c02_alpha1_conformal, c03_identity_energy,
    c04_symmetry_monotonicity, c05_derivative_consistency, c06_explicit_bounds,
    c07_grad_log_chi_bound, c08_degree_floor_pullback, c09_radial_n1,
    c10_radial_n3, c11_gap_bound_random, c12_determinism)}


def run_criteria(settings: VerifySettings, names: list[str] | None = None,
                 timings: dict[str, float] | None = None) -> list[CheckRow]:
    """Rows of the named criteria (all by default); ``timings`` receives each
    criterion's wall time in seconds, keyed like the rows' criterion column.
    An unknown name raises ValueError before any criterion runs."""
    names = names or sorted(CRITERIA)
    if unknown := sorted(set(names) - CRITERIA.keys()):
        raise ValueError(f"unknown criteria {','.join(unknown)}; "
                         f"known: {','.join(sorted(CRITERIA))}")
    ctx = _Context(settings=settings)
    rows: list[CheckRow] = []
    for name in names:
        rows.extend(CRITERIA[name](ctx))
    if timings is not None:
        timings.update(ctx.timings)
    return rows


_COLUMNS = [f.name for f in fields(CheckRow)]


def _fmt_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def _render(columns: list[str], rows: list[dict], fmt: str) -> str:
    """Every command's report: ``rows`` (dicts keyed by column) as CSV or
    as JSON mirroring the same columns."""
    if fmt == "json":
        payload = [{c: row.get(c) for c in columns} for row in rows]
        return json.dumps({"columns": columns, "rows": payload}, indent=2) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_fmt_cell(row.get(c)) for c in columns])
    return buf.getvalue()


def rows_to_csv(rows: list[CheckRow]) -> str:
    """The ``verify`` report of ``rows`` as CSV."""
    return _render(_COLUMNS, list(map(vars, rows)), "csv")
