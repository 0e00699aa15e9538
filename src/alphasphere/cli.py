"""Batch command-line front end.

Commands
--------
dilation-table  closed-form dilation energies, excess values and bound
                verdicts over alpha x lambda
energy          energy/degree report for a named map
radial-solve    rotationally symmetric minimisation, with optional
                continuation in alpha and a two-column profile export
verify          the full verification battery (see verification module)
sweep           Cartesian-product batch of dilation rows, or of radial
                solves when --n is given

Reports are CSV (17 significant digits, '.' decimal separator) or JSON
mirroring the same columns 1:1.  Rows are ordered by parameter sort, and a
fixed seed makes reports byte-identical across runs.  Options may come
from a ``key = value`` config file (--config); explicit flags win.  The
environment variable ALPHASPHERE_OUTDIR supplies a default directory for
bare output file names.

Exit status: 0 when every requested check passes, 1 when any check fails,
2 on configuration errors.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

from . import energy as en
from . import maps as mp
from . import mobius as mb
from . import radial as rd
from .verification import CRITERIA, VerifySettings, run_criteria

__all__ = ["RunConfig", "main", "run"]


class ConfigError(Exception):
    pass


@dataclass
class RunConfig:
    """Resolved options for one command invocation."""

    command: str
    alphas: list[float] = field(default_factory=list)
    lams: list[float] = field(default_factory=list)
    ns: list[int] = field(default_factory=list)
    Ns: list[int] = field(default_factory=list)
    grid: tuple[int, int] = (300, 64)
    map_spec: str = "identity"
    init: str | None = None
    continuation: list[float] = field(default_factory=list)
    profile_out: str | None = None
    criteria: list[str] = field(default_factory=list)
    tol: float = 1e-8
    seed: int = 2024
    level: str = "full"
    out: str | None = None
    fmt: str = "csv"


def _parse_floats(s: str) -> list[float]:
    try:
        vals = [float(x) for x in s.split(",") if x.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad number list {s!r}") from exc
    if not all(math.isfinite(v) for v in vals):
        raise ConfigError(f"non-finite number in {s!r}")
    return vals


def _parse_ints(s: str) -> list[int]:
    try:
        return [int(x) for x in s.split(",") if x.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad integer list {s!r}") from exc


def _parse_grid(s: str) -> tuple[int, int]:
    parts = _parse_ints(s)
    if len(parts) != 2 or parts[0] < 4 or parts[1] < 4:
        raise ConfigError("grid must be 'n_radial,n_angular' with both >= 4")
    return parts[0], parts[1]


_CONFIG_KEYS = {"alpha", "lambda", "n", "N", "grid", "map", "init",
                "continuation", "profile-out", "criteria", "tol", "seed",
                "level", "out", "format"}


def _read_config_file(path: str) -> dict[str, str]:
    data: dict[str, str] = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        data[key] = value
    return data


def _fmt_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def _render(columns: list[str], rows: list[dict], fmt: str) -> str:
    if fmt == "json":
        payload = [{c: row.get(c) for c in columns} for row in rows]
        return json.dumps({"columns": columns, "rows": payload}, indent=2) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_fmt_cell(row.get(c)) for c in columns])
    return buf.getvalue()


def _resolve_out(out: str | None) -> Path | None:
    if out is None:
        return None
    p = Path(out)
    outdir = os.environ.get("ALPHASPHERE_OUTDIR")
    if outdir and p.parent == Path("."):
        p = Path(outdir) / p
    return p


def _emit(text: str, out: str | None) -> None:
    path = _resolve_out(out)
    if path is None:
        sys.stdout.write(text)
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)


def _verdict(check: en.BoundCheck | None) -> str | None:
    if check is None:
        return None
    return "pass" if check.passed else "fail"


_DILATION_COLUMNS = ["alpha", "lambda", "e_alpha", "xi", "G", "Gprime",
                     "xi_sigma_large", "xi_sigma_mid", "xi_sigma_small",
                     "growth"]


def _dilation_rows(alphas: list[float], lams: list[float]) -> tuple[list[dict], bool]:
    if min(alphas) < 1.0:
        raise ConfigError("dilation rows need every exponent >= 1")
    if min(lams) <= 0.0:
        raise ConfigError("dilation factors --lambda must be positive")
    rows = []
    ok = True
    for alpha in sorted(alphas):
        for lam in sorted(lams):
            res = en.dilation_energy(alpha, lam)
            row = {"alpha": alpha, "lambda": lam, "e_alpha": res.value,
                   "xi": res.xi, "G": res.G}
            checks: dict[str, en.BoundCheck] = {}
            if alpha > 1.0:
                row["Gprime"] = en.G_and_Gprime(alpha, abs(res.sigma))[1]
                if lam >= 1.0 and alpha <= 2.0:
                    for c in en.check_xi_lower_bounds(alpha, lam):
                        checks[c.regime] = c
                    if 0.0 <= res.sigma <= 2.0:
                        checks["growth"] = en.check_growth(alpha, lam)
            row["xi_sigma_large"] = _verdict(checks.get("sigma_large"))
            row["xi_sigma_mid"] = _verdict(checks.get("sigma_mid"))
            row["xi_sigma_small"] = _verdict(checks.get("sigma_small"))
            row["growth"] = _verdict(checks.get("growth"))
            ok = ok and all(c.passed for c in checks.values())
            rows.append(row)
    return rows, ok


def _cmd_dilation_table(cfg: RunConfig) -> tuple[list[str], list[dict], bool]:
    if not cfg.alphas or not cfg.lams:
        raise ConfigError("dilation-table needs --alpha and --lambda")
    rows, ok = _dilation_rows(cfg.alphas, cfg.lams)
    return _DILATION_COLUMNS, rows, ok


def _build_map(cfg: RunConfig) -> mp.MapEvaluator:
    spec = cfg.map_spec
    if spec == "identity":
        return mp.identity_map()
    if spec == "constant":
        return mp.ConstantMap(mb.SpherePoint(0.0, 0.0, 1.0))
    if spec == "conjugation":
        return mp.ConjugationMap()
    if spec.startswith("mobius:"):
        try:
            a, b, c, d = (complex(x) for x in spec[len("mobius:"):].split(","))
            return mp.mobius_map(mb.MobiusElement.normalized(a, b, c, d))
        except ValueError as exc:
            raise ConfigError(f"bad mobius entries in {spec!r}: {exc}") from exc
    if spec.startswith("radial:"):
        path = spec[len("radial:"):]
        try:
            return mp.RadialMap(rd.load_profile(path))
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot load radial profile {path}: {exc}") from exc
    raise ConfigError(f"unknown map {spec!r}; use identity, constant, "
                      "conjugation, mobius:a,b,c,d or radial:PATH")


_ENERGY_COLUMNS = ["map", "alpha", "e_alpha", "e_dirichlet_plus_area",
                   "degree", "degree_int", "floor_2_2a1_pi", "passes_floor"]


def _cmd_energy(cfg: RunConfig) -> tuple[list[str], list[dict], bool]:
    if not cfg.alphas:
        raise ConfigError("energy needs --alpha")
    if min(cfg.alphas) < 1.0:
        raise ConfigError("energies need every exponent >= 1")
    u = _build_map(cfg)
    grid = mp.make_grid(*cfg.grid)
    rows, ok = [], True
    for alpha in sorted(cfg.alphas):
        rep = mp.energy_report(u, alpha, grid)
        ok = ok and rep.passes_floor
        rows.append({"map": cfg.map_spec, "alpha": alpha, "e_alpha": rep.e_alpha,
                     "e_dirichlet_plus_area": rep.e_dirichlet_plus_area,
                     "degree": rep.degree, "degree_int": rep.degree_int,
                     "floor_2_2a1_pi": rep.floor_2_2a1_pi,
                     "passes_floor": rep.passes_floor})
    return _ENERGY_COLUMNS, rows, ok


_RADIAL_COLUMNS = ["alpha", "n", "N", "energy", "residual_sup", "grad_norm",
                   "degree", "degree_int", "r1", "r2", "iterations",
                   "converged", "stop_reason"]


def _solve_row(res: rd.SolveResult, N: int) -> dict:
    return {"alpha": res.alpha, "n": res.profile.n, "N": N,
            "energy": res.energy, "residual_sup": res.residual_sup,
            "grad_norm": res.grad_norm, "degree": res.degree,
            "degree_int": res.degree_int, "r1": res.r1, "r2": res.r2,
            "iterations": res.iterations, "converged": res.converged,
            "stop_reason": res.stop_reason}


def _check_radial(alphas: list[float], ns: list[int], Ns: list[int]) -> None:
    if not all(a > 1.0 for a in alphas):
        raise ConfigError("radial solves need every exponent > 1")
    if min(ns) < 1:
        raise ConfigError("winding counts --n must be >= 1")
    if min(Ns) < 100:
        raise ConfigError("grid sizes --N must be >= 100")


def _cmd_radial_solve(cfg: RunConfig) -> tuple[list[str], list[dict], bool]:
    if len(cfg.alphas) != 1 or len(cfg.ns) != 1 or len(cfg.Ns) != 1:
        raise ConfigError("radial-solve needs one --alpha, one --n, one --N")
    _check_radial(cfg.alphas + cfg.continuation, cfg.ns, cfg.Ns)
    alpha, n, N = cfg.alphas[0], cfg.ns[0], cfg.Ns[0]
    init = None
    if cfg.init is not None:
        try:
            init = rd.load_profile(cfg.init, n=n)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot load init profile: {exc}") from exc
    chain = sorted(set(cfg.continuation) | {alpha}, reverse=True)
    res = None
    for a in chain:  # walk the exponent down towards the target
        res = rd.minimize_radial(a, n, N, init, tol_scale=cfg.tol)
        init = res.profile
    if res.alpha != alpha:
        res = rd.minimize_radial(alpha, n, N, init, tol_scale=cfg.tol)
    if cfg.profile_out:
        path = _resolve_out(cfg.profile_out)
        path.parent.mkdir(parents=True, exist_ok=True)
        rd.save_profile(res.profile, path)
    return _RADIAL_COLUMNS, [_solve_row(res, N)], res.converged


_VERIFY_COLUMNS = ["criterion", "check", "value", "bound", "passed", "note"]


def _cmd_verify(cfg: RunConfig) -> tuple[list[str], list[dict], bool]:
    names = cfg.criteria or sorted(CRITERIA)
    for name in names:
        if name not in CRITERIA:
            raise ConfigError(f"unknown criterion {name!r}; known: "
                              + ",".join(sorted(CRITERIA)))
    timings: dict[str, float] = {}
    rows = run_criteria(VerifySettings(seed=cfg.seed, level=cfg.level), names, timings)
    ok = all(r.passed for r in rows)
    out_rows = [{"criterion": r.criterion, "check": r.check, "value": r.value,
                 "bound": r.bound, "passed": bool(r.passed), "note": r.note}
                for r in rows]
    counts = {}
    for r in rows:
        a, b = counts.get(r.criterion, (0, 0))
        counts[r.criterion] = (a + r.passed, b + 1)
    for name in sorted(counts):
        a, b = counts[name]
        print(f"{name}: {a}/{b} checks passed ({timings[name]:.2f} s)", file=sys.stderr)
    print(f"verify: {'PASS' if ok else 'FAIL'} "
          f"({sum(r.passed for r in rows)}/{len(rows)} checks)", file=sys.stderr)
    return _VERIFY_COLUMNS, out_rows, ok


def _cmd_sweep(cfg: RunConfig) -> tuple[list[str], list[dict], bool]:
    if cfg.ns:
        if not cfg.alphas or not cfg.Ns:
            raise ConfigError("radial sweep needs --alpha, --n and --N")
        _check_radial(cfg.alphas, cfg.ns, cfg.Ns)
        rows, ok = [], True
        for alpha in sorted(cfg.alphas):
            for n in sorted(cfg.ns):
                for N in sorted(cfg.Ns):
                    res = rd.minimize_radial(alpha, n, N)
                    ok = ok and res.converged
                    rows.append(_solve_row(res, N))
        return _RADIAL_COLUMNS, rows, ok
    if not cfg.alphas or not cfg.lams:
        raise ConfigError("sweep needs --alpha and --lambda (or --n/--N)")
    rows, ok = _dilation_rows(cfg.alphas, cfg.lams)
    return _DILATION_COLUMNS, rows, ok


_COMMANDS = {
    "dilation-table": _cmd_dilation_table,
    "energy": _cmd_energy,
    "radial-solve": _cmd_radial_solve,
    "verify": _cmd_verify,
    "sweep": _cmd_sweep,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="alphasphere",
        description="Dilation energies, bound checks and rotationally "
                    "symmetric critical maps on the 2-sphere.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="key = value config file; flags override")
        p.add_argument("-o", "--out", help="output path (default: stdout); bare "
                       "names resolve under $ALPHASPHERE_OUTDIR")
        p.add_argument("--format", dest="fmt", choices=("csv", "json"),
                       help="report format (default csv)")
        p.add_argument("--seed", type=int, help="seed for randomised checks")

    p = sub.add_parser("dilation-table", help="dilation energies and bound verdicts")
    common(p)
    p.add_argument("--alpha", help="comma-separated exponents")
    p.add_argument("--lambda", dest="lam", help="comma-separated dilation factors")

    p = sub.add_parser("energy", help="energy report for a named map")
    common(p)
    p.add_argument("--map", dest="map_spec",
                   help="identity | constant | conjugation | mobius:a,b,c,d | radial:PATH")
    p.add_argument("--alpha", help="comma-separated exponents")
    p.add_argument("--grid", help="quadrature sizes 'n_radial,n_angular'")

    p = sub.add_parser("radial-solve", help="minimise the radial energy")
    common(p)
    p.add_argument("--alpha", help="target exponent")
    p.add_argument("--n", help="winding count")
    p.add_argument("--N", help="grid cells")
    p.add_argument("--init", help="two-column profile file to start from")
    p.add_argument("--continuation", help="comma-separated exponents walked "
                   "down to --alpha, each solve warm-starting the next")
    p.add_argument("--tol", help="gradient stopping scale (default 1e-8)")
    p.add_argument("--profile-out", dest="profile_out",
                   help="write the solved profile as two-column text")

    p = sub.add_parser("verify", help="run the verification battery")
    common(p)
    p.add_argument("--level", choices=("full", "quick"), help="battery size")
    p.add_argument("--criteria", help="comma-separated subset, e.g. c01,c05")

    p = sub.add_parser("sweep", help="Cartesian-product batch runs")
    common(p)
    p.add_argument("--alpha", help="comma-separated exponents")
    p.add_argument("--lambda", dest="lam", help="comma-separated dilation factors")
    p.add_argument("--n", help="comma-separated winding counts (radial sweep)")
    p.add_argument("--N", help="comma-separated grid sizes (radial sweep)")
    return parser


def _merge_config(args: argparse.Namespace) -> RunConfig:
    file_cfg = _read_config_file(args.config) if getattr(args, "config", None) else {}

    def pick(flag: str, key: str):
        v = getattr(args, flag, None)
        if v is not None:
            return v
        return file_cfg.get(key)

    cfg = RunConfig(command=args.command)
    if (v := pick("alpha", "alpha")) is not None:
        cfg.alphas = _parse_floats(str(v))
    if (v := pick("lam", "lambda")) is not None:
        cfg.lams = _parse_floats(str(v))
    if (v := pick("n", "n")) is not None:
        cfg.ns = _parse_ints(str(v))
    if (v := pick("N", "N")) is not None:
        cfg.Ns = _parse_ints(str(v))
    if (v := pick("grid", "grid")) is not None:
        cfg.grid = _parse_grid(str(v))
    if (v := pick("map_spec", "map")) is not None:
        cfg.map_spec = str(v)
    if (v := pick("init", "init")) is not None:
        cfg.init = str(v)
    if (v := pick("continuation", "continuation")) is not None:
        cfg.continuation = _parse_floats(str(v))
    if (v := pick("profile_out", "profile-out")) is not None:
        cfg.profile_out = str(v)
    if (v := pick("criteria", "criteria")) is not None:
        cfg.criteria = [s.strip() for s in str(v).split(",") if s.strip()]
    if (v := pick("tol", "tol")) is not None:
        try:
            cfg.tol = float(v)
        except ValueError as exc:
            raise ConfigError(f"bad tolerance {v!r}") from exc
        if not 0.0 < cfg.tol < math.inf:
            raise ConfigError("tolerances must be finite and positive")
    if (v := pick("seed", "seed")) is not None:
        try:
            cfg.seed = int(v)
        except ValueError as exc:
            raise ConfigError(f"bad seed {v!r}") from exc
    if (v := pick("level", "level")) is not None:
        if v not in ("full", "quick"):
            raise ConfigError("level must be 'full' or 'quick'")
        cfg.level = str(v)
    if (v := pick("out", "out")) is not None:
        cfg.out = str(v)
    if (v := pick("fmt", "format")) is not None:
        if v not in ("csv", "json"):
            raise ConfigError("format must be 'csv' or 'json'")
        cfg.fmt = str(v)
    return cfg


def run(cfg: RunConfig) -> int:
    """Execute one resolved configuration; returns the exit status."""
    try:
        columns, rows, ok = _COMMANDS[cfg.command](cfg)
    except ConfigError:
        raise
    except (ValueError, rd.ShootFailedError, rd.SplitUnavailableError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _emit(_render(columns, rows, cfg.fmt), cfg.out)
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _merge_config(args)
        return run(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
