"""Batch command-line front end.

Commands
--------
dilation-table  closed-form dilation energies, excess values and bound
                verdicts over alpha x lambda
energy          energy/degree report for a named map
radial-solve    rotationally symmetric minimisation: the --alpha list is one
                warm-started chain per (n, N) pair, with one row per step,
                and an optional two-column profile export
verify          the full verification battery (see verification module)

Reports are CSV (17 significant digits, '.' decimal separator) or JSON
mirroring the same columns 1:1.  Radial rows are ordered by sorted (n, N),
then by the alpha chain in the order given; the rows of every other report
are ordered by parameter sort.  ``verify --seed`` fixes the randomised
checks, so every report is byte-identical across runs.  Options may come
from a ``key = value`` config file (--config) whose keys are the long flag
names without their dashes (``lambda``, ``profile-out``, ...); explicit
flags win, and both go through the same validation.  The environment
variable ALPHASPHERE_OUTDIR supplies a default directory for bare output
file names.

Exit status: 0 when every requested check passes, 1 when any check fails,
2 on configuration errors, a bad --level or --format among them.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

from . import energy as en
from . import maps as mp
from . import mobius as mb
from . import radial as rd
from .verification import _COLUMNS, CRITERIA, VerifySettings, _render, run_criteria

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


def _parse_names(s: str) -> list[str]:
    return [x.strip() for x in s.split(",") if x.strip()]


def _parse_tol(s: str) -> float:
    try:
        tol = float(s)
    except ValueError as exc:
        raise ConfigError(f"bad tolerance {s!r}") from exc
    if not 0.0 < tol < math.inf:
        raise ConfigError("tolerances must be finite and positive")
    return tol


def _parse_seed(s: str) -> int:
    try:
        seed = int(s)
    except ValueError as exc:
        raise ConfigError(f"bad seed {s!r}") from exc
    if seed < 0:
        raise ConfigError("seeds must be non-negative")
    return seed


def _one_of(key: str, *allowed: str):
    def parse(s: str) -> str:
        if s not in allowed:
            raise ConfigError(f"{key} must be " + " or ".join(map(repr, allowed)))
        return s
    return parse


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
        if key not in _OPTIONS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        data[key] = value
    return data


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


def _cmd_dilation_table(cfg: RunConfig) -> tuple[list[str], list[dict], bool]:
    """dilation energies and bound verdicts"""
    if not cfg.alphas or not cfg.lams:
        raise ConfigError("dilation-table needs --alpha and --lambda")
    if min(cfg.alphas) < 1.0:
        raise ConfigError("dilation rows need every exponent >= 1")
    if min(cfg.lams) <= 0.0:
        raise ConfigError("dilation factors --lambda must be positive")
    rows = []
    ok = True
    for alpha in sorted(cfg.alphas):
        for lam in sorted(cfg.lams):
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
    """energy report for a named map"""
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


def _cmd_radial_solve(cfg: RunConfig) -> tuple[list[str], list[dict], bool]:
    """minimise the radial energy along warm alpha chains"""
    if not cfg.alphas or not cfg.ns or not cfg.Ns:
        raise ConfigError("radial-solve needs --alpha, --n and --N")
    if not all(a > 1.0 for a in cfg.alphas):
        raise ConfigError("radial solves need every exponent > 1")
    if min(cfg.ns) < 1:
        raise ConfigError("winding counts --n must be >= 1")
    if min(cfg.Ns) < 100:
        raise ConfigError("grid sizes --N must be >= 100")
    if (cfg.init or cfg.profile_out) and len(cfg.ns) * len(cfg.Ns) != 1:
        raise ConfigError("--init and --profile-out need one --n and one --N")
    start = None
    if cfg.init is not None:
        try:
            start = rd.load_profile(cfg.init, n=cfg.ns[0])
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot load init profile: {exc}") from exc
    rows = []
    for n in sorted(cfg.ns):
        for N in sorted(cfg.Ns):
            init = start
            for alpha in cfg.alphas:  # each step warm-starts the next
                res = rd.minimize_radial(alpha, n, N, init, tol_scale=cfg.tol)
                rows.append(_solve_row(res, N))
                init = res.profile
    if cfg.profile_out:
        path = _resolve_out(cfg.profile_out)
        path.parent.mkdir(parents=True, exist_ok=True)
        rd.save_profile(res.profile, path)
    return _RADIAL_COLUMNS, rows, all(row["converged"] for row in rows)


def _cmd_verify(cfg: RunConfig) -> tuple[list[str], list[dict], bool]:
    """run the verification battery"""
    names = cfg.criteria or sorted(CRITERIA)
    for name in names:
        if name not in CRITERIA:
            raise ConfigError(f"unknown criterion {name!r}; known: "
                              + ",".join(sorted(CRITERIA)))
    timings: dict[str, float] = {}
    rows = run_criteria(VerifySettings(seed=cfg.seed, level=cfg.level), names, timings)
    ok = all(r.passed for r in rows)
    counts = {}
    for r in rows:
        a, b = counts.get(r.criterion, (0, 0))
        counts[r.criterion] = (a + r.passed, b + 1)
    for name in sorted(counts):
        a, b = counts[name]
        print(f"{name}: {a}/{b} checks passed ({timings[name]:.2f} s)", file=sys.stderr)
    print(f"verify: {'PASS' if ok else 'FAIL'} "
          f"({sum(r.passed for r in rows)}/{len(rows)} checks)", file=sys.stderr)
    return _COLUMNS, list(map(vars, rows)), ok


_COMMANDS = {
    "dilation-table": _cmd_dilation_table,
    "energy": _cmd_energy,
    "radial-solve": _cmd_radial_solve,
    "verify": _cmd_verify,
}


_ALL = tuple(_COMMANDS)

# config key, which is also the long flag -> (RunConfig field, parser of
# the string value, commands that take the flag, help); a flag and a
# config-file value go through the same parser
_OPTIONS = {
    "alpha": ("alphas", _parse_floats, ("dilation-table", "energy", "radial-solve"),
              "comma-separated exponents (radial-solve: a warm chain, in the order given)"),
    "lambda": ("lams", _parse_floats, ("dilation-table",), "comma-separated dilation factors"),
    "n": ("ns", _parse_ints, ("radial-solve",), "comma-separated winding counts"),
    "N": ("Ns", _parse_ints, ("radial-solve",), "comma-separated grid cell counts"),
    "grid": ("grid", _parse_grid, ("energy",), "quadrature sizes 'n_radial,n_angular'"),
    "map": ("map_spec", str, ("energy",),
            "identity | constant | conjugation | mobius:a,b,c,d | radial:PATH"),
    "init": ("init", str, ("radial-solve",), "two-column profile file to start from"),
    "profile-out": ("profile_out", str, ("radial-solve",),
                    "write the chain's final profile as two-column text"),
    "tol": ("tol", _parse_tol, ("radial-solve",), "gradient stopping scale (default 1e-8)"),
    "criteria": ("criteria", _parse_names, ("verify",),
                 "comma-separated subset, e.g. c01,c05"),
    "level": ("level", _one_of("level", "full", "quick"), ("verify",),
              "battery size: full (default) or quick"),
    "seed": ("seed", _parse_seed, ("verify",), "seed for randomised checks"),
    "out": ("out", str, _ALL,
            "output path (default: stdout); bare names resolve under $ALPHASPHERE_OUTDIR"),
    "format": ("fmt", _one_of("format", "csv", "json"), _ALL,
               "report format: csv (default) or json"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="alphasphere",
        description="Dilation energies, bound checks and rotationally "
                    "symmetric critical maps on the 2-sphere.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, fn in _COMMANDS.items():
        p = sub.add_parser(command, help=fn.__doc__)
        p.add_argument("--config", help="key = value config file; flags override")
        for key, (_, _, commands, text) in _OPTIONS.items():
            if command in commands:
                flags = ("-o", "--out") if key == "out" else (f"--{key}",)
                p.add_argument(*flags, dest=key, help=text)
    return parser


def _merge_config(args: argparse.Namespace) -> RunConfig:
    """Each option from its flag, else from the config file; file keys that
    the command does not take are parsed too."""
    file_cfg = _read_config_file(args.config) if args.config else {}
    cfg = RunConfig(command=args.command)
    for key, (attr, parse, _, _) in _OPTIONS.items():
        v = getattr(args, key, None)
        if v is None:
            v = file_cfg.get(key)
        if v is not None:
            setattr(cfg, attr, parse(v))
    return cfg


def run(cfg: RunConfig) -> int:
    """Execute one resolved configuration; returns the exit status."""
    try:
        columns, rows, ok = _COMMANDS[cfg.command](cfg)
    except (ValueError, rd.SplitUnavailableError) as exc:
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
