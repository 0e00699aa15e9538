"""Batch command-line front end.

Commands
--------
dilation-table  closed-form dilation energies, excess values and bound
                verdicts over alpha x lambda; its G and Gprime columns are
                G(sigma) and dG/dsigma at sigma = (alpha - 1) log lambda
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

Each range or choice rule on a value lives in the library function or
settings object that takes it.  Exit status: 0 when every requested check
passes, 1 when any check fails or a radial Hessian leaves double range, 2
on configuration errors: a malformed or missing option, an output path
that cannot be written, or any ValueError that a command raises, reported
in the library's words; stdout stays empty.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import fields
from pathlib import Path

from . import energy as en
from . import maps as mp
from . import mobius as mb
from . import radial as rd
from .verification import _COLUMNS, VerifySettings, _render, run_criteria

__all__ = ["main", "run"]


def _parse_floats(s: str) -> list[float]:
    try:
        vals = [float(x) for x in s.split(",") if x.strip()]
    except ValueError as exc:
        raise ValueError(f"bad number list {s!r}") from exc
    if not all(math.isfinite(v) for v in vals):
        raise ValueError(f"non-finite number in {s!r}")
    return vals


def _parse_ints(s: str) -> list[int]:
    try:
        return [int(x) for x in s.split(",") if x.strip()]
    except ValueError as exc:
        raise ValueError(f"bad integer list {s!r}") from exc


def _parse_grid(s: str) -> tuple[int, int]:
    parts = _parse_ints(s)
    if len(parts) != 2:
        raise ValueError("grid must be two integers 'n_radial,n_angular'")
    return parts[0], parts[1]


def _parse_names(s: str) -> list[str]:
    return [x.strip() for x in s.split(",") if x.strip()]


def _parse_seed(s: str) -> int:
    try:
        return int(s)
    except ValueError as exc:
        raise ValueError(f"bad seed {s!r}") from exc


def _parse_format(s: str) -> str:
    if s not in ("csv", "json"):
        raise ValueError("format must be 'csv' or 'json'")
    return s


def _read_config_file(path: str) -> dict[str, str]:
    data: dict[str, str] = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ValueError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _OPTIONS:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        data[key] = value
    return data


def _write_out(out: str, write) -> None:
    """Call ``write(path)`` for output path ``out``, a bare name resolved under
    $ALPHASPHERE_OUTDIR when set; a path that cannot be written is a
    configuration error."""
    path = Path(out)
    outdir = os.environ.get("ALPHASPHERE_OUTDIR")
    if outdir and path.parent == Path("."):
        path = Path(outdir) / path
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        write(path)
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc}") from exc


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        _write_out(out, lambda path: path.write_text(text))


_DILATION_COLUMNS = ["alpha", "lambda", "e_alpha", "xi", "G", "Gprime",
                     "xi_sigma_large", "xi_sigma_mid", "xi_sigma_small", "growth"]


def _cmd_dilation_table(cfg: dict) -> tuple[list[str], list[dict], bool]:
    """dilation energies and bound verdicts"""
    if not cfg["alpha"] or not cfg["lambda"]:
        raise ValueError("dilation-table needs --alpha and --lambda")
    rows, ok = [], True
    for alpha in sorted(cfg["alpha"]):
        for lam in sorted(cfg["lambda"]):
            res = en.dilation_energy(alpha, lam)
            row = {"alpha": alpha, "lambda": lam, "e_alpha": res.value, "xi": res.xi, "G": res.G}
            if alpha > 1.0:
                gprime = en.Gprime(alpha, abs(res.sigma))
                row["Gprime"] = math.copysign(gprime, res.sigma)
            # a verdict cell stays empty where its checker's regime excludes the row
            checks: dict[str, en.BoundCheck] = {}
            try:
                for c in en.check_xi_lower_bounds(res):   # alpha = 1 raises here
                    checks[f"xi_{c.regime}"] = c
                checks["growth"] = en.check_growth(alpha, lam, gprime)
            except en.RegimeError:
                pass
            for column in _DILATION_COLUMNS[6:]:
                c = checks.get(column)
                row[column] = None if c is None else "pass" if c.passed else "fail"
            ok = ok and all(c.passed for c in checks.values())
            rows.append(row)
    return _DILATION_COLUMNS, rows, ok


def _build_map(spec: str) -> mp.MapEvaluator:
    if spec == "identity":
        return mp.identity_map()
    if spec == "constant":
        return mp.ConstantMap(mb.SpherePoint(0.0, 0.0, 1.0))
    if spec == "conjugation":
        return mp.ConjugationMap()
    if spec.startswith("mobius:"):
        try:
            a, b, c, d = (complex(x) for x in spec[len("mobius:"):].split(","))
            return mp.MobiusMap(mb.MobiusElement.normalized(a, b, c, d))
        except ValueError as exc:
            raise ValueError(f"bad mobius entries in {spec!r}: {exc}") from exc
    if spec.startswith("radial:"):
        path = spec[len("radial:"):]
        try:
            return mp.RadialMap(rd.load_profile(path))
        except (OSError, ValueError) as exc:
            raise ValueError(f"cannot load radial profile {path}: {exc}") from exc
    raise ValueError(f"unknown map {spec!r}; use identity, constant, "
                     "conjugation, mobius:a,b,c,d or radial:PATH")


_ENERGY_COLUMNS = ["map", *(f.name for f in fields(en.EnergyReport))]


def _cmd_energy(cfg: dict) -> tuple[list[str], list[dict], bool]:
    """energy report for a named map"""
    if not cfg["alpha"]:
        raise ValueError("energy needs --alpha")
    u = _build_map(cfg["map"])
    grid = mp.make_grid(*cfg["grid"])
    rows, ok = [], True
    for alpha in sorted(cfg["alpha"]):
        rep = en.energy_report(u, alpha, grid)
        ok = ok and rep.passes_floor
        rows.append({"map": cfg["map"], **vars(rep)})
    return _ENERGY_COLUMNS, rows, ok


_RADIAL_COLUMNS = ["alpha", "n", "N", "energy", "residual_sup", "grad_norm", "degree_int",
                   "r1", "r2", "iterations", "converged", "stop_reason"]


def _solve_row(res: rd.SolveResult, N: int) -> dict:
    r1, r2 = (*res.crossings, None, None)[:2]   # empty where the winding has fewer
    extra = {"n": res.profile.n, "N": N, "r1": r1, "r2": r2}   # columns SolveResult lacks
    return {c: extra[c] if c in extra else getattr(res, c) for c in _RADIAL_COLUMNS}


def _cmd_radial_solve(cfg: dict) -> tuple[list[str], list[dict], bool]:
    """minimise the radial energy along warm alpha chains"""
    if not cfg["alpha"] or not cfg["n"] or not cfg["N"]:
        raise ValueError("radial-solve needs --alpha, --n and --N")
    ns, Ns = sorted(set(cfg["n"])), sorted(set(cfg["N"]))   # one chain per pair
    if (cfg["init"] or cfg["profile-out"]) and len(ns) * len(Ns) != 1:
        raise ValueError("--init and --profile-out need one --n and one --N")
    start = None
    if cfg["init"] is not None:
        try:
            start = rd.load_profile(cfg["init"], n=cfg["n"][0])
        except (OSError, ValueError) as exc:
            raise ValueError(f"cannot load init profile: {exc}") from exc
    rows = []
    for n in ns:
        for N in Ns:
            init = start
            for alpha in cfg["alpha"]:  # each step warm-starts the next
                res = rd.minimize_radial(alpha, n, N, init)
                rows.append(_solve_row(res, N))
                init = res.profile
    if cfg["profile-out"]:
        _write_out(cfg["profile-out"], lambda path: rd.save_profile(res.profile, path))
    return _RADIAL_COLUMNS, rows, all(row["converged"] for row in rows)


def _cmd_verify(cfg: dict) -> tuple[list[str], list[dict], bool]:
    """run the verification battery"""
    timings: dict[str, float] = {}
    settings = VerifySettings(seed=cfg["seed"], level=cfg["level"])
    rows = run_criteria(settings, cfg["criteria"], timings)
    ok = all(r.passed for r in rows)
    for name in sorted(timings):
        passed = [r.passed for r in rows if r.criterion == name]
        print(f"{name}: {sum(passed)}/{len(passed)} checks passed ({timings[name]:.2f} s)",
              file=sys.stderr)
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

# config key, which is also the long flag -> (default, parser of the
# string value, commands that take the flag, help); a flag and a
# config-file value go through the same parser
_OPTIONS = {
    "alpha": ((), _parse_floats, ("dilation-table", "energy", "radial-solve"),
              "comma-separated exponents (radial-solve: a warm chain, in the order given)"),
    "lambda": ((), _parse_floats, ("dilation-table",), "comma-separated dilation factors"),
    "n": ((), _parse_ints, ("radial-solve",), "comma-separated winding counts"),
    "N": ((), _parse_ints, ("radial-solve",), "comma-separated grid cell counts"),
    "grid": ((300, 64), _parse_grid, ("energy",), "quadrature sizes 'n_radial,n_angular'"),
    "map": ("identity", str, ("energy",),
            "identity | constant | conjugation | mobius:a,b,c,d | radial:PATH"),
    "init": (None, str, ("radial-solve",), "two-column profile file to start from"),
    "profile-out": (None, str, ("radial-solve",),
                    "write the chain's final profile as two-column text"),
    "criteria": ((), _parse_names, ("verify",), "comma-separated subset, e.g. c01,c05"),
    "level": ("full", str, ("verify",), "battery size: full (default) or quick"),
    "seed": (2024, _parse_seed, ("verify",), "seed for randomised checks"),
    "out": (None, str, _ALL,
            "output path (default: stdout); bare names resolve under $ALPHASPHERE_OUTDIR"),
    "format": ("csv", _parse_format, _ALL, "report format: csv (default) or json"),
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


def _merge_config(args: argparse.Namespace) -> dict:
    """The command and each option by config key, from its flag, else from
    the config file, else its default; file keys that the command does not
    take are parsed too."""
    file_cfg = _read_config_file(args.config) if args.config else {}
    cfg = {"command": args.command}
    for key, (default, parse, _, _) in _OPTIONS.items():
        v = getattr(args, key, None)
        if v is None:
            v = file_cfg.get(key)
        cfg[key] = default if v is None else parse(v)
    return cfg


def run(cfg: dict) -> int:
    """Execute one resolved configuration, as ``_merge_config`` returns it;
    returns the exit status."""
    try:
        columns, rows, ok = _COMMANDS[cfg["command"]](cfg)
        _emit(_render(columns, rows, cfg["format"]), cfg["out"])
    except ValueError as exc:   # an argument check, or an output path not writable
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (OverflowError, RuntimeError) as exc:   # an overflow, a defect, a failed quadrature
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _merge_config(args)
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return run(cfg)


if __name__ == "__main__":
    raise SystemExit(main())
