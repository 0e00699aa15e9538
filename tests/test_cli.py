import json
import math
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import alphasphere
from alphasphere import RadialProfile, load_profile, minimize_radial, save_profile
from alphasphere.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_fresh(*argv, cwd=None):
    # a fresh interpreter, so that a warning numpy prints reaches stderr
    env = {**os.environ, "PYTHONPATH": str(Path(alphasphere.__file__).parents[1])}
    return subprocess.run([sys.executable, "-m", "alphasphere", *argv], cwd=cwd, env=env,
                          capture_output=True, text=True)


def parse_csv(text):
    import csv
    import io
    rows = list(csv.reader(io.StringIO(text)))
    header = rows[0]
    return [dict(zip(header, row)) for row in rows[1:]]


def test_dilation_table_alpha_one(capsys):
    code, out, _ = run_cli(capsys, "dilation-table", "--alpha", "1",
                           "--lambda", "2,10,100")
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 3
    for row in rows:
        assert float(row["e_alpha"]) == pytest.approx(8 * math.pi, rel=1e-12)
        assert float(row["xi"]) == 0.0


def test_dilation_table_bound_columns(capsys):
    code, out, _ = run_cli(capsys, "dilation-table", "--alpha", "1.5",
                           "--lambda", "2,100")
    assert code == 0
    rows = parse_csv(out)
    assert rows[0]["xi_sigma_small"] == "pass"
    assert rows[1]["xi_sigma_large"] == "pass"


def test_energy_identity(capsys):
    code, out, _ = run_cli(capsys, "energy", "--map", "identity",
                           "--alpha", "1.5", "--grid", "200,16")
    assert code == 0
    row = parse_csv(out)[0]
    assert float(row["e_alpha"]) == pytest.approx(16 * math.pi, rel=1e-9)
    assert row["degree_int"] == "1"
    assert row["passes_floor"] == "true"


def test_energy_mobius_map(capsys):
    code, out, _ = run_cli(capsys, "energy", "--map", "mobius:2,0,0,0.5",
                           "--alpha", "1.2", "--grid", "300,16")
    assert code == 0
    row = parse_csv(out)[0]
    assert row["degree_int"] == "1"
    assert float(row["e_alpha"]) > 2 ** 3.4 * math.pi


def test_energy_conjugation_map(capsys):
    code, out, _ = run_cli(capsys, "energy", "--map", "conjugation",
                           "--alpha", "1.5", "--grid", "200,16")
    assert code == 0
    row = parse_csv(out)[0]
    assert row["degree_int"] == "-1"
    assert row["passes_floor"] == "true"  # floor only binds degree one


def test_energy_constant_map(capsys):
    code, out, _ = run_cli(capsys, "energy", "--map", "constant", "--alpha", "1.2")
    assert code == 0
    assert parse_csv(out)[0]["degree_int"] == "0"


@pytest.mark.parametrize("alpha", ["15", "20", "30"])
@pytest.mark.parametrize("spec", ["identity", "mobius:0.6,-0.8,0.8,0.6"])
def test_floor_verdict_is_relative_to_the_floor(capsys, spec, alpha):
    # isometries attain the floor 2^(2 alpha + 1) pi; the 32-node rule's
    # weights sum just below 4 pi, so E lies a relative 1e-15 below it, which
    # is about 1e-5 in absolute terms at alpha = 15
    code, out, _ = run_cli(capsys, "energy", "--map", spec, "--alpha", alpha,
                           "--grid", "32,8")
    row = parse_csv(out)[0]
    assert code == 0 and row["degree_int"] == "1" and row["passes_floor"] == "true"


def test_radial_solve_and_profile_roundtrip(capsys, tmp_path):
    prof = tmp_path / "prof.txt"
    code, out, _ = run_cli(capsys, "radial-solve", "--alpha", "1.4", "--n", "1",
                           "--N", "300", "--profile-out", str(prof))
    assert code == 0
    row = parse_csv(out)[0]
    assert row["converged"] == "true"
    p = load_profile(prof)
    assert p.n == 1
    assert np.max(np.abs(p.fs - p.rs)) < 1e-6

    code, out, _ = run_cli(capsys, "energy", "--map", f"radial:{prof}",
                           "--alpha", "1.4", "--grid", "200,8")
    assert code == 0
    assert parse_csv(out)[0]["degree_int"] == "1"


def test_radial_solve_continuation(capsys):
    code, out, _ = run_cli(capsys, "radial-solve", "--alpha", "1.5,1.4,1.3", "--n", "3",
                           "--N", "300")
    assert code == 0
    rows = parse_csv(out)
    assert [float(r["alpha"]) for r in rows] == [1.5, 1.4, 1.3]
    assert all(r["converged"] == "true" for r in rows)
    assert all(r["stop_reason"] in ("gradient", "stagnation") for r in rows)


def test_verify_subset_and_determinism(capsys, tmp_path):
    args = ("verify", "--level", "quick", "--criteria", "c02,c04,c08",
            "--seed", "11")
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    code1, _, err1 = run_cli(capsys, *args, "-o", str(f1))
    code2, _, _ = run_cli(capsys, *args, "-o", str(f2))
    assert code1 == code2 == 0
    assert f1.read_bytes() == f2.read_bytes()
    assert "checks passed" in err1


def test_verify_timings_stay_out_of_the_report(capsys, monkeypatch):
    import types

    from alphasphere import verification
    args = ("verify", "--level", "quick", "--criteria", "c02,c08", "--seed", "7")
    code1, out1, err1 = run_cli(capsys, *args)
    # a clock that jumps 1000 s per reading changes the timings, not the CSV
    ticks = iter(range(0, 10 ** 6, 1000))
    monkeypatch.setattr(verification, "time",
                        types.SimpleNamespace(perf_counter=lambda: float(next(ticks))))
    code2, out2, err2 = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2 and " s)" not in out1
    lines1 = [ln for ln in err1.splitlines() if "checks passed" in ln]
    lines2 = [ln for ln in err2.splitlines() if "checks passed" in ln]
    assert len(lines1) == 2 and all(ln.endswith(" s)") for ln in lines1)
    assert lines2 == ["c02_alpha1_conformal: 5/5 checks passed (1000.00 s)",
                      "c08_degree_floor_pullback: 4/4 checks passed (1000.00 s)"]


def test_rows_to_csv_is_the_verify_report(capsys):
    from alphasphere.verification import VerifySettings, rows_to_csv, run_criteria
    rows = run_criteria(VerifySettings(seed=7, level="quick"), ["c02", "c08"])
    code, out, _ = run_cli(capsys, "verify", "--level", "quick", "--criteria", "c02,c08",
                           "--seed", "7")
    assert code == 0
    assert rows_to_csv(rows).encode() == out.encode()


def test_runtime_budget_rows_end_the_budgeted_criteria():
    from alphasphere.verification import CRITERIA, VerifySettings, run_criteria
    by_key = {}
    for r in run_criteria(VerifySettings(level="quick")):
        by_key.setdefault(r.criterion[:3], []).append(r)
    budgets = {key: [(r.value, r.bound) for r in rows if r.check == "runtime_budget"]
               for key, rows in by_key.items()}
    assert budgets == {**{key: [] for key in CRITERIA},
                       "c01": [(None, 10.0)], "c09": [(None, 60.0)], "c10": [(None, 300.0)]}
    assert all(by_key[key][-1].check == "runtime_budget" for key in ("c01", "c09", "c10"))


def test_json_mirrors_csv(capsys):
    code, out, _ = run_cli(capsys, "dilation-table", "--alpha", "1.2",
                           "--lambda", "3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["columns"][0] == "alpha"
    assert doc["rows"][0]["e_alpha"] == pytest.approx(
        2 ** 3.4 * math.pi, rel=0.2)


def test_verify_json_passed_is_boolean(capsys):
    # the whole battery: a numpy bool from any criterion must not reach JSON
    code, out, _ = run_cli(capsys, "verify", "--format", "json", "--level", "quick")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert rows and all(type(r["passed"]) is bool for r in rows)


def test_dilation_table_product_rows(capsys):
    code, out, _ = run_cli(capsys, "dilation-table", "--alpha", "1.5,1.2",
                           "--lambda", "4,2")
    assert code == 0
    rows = parse_csv(out)
    assert [(float(r["alpha"]), float(r["lambda"])) for r in rows] == [
        (1.2, 2.0), (1.2, 4.0), (1.5, 2.0), (1.5, 4.0)]


def test_radial_solve_chain_per_winding(capsys):
    code, out, _ = run_cli(capsys, "radial-solve", "--alpha", "1.2,1.3", "--n", "3,1",
                           "--N", "1000")
    assert code == 0
    rows = parse_csv(out)
    assert [(int(r["n"]), float(r["alpha"])) for r in rows] == [
        (1, 1.2), (1, 1.3), (3, 1.2), (3, 1.3)]
    assert all(r["converged"] == "true" for r in rows)
    for r in rows:  # a warm step lands on the cold solve's minimiser
        cold = minimize_radial(float(r["alpha"]), int(r["n"]), 1000).energy
        assert float(r["energy"]) == pytest.approx(cold, rel=1e-10)


def test_radial_solve_crossing_columns(capsys):
    # r1 and r2 are the first two k pi crossings, empty where there are fewer
    code, out, _ = run_cli(capsys, "radial-solve", "--alpha", "1.2", "--n", "1,2,4",
                           "--N", "1000")
    assert code == 0
    n1, n2, n4 = parse_csv(out)
    assert n1["r1"] == n1["r2"] == ""
    assert abs(float(n2["r1"]) - math.pi / 2) <= 1e-12 and n2["r2"] == ""
    assert abs(float(n4["r2"]) - math.pi / 2) <= 1e-12


def test_config_file_with_flag_override(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("alpha = 1.5\nlambda = 2,4\n# comment\nformat = csv\n")
    code, out, _ = run_cli(capsys, "dilation-table", "--config", str(cfg),
                           "--lambda", "3")
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 1  # flag overrides the file's lambda list
    assert float(rows[0]["lambda"]) == 3.0


def test_outdir_env(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("ALPHASPHERE_OUTDIR", str(tmp_path / "reports"))
    code, _, _ = run_cli(capsys, "dilation-table", "--alpha", "1.1",
                         "--lambda", "2", "-o", "table.csv")
    assert code == 0
    assert (tmp_path / "reports" / "table.csv").exists()


@pytest.mark.parametrize("argv", [
    ("dilation-table", "--alpha", "oops", "--lambda", "2"),
    ("dilation-table", "--lambda", "2"),
    ("verify", "--criteria", "c99"),
    ("energy", "--map", "wat", "--alpha", "1.2"),
    ("radial-solve", "--alpha", "1.2", "--n", "3"),
    # out-of-range radial inputs are configuration errors, not failed checks,
    # also where a chain's earlier steps have been solved
    ("radial-solve", "--alpha", "1.2,1.0", "--n", "3", "--N", "300"),
    ("radial-solve", "--alpha", "1.2", "--n", "3", "--N", "50"),
    ("radial-solve", "--alpha", "1.2", "--n", "0", "--N", "300"),
    ("radial-solve", "--alpha", "1.0,1.2", "--n", "1", "--N", "300"),
    ("radial-solve", "--alpha", "1.2", "--n", "1", "--N", "300,50"),
    # non-finite and out-of-range numeric inputs
    ("dilation-table", "--alpha", "1.5", "--lambda", "nan"),
    ("dilation-table", "--alpha", "nan", "--lambda", "2"),
    ("dilation-table", "--alpha", "1.5", "--lambda", "inf"),
    ("dilation-table", "--alpha", "0.5", "--lambda", "2"),
    ("dilation-table", "--alpha", "1.5", "--lambda", "0"),
    ("dilation-table", "--alpha", "1.5", "--lambda", "2,-1"),
    ("dilation-table", "--alpha", "0.9,1.2", "--lambda", "2"),
    ("energy", "--map", "identity", "--alpha", "0.5"),
    ("energy", "--alpha", "1.5", "--grid", "3,8"),
    # malformed Moebius maps: a NaN entry and a singular matrix
    ("energy", "--map", "mobius:nan,0,0,1", "--alpha", "1.5"),
    ("energy", "--map", "mobius:1,0,0,0", "--alpha", "1.5"),
    # a start or an export names one chain
    ("radial-solve", "--alpha", "1.3", "--n", "3,4", "--N", "300", "--init", "init.txt"),
    ("radial-solve", "--alpha", "1.3", "--n", "1,3", "--N", "300", "--profile-out", "p.txt"),
    ("verify", "--seed", "-1", "--criteria", "c02"),
    # malformed option values and config files, and a missing --alpha
    ("radial-solve", "--alpha", "1.2", "--n", "1,x", "--N", "300"),
    ("energy", "--map", "identity", "--alpha", "1.5", "--grid", "300"),
    ("verify", "--seed", "x", "--criteria", "c02"),
    ("energy", "--config", "missing.cfg"),
    ("energy", "--config", "init.txt"),   # a profile file: no line holds '='
    ("energy", "--map", "identity"),
    # an output path below a regular file, for the report and for the profile
    ("dilation-table", "--alpha", "1.5", "--lambda", "2", "-o", "init.txt/x.csv"),
    ("radial-solve", "--alpha", "1.5", "--n", "1", "--N", "200", "--profile-out", "init.txt/p.txt"),
])
def test_config_errors_exit_2(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    save_profile(RadialProfile.linear(3, 300), tmp_path / "init.txt")
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert "config error" in err


def test_range_rules_live_in_the_library(capsys):
    from alphasphere.verification import VerifySettings, run_criteria
    # every criterion name is checked before the first criterion runs
    code, out, err = run_cli(capsys, "verify", "--level", "quick", "--criteria", "c01,c99")
    assert code == 2 and out == ""
    assert "config error: unknown criteria c99" in err and "c01_" not in err
    with pytest.raises(ValueError, match="c99"):
        run_criteria(VerifySettings(level="quick"), ["c99"])
    with pytest.raises(ValueError, match="seed"):
        VerifySettings(seed=-1)


def test_config_file_value_for_an_unused_key_is_ignored(capsys, tmp_path):
    # a shared config file's verify settings do not concern dilation-table
    cfg = tmp_path / "shared.cfg"
    cfg.write_text("seed = -1\nlevel = slow\nalpha = 1.5\nlambda = 2\n")
    code, out, _ = run_cli(capsys, "dilation-table", "--config", str(cfg))
    assert code == 0 and len(parse_csv(out)) == 1


def test_readme_continuation_chain(capsys):
    t0 = time.perf_counter()
    code, out, _ = run_cli(capsys, "radial-solve", "--alpha", "1.5,1.3,1.2,1.1", "--n", "3",
                           "--N", "4000")
    assert time.perf_counter() - t0 < 5.0
    assert code == 0
    rows = parse_csv(out)
    assert [float(r["alpha"]) for r in rows] == [1.5, 1.3, 1.2, 1.1]
    assert all(r["converged"] == "true" for r in rows)


@pytest.mark.parametrize("argv, message", [
    (("sweep", "--alpha", "1.2", "--lambda", "2"), "invalid choice"),
    (("radial-solve", "--alpha", "1.2", "--n", "3", "--N", "300", "--continuation", "1.5"),
     "unrecognized arguments"),
])
def test_removed_forms_exit_2(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def _profile_text(row, value):
    """A valid n = 3, N = 200 profile file with f in row ``row`` set to ``value``."""
    rs = np.linspace(0.0, math.pi, 201)
    fs = [f"{f:.17g}" for f in 3 * rs]
    fs[row] = value
    return "".join(f"{r:.17g} {f}\n" for r, f in zip(rs, fs))


@pytest.mark.parametrize("text", [
    "",
    "0\n1\n2\n",
    "0 0\n",
    _profile_text(100, "nan"),
    _profile_text(-1, "nan"),
    _profile_text(50, "inf"),
], ids=["empty", "one-column", "one-row", "interior-nan", "last-nan", "interior-inf"])
@pytest.mark.parametrize("argv", [
    ("radial-solve", "--alpha", "1.3", "--n", "3", "--N", "200", "--init", "bad.txt"),
    ("energy", "--alpha", "1.3", "--grid", "40,8", "--map", "radial:bad.txt"),
], ids=["init", "map"])
def test_malformed_profile_file_is_a_config_error(capsys, tmp_path, monkeypatch, argv, text):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.txt").write_text(text)
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert "config error" in err
    with pytest.raises(ValueError):
        load_profile(tmp_path / "bad.txt")


def test_empty_init_file_prints_only_the_config_error(tmp_path):
    (tmp_path / "empty.txt").write_text("")
    proc = run_fresh("radial-solve", "--alpha", "1.3", "--n", "1", "--N", "200",
                     "--init", "empty.txt", cwd=tmp_path)
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [
        "config error: cannot load init profile: profile file holds no numbers"]


def test_repeated_winding_or_grid_solves_one_chain(capsys):
    for argv in (("--n", "1,1", "--N", "200"), ("--n", "1", "--N", "200,200")):
        code, out, _ = run_cli(capsys, "radial-solve", "--alpha", "1.3", *argv)
        assert code == 0
        assert len(parse_csv(out)) == 1, argv
    # a repeated exponent is a chain step of its own
    code, out, _ = run_cli(capsys, "radial-solve", "--alpha", "1.3,1.3", "--n", "1,1",
                           "--N", "200")
    assert code == 0 and len(parse_csv(out)) == 2


def test_readme_commands_run(capsys, tmp_path, monkeypatch):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    commands = [shlex.split(line) for line in block.splitlines()
                if line.startswith("alphasphere ")]
    assert len(commands) >= 6
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("ALPHASPHERE_OUTDIR", str(tmp_path / "out"))
    for argv in commands:
        assert run_cli(capsys, *argv[1:])[0] == 0, argv


def test_readme_python_example_runs():
    # the library tour's example uses public names; running it catches drift
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})


@pytest.mark.parametrize("argv, header", [
    (("dilation-table", "--alpha", "1.5", "--lambda", "2"),
     "alpha,lambda,e_alpha,xi,G,Gprime,xi_sigma_large,xi_sigma_mid,xi_sigma_small,growth"),
    (("energy", "--alpha", "1.5", "--grid", "40,8"),
     "map,alpha,e_alpha,e_dirichlet_plus_area,degree,degree_int,floor_2_2a1_pi,passes_floor"),
    (("radial-solve", "--alpha", "1.4", "--n", "1", "--N", "200"),
     "alpha,n,N,energy,residual_sup,grad_norm,degree_int,r1,r2,iterations,"
     "converged,stop_reason"),
    (("verify", "--level", "quick", "--criteria", "c02"),
     "criterion,check,value,bound,passed,note"),
], ids=["dilation-table", "energy", "radial-solve", "verify"])
def test_report_header_is_pinned(capsys, argv, header):
    # the columns are read by name elsewhere; this pins their order
    assert run_cli(capsys, *argv)[1].splitlines()[0] == header


@pytest.mark.parametrize("argv", [
    ("dilation-table", "--alpha", "520", "--lambda", "2"),
    ("energy", "--alpha", "600", "--grid", "8,8"),
    ("energy", "--alpha", "1100", "--grid", "8,8"),
    # far past double range, where the excess quadrature fails to converge or gives 0
    ("dilation-table", "--alpha", "1.2e5", "--lambda", "2"),
    ("dilation-table", "--alpha", "3e5", "--lambda", "2"),
], ids=["dilation-table", "energy", "energy-density-power",
        "dilation-table-quadrature", "dilation-table-log-zero"])
def test_energies_past_double_range_read_inf(argv):
    proc = run_fresh(*argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    row = parse_csv(proc.stdout)[0]
    assert row["e_alpha"] == "inf"


def test_dilation_Gprime_is_odd_in_log_lambda(capsys):
    # G is even in sigma = (alpha - 1) log lam, so dG/dsigma is odd
    code, out, _ = run_cli(capsys, "dilation-table", "--alpha", "1.5",
                           "--lambda", "0.5,1,2")
    assert code == 0
    low, one, high = parse_csv(out)
    assert low["G"] == high["G"]
    assert float(high["Gprime"]) > 0.0
    assert low["Gprime"] == "-" + high["Gprime"]
    assert one["Gprime"] == "0"


def test_dilation_G_is_finite_up_to_double_range(capsys):
    # log(G - 1) = 709.48 here: past 709, short of the overflow at 709.78
    code, out, _ = run_cli(capsys, "dilation-table", "--alpha", "2", "--lambda", "4e154")
    assert code == 0
    G = float(parse_csv(out)[0]["G"])
    assert 1e308 < G < math.inf


def _edge_lambdas(alpha):
    # below 1, at 1, at log lam = 1, just past sigma = 2, far past it
    edges = [0.5, 1.0, math.e, 1e6]
    if alpha > 1.0:
        edges.insert(3, 1.01 * math.exp(2.0 / (alpha - 1.0)))
    return edges


@pytest.mark.parametrize("alpha, lam", [(alpha, lam) for alpha in (1.0, 1.5, 2.0, 2.5)
                                        for lam in _edge_lambdas(alpha)])
def test_dilation_verdicts_follow_the_checkers(capsys, alpha, lam):
    code, out, _ = run_cli(capsys, "dilation-table", "--alpha", repr(alpha),
                           "--lambda", repr(lam))
    expected = {}
    try:
        for c in alphasphere.check_xi_lower_bounds(alphasphere.dilation_energy(alpha, lam)):
            expected[f"xi_{c.regime}"] = c.passed
    except alphasphere.RegimeError:
        pass
    try:
        sigma = (alpha - 1.0) * abs(math.log(lam))
        gprime = alphasphere.Gprime(alpha, sigma) if alpha > 1.0 else 0.0
        expected["growth"] = alphasphere.check_growth(alpha, lam, gprime).passed
    except alphasphere.RegimeError:
        pass
    row = parse_csv(out)[0]
    for column in ("xi_sigma_large", "xi_sigma_mid", "xi_sigma_small", "growth"):
        verdict = expected.get(column)
        assert row[column] == ("" if verdict is None else "pass" if verdict else "fail")
    assert code == (0 if all(expected.values()) else 1)


def test_radial_overflow_is_one_error_line():
    proc = run_fresh("radial-solve", "--alpha", "400", "--n", "3", "--N", "1000")
    assert proc.returncode == 1
    [line] = proc.stderr.splitlines()
    assert line.startswith("error: ") and "overflows" in line


def test_illegal_lapack_argument_is_an_error_not_a_config_error(capsys, monkeypatch):
    # info < 0 from dpbsv is a defect in the call, so it exits 1 with error:
    from alphasphere import radial
    monkeypatch.setattr(radial, "_dpbsv", lambda: lambda ab, b, **flags: (ab, b, -1))
    code, out, err = run_cli(capsys, "radial-solve", "--alpha", "1.2", "--n", "3", "--N", "1000")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "dpbsv" in err


def test_bad_config_file_key(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bogus = 1\n")
    code, _, err = run_cli(capsys, "dilation-table", "--config", str(cfg),
                           "--alpha", "1.2", "--lambda", "2")
    assert code == 2
    assert "unknown key" in err


def test_unconverged_solve_exits_1(capsys):
    # a threefold solve on a very coarse grid leaves the residual above the
    # convergence gate; the row is reported and the exit status flags it
    code, out, _ = run_cli(capsys, "radial-solve", "--alpha", "1.2", "--n", "3",
                           "--N", "150")
    assert code == 1
    assert parse_csv(out)[0]["converged"] == "false"


@pytest.mark.parametrize("lam", ["1e200", "1e300"])
def test_dilation_table_far_large_regime(capsys, lam):
    # xi and its sigma_large bound both overflow here; the verdict compares
    # their logs instead of ending in an OverflowError or a NaN margin
    code, out, _ = run_cli(capsys, "dilation-table", "--alpha", "2", "--lambda", lam)
    assert code == 0
    assert parse_csv(out)[0]["xi_sigma_large"] == "pass"


# per config key: a command line without the option, and a value for it
# that changes the outcome
OPTION_CASES = {
    "alpha": (("dilation-table", "--lambda", "2"), "1.5"),
    "lambda": (("dilation-table", "--alpha", "1.5"), "2,4"),
    "n": (("radial-solve", "--alpha", "1.4", "--N", "200"), "1"),
    "N": (("radial-solve", "--alpha", "1.4", "--n", "1"), "200"),
    "grid": (("energy", "--alpha", "1.5"), "40,8"),
    "map": (("energy", "--alpha", "1.5", "--grid", "40,8"), "conjugation"),
    "init": (("radial-solve", "--alpha", "1.3", "--n", "3", "--N", "200"), "init.txt"),
    "profile-out": (("radial-solve", "--alpha", "1.4", "--n", "1", "--N", "200"), "p.out"),
    "criteria": (("verify", "--level", "quick"), "c02"),
    "level": (("verify", "--criteria", "c04"), "quick"),
    "seed": (("verify", "--level", "quick", "--criteria", "c05"), "3"),
    "out": (("dilation-table", "--alpha", "1.5", "--lambda", "2"), "r.out"),
    "format": (("dilation-table", "--alpha", "1.5", "--lambda", "2"), "json"),
}


def test_option_cases_cover_every_config_key():
    from alphasphere import cli
    assert set(OPTION_CASES) == set(cli._OPTIONS)


@pytest.mark.parametrize("key", sorted(OPTION_CASES))
def test_flag_and_config_file_agree(capsys, tmp_path, monkeypatch, key):
    argv, value = OPTION_CASES[key]
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("ALPHASPHERE_OUTDIR", raising=False)
    save_profile(RadialProfile.from_function(3, 200, lambda r: 3 * r + 0.3 * np.sin(2 * r)),
                 tmp_path / "init.txt")
    (tmp_path / "run.cfg").write_text(f"{key} = {value}\n")

    def outcome(*extra):
        code, out, _ = run_cli(capsys, *argv, *extra)
        written = {}
        for path in sorted(tmp_path.glob("*.out")):
            written[path.name] = path.read_text()
            path.unlink()
        return code, out, written

    flag = "-o" if key == "out" else f"--{key}"
    by_flag = outcome(flag, value)
    assert by_flag == outcome("--config", "run.cfg")
    assert by_flag != outcome()


@pytest.mark.parametrize("key, bad", [("level", "slow"), ("format", "xml")])
def test_bad_choice_is_a_config_error_by_flag_and_file(capsys, tmp_path, key, bad):
    argv = ("verify", "--criteria", "c02")
    code, _, err = run_cli(capsys, *argv, f"--{key}", bad)
    assert code == 2 and "config error" in err
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"{key} = {bad}\n")
    code, _, err = run_cli(capsys, *argv, "--config", str(cfg))
    assert code == 2 and "config error" in err


@pytest.mark.parametrize("argv", [
    ("verify", "--alpha", "1.2"),
    ("energy", "--alpha", "1.5", "--init", "p.txt"),
    ("dilation-table", "--alpha", "1.5", "--lambda", "2", "--n", "3"),
    ("dilation-table", "--alpha", "1.5", "--lambda", "2", "--seed", "5"),
])
def test_flag_of_another_command_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
