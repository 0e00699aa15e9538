"""The benchmark under ``perfbench/`` calls the library by name: its tracer
wraps ``cli.main`` and ``cli.run``, and its radial ops call
``minimize_radial`` and ``annulus_split`` and read the results' fields.  A
rename that the library's own tests follow would still break it, so these
tests run its traced verify child and its radial ops as the smoke run does."""

import json
import os
import subprocess
import sys
from pathlib import Path

import alphasphere

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_traced_verify_child_runs(tmp_path):
    spans = tmp_path / "spans.json"
    env = {**os.environ, "PYTHONPATH": str(Path(alphasphere.__file__).parents[1])}
    proc = subprocess.run([sys.executable, str(PERFBENCH / "child.py"), "verify", str(spans),
                           "verify", "--level", "quick", "--criteria", "c02"],
                          capture_output=True, text=True, env=env, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(spans.read_text())


def test_radial_ops_succeed(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads
    for outcome in (workloads.ladder_op(alphasphere, (1.2, 3, 1000)),
                    workloads.continuation_op(alphasphere, (1.15, 2000, True, (1.3,)))):
        assert outcome.ok, (outcome.error, outcome.reason)
