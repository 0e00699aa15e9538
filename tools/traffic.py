"""The library's statements that neither the benchmark nor the README runs.

    python3 tools/traffic.py

Under a ``sys.settrace`` line tracer, runs one pass of the radial-ladder
and radial-continuation op lists of ``perfbench/workloads.py`` (seed 1,
batch 0), ``run_criteria`` at the full level with seed 2024, and each
README command that writes its report to stdout, through ``cli.main``.
The package, from ``src/`` of this checkout, is imported under the
tracer (a process that imported it before keeps its own).  Prints how many ops, criteria and
commands ran and how many failed, then, for each module of the package,
the statements inside its functions that none of them executed, each as
its line number and first line.  Module and class bodies are left out:
importing the package runs them.  Standard library plus the package.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import importlib
import io
import sys
from collections import defaultdict
from pathlib import Path

from report_diff import ROOT, readme_commands

sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]
import workloads  # noqa: E402


def statements(path: Path) -> dict[int, str]:
    """First line of each statement inside a function body, by line number,
    left out where the compiler emits no code for it (a docstring, ``...``)."""
    source = path.read_text()
    lines, code, out = source.splitlines(), set(), {}
    stack = [compile(source, str(path), "exec")]
    while stack:
        co = stack.pop()
        code.update(line for _, _, line in co.co_lines() if line is not None)
        stack.extend(c for c in co.co_consts if hasattr(c, "co_lines"))
    for fn in ast.walk(ast.parse(source)):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for stmt in ast.walk(fn):
                if stmt is not fn and isinstance(stmt, ast.stmt) and stmt.lineno in code:
                    out[stmt.lineno] = lines[stmt.lineno - 1].strip()
    return out


def traced(run) -> tuple[object, dict[str, set[int]], Path]:
    """``run()``'s result, the lines it executed in each of the package's
    files, and the package's directory; the package is imported under the trace."""
    hit: dict[str, set[int]] = defaultdict(set)
    package = str(ROOT / "src" / "alphasphere")

    def local(frame, event, arg):
        if event == "line":
            hit[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def calls(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(package) else None

    previous = sys.gettrace()
    sys.settrace(calls)
    try:
        asph = importlib.import_module("alphasphere")
        package = str(Path(asph.__file__).parent)   # where it was found, if not here
        result = run()
    finally:
        sys.settrace(previous)
    return result, hit, Path(package)


def traffic(ladder, continuation, criteria, commands) -> tuple[list[str], dict[str, dict]]:
    """Runs the ladder and continuation specs, the named criteria (None: all)
    and the README argv lists; returns a summary line per kind and, per
    module file name, the statements by line number that none executed."""

    def run():
        import alphasphere as asph
        from alphasphere import cli
        from alphasphere.verification import VerifySettings, run_criteria
        summary = []
        for name, specs in (("radial-ladder", ladder), ("radial-continuation", continuation)):
            outcomes = [workloads.WORKLOADS[name].run_op(asph, spec) for spec in specs]
            summary.append(f"{name}: {len(outcomes)} ops, "
                           f"{sum(not o.ok for o in outcomes)} failed")
        rows = run_criteria(VerifySettings(seed=2024, level="full"), criteria)
        summary.append(f"verify: {len({r.criterion for r in rows})} criteria, {len(rows)} rows, "
                       f"{sum(not r.passed for r in rows)} failed")
        with contextlib.redirect_stdout(io.StringIO()):
            status = [cli.main(argv) for argv in commands]
        summary.append(f"README: {len(status)} commands, {sum(s != 0 for s in status)} failed")
        return summary

    summary, hit, package = traced(run)
    unrun = {}
    for path in sorted(package.glob("*.py")):
        unrun[path.name] = {line: text for line, text in sorted(statements(path).items())
                            if line not in hit[str(path)]}
    return summary, unrun


def main(argv: list[str] | None = None) -> int:
    argparse.ArgumentParser(description=__doc__.split("\n")[0]).parse_args(argv)
    summary, unrun = traffic(workloads.ladder_batch(1, 0), workloads.continuation_batch(1, 0),
                             None, readme_commands())
    print("\n".join(summary))
    for name, missed in unrun.items():
        print(f"{name}: {len(missed)} statements not run")
        for line, text in missed.items():
            print(f"  {line:4d}  {text}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
