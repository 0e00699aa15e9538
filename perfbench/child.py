"""Child processes of the benchmark.

    python3 perfbench/child.py setup <workload> <seed>
        Runs a workload's set-up in a fresh interpreter and prints "ready"
        when the first op could be issued; the parent times spawn to ready.
    python3 perfbench/child.py verify <spans.json> <cli args...>
        Installs the tracing wrappers, runs ``alphasphere.cli.main`` on the
        arguments and writes the recorded spans to <spans.json>.
"""

import json
import sys


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "setup":
        import workloads
        workloads.setup(argv[1], int(argv[2]))
        print("ready", flush=True)
        return 0
    if mode == "verify":
        import tracing
        import alphasphere.cli

        tracer = tracing.Tracer()
        tracing.install(tracer)
        try:
            return alphasphere.cli.main(argv[2:])
        finally:
            with open(argv[1], "w") as fh:
                json.dump(tracer.spans, fh)
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
