"""Traced stand-in for the ``momentkit`` console script.

Usage: python3 perfbench/child.py TRACE_OUT JOB_ID T_SPAWN CLI_ARGS...

Imports momentkit, installs the benchmark's wrappers, then calls
``momentkit.cli.main(CLI_ARGS)`` exactly as the console script does, so
exit codes and printed tracebacks are the same.  When main returns or
raises, the spans, counters and the phase times of the process (start-up
since the parent's T_SPAWN on the same monotonic clock, import, wrapper
install) are written to TRACE_OUT as JSON.
"""

import time

T_START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main():
    out_path, job, t_spawn = sys.argv[1], sys.argv[2], float(sys.argv[3])
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    from perfbench.tracer import Tracer, install

    t_import = time.perf_counter()
    import momentkit.cli

    t_install = time.perf_counter()
    tracer = Tracer()
    tracer.job = job
    install(tracer)
    t_main = time.perf_counter()
    code = 1
    try:
        code = momentkit.cli.main(sys.argv[4:])
    finally:
        snap = tracer.snapshot()
        snap["phases"] = {
            "startup_s": T_START - t_spawn,
            "tracer_s": (t_import - T_START) + (t_main - t_install),
            "import_s": t_install - t_import,
        }
        with open(out_path, "w") as fh:
            json.dump(snap, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
