"""Stand-in for ``python -m isoclips`` in traced cli-cold runs.

Runs the same CLI with the same arguments and exit status, and writes the
time spent starting the interpreter, importing the package and running the
command to the JSON file named by ``PERFBENCH_PROBE_OUT``.  The parent puts
its wall-clock time at spawn in ``PERFBENCH_SPAWN_TIME``.
"""

import time

STARTED = time.time()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402


def main() -> None:
    t0 = time.perf_counter()
    from isoclips import cli

    t1 = time.perf_counter()
    code = 1
    try:
        code = cli.run(sys.argv[1:])
    finally:
        t2 = time.perf_counter()
        record = {
            "interpreter_ms": (STARTED - float(os.environ["PERFBENCH_SPAWN_TIME"])) * 1e3,
            "import_ms": (t1 - t0) * 1e3,
            "run_ms": (t2 - t1) * 1e3,
            "numpy_loaded": int("numpy" in sys.modules),
        }
        with open(os.environ["PERFBENCH_PROBE_OUT"], "w") as fh:
            json.dump(record, fh)
    sys.exit(code)


if __name__ == "__main__":
    main()
