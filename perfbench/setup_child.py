"""One set-up of a workload in a fresh interpreter, for ``setup_s``.

    python3 perfbench/setup_child.py <workload> <seed>

Imports the program, builds the op list and warms the caches, exactly as
the benchmark process does before its first timed op, then prints
``ready``.  The parent times from spawning this process to that line.
"""

import sys

import workloads


def main() -> None:
    name, seed = sys.argv[1], int(sys.argv[2])
    workloads.load_program()
    workload = workloads.WORKLOADS[name]()
    workload.load()
    try:
        workload.prepare(seed)
        print("ready", flush=True)
    finally:
        workload.close()


if __name__ == "__main__":
    main()
