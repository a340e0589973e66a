"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload isotropy-fold --seeds 0-9

For every metric it prints the median over the runs and the distance
between the first and third quartile as a share of the median, which is
the steadiness figure BENCHMARK.json's bounds are set against.  Runs go one
at a time, untraced.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import measure

HERE = Path(__file__).resolve().parent


def seed_list(text: str):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="0-9")
    args = parser.parse_args()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    values = {}
    for seed in seed_list(args.seeds):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
               "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=HERE.parent)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']} " + " ".join(
            f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)
        for k, v in result["metrics"].items():
            values.setdefault(k, []).append(v["value"])
    for k, vs in values.items():
        med = statistics.median(vs)
        spread = measure.quartile_spread(vs) if len(vs) > 1 and med else 0.0
        bound = bounds.get(k)
        note = f" bound={bound} ({spread / bound:.2f} of it)" if bound else ""
        print(f"{k:45s} median={med:.6g} spread={spread:.4f}{note}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
