"""Benchmark entry point.

    python3 perfbench/run.py --workload oracle-sweep --seed 0 --seconds 32 --trace 0

Runs whole passes over the workload's fixed op sequence, one op at a time,
until another pass would end past ``--seconds``; at least one pass always
runs.  With ``--trace 0`` it reports the end-to-end metrics; with
``--trace 1`` it alternates plain and traced passes and reports the
per-layer metrics.  A run record (host, probe loop, tail percentile, heavy
share, failures) is printed before the result, which is the last line of
standard output.  See perfbench/README.md.
"""

import argparse
import gzip
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import measure
import tracing
import workloads

# Metric names and units: BENCHMARK.json is the one list of them.
SPEC = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())


@dataclass
class PassResult:
    wall_s: float
    latencies: List[Tuple[str, float]]
    outcomes: Counter
    wrong: List[str] = field(default_factory=list)


def run_pass(workload: workloads.Workload, ops: List[workloads.Op]) -> PassResult:
    latencies = []
    outcomes: Counter = Counter()
    wrong = []
    start = time.perf_counter()
    for op in ops:
        t0 = time.perf_counter()
        try:
            result, exc = workload.execute(op), None
        except Exception as e:  # a failed op is counted, and the run goes on
            result, exc = None, e
        latencies.append((op.key, time.perf_counter() - t0))
        status = workload.check(op, result, exc)
        outcomes[status] += 1
        if status == workloads.WRONG:
            wrong.append(f"{op.key}: {exc!r}" if exc is not None else op.key)
    return PassResult(time.perf_counter() - start, latencies, outcomes, wrong)


# Set-up repeats per run.  Each is a fresh interpreter, so that work done
# once per process (imports, tables built on first call, cache warm-up)
# is paid in every repeat.
SETUP_REPEATS = 5
SETUP_CHILD = workloads.HERE / "setup_child.py"


class Setup:
    """``setup_s`` samples: seconds from starting a fresh interpreter until
    it has imported the program, built the op list and warmed the caches,
    that is, until it could time its first op.

    The first repeat runs before the window and the others between passes,
    or after the window when it has fewer passes, so that they sample the
    host at different moments of the run.
    """

    def __init__(self, workload: str, seed: int):
        self.argv = [sys.executable, str(SETUP_CHILD), workload, str(seed)]
        self.times: List[float] = []

    def measure(self) -> None:
        t0 = time.perf_counter()
        with subprocess.Popen(self.argv, stdout=subprocess.PIPE, text=True,
                              cwd=workloads.ROOT) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up child failed with status {proc.returncode}")
        self.times.append(elapsed)

    @property
    def pending(self) -> bool:
        return len(self.times) < SETUP_REPEATS


def run_window(workload, ops: List[workloads.Op], setup: Setup, seconds: float,
               tracer: Optional[tracing.Tracer]):
    """Whole passes until another one would end past ``seconds``.

    With a tracer, each step is a plain pass followed by a traced one.
    Returns (plain passes, traced passes).
    """
    plain: List[PassResult] = []
    traced: List[PassResult] = []
    start = time.perf_counter()
    steps = 0
    while True:
        plain.append(run_pass(workload, ops))
        if tracer is not None:
            tracer.install()
            workload.tracer = tracer
            try:
                traced.append(run_pass(workload, ops))
            finally:
                workload.tracer = None
                tracer.uninstall()
        steps += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / steps > seconds:
            return plain, traced
        if setup.pending:
            setup.measure()


def end_to_end(workload, passes: List[PassResult], setup_s: float) -> Tuple[dict, dict]:
    samples = [lat for p in passes for _, lat in p.latencies]
    by_input: Dict[str, List[float]] = defaultdict(list)
    for p in passes:
        for key, lat in p.latencies:
            by_input[key].append(lat)
    tail_s, tail_pct, tail_n = measure.tail(statistics.median(v) for v in by_input.values())
    ok = sum(p.outcomes[workloads.OK] for p in passes)
    metrics = {
        "ops_per_s": len(samples) / sum(p.wall_s for p in passes),
        "op_p50_ms": statistics.median(samples) * 1e3,
        "op_tail_ms": tail_s * 1e3,
        "success_rate": ok / len(samples),
        "setup_s": setup_s,
        "peak_rss_mb": workload.peak_rss_mb(),
    }
    record = {"tail_percentile": tail_pct, "tail_samples": tail_n}
    return metrics, record


def write_spans(tracer: tracing.Tracer, name: str, seed: int) -> str:
    out_dir = workloads.ROOT / ".perfbench-out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"spans-{name}-seed{seed}.jsonl.gz"
    with gzip.open(path, "wt") as fh:
        for i, s in enumerate(tracer.spans):
            fh.write(json.dumps({
                "id": i, "name": s[tracing.NAME], "parent": s[tracing.PARENT],
                "start": s[tracing.START], "end": s[tracing.END],
                "counts": s[tracing.COUNTS],
            }) + "\n")
        for r in tracer.cli_records:
            fh.write(json.dumps({"name": "cli.process", **r}) + "\n")
    return str(path.relative_to(workloads.ROOT))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        workloads.load_program()
    except FileNotFoundError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload]()
    workload.load()
    ops = workload.prepare(args.seed)
    setup = Setup(args.workload, args.seed)

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "host_before": measure.host_record(),
              "probe_before_s": measure.probe_loop()}
    tracer = tracing.Tracer() if args.trace else None
    try:
        setup.measure()
        window_start = time.perf_counter()
        plain, traced = run_window(workload, ops, setup, args.seconds, tracer)
        window_s = time.perf_counter() - window_start
        while setup.pending:
            setup.measure()
    finally:
        workload.close()
    setup_s = statistics.median(setup.times)
    record["probe_after_s"] = measure.probe_loop()
    record["loadavg_after"] = list(os.getloadavg())

    passes = plain + traced
    attempted = sum(len(p.latencies) for p in passes)
    ok = sum(p.outcomes[workloads.OK] for p in passes)
    wrong = [w for p in passes for w in p.wrong]
    if tracer is None:
        metrics, extra = end_to_end(workload, plain, setup_s)
        record.update(extra)
    else:
        metrics = tracing.layer_metrics(
            tracer, len(traced), sum(p.wall_s for p in traced),
            sum(p.wall_s for p in plain), len(plain))
        record["spans"] = len(tracer.spans)
        record["spans_file"] = write_spans(tracer, args.workload, args.seed)

    from isoclips.oracle.kernels import USING_NUMBA

    record.update({
        "using_numba": USING_NUMBA,
        "setup_runs_s": setup.times,
        "window_s": window_s,
        "passes": len(plain),
        "pass_s": [p.wall_s for p in plain],
        "traced_passes": len(traced),
        "ops_per_pass": len(ops),
        "heavy_share": sum(op.heavy for op in ops) / len(ops),
        "known_defect_failures": sum(p.outcomes[workloads.KNOWN] for p in passes),
        "wrong": wrong[:20],
    })
    units = {m["name"]: m["unit"] for m in SPEC["per_layer" if tracer else "end_to_end"]}
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {set(units) ^ set(metrics)}")
    print(json.dumps({"run_record": record}))
    print(json.dumps({
        "correct": not wrong,
        "attempted": attempted,
        "failed": attempted - ok,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
