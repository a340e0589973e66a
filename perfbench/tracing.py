"""Per-layer tracing from outside the program.

A wrapper replaces a public function at the place where its caller looks it
up (the importing module's attribute), records one span per call and returns
the wrapped result unchanged.  Spans stay in memory; the per-layer metrics
are computed from them when the run ends.  A layer's self time is its span
durations minus the time of the wrapped spans nested directly inside them.

``groups`` (ClassSet normalisation, ``is_leq``) runs inside ``clips_sets``
and ``hasse`` and cannot be separated from outside: its time is part of
``clips.clips_sets`` self time.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

Observe = Callable[[tuple, dict, object], Dict[str, int]]


def _frames(args, kwargs, result):
    return {"frames": len(result)}


def _batch(args, kwargs, result):
    A, BC = args[0], args[1]
    return {"frames": BC.shape[0], "comparisons": BC.shape[0] * A.shape[0] * BC.shape[1]}


def _found(args, kwargs, result):
    return {"found": int(result is not None)}


def _clips_step(args, kwargs, result):
    _, acc, new = args
    return {"pairs": len(acc) * len(new), "idle": int(result == acc)}


def _labels(args, kwargs, result):
    return {"labels": len(result.terms)}


# (module, attribute, layer name, counts taken from the call).  Each module
# is the one whose attribute the caller reads at call time.
LAYERS: List[Tuple[str, str, str, Optional[Observe]]] = [
    ("isoclips.oracle.verify", "verify_clips", "oracle.verify_clips", None),
    ("isoclips.oracle.verify", "alignment_frames", "oracle.alignment_frames", _frames),
    ("isoclips.oracle.verify", "batch_membership", "oracle.kernels.batch_membership", _batch),
    # _classify_cached imports these two from the kernels module per call.
    ("isoclips.oracle.kernels", "closure_ok", "oracle.kernels.closure_ok", None),
    ("isoclips.oracle.kernels", "membership", "oracle.kernels.membership", None),
    ("isoclips.oracle.verify", "classify", "oracle.classify", None),
    ("isoclips.oracle.verify", "find_witness", "oracle.find_witness", _found),
    ("isoclips.oracle.verify", "realize", "oracle.realize", None),
    ("isoclips.symmetry", "isotropy_classes", "symmetry.isotropy_classes", None),
    ("isoclips.symmetry", "clips_sets", "clips.clips_sets", _clips_step),
    ("isoclips.parsing", "parse_rep", "parsing.parse_rep", None),
    ("isoclips.parsing", "sym_square", "irreps.sym_square", _labels),
    ("isoclips.parsing", "alt_square", "irreps.alt_square", _labels),
    ("isoclips.parsing", "tensor_product", "irreps.tensor_product", None),
    # The recursive square decomposition calls the irreps module's own name.
    ("isoclips.irreps", "tensor_product", "irreps.tensor_product", None),
]

# Span fields.
NAME, PARENT, START, END, COUNTS, NESTED = range(6)


class Tracer:
    """Installs the layer wrappers and keeps every span in memory."""

    def __init__(self):
        self.spans: List[list] = []
        self.cli_records: List[dict] = []  # written by the CLI probe
        self._stack: List[int] = []
        self._active: Dict[str, int] = defaultdict(int)
        self._installed: List[Tuple[object, str, object]] = []
        self._cache_start = None
        self.cache_delta = {"hits": 0, "misses": 0}

    def _wrap(self, fn, name: str, observe: Optional[Observe]):
        spans, stack, active = self.spans, self._stack, self._active

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, None, active[name] > 0]
            stack.append(len(spans))
            spans.append(span)
            active[name] += 1
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[COUNTS] = {"failures": 1}
                raise
            finally:
                span[END] = time.perf_counter()
                active[name] -= 1
                stack.pop()
            if observe is not None:
                span[COUNTS] = observe(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every layer whose module the process has already loaded."""
        for module_name, attr, name, observe in LAYERS:
            module = sys.modules.get(module_name)
            if module is None:
                continue
            fn = getattr(module, attr)
            self._installed.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, observe))
        clips = sys.modules.get("isoclips.clips")
        if clips is not None:
            self._cache_start = clips.clips_pair_detailed.cache_info()

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._installed):
            setattr(module, attr, fn)
        self._installed.clear()
        if self._cache_start is not None:
            info = sys.modules["isoclips.clips"].clips_pair_detailed.cache_info()
            self.cache_delta["hits"] += info.hits - self._cache_start.hits
            self.cache_delta["misses"] += info.misses - self._cache_start.misses
            self._cache_start = None

    def layer_totals(self) -> Dict[str, Dict[str, float]]:
        """Per layer: calls, busy (outermost spans), self time and counts."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child_time[span[PARENT]] += span[END] - span[START]
        out: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for i, span in enumerate(self.spans):
            row = out[span[NAME]]
            dur = span[END] - span[START]
            row["calls"] += 1
            row["self_s"] += dur - child_time[i]
            if not span[NESTED]:
                row["busy_s"] += dur
            for key, value in (span[COUNTS] or {}).items():
                row[key] += value
        return out

    def root_time(self) -> float:
        return sum(s[END] - s[START] for s in self.spans if s[PARENT] < 0)

    def classify_in_frame_loop(self) -> int:
        """classify calls made directly by verify_clips (one per new mask)."""
        spans = self.spans
        return sum(1 for s in spans if s[NAME] == "oracle.classify" and s[PARENT] >= 0
                   and spans[s[PARENT]][NAME] == "oracle.verify_clips")


def clips_pair_timing() -> Tuple[float, float]:
    """Mean microseconds per clips_pair over acceptance criterion 7's
    clipsable grid in both contexts: first right after cache_clear(), then
    again warm."""
    iso = importlib.import_module("isoclips")
    clips = importlib.import_module("isoclips.clips")
    grid = []
    for ctx in (iso.Context.SO3, iso.Context.O3):
        cl = [iso.TRIV, iso.TETRA, iso.OCTA, iso.ICO, iso.SO2, iso.O2, iso.SO3]
        cl += [iso.cyclic(n) for n in range(2, 17)] + [iso.dihedral(n) for n in range(2, 17)]
        if ctx is iso.Context.O3:
            cl += [iso.OCTA_MINUS, iso.O2_MINUS, iso.O3_FULL]
            cl += [iso.z_minus(p) for p in range(2, 17, 2)]
            cl += [iso.d_v(n) for n in range(2, 17)] + [iso.d_h(p) for p in range(4, 17, 2)]
        grid += [(ctx, a, b) for i, a in enumerate(cl) for b in cl[i:]]
    clips.clips_pair_detailed.cache_clear()
    timings = []
    for _ in range(2):
        t0 = time.perf_counter()
        for ctx, a, b in grid:
            clips.clips_pair(ctx, a, b)
        timings.append((time.perf_counter() - t0) / len(grid) * 1e6)
    return timings[0], timings[1]


def layer_metrics(tracer: Tracer, passes: int, traced_s: float, untraced_s: float,
                  untraced_passes: int) -> Dict[str, float]:
    """Every per-layer metric; counts and times are per traced pass."""
    totals = tracer.layer_totals()

    def get(layer: str, key: str) -> float:
        return totals[layer][key] / passes if layer in totals else 0.0

    frames = get("oracle.kernels.batch_membership", "frames")
    steps = get("clips.clips_sets", "calls")
    cold_us, warm_us = clips_pair_timing()
    cli = tracer.cli_records

    def cli_median(key: str) -> float:
        return statistics.median(r[key] for r in cli) if cli else 0.0

    if cli:
        accounted = sum(r["interpreter_ms"] + r["import_ms"] + r["run_ms"] for r in cli)
        accounted_share = accounted / 1e3 / traced_s
    else:
        accounted_share = tracer.root_time() / traced_s
    return {
        "oracle.verify_clips.busy_s": get("oracle.verify_clips", "busy_s"),
        "oracle.verify_clips.self_s": get("oracle.verify_clips", "self_s"),
        "oracle.frames": frames,
        "oracle.alignment_frames.busy_s": get("oracle.alignment_frames", "busy_s"),
        "oracle.alignment_frames.frames": get("oracle.alignment_frames", "frames"),
        "oracle.kernels.batch_membership.busy_s": get("oracle.kernels.batch_membership", "busy_s"),
        "oracle.kernels.batch_membership.comparisons":
            get("oracle.kernels.batch_membership", "comparisons"),
        "oracle.kernels.closure_ok.calls": get("oracle.kernels.closure_ok", "calls"),
        "oracle.kernels.membership.calls": get("oracle.kernels.membership", "calls"),
        "oracle.classify.calls": get("oracle.classify", "calls"),
        "oracle.classify.busy_s": get("oracle.classify", "busy_s"),
        "oracle.classify.per_frame":
            tracer.classify_in_frame_loop() / passes / frames if frames else 0.0,
        "oracle.find_witness.calls": get("oracle.find_witness", "calls"),
        "oracle.find_witness.found": get("oracle.find_witness", "found"),
        "oracle.find_witness.busy_s": get("oracle.find_witness", "busy_s"),
        "oracle.realize.busy_s": get("oracle.realize", "busy_s"),
        "symmetry.isotropy_classes.busy_s": get("symmetry.isotropy_classes", "busy_s"),
        "symmetry.isotropy_classes.self_s": get("symmetry.isotropy_classes", "self_s"),
        "clips.clips_sets.calls": steps,
        "clips.clips_sets.pairs": get("clips.clips_sets", "pairs"),
        "clips.clips_sets.busy_s": get("clips.clips_sets", "busy_s"),
        "clips.clips_sets.idle_share": get("clips.clips_sets", "idle") / steps if steps else 0.0,
        "clips.clips_pair_detailed.hits": tracer.cache_delta["hits"] / passes,
        "clips.clips_pair_detailed.misses": tracer.cache_delta["misses"] / passes,
        "clips.clips_pair.cold_us": cold_us,
        "clips.clips_pair.warm_us": warm_us,
        "parsing.parse_rep.busy_s": get("parsing.parse_rep", "busy_s"),
        "parsing.parse_rep.failures": get("parsing.parse_rep", "failures"),
        "irreps.sym_square.calls": get("irreps.sym_square", "calls"),
        "irreps.alt_square.calls": get("irreps.alt_square", "calls"),
        "irreps.squares.busy_s":
            get("irreps.sym_square", "busy_s") + get("irreps.alt_square", "busy_s"),
        "irreps.tensor_product.calls": get("irreps.tensor_product", "calls"),
        "irreps.tensor_product.busy_s": get("irreps.tensor_product", "busy_s"),
        "irreps.output_labels":
            get("irreps.sym_square", "labels") + get("irreps.alt_square", "labels"),
        "cli.interpreter_ms": cli_median("interpreter_ms"),
        "cli.import_ms": cli_median("import_ms"),
        "cli.run_ms": cli_median("run_ms"),
        "cli.numpy_loaded": sum(r["numpy_loaded"] for r in cli) / passes,
        "trace.overhead_share":
            (traced_s / passes) / (untraced_s / untraced_passes) - 1.0,
        "trace.accounted_share": accounted_share,
    }
