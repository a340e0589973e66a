"""The names the benchmark harness reads from the package.

``perfbench/tracing.py`` wraps each ``(module, attr)`` of its ``LAYERS`` with
``getattr`` and no default, and reads the pair cache's hit and miss counts
through ``isoclips.clips.clips_pair_detailed.cache_info()`` and clears it
with ``.cache_clear()``; ``perfbench/run.py`` imports
``isoclips.oracle.kernels.USING_NUMBA``.  A rename in the package breaks the
benchmark, so these tests pin the names.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    # tracing.py needs only the standard library.
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves():
    import isoclips.oracle  # noqa: F401
    import isoclips.parsing  # noqa: F401
    import isoclips.symmetry  # noqa: F401

    layers = _tracing().LAYERS
    assert layers
    missing = [(m, a) for m, a, _, _ in layers
               if m not in sys.modules or not hasattr(sys.modules[m], a)]
    assert missing == []


def test_run_record_flag_exists():
    kernels = importlib.import_module("isoclips.oracle.kernels")
    assert isinstance(kernels.USING_NUMBA, bool)


def test_pair_cache_counters_exist():
    clips = importlib.import_module("isoclips.clips")
    cached = clips.clips_pair_detailed
    info = cached.cache_info()
    assert isinstance(info.hits, int) and isinstance(info.misses, int)
    assert callable(cached.cache_clear)
