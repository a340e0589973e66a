"""The fold reproduces the benchmark's golden file, names and order.

``perfbench/golden_fold.json`` maps ``"<ctx>|<expr>"`` to the rendered
isotropy classes of that input, in canonical order.  It is read here, never
written.
"""

import json
from pathlib import Path

from isoclips import Context, RepSpec, isotropy_classes, parse_rep, render_class

GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden_fold.json"


def test_fold_matches_golden_file():
    golden = json.loads(GOLDEN.read_text())
    assert len(golden) == 339
    wrong = []
    for key, want in golden.items():
        ctx, expr = key.split("|", 1)
        got = [render_class(c)
               for c in isotropy_classes(RepSpec(Context(ctx), parse_rep(expr)))]
        if got != want:
            wrong.append(key)
    assert not wrong, f"{len(wrong)} of {len(golden)} differ, first: {wrong[:3]}"
