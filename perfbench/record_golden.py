"""Record the fold results of the isotropy-fold corpus as the golden file.

    python3 perfbench/record_golden.py

The golden file holds the program's output at the commit that added the
benchmark; later runs check generated fold inputs against it.  Re-record
only when a change is meant to alter fold results, and say so.
"""

import json
import sys

import workloads


def main() -> int:
    workloads.load_program()
    from isoclips import Context, RepSpec, isotropy_classes, parse_rep, render_class

    golden = {}
    for ctx, expr, _ in workloads.fold_corpus():
        result = isotropy_classes(RepSpec(Context(ctx), parse_rep(expr)))
        golden[workloads.fold_key(ctx, expr)] = [render_class(c) for c in result]
    lines = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(golden.items())]
    workloads.GOLDEN_FOLD.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(golden)} entries to {workloads.GOLDEN_FOLD.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
