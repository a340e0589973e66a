"""Command-line front-end.

Subcommands: ``clips``, ``isotropy``, ``irrep``, ``decompose``, ``poset``,
``verify``.  Exit codes: 0 success, 1 invalid input (a class not admissible
in the context, an infinite class given to ``verify``, a negative ``irrep``
degree, a ``--dot`` path that cannot be written, an allocation the operating
system refuses, such as the frames of a huge ``verify --samples``), 2 parse
or usage error, 3 unsupported operation (mixed -I action / type II clips),
4 oracle verdict fail.  Catching a refused allocation does not bound memory:
a request the system grants still runs.
"""

from __future__ import annotations

import argparse
import gc
import sys
from typing import List, Optional

from .groups import (
    ClassSet,
    Context,
    ContextError,
    SubgroupClass,
    UnsupportedClipsError,
    render_class,
)
from .clips import HasseEdges, clips_pair, hasse
from .irreps import HarmonicLabel, HarmonicSum
from .parsing import ParseError, parse_class, parse_rep
from .symmetry import RepSpec, isotropy_classes

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_UNSUPPORTED = 3
EXIT_VERDICT = 4


def _non_negative(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return value


def _print_json(obj) -> None:
    # ``json`` is imported here, so only ``--json`` output pays for it.
    import json

    print(json.dumps(obj))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isoclips",
        description="Symmetry classes of SO(3)/O(3) representations via clips.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, dot=False):
        p.add_argument("--ctx", choices=["so3", "o3"], default=None,
                       help="ambient context (default: so3 unless the input forces o3)")
        p.add_argument("--json", action="store_true", help="emit JSON")
        if dot:
            p.add_argument("--dot", metavar="PATH",
                           help="write the Hasse diagram of the result as DOT")

    p = sub.add_parser("clips", help="clips of two subgroup classes")
    p.add_argument("first")
    p.add_argument("second")
    add_common(p, dot=True)

    p = sub.add_parser("isotropy", help="symmetry classes of a harmonic sum")
    p.add_argument("rep")
    add_common(p, dot=True)

    p = sub.add_parser("irrep", help="symmetry classes of one irreducible")
    p.add_argument("degree", type=int)
    p.add_argument("--star", action="store_true", help="det-twisted action")
    add_common(p)

    p = sub.add_parser("decompose", help="evaluate a harmonic expression")
    p.add_argument("expr")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("poset", help="Hasse diagram of the symmetry classes")
    p.add_argument("rep")
    add_common(p, dot=True)

    p = sub.add_parser("verify", help="brute-force check of one clips cell")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--samples", type=_non_negative, default=200)
    p.add_argument("--seed", type=_non_negative, default=0)
    p.add_argument("--json", action="store_true")
    return parser


def _resolve_ctx(explicit: Optional[str], forced_o3: bool) -> Context:
    if explicit is not None:
        return Context(explicit)
    if forced_o3:
        print("note: promoting context to o3 (input requires it)", file=sys.stderr)
        return Context.O3
    return Context.SO3


def _forces_o3(*classes: SubgroupClass) -> bool:
    return any(c.is_type_iii or c.is_type_ii for c in classes)


def _sum_forces_o3(content: HarmonicSum) -> bool:
    return any(label.star for label, _ in content.terms)


def _emit_classes(result: ClassSet, ctx: Context, as_json: bool,
                  dot: Optional[str]) -> None:
    if dot:
        _write_dot(result, hasse(result, ctx), dot)
    if as_json:
        _print_json(
            {"context": ctx.value, "classes": [render_class(c) for c in result]}
        )
    else:
        print(result.render())


def _write_dot(result: ClassSet, edges: HasseEdges, path: str) -> None:
    lonely = [c for c in result
              if not any(c in e for e in edges)]
    lines = ["digraph {"]
    lines += [f'  "{render_class(c)}";' for c in lonely]
    lines += [
        f'  "{render_class(lo)}" -> "{render_class(hi)}";' for lo, hi in edges
    ]
    lines.append("}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _cmd_clips(args) -> int:
    a, b = parse_class(args.first), parse_class(args.second)
    ctx = _resolve_ctx(args.ctx, _forces_o3(a, b))
    result = clips_pair(ctx, a, b)
    _emit_classes(result, ctx, args.json, args.dot)
    return EXIT_OK


def _cmd_isotropy(args) -> int:
    content = parse_rep(args.rep)
    ctx = _resolve_ctx(args.ctx, _sum_forces_o3(content))
    result = isotropy_classes(RepSpec(ctx, content))
    _emit_classes(result, ctx, args.json, args.dot)
    return EXIT_OK


def _cmd_irrep(args) -> int:
    label = HarmonicLabel(args.degree, args.star)
    content = HarmonicSum([(label, 1)])
    ctx = _resolve_ctx(args.ctx, args.star)
    result = isotropy_classes(RepSpec(ctx, content))
    _emit_classes(result, ctx, args.json, None)
    return EXIT_OK


def _cmd_decompose(args) -> int:
    total = parse_rep(args.expr)
    if args.json:
        _print_json({
            "sum": str(total),
            "dimension": total.dim,
            "terms": [
                {"degree": l.n, "star": l.star, "multiplicity": m}
                for l, m in total.terms
            ],
        })
    else:
        print(total)
    return EXIT_OK


def _cmd_poset(args) -> int:
    content = parse_rep(args.rep)
    ctx = _resolve_ctx(args.ctx, _sum_forces_o3(content))
    result = isotropy_classes(RepSpec(ctx, content))
    edges = hasse(result, ctx)
    if args.dot:
        _write_dot(result, edges, args.dot)
    if args.json:
        _print_json({
            "context": ctx.value,
            "classes": [render_class(c) for c in result],
            "edges": [[render_class(lo), render_class(hi)] for lo, hi in edges],
        })
    else:
        for lo, hi in edges:
            print(f"{render_class(lo)} -> {render_class(hi)}")
        if not edges:
            # The full class lies above every other, so only a one-class
            # result has no edge.
            print(result.render())
    return EXIT_OK


def _cmd_verify(args) -> int:
    from .oracle import verify_clips

    a, b = parse_class(args.first), parse_class(args.second)
    report = verify_clips(a, b, samples=args.samples, seed=args.seed)
    if args.json:
        _print_json(report.to_json())
    else:
        print(f"pair: {render_class(a)} o {render_class(b)}")
        print(f"table:    {report.table.render()}")
        print(f"observed: {report.observed.render()}")
        print(f"verdict: {report.verdict}")
    return EXIT_OK if report.verdict == "pass" else EXIT_VERDICT


_COMMANDS = {
    "clips": _cmd_clips,
    "isotropy": _cmd_isotropy,
    "irrep": _cmd_irrep,
    "decompose": _cmd_decompose,
    "poset": _cmd_poset,
    "verify": _cmd_verify,
}


def run(argv: Optional[List[str]] = None) -> int:
    """Run one CLI invocation; returns the exit status."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except UnsupportedClipsError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_UNSUPPORTED
    except (ContextError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory ({str(exc) or 'allocation refused'})",
              file=sys.stderr)
        return 1


def main() -> None:
    # The process exits straight after ``run``, so the objects made by the
    # imports need no more cyclic collection: freezing them skips the walks
    # over them, at exit and during the command.
    gc.freeze()
    sys.exit(run())


if __name__ == "__main__":
    main()
