"""Grammar fuzz test: random expression trees, and one-character mutations of
their text, through the CLI.  Every input must end in a documented exit code,
and an accepted expression must have the dimension of the tree it came from.
Class names of every kind, edited a few times, must parse to a class that
renders as the input or raise ``ParseError``."""

import contextlib
import io
import json

from hypothesis import given, settings, strategies as st

from isoclips import ParseError, normalize, parse_class, type_ii
from isoclips.cli import run
from isoclips.groups import _KINDS, TRIV

# Tree nodes: ("H", n, star), ("k*", k, x), ("+", x, y), ("(x)", x, y),
# ("()", x), ("S2", x) and ("L2", x).
_ATOMS = st.builds(lambda n, star: ("H", n, star), st.integers(0, 8), st.booleans())


def _extend(children):
    return st.one_of(
        st.builds(lambda k, x: ("k*", k, x), st.integers(0, 4), children),
        st.builds(lambda x, y: ("+", x, y), children, children),
        st.builds(lambda x, y: ("(x)", x, y), children, children),
        st.builds(lambda x: ("()", x), children),
        st.builds(lambda op, x: (op, x), st.sampled_from(["S2", "L2"]), children),
    )


def _square_depth(t) -> int:
    inner = max((_square_depth(c) for c in t[1:] if isinstance(c, tuple)), default=0)
    return inner + (t[0] in ("S2", "L2"))


TREES = st.recursive(_ATOMS, _extend, max_leaves=4).filter(lambda t: _square_depth(t) <= 2)


def _render(t) -> str:
    op = t[0]
    if op == "H":
        return f"H{t[1]}" + ("*" if t[2] else "")
    if op == "k*":
        return f"{t[1]}*{_factor(t[2])}"
    if op == "+":
        return f"{_render(t[1])} + {_render(t[2])}"
    if op == "(x)":
        left = _render(t[1]) if t[1][0] != "+" else f"({_render(t[1])})"
        return f"{left} (x) {_factor(t[2])}"
    if op == "()":
        return f"({_render(t[1])})"
    return f"{op}({_render(t[1])})"


def _factor(t) -> str:
    """``t`` rendered as one factor of the grammar."""
    return f"({_render(t)})" if t[0] in ("+", "(x)") else _render(t)


def _dim(t) -> int:
    op = t[0]
    if op == "H":
        return 2 * t[1] + 1
    if op == "k*":
        return t[1] * _dim(t[2])
    if op == "+":
        return _dim(t[1]) + _dim(t[2])
    if op == "(x)":
        return _dim(t[1]) * _dim(t[2])
    if op == "()":
        return _dim(t[1])
    d = _dim(t[1])
    return d * (d + 1) // 2 if op == "S2" else d * (d - 1) // 2


def _cli(argv):
    """Exit status and stdout of one in-process CLI run.  argparse reports a
    usage error (say, text starting with '-') by exiting with status 2."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = run(argv)
    except SystemExit as exc:
        code = exc.code
    return code, out.getvalue()


# Mutations never insert a digit or turn a non-digit into one, so a number
# keeps its length: a mutant is never much costlier than its tree.
_DIGITS = "0123456789"
_OTHERS = "HSLx*+() -^,\té"


@st.composite
def _mutants(draw, text: str) -> str:
    i = draw(st.integers(0, len(text)))
    kind = draw(st.sampled_from(["insert", "delete", "replace"]))
    if kind == "insert" or i == len(text):
        return text[:i] + draw(st.sampled_from(_OTHERS)) + text[i:]
    if kind == "delete":
        return text[:i] + text[i + 1:]
    pool = _DIGITS if text[i] in _DIGITS else _OTHERS
    return text[:i] + draw(st.sampled_from(pool)) + text[i + 1:]


@settings(max_examples=80, deadline=None)
@given(TREES)
def test_decompose_dimension_of_tree(tree):
    code, out = _cli(["decompose", _render(tree), "--json"])
    assert code == 0
    assert json.loads(out)["dimension"] == _dim(tree)


@settings(max_examples=150, deadline=None)
@given(TREES.map(_render).flatmap(_mutants))
def test_decompose_mutant_exit_code(text):
    code, out = _cli(["decompose", text, "--json"])
    assert code in (0, 2), text
    if code == 0:
        assert json.loads(out)["dimension"] >= 0


@settings(max_examples=40, deadline=None)
@given(TREES)
def test_isotropy_exit_code(tree):
    code, _ = _cli(["isotropy", _render(tree)])
    assert code in (0, 3)


def _class(kind, n):
    try:
        return normalize(kind, n)
    except ValueError:  # an odd half parameter
        return TRIV


_UNWRAPPED = st.builds(_class, st.sampled_from([k for k, row in _KINDS.items()
                                                if row.type != "II"]),
                       st.integers(1, 24))
CLASSES = _UNWRAPPED | _UNWRAPPED.filter(lambda c: c.is_type_i).map(type_ii)


@st.composite
def _edited(draw, text: str) -> str:
    """Up to three edits: drop, duplicate or swap characters, or wrap in or
    strip ``[... x Zc2]``."""
    for _ in range(draw(st.integers(0, 3))):
        op = draw(st.sampled_from(["drop", "duplicate", "swap", "wrap", "strip"]))
        i = draw(st.integers(0, max(len(text) - 2, 0)))
        if op == "wrap":
            text = f"[{text} x Zc2]"
        elif op == "strip":
            text = text.removeprefix("[").removesuffix(" x Zc2]")
        elif op == "drop":
            text = text[:i] + text[i + 1:]
        elif op == "duplicate":
            text = text[:i + 1] + text[i:]
        else:
            text = text[:i] + text[i + 1:i + 2] + text[i:i + 1] + text[i + 2:]
    return text


@settings(max_examples=300, deadline=None)
@given(CLASSES.map(str).flatmap(_edited))
def test_parse_class_mutant(text):
    try:
        cls = parse_class(text)
    except ParseError:
        return
    assert str(cls) == text.strip(), text
