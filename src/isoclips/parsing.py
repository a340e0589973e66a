"""Parsers for class names and harmonic expressions.

Class names follow exactly the rendering grammar of :mod:`isoclips.groups`.
Harmonic expressions are whitespace-insensitive formal sums::

    atom     := H<n> | H<n>*
    factor   := INT '*' factor | 'S2' '(' expr ')' | 'L2' '(' expr ')'
              | '(' expr ')' | atom
    term     := factor { '(x)' factor }
    expr     := term { '+' term }

Factors nest (through parentheses, squares and integer scaling) at most
``MAX_NESTING`` levels deep; deeper input is a ``ParseError``, which keeps
the recursive-descent parser within the interpreter's recursion limit.
"""

from __future__ import annotations

import re
from typing import List, Optional, Tuple

from .groups import _KINDS, O3_FULL, SubgroupClass, normalize, type_ii
from .irreps import HarmonicLabel, HarmonicSum, alt_square, sym_square, tensor_product


class ParseError(ValueError):
    """Syntax error with the byte offset of the offending character."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


# Both lookups come from the renderings in ``_KINDS``: a parameter-free name
# maps to its class, a parametrised one's text around ``{n}`` to its kind.
_FIXED_CLASSES = {
    str(c): c
    for c in [normalize(k) for k, row in _KINDS.items() if "{" not in row.render]
    + [O3_FULL]
}
_FAMILIES = {
    tuple(row.render.split("{n}")): k
    for k, row in _KINDS.items() if "{n}" in row.render
}

_PARAM_CLASS = re.compile(r"^(\D+)(\d+)(\D*)$")
_TYPE_II_WRAP = re.compile(r"^\[(.+) x Zc2\]$")


def parse_class(text: str) -> SubgroupClass:
    """Parse a class name in the rendering grammar; strict about parameters."""
    s = text.strip()
    m = _TYPE_II_WRAP.match(s)
    try:
        out = type_ii(_unwrapped(m.group(1))) if m else _unwrapped(s)
    except ParseError:
        raise
    except ValueError as exc:
        raise ParseError(str(exc), 0) from exc
    if str(out) != s:
        # Degenerate parameters (Z1, D2^h, ...) and [SO(3) x Zc2] are not
        # part of the grammar.
        raise ParseError(f"non-canonical class name: {text!r}", 0)
    return out


def _unwrapped(s: str) -> SubgroupClass:
    # A name that is not a type II wrap; a wrap inside a wrap lands here too.
    if s in _FIXED_CLASSES:
        return _FIXED_CLASSES[s]
    m = _PARAM_CLASS.match(s)
    kind = m and _FAMILIES.get((m.group(1), m.group(3)))
    if not kind:
        raise ParseError(f"not a class name: {s!r}", 0)
    return normalize(kind, int(m.group(2)))


# ---------------------------------------------------------------------------
# Harmonic expressions.

MAX_NESTING = 100

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<tensor>\(x\))
  | (?P<s2>S2)
  | (?P<l2>L2)
  | (?P<atom>H\d+\*?)
  | (?P<int>\d+)
  | (?P<star>\*)
  | (?P<plus>\+)
  | (?P<lpar>\()
  | (?P<rpar>\))
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> List[Tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        if kind != "ws":
            tokens.append((kind, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _ExprParser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0  # open '(', 'S2(', 'L2(' and 'k*' factors

    def peek(self) -> Tuple[str, str, int]:
        return self.tokens[self.i]

    def take(self, kind: Optional[str] = None) -> Tuple[str, str, int]:
        tok = self.tokens[self.i]
        if kind is not None and tok[0] != kind:
            raise ParseError(f"expected {kind}, found {tok[1] or 'end'!r}", tok[2])
        self.i += 1
        return tok

    def parse(self) -> HarmonicSum:
        out = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"trailing input {tok[1]!r}", tok[2])
        return out

    def expr(self) -> HarmonicSum:
        out = self.term()
        while self.peek()[0] == "plus":
            self.take()
            out = out + self.term()
        return out

    def term(self) -> HarmonicSum:
        out = self.factor()
        while self.peek()[0] == "tensor":
            self.take()
            out = tensor_product(out, self.factor())
        return out

    def factor(self) -> HarmonicSum:
        kind, value, pos = self.peek()
        if kind == "atom":
            self.take()
            star = value.endswith("*")
            degree = int(value[1:-1] if star else value[1:])
            return HarmonicSum([(HarmonicLabel(degree, star), 1)])
        if kind not in ("int", "s2", "l2", "lpar"):
            raise ParseError(f"expected a term, found {value or 'end'!r}", pos)
        if self.depth == MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels", pos)
        self.depth += 1
        self.take()
        if kind == "int":
            self.take("star")
            mult = int(value)
            inner = self.factor()
            out = HarmonicSum([(l, mult * m) for l, m in inner.terms])
        elif kind == "lpar":
            out = self.expr()
            self.take("rpar")
        else:
            self.take("lpar")
            inner = self.expr()
            self.take("rpar")
            out = sym_square(inner) if kind == "s2" else alt_square(inner)
        self.depth -= 1
        return out


def parse_rep(text: str) -> HarmonicSum:
    """Parse a harmonic expression into a normalized sum."""
    return _ExprParser(text).parse()
