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

from .groups import (
    ICO,
    O2,
    O2_MINUS,
    O3_FULL,
    OCTA,
    OCTA_MINUS,
    SO2,
    SO3,
    TETRA,
    TRIV,
    SubgroupClass,
    cyclic,
    d_h,
    d_v,
    dihedral,
    render_class,
    type_ii,
    z_minus,
)
from .irreps import HarmonicLabel, HarmonicSum, alt_square, sym_square, tensor_product


class ParseError(ValueError):
    """Syntax error with the byte offset of the offending character."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


_FIXED_CLASSES = {
    render_class(c): c
    for c in (TRIV, TETRA, OCTA, ICO, SO2, O2, SO3, OCTA_MINUS, O2_MINUS, O3_FULL)
}

_PARAM_CLASS = re.compile(r"^(Z|D)(\d+)(\^-|\^v|\^h)?$")
_TYPE_II_WRAP = re.compile(r"^\[(.+) x Zc2\]$")


def parse_class(text: str) -> SubgroupClass:
    """Parse a class name in the rendering grammar; strict about parameters."""
    s = text.strip()
    if s in _FIXED_CLASSES:
        return _FIXED_CLASSES[s]
    m = _TYPE_II_WRAP.match(s)
    if m:
        return type_ii(parse_class(m.group(1)))
    m = _PARAM_CLASS.match(s)
    if not m:
        raise ParseError(f"not a class name: {text!r}", 0)
    family, param, deco = m.group(1), int(m.group(2)), m.group(3)
    try:
        if family == "Z" and deco is None:
            out = cyclic(param)
        elif family == "Z" and deco == "^-":
            out = z_minus(param)
        elif family == "D" and deco is None:
            out = dihedral(param)
        elif family == "D" and deco == "^v":
            out = d_v(param)
        elif family == "D" and deco == "^h":
            out = d_h(param)
        else:
            raise ParseError(f"not a class name: {text!r}", 0)
    except ValueError as exc:
        raise ParseError(str(exc), 0) from exc
    if str(out) != s:
        # Degenerate parameters (Z1, D2^h, ...) are not part of the grammar.
        raise ParseError(f"non-canonical class name: {text!r}", 0)
    return out


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
