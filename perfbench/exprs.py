"""Harmonic expression trees, their text and their dimension.

The benchmark builds its square expressions as trees, renders them in the
grammar of ``isoclips.parsing`` and computes the expected dimension by its
own walk of the tree, so that the reference never goes through the code
under test.

Node forms::

    ("H", n, star)      degree-n harmonic space, dimension 2n + 1
    ("k", k, node)      k * node
    ("S2", node)        symmetric square, D(D+1)/2
    ("L2", node)        antisymmetric square, D(D-1)/2
    ("x", a, b)         tensor product, D_a * D_b
    ("+", a, b)         direct sum, D_a + D_b
"""

from __future__ import annotations

import random
from typing import Tuple

Node = Tuple

_EXPR, _TERM, _FACTOR = 0, 1, 2  # grammar levels, loosest to tightest


def atom(n: int, star: bool = False) -> Node:
    return ("H", n, star)


def dimension(node: Node) -> int:
    """Dimension of the space the expression denotes."""
    kind = node[0]
    if kind == "H":
        return 2 * node[1] + 1
    if kind == "k":
        return node[1] * dimension(node[2])
    if kind == "S2":
        d = dimension(node[1])
        return d * (d + 1) // 2
    if kind == "L2":
        d = dimension(node[1])
        return d * (d - 1) // 2
    if kind == "x":
        return dimension(node[1]) * dimension(node[2])
    if kind == "+":
        return dimension(node[1]) + dimension(node[2])
    raise ValueError(f"unknown node {node!r}")


def render(node: Node, level: int = _EXPR) -> str:
    """Text of the expression, parenthesised only where the grammar needs it."""
    kind = node[0]
    if kind == "H":
        return f"H{node[1]}{'*' if node[2] else ''}"
    if kind == "k":
        return f"{node[1]}*{render(node[2], _FACTOR)}"
    if kind in ("S2", "L2"):
        return f"{kind}({render(node[1])})"
    if kind == "x":
        text, own = f"{render(node[1], _TERM)} (x) {render(node[2], _FACTOR)}", _TERM
    elif kind == "+":
        text, own = f"{render(node[1], _EXPR)} + {render(node[2], _TERM)}", _EXPR
    else:
        raise ValueError(f"unknown node {node!r}")
    return f"({text})" if level > own else text


def max_square_argument(node: Node) -> int:
    """Largest dimension of any S2/L2 argument in the expression."""
    kind = node[0]
    if kind == "H":
        return 0
    if kind in ("S2", "L2"):
        return max(dimension(node[1]), max_square_argument(node[1]))
    return max(max_square_argument(child) for child in node[1:] if isinstance(child, tuple))


def random_square_expr(rng: random.Random, depth: int) -> Node:
    """A nested square expression with exactly ``depth`` levels of S2/L2."""
    inner: Node = atom(rng.randint(0, 3), rng.random() < 0.3)
    if rng.random() < 0.5:
        inner = ("+", inner, atom(rng.randint(0, 3), rng.random() < 0.3))
    if rng.random() < 0.3:
        inner = ("k", rng.randint(2, 3), inner)
    for _ in range(depth):
        inner = (rng.choice(("S2", "L2")), inner)
        roll = rng.random()
        if roll < 0.2:
            inner = ("x", inner, atom(rng.randint(0, 2), rng.random() < 0.3))
        elif roll < 0.4:
            inner = ("+", inner, atom(rng.randint(0, 4)))
    return inner
