"""Conjugacy classes of closed subgroups of SO(3) and O(3).

Classes are immutable, tuple-backed values, interned: one object per class
per process.  The named classes are module constants, and the six
parametrised constructors (``cyclic``, ``dihedral``, ``z_minus``, ``d_v``,
``d_h``, ``type_ii``) are unbounded ``lru_cache``s, so every path that builds
a class (rule outcomes, irreducible lists, parsed names, oracle
classifications, pickle and copy) returns the object the first call built.
Equal classes are therefore the same object, and the tuple equality behind
every dict key match and ``set`` dedupe stops at its identity check.  The
caches are ``typed``, so ``cyclic(2.0)`` still raises after ``cyclic(2)``,
and a call that raises is never cached; parameters are positional-only, as a
keyword call would get its own cache key.  A closed subgroup class is one of:

* type I (rotation groups): ``1``, ``Zn``, ``Dn``, ``T``, ``O``, ``I``,
  ``SO(2)``, ``O(2)``, ``SO(3)``;
* type III (contain improper elements but not ``-I``): ``Z2n^-``, ``Dn^v``,
  ``D2n^h``, ``O^-``, ``O(2)^-``;
* type II (contain ``-I``): ``[K x Zc2]`` for a type I class ``K``, with
  ``O(3)`` as the special case ``K = SO(3)``.

Degenerate parameters collapse on construction: ``Z1 = D1 = 1`` and
``Z1^- = D1^v = D2^h = 1``.  ``Z2n^-`` and ``D2n^h`` store the even
parameter ``2n``.

Every per-kind fact is one row of ``_KINDS``, keyed by the kind tag, in
rank order (the canonical printing order behind ``sort_key``).  A row holds
the kind's type (``"I"``, ``"II"`` or ``"III"``); its rendering, a template
in which ``{n}`` is the stored parameter and ``{inner}`` a type II class's
rotation class; what ``normalize`` calls (the interning constructor, or the
constant of a parameter-free kind); the group order as a function of the
stored parameter (``None`` for an infinite kind; a type II class has twice
its inner class's order); the half flag (``Z2n^-`` and ``D2n^h`` store
``2n`` and their clips cells read ``n``); and, for a type III kind, its
characteristic couple ``n -> (L, H)`` and the tag of its Lemma 5.1 rule id.
Adding a kind takes a row here, its ``_CELLS`` rows in ``isoclips.clips``
and, for a finite rotation kind, an element builder in
``isoclips.oracle.realize``.
"""

from __future__ import annotations

import functools
from enum import Enum
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Tuple, Union


class Context(Enum):
    """Ambient group in which conjugacy and clips are taken.

    Members are singletons compared by identity, so the identity hash of
    ``object`` is sound; it runs in C, where ``Enum.__hash__`` is Python
    code paid on every cache lookup keyed on a context.
    """

    SO3 = "so3"
    O3 = "o3"

    __hash__ = object.__hash__


class ContextError(ValueError):
    """A class is not admissible in the requested context."""


class UnsupportedClipsError(ValueError):
    """No clips rule exists for the requested operands."""


# Kind tags, the keys of ``_KINDS``.
TRIV_K = "triv"
CYCLIC_K = "cyclic"
DIHEDRAL_K = "dihedral"
TETRA_K = "tetra"
OCTA_K = "octa"
ICO_K = "ico"
SO2_K = "so2"
O2_K = "o2"
SO3_K = "so3"
ZMINUS_K = "zminus"
DV_K = "dv"
DH_K = "dh"
OCTA_MINUS_K = "octa_minus"
O2_MINUS_K = "o2_minus"
TYPE_II_K = "type_ii"


class SubgroupClass(NamedTuple):
    """Canonical label of a conjugacy class of a closed O(3) subgroup.

    Tuple-backed, so hashing and equality run on the field tuple in C.  The
    four order comparisons follow ``sort_key``, not the raw fields.
    """

    kind: str
    n: Optional[int] = None
    inner: Optional["SubgroupClass"] = None

    def sort_key(self) -> tuple:
        inner_key = self.inner.sort_key() if self.inner is not None else ()
        return (_RANK[self.kind], self.n or 0, inner_key)

    def __lt__(self, other: "SubgroupClass") -> bool:
        return self.sort_key() < _other_key(other)

    def __le__(self, other: "SubgroupClass") -> bool:
        return self.sort_key() <= _other_key(other)

    def __gt__(self, other: "SubgroupClass") -> bool:
        return self.sort_key() > _other_key(other)

    def __ge__(self, other: "SubgroupClass") -> bool:
        return self.sort_key() >= _other_key(other)

    def __str__(self) -> str:
        return render_class(self)

    def __repr__(self) -> str:
        return f"<{render_class(self)}>"

    def __reduce__(self):
        # Pickle and copy rebuild through the interning constructors, so a
        # round trip returns the very same object.
        return (normalize, (self.kind, self.n, self.inner))

    @property
    def is_type_i(self) -> bool:
        return _KINDS[self.kind].type == "I"

    @property
    def is_type_ii(self) -> bool:
        return _KINDS[self.kind].type == "II"

    @property
    def is_type_iii(self) -> bool:
        return _KINDS[self.kind].type == "III"

    @property
    def is_finite(self) -> bool:
        if self.inner is not None:
            return self.inner.is_finite
        return _KINDS[self.kind].order is not None

    def order(self) -> int:
        """Group order of a finite class."""
        if not self.is_finite:
            raise ValueError(f"{self} is infinite")
        if self.inner is not None:
            return 2 * self.inner.order()
        return _KINDS[self.kind].order(self.n)


def _other_key(other) -> tuple:
    # A plain tuple would otherwise compare by its raw fields.
    if not isinstance(other, SubgroupClass):
        raise TypeError(
            f"cannot order a subgroup class against {type(other).__name__}")
    return other.sort_key()


TRIV = SubgroupClass(TRIV_K)
TETRA = SubgroupClass(TETRA_K)
OCTA = SubgroupClass(OCTA_K)
ICO = SubgroupClass(ICO_K)
SO2 = SubgroupClass(SO2_K)
O2 = SubgroupClass(O2_K)
SO3 = SubgroupClass(SO3_K)
OCTA_MINUS = SubgroupClass(OCTA_MINUS_K)
O2_MINUS = SubgroupClass(O2_MINUS_K)


@functools.lru_cache(maxsize=None, typed=True)
def cyclic(n: int, /) -> SubgroupClass:
    """Class of the order-``n`` rotation group about an axis (``Z1 = 1``)."""
    _check_positive(n, "Zn")
    return TRIV if n == 1 else SubgroupClass(CYCLIC_K, n)


@functools.lru_cache(maxsize=None, typed=True)
def dihedral(n: int, /) -> SubgroupClass:
    """Class of the dihedral rotation group of order ``2n`` (``D1 = 1``)."""
    _check_positive(n, "Dn")
    return TRIV if n == 1 else SubgroupClass(DIHEDRAL_K, n)


@functools.lru_cache(maxsize=None, typed=True)
def z_minus(p: int, /) -> SubgroupClass:
    """Class ``Zp^-`` for even ``p``; ``Z1^-`` collapses to ``1``."""
    _check_positive(p, "Zp^-")
    if p == 1:
        return TRIV
    if p % 2 != 0:
        raise ValueError(f"Zp^- parameter must be even, got {p}")
    return SubgroupClass(ZMINUS_K, p)


@functools.lru_cache(maxsize=None, typed=True)
def d_v(n: int, /) -> SubgroupClass:
    """Class ``Dn^v`` of order ``2n`` (``D1^v = 1``)."""
    _check_positive(n, "Dn^v")
    return TRIV if n == 1 else SubgroupClass(DV_K, n)


@functools.lru_cache(maxsize=None, typed=True)
def d_h(p: int, /) -> SubgroupClass:
    """Class ``Dp^h`` for even ``p``, of order ``2p`` (``D2^h = 1``)."""
    _check_positive(p, "Dp^h")
    if p == 1 or p == 2:
        return TRIV
    if p % 2 != 0:
        raise ValueError(f"Dp^h parameter must be even, got {p}")
    return SubgroupClass(DH_K, p)


@functools.lru_cache(maxsize=None, typed=True)
def type_ii(inner: SubgroupClass, /) -> SubgroupClass:
    """Class of ``K u (-K)`` for a type I class ``K``."""
    if not isinstance(inner, SubgroupClass) or not inner.is_type_i:
        raise ValueError(f"type II classes wrap type I classes only, got {inner}")
    return SubgroupClass(TYPE_II_K, inner=inner)


def _check_positive(n, what: str) -> None:
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"{what} parameter must be a positive integer, got {n!r}")


_Couple = Tuple[SubgroupClass, SubgroupClass]


class _Kind(NamedTuple):
    """A row of ``_KINDS``; the module docstring describes the columns."""

    type: str
    render: str
    build: Union[SubgroupClass, Callable[..., SubgroupClass]]
    order: Optional[Callable[[Optional[int]], int]]
    half: bool = False
    couple: Optional[Callable[[Optional[int]], _Couple]] = None
    l51: Optional[str] = None


_KINDS = {
    TRIV_K: _Kind("I", "1", TRIV, lambda n: 1),
    CYCLIC_K: _Kind("I", "Z{n}", cyclic, lambda n: n),
    DIHEDRAL_K: _Kind("I", "D{n}", dihedral, lambda n: 2 * n),
    TETRA_K: _Kind("I", "T", TETRA, lambda n: 12),
    OCTA_K: _Kind("I", "O", OCTA, lambda n: 24),
    ICO_K: _Kind("I", "I", ICO, lambda n: 60),
    SO2_K: _Kind("I", "SO(2)", SO2, None),
    O2_K: _Kind("I", "O(2)", O2, None),
    SO3_K: _Kind("I", "SO(3)", SO3, None),
    ZMINUS_K: _Kind("III", "Z{n}^-", z_minus, lambda n: n, True,
                    lambda n: (cyclic(n // 2), cyclic(n)), "Z2n-"),
    DV_K: _Kind("III", "D{n}^v", d_v, lambda n: 2 * n, False,
                lambda n: (cyclic(n), dihedral(n)), "Dv"),
    DH_K: _Kind("III", "D{n}^h", d_h, lambda n: 2 * n, True,
                lambda n: (dihedral(n // 2), dihedral(n)), "D2nh"),
    OCTA_MINUS_K: _Kind("III", "O^-", OCTA_MINUS, lambda n: 24, False,
                        lambda n: (TETRA, OCTA), "O-"),
    O2_MINUS_K: _Kind("III", "O(2)^-", O2_MINUS, None, False,
                      lambda n: (SO2, O2), "O2-"),
    TYPE_II_K: _Kind("II", "[{inner} x Zc2]", type_ii, None),
}

_RANK = {k: i for i, k in enumerate(_KINDS)}

O3_FULL = type_ii(SO3)


def normalize(kind: str, n: Optional[int] = None,
              inner: Optional[SubgroupClass] = None) -> SubgroupClass:
    """Build the canonical class from a raw tag and raw integer parameter.

    Idempotent on canonical values; degenerate parameters collapse to ``1``;
    odd ``zminus``/``dh`` parameters (other than the degenerate 1) and
    non-positive parameters are errors.
    """
    row = _KINDS.get(kind)
    if row is None:
        raise ValueError(f"unknown class tag {kind!r}")
    if isinstance(row.build, SubgroupClass):
        return row.build
    return row.build(inner if row.type == "II" else n)


def render_class(cls: SubgroupClass) -> str:
    """Render a class in the canonical grammar (round-trips via parsing)."""
    if cls == O3_FULL:
        return "O(3)"
    return _KINDS[cls.kind].render.format(n=cls.n, inner=cls.inner)


def full_class(ctx: Context) -> SubgroupClass:
    return SO3 if ctx is Context.SO3 else O3_FULL


def is_admissible(cls: SubgroupClass, ctx: Context) -> bool:
    return ctx is Context.O3 or cls.is_type_i


def check_admissible(ctx: Context, *classes: SubgroupClass) -> None:
    for cls in classes:
        if not is_admissible(cls, ctx):
            raise ContextError(f"{cls} is not a subgroup class in context {ctx.value}")


def _couple(cls: SubgroupClass) -> _Couple:
    couple = _KINDS[cls.kind].couple
    if couple is None:
        raise ValueError(f"{cls} is not a type III class")
    return couple(cls.n)


def characteristic_l(cls: SubgroupClass) -> SubgroupClass:
    """Rotation part ``L = X n SO(3)`` of a type III class ``X``."""
    return _couple(cls)[0]


def characteristic_h(cls: SubgroupClass) -> SubgroupClass:
    """Projection ``H = pi(X)`` under ``x -> det(x) x`` of a type III class."""
    return _couple(cls)[1]


def type_iii_class(l: SubgroupClass, h: SubgroupClass) -> Optional[SubgroupClass]:
    """The type III class with characteristic couple ``(l, h)``, or None.

    A type III class stores the parameter of its ``H``, so each type III
    kind has one candidate, ``normalize(kind, h.n)``."""
    for kind, row in _KINDS.items():
        if row.couple is None:
            continue
        try:
            cls = normalize(kind, h.n)
        except ValueError:  # no parameter, or an odd half parameter
            continue
        if cls.kind == kind and row.couple(cls.n) == (l, h):
            return cls
    return None


class ClassSet:
    """Duplicate-free set of classes, iterated in the canonical total order."""

    __slots__ = ("_classes",)

    def __init__(self, items: Iterable[SubgroupClass] = ()):
        self._classes: Tuple[SubgroupClass, ...] = tuple(
            sorted(set(items), key=SubgroupClass.sort_key)
        )

    def __iter__(self) -> Iterator[SubgroupClass]:
        return iter(self._classes)

    def __len__(self) -> int:
        return len(self._classes)

    def __contains__(self, cls: SubgroupClass) -> bool:
        return cls in self._classes

    def __eq__(self, other) -> bool:
        return isinstance(other, ClassSet) and self._classes == other._classes

    def __hash__(self) -> int:
        return hash(self._classes)

    def __repr__(self) -> str:
        return f"ClassSet({{{self.render()}}})"

    def render(self) -> str:
        return ", ".join(render_class(c) for c in self._classes)
