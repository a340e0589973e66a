"""Irreducible pieces: formal harmonic sums and their isotropy class sets.

``HarmonicLabel(n, star)`` stands for the (2n+1)-dimensional space of
degree-``n`` harmonics; ``star`` marks the det-twisted O(3) action.  A
``HarmonicSum`` is a formal multiset of labels with multiplicities, closed
under direct sum, tensor product and the symmetric/antisymmetric squares.
"""

from __future__ import annotations

from functools import total_ordering
from typing import Dict, Iterable, Mapping, Tuple

from .groups import (
    ClassSet,
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
    cyclic,
    d_h,
    d_v,
    dihedral,
    z_minus,
)


@total_ordering
class HarmonicLabel:
    """Degree-``n`` harmonic space; ``star`` twists the action by det(g).

    Immutable; equality, hashing and the order compare ``(n, star)``.  A
    slotted class rather than a dataclass, so importing the package does not
    pay for ``dataclasses`` (and ``inspect``); rather than a ``NamedTuple``,
    whose C hashing speeds up the square decomposition enough to raise the
    benchmark's ``peak_rss_mb`` through its latency list (ROADMAP item 1).
    """

    __slots__ = ("n", "star")

    def __init__(self, n: int, star: bool = False):
        if n < 0:
            raise ValueError("harmonic degree must be >= 0")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "star", star)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # Copy and pickle rebuild through __init__, not through __setattr__.
        return (HarmonicLabel, (self.n, self.star))

    def __eq__(self, other):
        if other.__class__ is not HarmonicLabel:
            return NotImplemented
        return self.n == other.n and self.star == other.star

    def __hash__(self):
        return hash((self.n, self.star))

    def __lt__(self, other):
        if other.__class__ is not HarmonicLabel:
            return NotImplemented
        return (self.n, self.star) < (other.n, other.star)

    def __repr__(self) -> str:
        return f"HarmonicLabel(n={self.n!r}, star={self.star!r})"

    @property
    def dim(self) -> int:
        return 2 * self.n + 1

    def minus_one_sign(self) -> int:
        """Sign by which ``-I`` acts: (-1)^n, flipped by the star twist."""
        s = -1 if self.n % 2 else 1
        return -s if self.star else s

    def __str__(self) -> str:
        return f"H{self.n}*" if self.star else f"H{self.n}"


def _fold_key(label: HarmonicLabel) -> tuple:
    # Deterministic ordering: degree descending, plain before starred.
    return (-label.n, label.star)


class HarmonicSum:
    """Formal direct sum of harmonic labels with positive multiplicities."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[HarmonicLabel, int] | Iterable[Tuple[HarmonicLabel, int]] = ()):
        acc: Dict[HarmonicLabel, int] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for label, mult in items:
            if mult < 0:
                raise ValueError("multiplicities must be non-negative")
            if mult:
                acc[label] = acc.get(label, 0) + mult
        self._terms: Tuple[Tuple[HarmonicLabel, int], ...] = tuple(
            sorted(acc.items(), key=lambda t: _fold_key(t[0]))
        )

    @classmethod
    def single(cls, n: int, star: bool = False, mult: int = 1) -> "HarmonicSum":
        return cls([(HarmonicLabel(n, star), mult)])

    @property
    def terms(self) -> Tuple[Tuple[HarmonicLabel, int], ...]:
        return self._terms

    @property
    def dim(self) -> int:
        return sum(m * l.dim for l, m in self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, HarmonicSum) and self._terms == other._terms

    def __hash__(self) -> int:
        return hash(self._terms)

    def __add__(self, other: "HarmonicSum") -> "HarmonicSum":
        return HarmonicSum(self._terms + other._terms)

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for label, mult in self._terms:
            parts.append(str(label) if mult == 1 else f"{mult}*{label}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"HarmonicSum({self})"


def _product_label(k: int, sign: int) -> HarmonicLabel:
    # The component of degree k on which -I acts by `sign`.
    natural = -1 if k % 2 else 1
    return HarmonicLabel(k, star=(natural != sign))


def tensor_product(s1: HarmonicSum, s2: HarmonicSum) -> HarmonicSum:
    """Bilinear product: H^a x H^b = H^|a-b| + ... + H^(a+b)."""
    acc: Dict[HarmonicLabel, int] = {}
    for la, ma in s1.terms:
        for lb, mb in s2.terms:
            sign = la.minus_one_sign() * lb.minus_one_sign()
            for k in range(abs(la.n - lb.n), la.n + lb.n + 1):
                lab = _product_label(k, sign)
                acc[lab] = acc.get(lab, 0) + ma * mb
    return HarmonicSum(acc)


def _square_single(label: HarmonicLabel, symmetric: bool) -> HarmonicSum:
    # S2(H^n) = H^0 + H^2 + ... + H^2n ; L2(H^n) = H^1 + H^3 + ... + H^(2n-1).
    # The squared action has -I sign +1 on every component.
    if symmetric:
        degrees = range(0, 2 * label.n + 1, 2)
    else:
        degrees = range(1, 2 * label.n, 2)
    return HarmonicSum({_product_label(k, 1): 1 for k in degrees})


def _scale(s: HarmonicSum, k: int) -> HarmonicSum:
    return HarmonicSum([(label, k * mult) for label, mult in s.terms])


def _square(s: HarmonicSum, symmetric: bool) -> HarmonicSum:
    # S2(sum m_i V_i) = sum_i [m_i S2(V_i) + C(m_i, 2) V_i x V_i]
    #                   + sum_{i<j} m_i m_j V_i x V_j, and dually for L2.
    # Work is quadratic in the number of distinct labels, not in the total
    # multiplicity.
    out = HarmonicSum()
    for i, (label, mult) in enumerate(s.terms):
        single = HarmonicSum([(label, 1)])
        out = out + _scale(_square_single(label, symmetric), mult)
        out = out + _scale(tensor_product(single, single), mult * (mult - 1) // 2)
        rest = HarmonicSum(s.terms[i + 1:])
        if rest:
            out = out + tensor_product(HarmonicSum([(label, mult)]), rest)
    return out


def sym_square(s: HarmonicSum) -> HarmonicSum:
    """Symmetric square; dimension D(D+1)/2."""
    return _square(s, symmetric=True)


def alt_square(s: HarmonicSum) -> HarmonicSum:
    """Antisymmetric square; dimension D(D-1)/2."""
    return _square(s, symmetric=False)


def isotropy_irrep_so3(n: int) -> ClassSet:
    """Isotropy classes of the degree-``n`` SO(3) irreducible."""
    if n < 0:
        raise ValueError("degree must be >= 0")
    if n == 0:
        return ClassSet([SO3])
    out = [SO3]
    if n >= 3:
        out.append(TRIV)
    zmax = n if n % 2 == 1 else n // 2
    out += [cyclic(k) for k in range(2, zmax + 1)]
    out += [dihedral(k) for k in range(2, n + 1)]
    if n in (3, 6, 7) or n >= 9:
        out.append(TETRA)
    if n not in (1, 2, 3, 5, 7, 11):
        out.append(OCTA)
    if n in (6, 10, 12, 15, 16, 18) or (n >= 20 and n not in (23, 29)):
        out.append(ICO)
    out.append(SO2 if n % 2 == 1 else O2)
    return ClassSet(out)


def isotropy_irrep_o3(label: HarmonicLabel) -> ClassSet:
    """Isotropy classes of an O(3) irreducible on which ``-I`` acts as ``-Id``.

    Valid for (n odd, plain) and (n even, starred) labels.  The full class
    ``O(3)`` (isotropy of the zero vector) is always included.
    """
    n = label.n
    if label.minus_one_sign() != -1:
        raise ValueError(
            f"{label} has -I acting as +Id; route through the SO(3) list and "
            "the type II lift instead"
        )
    if n == 0:
        # One-dimensional det-twisted space: nonzero vectors are fixed
        # exactly by the rotations.
        return ClassSet([SO3, O3_FULL])
    out = [O3_FULL]
    if n >= 3:
        out.append(TRIV)
    out += [cyclic(k) for k in range(2, n // 2 + 1)]
    out += [z_minus(2 * k) for k in range(1, n // 3 + 1)]
    dmax = n if n % 2 == 0 else n // 2
    out += [dihedral(k) for k in range(2, dmax + 1)]
    dvmax = n if n % 2 == 1 else n // 2
    out += [d_v(k) for k in range(2, dvmax + 1)]
    out += [d_h(2 * k) for k in range(2, n + 1) if not (n == 3 and k == 2)]
    if n not in (1, 2, 3, 5, 7, 8, 11):
        out.append(TETRA)
    if n not in (1, 2, 3, 5, 7, 11):
        out.append(OCTA)
    if n not in (1, 2, 4, 5, 8):
        out.append(OCTA_MINUS)
    if n in (6, 10, 12, 15, 16, 18) or (n >= 20 and n not in (23, 29)):
        out.append(ICO)
    out.append(O2 if n % 2 == 0 else O2_MINUS)
    return ClassSet(out)
