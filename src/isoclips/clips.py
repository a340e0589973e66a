"""The clips operation on conjugacy classes of closed O(3) subgroups.

``clips_pair(ctx, a, b)`` returns the exact set of classes of intersections
``A n gBg^-1`` over all ambient ``g``.  A few generic rules (the full group,
the trivial class, restriction to SO(3) and the Lemma 5.1 reduction of a
rotation group against a type III class) come first; every other rule is a
row of ``_CELLS``, one per pair of class kinds, closed-form in the class
parameters by gcd and parity.  Every rule carries a stable ``rule_id`` so a
result can be traced to the rule that produced it.  The partial order on
classes, ``is_leq``, is clips membership, and ``hasse`` reduces it on a set.
``clips_pair_detailed`` caches single pairs; the fold's ``clips_sets`` keeps
its own rows (see there).

Rule ids suffixed ``+oracle`` mark cells where the closed form was adjusted
to match the brute-force matrix oracle (see the verification suite); each
such cell has explicit witness tests.
"""

from __future__ import annotations

import functools
from math import gcd
from typing import Dict, List, NamedTuple, Sequence, Tuple

from .groups import (
    ClassSet,
    Context,
    SubgroupClass,
    SO3,
    TRIV,
    TETRA,
    OCTA,
    ICO,
    SO2,
    O2,
    OCTA_MINUS,
    O2_MINUS,
    UnsupportedClipsError,
    _KINDS,
    characteristic_h,
    characteristic_l,
    check_admissible,
    cyclic,
    d_h,
    d_v,
    dihedral,
    full_class,
    z_minus,
    CYCLIC_K,
    DIHEDRAL_K,
    TETRA_K,
    OCTA_K,
    ICO_K,
    SO2_K,
    O2_K,
    ZMINUS_K,
    DV_K,
    DH_K,
    OCTA_MINUS_K,
    O2_MINUS_K,
)


class ClipsRuleOutcome(NamedTuple):
    """Result of one pairwise clips together with the rule that produced it."""

    result: ClassSet
    rule_id: str


# Every rule outcome, keyed by itself: one stored object per distinct
# ``(result, rule_id)``, which the pair cache and the fold's rows share.
_OUTCOMES: Dict[ClipsRuleOutcome, ClipsRuleOutcome] = {}


def _shared(outcome: ClipsRuleOutcome) -> ClipsRuleOutcome:
    return _OUTCOMES.setdefault(outcome, outcome)


def _outcome(items, rule_id: str) -> ClipsRuleOutcome:
    return _shared(ClipsRuleOutcome(ClassSet(items), rule_id))


def _param(cls: SubgroupClass):
    # Half kinds (Z2n^-, D2n^h) store the even parameter 2n; their cells
    # read n (Z2^-: n = 1).  Parameter-free kinds give None.
    return cls.n // 2 if _KINDS[cls.kind].half else cls.n


# ---------------------------------------------------------------------------
# Cells that branch on parity.  ``n`` is the parameter of the lower-ranked
# operand and ``m`` that of the other, as in the ``_CELLS`` keys.

def _zm_zm(n: int, m: int) -> List[SubgroupClass]:
    d = gcd(n, m)
    if (n // d) % 2 == 1 and (m // d) % 2 == 1:
        return [TRIV, z_minus(2 * d)]
    return [TRIV, cyclic(d)]


def _zm_dh(n: int, m: int) -> List[SubgroupClass]:
    d = gcd(n, m)
    out = [TRIV, cyclic(gcd(n, 2))]
    if n % 2 == 1:
        out.append(z_minus(2))
    if (n // d) % 2 == 1 and (m // d) % 2 == 1:
        out.append(z_minus(2 * d))
    else:
        out.append(cyclic(d))
    return out


def _dv_dh(n: int, m: int) -> List[SubgroupClass]:
    # n: parameter of Dn^v, m: half parameter of the D2m^h operand.
    # A mirror-to-mirror alignment is available for every (n, m), so Z2^-
    # is unconditional (not only for n odd).
    d = gcd(n, m)
    i_nm = 2 if (n % 2 == 0 and m % 2 == 1) else 1
    return [TRIV, z_minus(2), cyclic(gcd(n, 2)), d_v(i_nm), cyclic(d), d_v(d)]


def _dh_dh(n: int, m: int) -> List[SubgroupClass]:
    # Both operands carry proper flips and mirrors for every n, m >= 2, so
    # Z2 and Z2^- are unconditional members.  D2^v needs an odd-side mirror
    # whose normal lies along the other primary axis, hence any parity mix
    # except both even (there only via the d = 2 branch).
    d = gcd(n, m)
    out = [TRIV, cyclic(2), z_minus(2)]
    if n % 2 == 0 and m % 2 == 0:
        out.append(dihedral(2))
    else:
        out.append(d_v(2))
    if d > 1:
        if (n // d) % 2 == 1 and (m // d) % 2 == 1:
            out += [z_minus(2 * d), d_h(2 * d)]
        else:
            out += [cyclic(d), dihedral(d), d_v(d)]
    return out


def _zm_om(n: int, m: None) -> List[SubgroupClass]:
    d3 = gcd(n, 3)
    if n % 2 == 1:
        return [TRIV, z_minus(2), cyclic(d3)]
    if n % 4 == 2:
        return [TRIV, z_minus(4), cyclic(d3)]
    return [TRIV, cyclic(2), cyclic(d3)]


def _dh_om(n: int, m: None) -> List[SubgroupClass]:
    # n: half parameter of the D2n^h operand.  Flip-to-flip and mirror-to-
    # mirror alignments give Z2 and Z2^- for every n; a proper D2 subgroup
    # of D2n^h needs n even.
    d3 = gcd(n, 3)
    out = [TRIV, cyclic(2), z_minus(2), cyclic(d3), d_v(d3)]
    if n % 2 == 1:
        out += [d_v(2)]
    elif n % 4 == 2:
        out += [z_minus(4), d_h(4)]
    else:
        out += [dihedral(2), d_v(2)]
    return out


# ---------------------------------------------------------------------------
# The rule table: the kinds of the two operands, in rank order, to
# ``(rule_id, cell)``; ``cell(n, m)`` lists the classes from the operands'
# parameters (the half parameter for Z2n^- and D2n^h, None for
# parameter-free kinds).  A class listed twice, or ``1`` standing in for an
# absent one, collapses in the ``ClassSet``.

_CELLS = {
    # Rotation groups (Table 1).
    (CYCLIC_K, CYCLIC_K): ("Table1:Zn-Zm", lambda n, m: [TRIV, cyclic(gcd(n, m))]),
    # gcd(n, 2) of the cyclic parameter: Z2 arises on a secondary axis.
    (CYCLIC_K, DIHEDRAL_K): ("Table1:Dn-Zm", lambda n, m: [
        TRIV, cyclic(gcd(n, 2)), cyclic(gcd(n, m))]),
    (DIHEDRAL_K, DIHEDRAL_K): ("Table1:Dn-Dm", lambda n, m: [
        TRIV, cyclic(2), dihedral(gcd(n, m, 2)), cyclic(gcd(n, m)), dihedral(gcd(n, m))]),
    (CYCLIC_K, TETRA_K): ("Table1:T-Zn", lambda n, m: [
        TRIV, cyclic(gcd(n, 2)), cyclic(gcd(n, 3))]),
    (DIHEDRAL_K, TETRA_K): ("Table1:T-Dn", lambda n, m: [
        TRIV, cyclic(2), cyclic(gcd(n, 3)), dihedral(gcd(n, 2))]),
    # T has a unique D2 subgroup whose normalizer is O, and T is normal in
    # O, so an intersection of two T copies containing a D2 is all of T: no
    # bare D2 arises.
    (TETRA_K, TETRA_K): ("Table1:T-T+oracle", lambda n, m: [
        TRIV, cyclic(2), cyclic(3), TETRA]),
    (CYCLIC_K, OCTA_K): ("Table1:O-Zn", lambda n, m: [
        TRIV, cyclic(gcd(n, 2)), cyclic(gcd(n, 3)), cyclic(gcd(n, 4))]),
    (DIHEDRAL_K, OCTA_K): ("Table1:O-Dn", lambda n, m: [
        TRIV, cyclic(2), cyclic(gcd(n, 3)), cyclic(gcd(n, 4)),
        dihedral(gcd(n, 2)), dihedral(gcd(n, 3)), dihedral(gcd(n, 4))]),
    (TETRA_K, OCTA_K): ("Table1:O-T", lambda n, m: [
        TRIV, cyclic(2), dihedral(2), cyclic(3), TETRA]),
    (OCTA_K, OCTA_K): ("Table1:O-O", lambda n, m: [
        TRIV, cyclic(2), dihedral(2), cyclic(3), dihedral(3), cyclic(4), dihedral(4), OCTA]),
    (CYCLIC_K, ICO_K): ("Table1:I-Zn", lambda n, m: [
        TRIV, cyclic(gcd(n, 2)), cyclic(gcd(n, 3)), cyclic(gcd(n, 5))]),
    (DIHEDRAL_K, ICO_K): ("Table1:I-Dn", lambda n, m: [
        TRIV, cyclic(2), cyclic(gcd(n, 3)), cyclic(gcd(n, 5)),
        dihedral(gcd(n, 2)), dihedral(gcd(n, 3)), dihedral(gcd(n, 5))]),
    (TETRA_K, ICO_K): ("Table1:I-T", lambda n, m: [TRIV, cyclic(2), cyclic(3), TETRA]),
    # D2 arises from an edge-type D2 of the cube (one 4-fold face axis, two
    # edge axes) aligned to a D2 of the icosahedron; only the face-type D2
    # forces T.
    (OCTA_K, ICO_K): ("Table1:I-O+oracle", lambda n, m: [
        TRIV, cyclic(2), dihedral(2), cyclic(3), dihedral(3), TETRA]),
    # Conjugating by an element of N(T) \ I shares exactly the tetrahedral
    # subgroup of two icosahedral copies.
    (ICO_K, ICO_K): ("Table1:I-I+oracle", lambda n, m: [
        TRIV, cyclic(2), cyclic(3), dihedral(3), cyclic(5), dihedral(5), TETRA, ICO]),
    (CYCLIC_K, SO2_K): ("Table1:SO2-Zn", lambda n, m: [TRIV, cyclic(n)]),
    (DIHEDRAL_K, SO2_K): ("Table1:SO2-Dn", lambda n, m: [TRIV, cyclic(2), cyclic(n)]),
    (TETRA_K, SO2_K): ("Table1:SO2-T", lambda n, m: [TRIV, cyclic(2), cyclic(3)]),
    (OCTA_K, SO2_K): ("Table1:SO2-O", lambda n, m: [TRIV, cyclic(2), cyclic(3), cyclic(4)]),
    (ICO_K, SO2_K): ("Table1:SO2-I", lambda n, m: [TRIV, cyclic(2), cyclic(3), cyclic(5)]),
    (SO2_K, SO2_K): ("Table1:SO2-SO2", lambda n, m: [TRIV, SO2]),
    (CYCLIC_K, O2_K): ("Table1:O2-Zn", lambda n, m: [TRIV, cyclic(gcd(n, 2)), cyclic(n)]),
    # A D2 subgroup needs a flip about the O(2) axis, hence n even; it
    # cannot embed in Dn for n odd (order 4 does not divide 2n).
    (DIHEDRAL_K, O2_K): ("Table1:O2-Dn+oracle", lambda n, m: [
        TRIV, cyclic(2), dihedral(gcd(n, 2)), dihedral(n)]),
    (TETRA_K, O2_K): ("Table1:O2-T", lambda n, m: [TRIV, cyclic(2), dihedral(2), cyclic(3)]),
    (OCTA_K, O2_K): ("Table1:O2-O", lambda n, m: [
        TRIV, cyclic(2), dihedral(2), dihedral(3), dihedral(4)]),
    (ICO_K, O2_K): ("Table1:O2-I", lambda n, m: [
        TRIV, cyclic(2), dihedral(2), dihedral(3), dihedral(5)]),
    (SO2_K, O2_K): ("Table1:O2-SO2", lambda n, m: [TRIV, cyclic(2), SO2]),
    # Two O(2) copies always share the flip about the common perpendicular.
    (O2_K, O2_K): ("Table1:O2-O2", lambda n, m: [cyclic(2), dihedral(2), O2]),
    # Type III against type III (Appendix B).
    (ZMINUS_K, ZMINUS_K): ("CorollaryB.2", _zm_zm),
    (ZMINUS_K, DV_K): ("LemmaB.3", lambda n, m: [
        TRIV, cyclic(gcd(n, m)), z_minus(2) if n % 2 else TRIV]),
    (DV_K, DV_K): ("Table2:Dv-Dv", lambda n, m: [
        TRIV, z_minus(2), d_v(gcd(n, m)), cyclic(gcd(n, m))]),
    (ZMINUS_K, DH_K): ("LemmaB.4", _zm_dh),
    (DV_K, DH_K): ("LemmaB.6+oracle", _dv_dh),
    (DH_K, DH_K): ("LemmaB.8+oracle", _dh_dh),
    (ZMINUS_K, OCTA_MINUS_K): ("CorollaryB.10", _zm_om),
    (DV_K, OCTA_MINUS_K): ("CorollaryB.11", lambda n, m: [
        TRIV, z_minus(2), cyclic(gcd(n, 3)), d_v(gcd(n, 3)), cyclic(gcd(n, 2)), d_v(gcd(n, 2))]),
    (DH_K, OCTA_MINUS_K): ("CorollaryB.12+oracle", _dh_om),
    # Identity conjugation keeps the whole group; a 60-degree twist about a
    # 3-fold axis leaves exactly the D3^v substructure invariant.
    (OCTA_MINUS_K, OCTA_MINUS_K): ("CorollaryB.13+oracle", lambda n, m: [
        TRIV, z_minus(2), z_minus(4), cyclic(3), d_v(3), OCTA_MINUS]),
    (ZMINUS_K, O2_MINUS_K): ("LemmaB.14:Z2m-", lambda n, m: [
        TRIV, cyclic(n), z_minus(2) if n % 2 else TRIV]),
    (DV_K, O2_MINUS_K): ("LemmaB.14:Dv", lambda n, m: [TRIV, z_minus(2), d_v(n)]),
    (DH_K, O2_MINUS_K): ("LemmaB.14:D2mh", lambda n, m: [
        TRIV, cyclic(gcd(n, 2)), z_minus(2), d_v(3 - gcd(n, 2)), d_v(n)]),
    (OCTA_MINUS_K, O2_MINUS_K): ("LemmaB.14:O-", lambda n, m: [
        TRIV, z_minus(2), d_v(3), d_v(2)]),
    # Two O(2)^- copies always share the mirror through both axes.
    (O2_MINUS_K, O2_MINUS_K): ("LemmaB.14:O2-", lambda n, m: [z_minus(2), O2_MINUS]),
}


def _rule(ctx: Context, a: SubgroupClass, b: SubgroupClass) -> ClipsRuleOutcome:
    """The outcome of the rule for one pair, uncached; equal outcomes are
    one shared object."""
    check_admissible(ctx, a, b)
    full = full_class(ctx)
    if a == full:
        return _outcome([b], "FullGroup")
    if b == full:
        return _outcome([a], "FullGroup")
    if a.is_type_ii or b.is_type_ii:
        raise UnsupportedClipsError(
            "unsupported: no clips rules are available for type II classes"
        )
    if a == TRIV or b == TRIV:
        return _outcome([TRIV], "Trivial")
    if a == SO3 or b == SO3:
        # Only reachable in the O(3) context: restriction to the rotation part.
        other = b if a == SO3 else a
        if other == SO3:
            return _outcome([SO3], "Table3:L")
        target = other if other.is_type_i else characteristic_l(other)
        return _outcome([target], "Table3:L")
    a, b = sorted((a, b), key=SubgroupClass.sort_key)
    if a.is_type_i and b.is_type_iii:  # reduce to the rotation part of b
        inner = _rule(Context.SO3, a, characteristic_l(b))
        return _shared(ClipsRuleOutcome(inner.result, f"Lemma5.1:{_KINDS[b.kind].l51}"))
    rule_id, cell = _CELLS[a.kind, b.kind]
    return _outcome(cell(_param(a), _param(b)), rule_id)


@functools.lru_cache(maxsize=None)
def clips_pair_detailed(ctx: Context, a: SubgroupClass,
                        b: SubgroupClass) -> ClipsRuleOutcome:
    """Pairwise clips with the id of the rule that was applied."""
    return _rule(ctx, a, b)


def clips_pair(ctx: Context, a: SubgroupClass, b: SubgroupClass) -> ClassSet:
    """The clips ``[a] o [b]``: classes of ``A n gBg^-1`` over all ``g``."""
    return clips_pair_detailed(ctx, a, b).result


# The fold's cache: one row per ``(ctx, a)``, mapping ``b`` to the class
# tuple of the shared outcome of ``_rule(ctx, a, b)``.
_ROWS: Dict[Tuple[Context, SubgroupClass],
            Dict[SubgroupClass, Tuple[SubgroupClass, ...]]] = {}


def clips_sets(ctx: Context, f1: ClassSet, f2: ClassSet) -> ClassSet:
    """Union of pairwise clips of two class families.

    The fold calls this once per step over every pair of its two families,
    so it keeps its own two-level cache: one dict per ``(ctx, a)`` row,
    mapping ``b`` to the stored class tuple (``_classes``) of the pair's
    result.  A warm pair costs one ``row.get(b)`` and one ``list.extend``,
    and no Python-level dunder or property runs per pair.  Timed on CPython
    3.11: ``set.update``, which hashes every tuple-backed class, is 5.6x
    slower than ``list.extend`` with one ``ClassSet`` at the end.

    A miss is filled from the uncached ``_rule``, not through
    ``clips_pair_detailed``, so the fold stores each pair once.  An lru
    entry adds a three-item key tuple per pair, and storing both shows in
    the benchmark's ``peak_rss_mb`` through the harness's growing latency
    list.  Outcomes are interned, one per distinct ``(result, rule_id)``,
    so the rows and the lru cache share a few hundred results instead of
    holding one per pair.  Classes are interned too (see ``groups``), so
    the row lookups and the final ``ClassSet`` dedupe stop at the identity
    check.
    """
    out: List[SubgroupClass] = []
    for a in f1._classes:
        row = _ROWS.get((ctx, a))
        if row is None:
            row = _ROWS[ctx, a] = {}
        for b in f2._classes:
            classes = row.get(b)
            if classes is None:
                classes = row[b] = _rule(ctx, a, b).result._classes
            out.extend(classes)
    return ClassSet(out)


@functools.lru_cache(maxsize=None)
def is_leq(a: SubgroupClass, b: SubgroupClass, ctx: Context) -> bool:
    """Partial order: is ``a`` conjugate to a subgroup of ``b``?

    For non type II operands this is the clips membership test
    ``a in clips_pair(ctx, a, b)``; type II operands reduce on the
    characteristic data (only classes containing ``-I`` can contain a
    type II subgroup).
    """
    check_admissible(ctx, a, b)
    if a == b:
        return True
    if b == full_class(ctx):
        return True
    if a == full_class(ctx):
        return False
    if a.is_type_ii and b.is_type_ii:
        return is_leq(a.inner, b.inner, Context.SO3)
    if a.is_type_ii:
        return False
    if b.is_type_ii:
        if a.is_type_iii:
            return is_leq(characteristic_h(a), b.inner, Context.SO3)
        return is_leq(a, b.inner, Context.SO3)
    return a in clips_pair(ctx, a, b)


HasseEdges = Sequence[Tuple[SubgroupClass, SubgroupClass]]


def hasse(classes: ClassSet, ctx: Context) -> HasseEdges:
    """Transitive reduction of the partial order restricted to ``classes``."""
    members = list(classes)
    check_admissible(ctx, *members)
    below = {
        (a, b): is_leq(a, b, ctx) and a != b for a in members for b in members
    }
    edges = []
    for a in members:
        for b in members:
            if not below[(a, b)]:
                continue
            if any(below[(a, c)] and below[(c, b)] for c in members):
                continue
            edges.append((a, b))
    edges.sort(key=lambda e: (e[0].sort_key(), e[1].sort_key()))
    return edges
