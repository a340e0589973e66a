"""The clips operation on conjugacy classes of closed O(3) subgroups.

``clips_pair(ctx, a, b)`` returns the exact set of classes of intersections
``A n gBg^-1`` over all ambient ``g``.  Rules are closed-form in the class
parameters, keyed by gcd and parity conditions; every rule carries a stable
``rule_id`` so a result can be traced to the rule that produced it.

Rule ids suffixed ``+oracle`` mark cells where the closed form was adjusted
to match the brute-force matrix oracle (see the verification suite); each
such cell has explicit witness tests.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from math import gcd
from typing import List

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
    ZMINUS_K,
    DV_K,
    DH_K,
)


@dataclass(frozen=True)
class ClipsParameters:
    """Arithmetic invariants of a parameter pair (n, m).

    ``d``, ``dz`` are symmetric in the arguments; the remaining fields are
    functions of ``n`` alone except ``i_mn`` which mixes both parities.
    """

    d: int     # gcd(n, m)
    d2: int    # gcd(n, 2)
    d3: int    # gcd(n, 3)
    d5: int    # gcd(n, 5)
    k2: int    # 3 - d2
    dz: int    # 2 if n and m both even else 1
    d4: int    # 4 if 4 | n else 1
    i_n: int   # 3 - gcd(2, n): 1 for n even, 2 for n odd
    i_mn: int  # 2 if m even and n odd else 1


def clips_params(n: int, m: int) -> ClipsParameters:
    """Compute the gcd/parity invariants used by the clips rules."""
    if n < 1 or m < 1:
        raise ValueError("parameters must be positive")
    d2 = gcd(n, 2)
    return ClipsParameters(
        d=gcd(n, m),
        d2=d2,
        d3=gcd(n, 3),
        d5=gcd(n, 5),
        k2=3 - d2,
        dz=2 if (n % 2 == 0 and m % 2 == 0) else 1,
        d4=4 if n % 4 == 0 else 1,
        i_n=3 - gcd(2, n),
        i_mn=2 if (m % 2 == 0 and n % 2 == 1) else 1,
    )


@dataclass(frozen=True, slots=True)
class ClipsRuleOutcome:
    """Result of one pairwise clips together with the rule that produced it."""

    result: ClassSet
    rule_id: str


def _half(cls: SubgroupClass) -> int:
    # Zp^- and Dp^h store the even parameter p = 2n; this is n (Z2^-: n = 1).
    return cls.n // 2


def _outcome(items, rule_id: str) -> ClipsRuleOutcome:
    return ClipsRuleOutcome(ClassSet(items), rule_id)


# ---------------------------------------------------------------------------
# Rotation-group cells.

def _rot_pair(a: SubgroupClass, b: SubgroupClass) -> ClipsRuleOutcome:
    """Clips of two rotation-group classes; ``a.rank <= b.rank``."""
    ka, kb = a.kind, b.kind
    if kb == CYCLIC_K:  # a cyclic too
        d = gcd(a.n, b.n)
        return _outcome([TRIV, cyclic(d)], "Table1:Zn-Zm")
    if kb == DIHEDRAL_K:
        if ka == CYCLIC_K:
            # d2 of the cyclic parameter: Z2 arises on a secondary axis.
            p = clips_params(a.n, b.n)
            return _outcome(
                [TRIV, cyclic(p.d2), cyclic(p.d)], "Table1:Dn-Zm"
            )
        p = clips_params(a.n, b.n)
        return _outcome(
            [TRIV, cyclic(2), dihedral(p.dz), cyclic(p.d), dihedral(p.d)],
            "Table1:Dn-Dm",
        )
    if kb == "tetra":
        if ka == CYCLIC_K:
            p = clips_params(a.n, 1)
            return _outcome([TRIV, cyclic(p.d2), cyclic(p.d3)], "Table1:T-Zn")
        if ka == DIHEDRAL_K:
            p = clips_params(a.n, 1)
            return _outcome(
                [TRIV, cyclic(2), cyclic(p.d3), dihedral(p.d2)], "Table1:T-Dn"
            )
        # T has a unique D2 subgroup whose normalizer is O, and T is normal
        # in O, so an intersection of two T copies containing a D2 is all
        # of T: no bare D2 arises.
        return _outcome(
            [TRIV, cyclic(2), cyclic(3), TETRA], "Table1:T-T+oracle"
        )
    if kb == "octa":
        if ka == CYCLIC_K:
            p = clips_params(a.n, 1)
            return _outcome(
                [TRIV, cyclic(p.d2), cyclic(p.d3), cyclic(p.d4)], "Table1:O-Zn"
            )
        if ka == DIHEDRAL_K:
            p = clips_params(a.n, 1)
            return _outcome(
                [TRIV, cyclic(2), cyclic(p.d3), cyclic(p.d4),
                 dihedral(p.d2), dihedral(p.d3), dihedral(p.d4)],
                "Table1:O-Dn",
            )
        if ka == "tetra":
            return _outcome(
                [TRIV, cyclic(2), dihedral(2), cyclic(3), TETRA], "Table1:O-T"
            )
        return _outcome(
            [TRIV, cyclic(2), dihedral(2), cyclic(3), dihedral(3),
             cyclic(4), dihedral(4), OCTA],
            "Table1:O-O",
        )
    if kb == "ico":
        if ka == CYCLIC_K:
            p = clips_params(a.n, 1)
            return _outcome(
                [TRIV, cyclic(p.d2), cyclic(p.d3), cyclic(p.d5)], "Table1:I-Zn"
            )
        if ka == DIHEDRAL_K:
            p = clips_params(a.n, 1)
            return _outcome(
                [TRIV, cyclic(2), cyclic(p.d3), cyclic(p.d5),
                 dihedral(p.d2), dihedral(p.d3), dihedral(p.d5)],
                "Table1:I-Dn",
            )
        if ka == "tetra":
            return _outcome([TRIV, cyclic(2), cyclic(3), TETRA], "Table1:I-T")
        if ka == "octa":
            # D2 arises from an edge-type D2 of the cube (one 4-fold face
            # axis, two edge axes) aligned to a D2 of the icosahedron; only
            # the face-type D2 forces T.
            return _outcome(
                [TRIV, cyclic(2), dihedral(2), cyclic(3), dihedral(3), TETRA],
                "Table1:I-O+oracle",
            )
        # Conjugating by an element of N(T) \ I shares exactly the
        # tetrahedral subgroup of two icosahedral copies.
        return _outcome(
            [TRIV, cyclic(2), cyclic(3), dihedral(3), cyclic(5), dihedral(5),
             TETRA, ICO],
            "Table1:I-I+oracle",
        )
    if kb == "so2":
        if ka == CYCLIC_K:
            return _outcome([TRIV, cyclic(a.n)], "Table1:SO2-Zn")
        if ka == DIHEDRAL_K:
            return _outcome([TRIV, cyclic(2), cyclic(a.n)], "Table1:SO2-Dn")
        if ka == "tetra":
            return _outcome([TRIV, cyclic(2), cyclic(3)], "Table1:SO2-T")
        if ka == "octa":
            return _outcome([TRIV, cyclic(2), cyclic(3), cyclic(4)], "Table1:SO2-O")
        if ka == "ico":
            return _outcome([TRIV, cyclic(2), cyclic(3), cyclic(5)], "Table1:SO2-I")
        return _outcome([TRIV, SO2], "Table1:SO2-SO2")
    if kb == "o2":
        if ka == CYCLIC_K:
            p = clips_params(a.n, 1)
            return _outcome([TRIV, cyclic(p.d2), cyclic(a.n)], "Table1:O2-Zn")
        if ka == DIHEDRAL_K:
            # A D2 subgroup needs a flip about the O(2) axis, hence n even;
            # it cannot embed in Dn for n odd (order 4 does not divide 2n).
            p = clips_params(a.n, 1)
            return _outcome(
                [TRIV, cyclic(2), dihedral(p.d2), dihedral(a.n)],
                "Table1:O2-Dn+oracle",
            )
        if ka == "tetra":
            return _outcome([TRIV, cyclic(2), dihedral(2), cyclic(3)], "Table1:O2-T")
        if ka == "octa":
            return _outcome(
                [TRIV, cyclic(2), dihedral(2), dihedral(3), dihedral(4)],
                "Table1:O2-O",
            )
        if ka == "ico":
            return _outcome(
                [TRIV, cyclic(2), dihedral(2), dihedral(3), dihedral(5)],
                "Table1:O2-I",
            )
        if ka == "so2":
            return _outcome([TRIV, cyclic(2), SO2], "Table1:O2-SO2")
        # Two O(2) copies always share the flip about the common perpendicular.
        return _outcome([cyclic(2), dihedral(2), O2], "Table1:O2-O2")
    raise AssertionError(f"unhandled rotation pair {a}, {b}")


# ---------------------------------------------------------------------------
# Type III x type III cells.  Parameters n, m are the half parameters for
# Z2n^- / D2n^h and the plain parameter for Dn^v; Z2^- enters the generic
# formulas as half parameter 1.

def _zm_zm(n: int, m: int) -> ClipsRuleOutcome:
    d = gcd(n, m)
    if (n // d) % 2 == 1 and (m // d) % 2 == 1:
        return _outcome([TRIV, z_minus(2 * d)], "CorollaryB.2")
    return _outcome([TRIV, cyclic(d)], "CorollaryB.2")


def _dv_zm(n: int, m: int) -> ClipsRuleOutcome:
    d = gcd(n, m)
    out = [TRIV, cyclic(d)]
    if m % 2 == 1:
        out.append(z_minus(2))
    return _outcome(out, "LemmaB.3")


def _dh_zm(n: int, m: int) -> ClipsRuleOutcome:
    d = gcd(n, m)
    out = [TRIV, cyclic(gcd(m, 2))]
    if m % 2 == 1:
        out.append(z_minus(2))
    if (n // d) % 2 == 1 and (m // d) % 2 == 1:
        out.append(z_minus(2 * d))
    else:
        out.append(cyclic(d))
    return _outcome(out, "LemmaB.4")


def _dv_dv(n: int, m: int) -> ClipsRuleOutcome:
    d = gcd(n, m)
    return _outcome(
        [TRIV, z_minus(2), d_v(d), cyclic(d)], "Table2:Dv-Dv"
    )


def _dh_dv(n: int, m: int) -> ClipsRuleOutcome:
    # n: half parameter of the D2n^h operand, m: parameter of Dm^v.
    # A mirror-to-mirror alignment is available for every (n, m), so Z2^-
    # is unconditional (not only for m odd).
    d = gcd(n, m)
    i_mn = 2 if (m % 2 == 0 and n % 2 == 1) else 1
    return _outcome(
        [TRIV, z_minus(2), cyclic(gcd(m, 2)), d_v(i_mn), cyclic(d), d_v(d)],
        "LemmaB.6+oracle",
    )


def _dh_dh(n: int, m: int) -> ClipsRuleOutcome:
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
    return _outcome(out, "LemmaB.8+oracle")


def _om_zm(m: int) -> ClipsRuleOutcome:
    d3 = gcd(m, 3)
    if m % 2 == 1:
        out = [TRIV, z_minus(2), cyclic(d3)]
    elif m % 4 == 2:
        out = [TRIV, z_minus(4), cyclic(d3)]
    else:
        out = [TRIV, cyclic(2), cyclic(d3)]
    return _outcome(out, "CorollaryB.10")


def _om_dv(m: int) -> ClipsRuleOutcome:
    d2, d3 = gcd(m, 2), gcd(m, 3)
    return _outcome(
        [TRIV, z_minus(2), cyclic(d3), d_v(d3), cyclic(d2), d_v(d2)],
        "CorollaryB.11",
    )


def _om_dh(m: int) -> ClipsRuleOutcome:
    # m: half parameter of the D2m^h operand.  Flip-to-flip and mirror-to-
    # mirror alignments give Z2 and Z2^- for every m; a proper D2 subgroup
    # of D2m^h needs m even.
    d3 = gcd(m, 3)
    out = [TRIV, cyclic(2), z_minus(2), cyclic(d3), d_v(d3)]
    if m % 2 == 1:
        out += [d_v(2)]
    elif m % 4 == 2:
        out += [z_minus(4), d_h(4)]
    else:
        out += [dihedral(2), d_v(2)]
    return _outcome(out, "CorollaryB.12+oracle")


def _om_om() -> ClipsRuleOutcome:
    # Identity conjugation keeps the whole group; a 60-degree twist about a
    # 3-fold axis leaves exactly the D3^v substructure invariant.
    return _outcome(
        [TRIV, z_minus(2), z_minus(4), cyclic(3), d_v(3), OCTA_MINUS],
        "CorollaryB.13+oracle",
    )


def _o2m_zm(m: int) -> ClipsRuleOutcome:
    out = [TRIV, cyclic(m)]
    if m % 2 == 1:
        out.append(z_minus(2))
    return _outcome(out, "LemmaB.14:Z2m-")


def _o2m_dv(m: int) -> ClipsRuleOutcome:
    return _outcome([TRIV, z_minus(2), d_v(m)], "LemmaB.14:Dv")


def _o2m_dh(m: int) -> ClipsRuleOutcome:
    i_m = 1 if m % 2 == 0 else 2
    return _outcome(
        [TRIV, cyclic(gcd(m, 2)), z_minus(2), d_v(i_m), d_v(m)],
        "LemmaB.14:D2mh",
    )


def _o2m_om() -> ClipsRuleOutcome:
    return _outcome([TRIV, z_minus(2), d_v(3), d_v(2)], "LemmaB.14:O-")


def _o2m_o2m() -> ClipsRuleOutcome:
    # Two O(2)^- copies always share the mirror through both axes.
    return _outcome([z_minus(2), O2_MINUS], "LemmaB.14:O2-")


def _iii_pair(a: SubgroupClass, b: SubgroupClass) -> ClipsRuleOutcome:
    """Clips of two type III classes; ``a.rank <= b.rank``."""
    ka, kb = a.kind, b.kind
    if kb == ZMINUS_K:  # a is zminus too
        return _zm_zm(_half(a), _half(b))
    if kb == DV_K:
        if ka == ZMINUS_K:
            return _dv_zm(b.n, _half(a))
        return _dv_dv(a.n, b.n)
    if kb == DH_K:
        if ka == ZMINUS_K:
            return _dh_zm(_half(b), _half(a))
        if ka == DV_K:
            return _dh_dv(_half(b), a.n)
        return _dh_dh(_half(a), _half(b))
    if kb == "octa_minus":
        if ka == ZMINUS_K:
            return _om_zm(_half(a))
        if ka == DV_K:
            return _om_dv(a.n)
        if ka == DH_K:
            return _om_dh(_half(a))
        return _om_om()
    if kb == "o2_minus":
        if ka == ZMINUS_K:
            return _o2m_zm(_half(a))
        if ka == DV_K:
            return _o2m_dv(a.n)
        if ka == DH_K:
            return _o2m_dh(_half(a))
        if ka == "octa_minus":
            return _o2m_om()
        return _o2m_o2m()
    raise AssertionError(f"unhandled type III pair {a}, {b}")


# ---------------------------------------------------------------------------
# Dispatch.

@functools.lru_cache(maxsize=None)
def clips_pair_detailed(ctx: Context, a: SubgroupClass,
                        b: SubgroupClass) -> ClipsRuleOutcome:
    """Pairwise clips with the id of the rule that was applied."""
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
    if a.is_type_i and b.is_type_i:
        return _rot_pair(a, b)
    if a.is_type_i:  # b type III: reduce to the rotation part of b
        inner = clips_pair_detailed(Context.SO3, a, characteristic_l(b))
        return ClipsRuleOutcome(inner.result, f"Lemma5.1:{_L51_TAG[b.kind]}")
    return _iii_pair(a, b)


_L51_TAG = {
    ZMINUS_K: "Z2n-",
    DV_K: "Dv",
    DH_K: "D2nh",
    "octa_minus": "O-",
    "o2_minus": "O2-",
}


def clips_pair(ctx: Context, a: SubgroupClass, b: SubgroupClass) -> ClassSet:
    """The clips ``[a] o [b]``: classes of ``A n gBg^-1`` over all ``g``."""
    return clips_pair_detailed(ctx, a, b).result


def clips_sets(ctx: Context, f1: ClassSet, f2: ClassSet) -> ClassSet:
    """Union of pairwise clips of two class families.

    One cached ``clips_pair_detailed`` lookup per class pair.  The loop reads
    the stored class tuples (``_classes``) of both families and of each
    outcome's result, and the key's ``Context`` hashes in C, so no
    Python-level dunder or property is called per pair.  Timed on CPython
    3.11: ``set.update``, which hashes every tuple-backed class, is 5.6x
    slower than ``list.extend`` with one ``ClassSet`` at the end, and a
    ``NamedTuple`` field read is 2.45x slower than the dataclass field read
    of ``ClipsRuleOutcome.result``.  Classes are interned (see ``groups``),
    so the cache's key match and the final ``ClassSet`` dedupe stop at the
    identity check.  A memo of whole rows per ``(ctx, a, f2)`` would skip
    the inner loop, but its memory shows in the benchmark's ``peak_rss_mb``
    through the harness's growing latency list, so it waits for ROADMAP
    item 1.
    """
    out: List[SubgroupClass] = []
    for a in f1._classes:
        for b in f2._classes:
            out.extend(clips_pair_detailed(ctx, a, b).result._classes)
    return ClassSet(out)
