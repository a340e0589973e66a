"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 9c is asserted exactly as stated and is expected to fail: the
brute-force oracle refutes the membership it asks for (see the README
section "Corrected table cells" and TestCorrectedCells in test_oracle.py).
Every other criterion must pass.
"""

import itertools
import random
import time

from isoclips import (
    ClassSet,
    Context,
    HarmonicLabel,
    HarmonicSum,
    ICO,
    O2,
    O2_MINUS,
    O3_FULL,
    OCTA,
    OCTA_MINUS,
    RepSpec,
    SO2,
    SO3,
    TETRA,
    TRIV,
    alt_square,
    clips_pair,
    clips_sets,
    cyclic,
    d_h,
    d_v,
    dihedral,
    is_leq,
    isotropy_classes,
    isotropy_irrep_o3,
    isotropy_irrep_so3,
    parse_class,
    parse_rep,
    sym_square,
    tensor_product,
    z_minus,
)

SWEEP_SEED = 0
SWEEP_SAMPLES = 200


def _report(num, name, ok, detail=""):
    print(f"criterion {num} [{name}]: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"criterion {num} [{name}] failed {detail}"


def _classes(text, ctx):
    return isotropy_classes(RepSpec(ctx, parse_rep(text)))


def _set(names):
    return ClassSet(parse_class(n) for n in names.split(","))


def test_criterion_1_elasticity():
    got = _classes("H4 + 2*H2 + 2*H0", Context.SO3)
    want = _set("1,Z2,D2,D3,D4,O,O(2),SO(3)")
    _report(1, "elasticity", got == want, f"got {got.render()}")


def test_criterion_2_photoelasticity():
    got = _classes("H4 + H3 + 3*H2 + H1 + 2*H0", Context.SO3)
    want = _set("1,Z2,D2,Z3,D3,Z4,D4,T,O,SO(2),O(2),SO(3)")
    ok = got == want and len(got) == 12
    _report(2, "photoelasticity", ok, f"got {len(got)} classes")


def test_criterion_3_piezoelectricity():
    got = _classes("H3 + H2* + 2*H1", Context.O3)
    want = _set(
        "1,Z2,Z3,D2^v,D3^v,Z2^-,Z4^-,D2,D3,D4^h,D6^h,SO(2),O(2),O(2)^-,O^-,O(3)"
    )
    ok = got == want and len(got) == 16 and O3_FULL in got
    _report(3, "piezoelectricity", ok, f"got {len(got)} classes")


def test_criterion_4_cosserat_chi_sge_agy():
    cases = [
        ("Cos", "H4 + H3 + 4*H2 + 2*H1 + 3*H0", Context.SO3, 12,
         "1,Z2,Z3,Z4,D2,D3,D4,T,O,SO(2),O(2),SO(3)"),
        ("Chi", "H4* + 3*H3 + 6*H2* + 6*H1 + 3*H0*", Context.O3, 24,
         "1,Z2,Z3,Z4,Z2^-,Z4^-,Z6^-,D2,D3,D4,D2^v,D3^v,D4^v,D4^h,D6^h,D8^h,"
         "T,O,O^-,SO(2),O(2),O(2)^-,SO(3),O(3)"),
        ("Sge", "H5 + 2*H4* + 5*H3 + 5*H2* + 6*H1 + H0*", Context.O3, 29,
         "1,Z2,Z3,Z4,Z5,Z2^-,Z4^-,Z6^-,Z8^-,D2,D3,D4,D5,D2^v,D3^v,D4^v,D5^v,"
         "D4^h,D6^h,D8^h,D10^h,T,O,O^-,SO(2),O(2),O(2)^-,SO(3),O(3)"),
        ("Agy", "H4* + 2*H3 + 3*H2* + 2*H1 + H0*", Context.O3, 24,
         "1,Z2,Z3,Z4,Z2^-,Z4^-,Z6^-,D2,D3,D4,D2^v,D3^v,D4^v,D4^h,D6^h,D8^h,"
         "T,O,O^-,SO(2),O(2),O(2)^-,SO(3),O(3)"),
    ]
    details = []
    ok = True
    for name, text, ctx, count, want in cases:
        got = _classes(text, ctx)
        good = got == _set(want) and len(got) == count
        ok = ok and good
        details.append(f"{name}={len(got)}{'' if good else '!'}")
    _report(4, "Cos/Chi/Sge/Agy", ok, " ".join(details))


def test_criterion_5_family_examples():
    vectors = _set("1,SO(2),SO(3)")
    quads = _set("1,Z2,D2,O(2),SO(3)")
    ok = True
    for n in range(2, 7):
        ok = ok and _classes(" + ".join(["H1"] * n), Context.SO3) == vectors
        ok = ok and _classes(" + ".join(["S2(H1)"] * n), Context.SO3) == quads
    _report(5, "vector/quadratic families", ok)


def _finite_classes(pmax):
    out = [TRIV, TETRA, OCTA, ICO, OCTA_MINUS]
    out += [cyclic(n) for n in range(2, pmax + 1)]
    out += [dihedral(n) for n in range(2, pmax + 1)]
    out += [z_minus(p) for p in range(2, pmax + 1, 2)]
    out += [d_v(n) for n in range(2, pmax + 1)]
    out += [d_h(p) for p in range(4, pmax + 1, 2)]
    return out


def test_criterion_6_oracle_agreement():
    from isoclips.oracle import verify_clips

    classes = _finite_classes(12)
    # Warm up on a tiny pair so one-time setup is not billed to the sweep.
    verify_clips(TRIV, TRIV, samples=1, seed=SWEEP_SEED)
    start = time.monotonic()
    failures = []
    pairs = 0
    for i, a in enumerate(classes):
        for b in classes[i:]:
            pairs += 1
            rep = verify_clips(a, b, samples=SWEEP_SAMPLES, seed=SWEEP_SEED)
            if rep.verdict != "pass":
                failures.append(
                    f"{a} o {b}: extra={rep.extra.render()} missing={rep.missing.render()}"
                )
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 60.0
    _report(
        6,
        "oracle agreement",
        ok,
        f"{pairs} pairs in {elapsed:.1f}s" + (f"; {failures[:3]}" if failures else ""),
    )


def _clipsable(ctx, pmax):
    out = [TRIV, TETRA, OCTA, ICO, SO2, O2, SO3]
    out += [cyclic(n) for n in range(2, pmax + 1)]
    out += [dihedral(n) for n in range(2, pmax + 1)]
    if ctx is Context.O3:
        out += [OCTA_MINUS, O2_MINUS, O3_FULL]
        out += [z_minus(p) for p in range(2, pmax + 1, 2)]
        out += [d_v(n) for n in range(2, pmax + 1)]
        out += [d_h(p) for p in range(4, pmax + 1, 2)]
    return out


def _random_spec(rnd):
    if rnd.random() < 0.5:
        labels = [HarmonicLabel(rnd.randint(0, 8)) for _ in range(rnd.randint(1, 5))]
        ctx = Context.SO3
    else:
        labels = []
        for _ in range(rnd.randint(1, 5)):
            n = rnd.randint(0, 8)
            labels.append(HarmonicLabel(n, star=(n % 2 == 0)))
        ctx = Context.O3
    return RepSpec(ctx, HarmonicSum((l, rnd.randint(1, 2)) for l in labels))


def test_criterion_7_algebraic_laws():
    violations = 0
    for ctx in (Context.SO3, Context.O3):
        cl = _clipsable(ctx, 16)
        for a, b in itertools.combinations_with_replacement(cl, 2):
            ab = clips_pair(ctx, a, b)
            if ab != clips_pair(ctx, b, a):
                violations += 1
            if a == b and a not in ab:
                violations += 1
            for c in ab:
                if not (is_leq(c, a, ctx) and is_leq(c, b, ctx)):
                    violations += 1
    rnd = random.Random(20_608)
    from isoclips.irreps import isotropy_irrep_so3 as so3_set
    from isoclips.symmetry import _label_classes_o3

    for _ in range(1000):
        spec = _random_spec(rnd)
        if spec.context is Context.SO3:
            per = [so3_set(l.n) for l, m in spec.content.terms for _ in range(m)]
        else:
            per = [_label_classes_o3(l) for l, m in spec.content.terms for _ in range(m)]
        baseline = isotropy_classes(spec)
        rnd.shuffle(per)
        acc = per[0]
        for s in per[1:]:
            acc = clips_sets(spec.context, acc, s)
        if acc != baseline:
            violations += 1
    _report(7, "algebraic laws", violations == 0, f"{violations} violations")


def test_criterion_8_harmonic_algebra():
    ok = True
    for a in range(0, 11):
        for b in range(0, 11):
            s = tensor_product(HarmonicSum.single(a), HarmonicSum.single(b))
            ok = ok and s.dim == (2 * a + 1) * (2 * b + 1)
        d = 2 * a + 1
        ok = ok and sym_square(HarmonicSum.single(a)).dim == d * (d + 1) // 2
        ok = ok and alt_square(HarmonicSum.single(a)).dim == d * (d - 1) // 2
    ela = sym_square(sym_square(HarmonicSum.single(1)))
    ok = ok and ela == HarmonicSum(
        {HarmonicLabel(4): 1, HarmonicLabel(2): 2, HarmonicLabel(0): 2}
    )
    _report(8, "harmonic algebra", ok)


def test_criterion_9a_tetra_in_so3_degree_3():
    ok = TETRA in isotropy_irrep_so3(3)
    _report("9a", "T in degree-3 SO(3) classes", ok)


def test_criterion_9b_tetra_not_in_o3_degree_8():
    ok = TETRA not in isotropy_irrep_o3(HarmonicLabel(8, True))
    _report("9b", "T absent from degree-8 starred O(3) classes", ok)


def test_criterion_9c_d2_in_clips_t_t():
    # As stated this membership is refuted by the matrix oracle: T has a
    # unique D2 subgroup, its normalizer is O, and T is normal in O, so any
    # intersection of two T copies containing a D2 is all of T.  The honest
    # outcome is a failure here; the companion fact D2 in clips(T, O) holds.
    assert dihedral(2) in clips_pair(Context.SO3, TETRA, OCTA)
    got = clips_pair(Context.SO3, TETRA, TETRA)
    _report("9c", "D2 in clips(T,T) as stated", dihedral(2) in got,
            f"clips(T,T) = {got.render()} (see README, \"Corrected table cells\")")
