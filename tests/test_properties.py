"""Property tests for the algebraic laws the engine must satisfy."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

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
    RepSpec,
    sym_square,
    tensor_product,
    z_minus,
)
from isoclips.groups import full_class


def so3_classes(pmax):
    out = [TRIV, TETRA, OCTA, ICO, SO2, O2, SO3]
    out += [cyclic(n) for n in range(2, pmax + 1)]
    out += [dihedral(n) for n in range(2, pmax + 1)]
    return out


def o3_only_classes(pmax):
    out = [OCTA_MINUS, O2_MINUS]
    out += [z_minus(p) for p in range(2, pmax + 1, 2)]
    out += [d_v(n) for n in range(2, pmax + 1)]
    out += [d_h(p) for p in range(4, pmax + 1, 2)]
    return out


def clipsable(ctx, pmax):
    out = list(so3_classes(pmax))
    if ctx is Context.O3:
        out += o3_only_classes(pmax) + [O3_FULL]
    return out


class TestClipsLaws:
    @pytest.mark.parametrize("ctx", [Context.SO3, Context.O3])
    def test_commutativity_exhaustive(self, ctx):
        cl = clipsable(ctx, 16)
        for a, b in itertools.combinations(cl, 2):
            assert clips_pair(ctx, a, b) == clips_pair(ctx, b, a), (a, b)

    @pytest.mark.parametrize("ctx", [Context.SO3, Context.O3])
    def test_self_membership(self, ctx):
        for a in clipsable(ctx, 16):
            assert a in clips_pair(ctx, a, a), a

    @pytest.mark.parametrize("ctx", [Context.SO3, Context.O3])
    def test_lower_bound(self, ctx):
        cl = clipsable(ctx, 12)
        for a, b in itertools.combinations_with_replacement(cl, 2):
            for c in clips_pair(ctx, a, b):
                assert is_leq(c, a, ctx) and is_leq(c, b, ctx), (c, a, b)

    @pytest.mark.parametrize("ctx", [Context.SO3, Context.O3])
    def test_associativity_certificate(self, ctx):
        # (a o b) o c == a o (b o c) on class sets, over all ordered triples:
        # a sampling-free check that reaches the continuous and type III rows.
        cl = clipsable(ctx, 16)
        assert len(cl) == (37 if ctx is Context.SO3 else 70)
        singles = {a: ClassSet([a]) for a in cl}
        for a, b, c in itertools.product(cl, repeat=3):
            left = clips_sets(ctx, clips_pair(ctx, a, b), singles[c])
            right = clips_sets(ctx, singles[a], clips_pair(ctx, b, c))
            assert left == right, (a, b, c)

    @pytest.mark.parametrize("ctx", [Context.SO3, Context.O3])
    def test_absorption(self, ctx):
        full = full_class(ctx)
        for x in clipsable(ctx, 8):
            assert clips_pair(ctx, full, x) == ClassSet([x])
            assert clips_pair(ctx, TRIV, x) == ClassSet([TRIV])


@st.composite
def clips_families(draw):
    """A context and two non-empty families of its clipsable classes."""
    ctx = draw(st.sampled_from([Context.SO3, Context.O3]))
    pool = clipsable(ctx, 12)
    family = st.lists(st.sampled_from(pool), min_size=1, max_size=8).map(ClassSet)
    return ctx, draw(family), draw(family)


@settings(max_examples=200, deadline=None)
@given(clips_families())
def test_clips_sets_is_union_of_pairs(args):
    ctx, f1, f2 = args
    reference = set()
    for a in f1:
        for b in f2:
            reference |= set(clips_pair(ctx, a, b))
    got = clips_sets(ctx, f1, f2)
    assert got == ClassSet(reference)
    assert list(got) == sorted(reference, key=lambda c: c.sort_key())


class TestOrderLaws:
    @pytest.mark.parametrize("ctx", [Context.SO3, Context.O3])
    def test_partial_order_axioms_exhaustive(self, ctx):
        cl = clipsable(ctx, 24)
        if ctx is Context.O3:
            cl = cl + [O3_FULL]
        rel = {(a, b) for a in cl for b in cl if is_leq(a, b, ctx)}
        for a in cl:
            assert (a, a) in rel
            assert (TRIV, a) in rel
            assert (a, full_class(ctx)) in rel
        for a, b in rel:
            if a != b:
                assert (b, a) not in rel, (a, b)
        for a, b in rel:
            for c in cl:
                if (b, c) in rel:
                    assert (a, c) in rel, (a, b, c)

    @pytest.mark.parametrize("ctx", [Context.SO3, Context.O3])
    def test_order_law_certificate(self, ctx):
        # a <= b exactly when a is the class of a intersected with some
        # conjugate of b: the poset code checked against the rule engine,
        # with no matrices and no sampling, continuous classes included.
        cl = clipsable(ctx, 30)
        assert len(cl) == (65 if ctx is Context.SO3 else 126)
        for a in cl:
            for b in cl:
                assert is_leq(a, b, ctx) == (a in clips_pair(ctx, a, b)), (a, b)


# Strategies for random representation specs.

def _so3_labels():
    return st.builds(HarmonicLabel, st.integers(0, 8), st.just(False))


def _o3_minus_labels():
    # Labels on which -I acts as -Id: odd plain or even starred (degree >= 1,
    # except the degree-0 starred scalar which is also valid).
    return st.one_of(
        st.integers(0, 4).map(lambda k: HarmonicLabel(2 * k + 1, False)),
        st.integers(0, 4).map(lambda k: HarmonicLabel(2 * k, True)),
    )


def _sum_from(labels):
    return st.lists(
        st.tuples(labels, st.integers(1, 2)), min_size=1, max_size=6
    ).map(HarmonicSum)


@st.composite
def rep_specs(draw):
    if draw(st.booleans()):
        return RepSpec(Context.SO3, draw(_sum_from(_so3_labels())))
    return RepSpec(Context.O3, draw(_sum_from(_o3_minus_labels())))


def _fold_orders(spec):
    """Fold the per-copy class sets in shuffled orders; all must agree."""
    from isoclips.symmetry import _label_classes_o3
    from isoclips.irreps import isotropy_irrep_so3

    if spec.context is Context.SO3:
        per = [
            isotropy_irrep_so3(label.n)
            for label, mult in spec.content.terms
            for _ in range(mult)
        ]
    else:
        per = [
            _label_classes_o3(label)
            for label, mult in spec.content.terms
            for _ in range(mult)
        ]
    return per


@settings(max_examples=120, deadline=None)
@given(rep_specs(), st.randoms(use_true_random=False))
def test_fold_order_invariance(spec, rnd):
    per = _fold_orders(spec)
    baseline = isotropy_classes(spec)
    order = list(per)
    rnd.shuffle(order)
    acc = order[0]
    for s in order[1:]:
        acc = clips_sets(spec.context, acc, s)
    assert acc == baseline


@settings(max_examples=80, deadline=None)
@given(rep_specs())
def test_full_class_membership(spec):
    assert full_class(spec.context) in isotropy_classes(spec)


@settings(max_examples=60, deadline=None)
@given(_sum_from(_so3_labels()), _sum_from(_so3_labels()))
def test_monotonicity(s1, s2):
    j1 = isotropy_classes(RepSpec(Context.SO3, s1))
    j2 = isotropy_classes(RepSpec(Context.SO3, s2))
    total = isotropy_classes(RepSpec(Context.SO3, s1 + s2))
    for c in total:
        assert any(
            is_leq(c, a, Context.SO3) and is_leq(c, b, Context.SO3)
            for a in j1
            for b in j2
        )


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10), st.integers(0, 10), st.booleans(), st.booleans())
def test_tensor_dimension_conserved(a, b, sa, sb):
    s = tensor_product(HarmonicSum.single(a, sa), HarmonicSum.single(b, sb))
    assert s.dim == (2 * a + 1) * (2 * b + 1)


@settings(max_examples=60, deadline=None)
@given(_sum_from(st.builds(HarmonicLabel, st.integers(0, 4), st.booleans())))
def test_squares_partition_tensor_square(s):
    assert sym_square(s) + alt_square(s) == tensor_product(s, s)


def test_stabilization_in_multiplicity():
    for n in range(1, 7):
        prev = None
        stable = None
        for k in range(1, 6):
            cur = isotropy_classes(
                RepSpec(Context.SO3, HarmonicSum.single(n, mult=k))
            )
            if prev is not None and cur == prev:
                stable = cur if stable is None else stable
                assert cur == stable
            prev = cur
        assert stable is not None, f"degree {n} did not stabilize by 5 copies"
