import copy
import itertools
import operator
import pickle

import pytest

from isoclips import (
    ClassSet,
    Context,
    ContextError,
    HarmonicLabel,
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
    clips_pair_detailed,
    cyclic,
    d_h,
    d_v,
    dihedral,
    hasse,
    is_leq,
    isotropy_irrep_o3,
    isotropy_irrep_so3,
    normalize,
    parse_class,
    render_class,
    type_ii,
    z_minus,
)
from isoclips.groups import (_KINDS, SubgroupClass, characteristic_h, characteristic_l,
                             type_iii_class)

PARAMS = range(1, 25)


def _table_classes():
    """Every class that ``_KINDS`` builds from the parameters 1-24, the
    degenerate ones included, and the type II lift of each type I one; a new
    row is covered here without a new list."""
    out = {}
    for kind, row in _KINDS.items():
        if row.type == "II":
            continue
        for n in PARAMS:
            try:
                out[normalize(kind, n)] = None
            except ValueError:  # an odd half parameter
                pass
    out.update((type_ii(c), None) for c in list(out) if c.is_type_i)
    return list(out)


class TestNormalize:
    def test_degenerate_collapses(self):
        assert normalize("cyclic", 1) == TRIV
        assert normalize("dihedral", 1) == TRIV
        assert normalize("zminus", 1) == TRIV
        assert normalize("dv", 1) == TRIV
        assert normalize("dh", 2) == TRIV
        assert normalize("dh", 1) == TRIV

    def test_canonical_pass_through(self):
        assert normalize("dihedral", 6) == dihedral(6)
        assert normalize("zminus", 2) == z_minus(2)
        assert normalize("dh", 4) == d_h(4)

    def test_odd_parameters_rejected(self):
        with pytest.raises(ValueError):
            z_minus(3)
        with pytest.raises(ValueError):
            d_h(6 + 1)

    def test_nonpositive_rejected(self):
        for bad in (0, -2):
            with pytest.raises(ValueError):
                cyclic(bad)

    def test_type_ii_wraps_type_i_only(self):
        with pytest.raises(ValueError):
            type_ii(z_minus(4))
        # No inner class, or a parameter in its place.
        for build in (lambda: normalize("type_ii"), lambda: normalize("type_ii", 3),
                      lambda: type_ii(None), lambda: type_ii(3)):
            with pytest.raises(ValueError):
                build()

    def test_idempotent_up_to_64(self):
        for kind in ("cyclic", "dihedral", "dv"):
            for n in range(1, 65):
                c = normalize(kind, n)
                args = {"n": c.n} if c.n else {"n": 1}
                assert normalize(c.kind, **args) == c
        for p in range(2, 65, 2):
            c = normalize("zminus", p)
            assert normalize(c.kind, c.n) == c

    def test_every_kind_and_parameter(self):
        for kind, row in _KINDS.items():
            if row.type == "II":
                continue
            for n in PARAMS:
                if row.half and n % 2 and n > 1:
                    with pytest.raises(ValueError):
                        normalize(kind, n)
                    continue
                c = normalize(kind, n)
                assert c.kind == kind or c is TRIV, (kind, n)
                assert normalize(c.kind, c.n, c.inner) is c, (kind, n)
                assert c.n in (None, n), (kind, n)


class TestRendering:
    CASES = [
        (TRIV, "1"),
        (cyclic(12), "Z12"),
        (dihedral(3), "D3"),
        (TETRA, "T"),
        (OCTA, "O"),
        (ICO, "I"),
        (SO2, "SO(2)"),
        (O2, "O(2)"),
        (SO3, "SO(3)"),
        (z_minus(8), "Z8^-"),
        (d_v(5), "D5^v"),
        (d_h(10), "D10^h"),
        (OCTA_MINUS, "O^-"),
        (O2_MINUS, "O(2)^-"),
        (O3_FULL, "O(3)"),
        (type_ii(dihedral(4)), "[D4 x Zc2]"),
    ]

    @pytest.mark.parametrize("cls,text", CASES)
    def test_round_trip(self, cls, text):
        assert render_class(cls) == text
        assert parse_class(text) == cls

    def test_every_kind_round_trips(self):
        classes = _table_classes()
        assert {c.kind for c in classes} == set(_KINDS)
        texts = [render_class(c) for c in classes]
        assert len(set(texts)) == len(classes)
        for c, text in zip(classes, texts):
            assert parse_class(text) is c, text

    def test_total_order_is_deterministic(self):
        shuffled = [O2, TRIV, z_minus(4), cyclic(3), d_h(6), dihedral(2), SO3]
        s = ClassSet(shuffled)
        assert s.render() == "1, Z3, D2, O(2), SO(3), Z4^-, D6^h"

    def test_class_set_dedupes(self):
        s = ClassSet([TRIV, cyclic(2), TRIV, cyclic(2)])
        assert len(s) == 2


class TestOrder:
    def test_divisibility(self):
        assert is_leq(cyclic(3), cyclic(6), Context.SO3)
        assert not is_leq(cyclic(4), cyclic(6), Context.SO3)
        assert is_leq(dihedral(3), dihedral(6), Context.SO3)

    def test_exceptional(self):
        assert is_leq(TETRA, OCTA, Context.SO3)
        assert not is_leq(OCTA, ICO, Context.SO3)
        assert is_leq(TETRA, ICO, Context.SO3)

    def test_order_counting(self):
        assert not is_leq(dihedral(4), cyclic(4), Context.SO3)

    def test_z2_below_dn(self):
        for n in range(2, 10):
            assert is_leq(cyclic(2), dihedral(n), Context.SO3)

    def test_infinite_tops(self):
        assert is_leq(cyclic(7), SO2, Context.SO3)
        assert is_leq(dihedral(7), O2, Context.SO3)
        assert is_leq(SO2, O2, Context.SO3)
        assert not is_leq(O2, SO2, Context.SO3)

    def test_d3_below_ico_matches_matrix_containment(self):
        # Independent oracle: search for an embedding of an explicit D3 into
        # an explicit icosahedral rotation group.
        import numpy as np

        from isoclips.oracle import MATCH_TOL, alignment_frames, realize
        from isoclips.oracle.kernels import membership

        big, small = realize(ICO), realize(dihedral(3))
        found = False
        for f in alignment_frames(ICO, dihedral(3)):
            if membership(np.einsum("ab,nbc,dc->nad", f, small, f), big, MATCH_TOL).all():
                found = True
                break
        assert found
        assert is_leq(dihedral(3), ICO, Context.SO3)

    def test_type_iii_order(self):
        assert is_leq(z_minus(2), d_h(8), Context.O3)
        assert is_leq(d_v(4), O2_MINUS, Context.O3)
        assert not is_leq(d_h(8), O2_MINUS, Context.O3)
        assert is_leq(d_v(2), OCTA_MINUS, Context.O3)

    def test_type_ii_order(self):
        assert is_leq(type_ii(cyclic(2)), type_ii(dihedral(4)), Context.O3)
        assert is_leq(z_minus(4), type_ii(cyclic(4)), Context.O3)
        assert is_leq(cyclic(3), type_ii(cyclic(6)), Context.O3)
        assert not is_leq(type_ii(cyclic(2)), dihedral(8), Context.O3)
        assert is_leq(OCTA_MINUS, O3_FULL, Context.O3)

    def test_context_admissibility(self):
        with pytest.raises(ContextError):
            is_leq(z_minus(4), cyclic(4), Context.SO3)


def _reduction_by_hand(members, ctx):
    # Independent transitive reduction: strict relation matrix, then drop
    # edges with any two-step path.
    strict = {
        (a, b)
        for a in members
        for b in members
        if a != b and is_leq(a, b, ctx)
    }
    return sorted(
        (
            (a, b)
            for (a, b) in strict
            if not any((a, c) in strict and (c, b) in strict for c in members)
        ),
        key=lambda e: (e[0].sort_key(), e[1].sort_key()),
    )


class TestHasse:
    def test_small_chain(self):
        s = ClassSet([TRIV, cyclic(2), dihedral(2)])
        assert hasse(s, Context.SO3) == [
            (TRIV, cyclic(2)),
            (cyclic(2), dihedral(2)),
        ]

    def test_singleton(self):
        assert hasse(ClassSet([SO3]), Context.SO3) == []

    def test_elasticity_diagram(self):
        ela = ClassSet(
            [TRIV, cyclic(2), dihedral(2), dihedral(3), dihedral(4), OCTA, O2, SO3]
        )
        edges = hasse(ela, Context.SO3)
        assert edges == _reduction_by_hand(list(ela), Context.SO3)
        assert len(edges) == 10
        expected = [
            (TRIV, cyclic(2)),
            (cyclic(2), dihedral(2)),
            (cyclic(2), dihedral(3)),
            (dihedral(2), dihedral(4)),
            (dihedral(3), OCTA),
            (dihedral(3), O2),
            (dihedral(4), OCTA),
            (dihedral(4), O2),
            (OCTA, SO3),
            (O2, SO3),
        ]
        assert sorted(edges) == sorted(expected)


def _value_classes():
    """Criterion 6's finite classes up to 12, the continuous classes, and
    the type II lift of every type I class among them."""
    finite = [TRIV, TETRA, OCTA, ICO, OCTA_MINUS]
    finite += [cyclic(n) for n in range(2, 13)]
    finite += [dihedral(n) for n in range(2, 13)]
    finite += [z_minus(p) for p in range(2, 13, 2)]
    finite += [d_v(n) for n in range(2, 13)]
    finite += [d_h(p) for p in range(4, 13, 2)]
    base = finite + [SO2, O2, SO3, O2_MINUS]
    return base + [type_ii(c) for c in base if c.is_type_i]


class TestClassValue:
    OPS = [operator.lt, operator.le, operator.gt, operator.ge]

    @pytest.mark.parametrize("op", OPS, ids=lambda op: op.__name__)
    def test_order_operators_follow_sort_key(self, op):
        classes = _value_classes()
        for a, b in itertools.product(classes, repeat=2):
            assert op(a, b) == op(a.sort_key(), b.sort_key()), (op, a, b)

    def test_max_min_sorted_are_canonical(self):
        # Raw fields would put I ("ico") after D2^v ("dv").
        assert max([ICO, d_v(2)]) == d_v(2)
        assert min([d_v(2), ICO]) == ICO
        classes = _value_classes()
        assert sorted(reversed(classes)) == sorted(classes, key=SubgroupClass.sort_key)

    @pytest.mark.parametrize("op", OPS, ids=lambda op: op.__name__)
    def test_order_against_plain_tuple_raises(self, op):
        for other in (("ico", None, None), 3):
            with pytest.raises(TypeError):
                op(ICO, other)
            with pytest.raises(TypeError):
                op(other, ICO)

    def test_hash_and_eq_consistent(self):
        classes = _value_classes()
        assert len(set(classes)) == len(classes)
        for a, b in itertools.product(classes, repeat=2):
            assert (a == b) == (a.sort_key() == b.sort_key()), (a, b)
            assert (a != b) == (a.sort_key() != b.sort_key()), (a, b)
        for c in classes:
            twin = parse_class(render_class(c))
            assert twin == c and hash(twin) == hash(c)
            assert {c: 1}[twin] == 1

    def test_fields_are_read_only(self):
        for c in (TRIV, cyclic(4), type_ii(dihedral(3))):
            for name in ("kind", "n", "inner"):
                with pytest.raises(AttributeError):
                    setattr(c, name, None)
            with pytest.raises(AttributeError):
                c.extra = 1


def _interned(c):
    return c is normalize(c.kind, c.n, c.inner)


class TestClassInterning:
    """Each class is one object per process, whichever path builds it, so
    equality checks on classes stop at the identity test.  The constructors'
    ``cache_clear()`` is never called here: ``O3_FULL`` is built through
    ``type_ii`` at import."""

    CONSTRUCTORS = [
        (cyclic, [1, 2, 7, 12]),
        (dihedral, [1, 2, 5, 12]),
        (z_minus, [1, 2, 8]),
        (d_v, [1, 2, 9]),
        (d_h, [1, 2, 4, 10]),
        (type_ii, [TRIV, dihedral(3), SO2, SO3]),
    ]

    @pytest.mark.parametrize("make,args", CONSTRUCTORS,
                             ids=lambda v: getattr(v, "__name__", ""))
    def test_constructor_returns_identical_object(self, make, args):
        for arg in args:
            c = make(arg)
            assert make(arg) is c
            assert normalize(c.kind, c.n, c.inner) is c
            assert parse_class(render_class(c)) is c

    def test_every_kind_is_interned(self):
        for c in _table_classes():
            assert normalize(c.kind, c.n, c.inner) is c
            assert pickle.loads(pickle.dumps(c)) is c
            assert copy.deepcopy(c) is c

    def test_named_classes_are_the_constants(self):
        assert type_ii(SO3) is O3_FULL
        assert parse_class("O(3)") is O3_FULL
        for c in (TRIV, TETRA, OCTA, ICO, SO2, O2, SO3, OCTA_MINUS, O2_MINUS):
            assert normalize(c.kind) is c
        for degenerate in (cyclic(1), dihedral(1), z_minus(1), d_v(1), d_h(2)):
            assert degenerate is TRIV

    @pytest.mark.parametrize("bad", [
        lambda: cyclic(0),
        lambda: z_minus(3),
        lambda: d_h(5),
        lambda: type_ii(d_v(2)),
    ], ids=["Z0", "Z3^-", "D5^h", "[D2^v x Zc2]"])
    def test_failing_call_raises_every_time(self, bad):
        # A call that raises is never cached.
        for _ in range(3):
            with pytest.raises(ValueError):
                bad()

    def test_keyword_calls_raise(self):
        # A keyword call would get its own cache key, and so a second object.
        for call in (lambda: cyclic(n=4), lambda: dihedral(n=3), lambda: z_minus(p=4),
                     lambda: d_v(n=2), lambda: d_h(p=6), lambda: type_ii(inner=dihedral(3))):
            with pytest.raises(TypeError):
                call()

    def test_typed_key_keeps_float_out(self):
        # CPython already keys a lone exact int apart from a float, but
        # ``typed`` keeps that from resting on a fast path of the cache.
        for make, _ in self.CONSTRUCTORS:
            assert make.cache_parameters() == {"maxsize": None, "typed": True}
        assert cyclic(2) is cyclic(2)
        for _ in range(2):
            with pytest.raises(ValueError):
                cyclic(2.0)

    @pytest.mark.parametrize("ctx", list(Context), ids=lambda c: c.value)
    def test_rule_results_are_interned(self, ctx):
        # A rule that builds a class outside the constructors fails here.
        classes = [c for c in _value_classes()
                   if c.is_type_i or (ctx is Context.O3 and
                                      (c.is_type_iii or c is O3_FULL))]
        for a in classes:
            for b in classes:
                for c in clips_pair_detailed(ctx, a, b).result:
                    assert _interned(c), (ctx, a, b, c)

    def test_irreducible_lists_are_interned(self):
        for n in range(31):
            for c in isotropy_irrep_so3(n):
                assert _interned(c), (n, c)
        for n in range(1, 31):
            for c in isotropy_irrep_o3(HarmonicLabel(n, star=n % 2 == 0)):
                assert _interned(c), (n, c)


class TestKindTable:
    """Facts each ``_KINDS`` row states, checked against the oracle and the
    partial order for every class the table builds."""

    def test_order_is_the_realized_order(self):
        from isoclips.oracle import realize

        for c in _table_classes():
            param = (c.inner or c).n or 0
            if c.is_finite and param <= 12:
                assert c.order() == len(realize(c)), c
            elif not c.is_finite:
                with pytest.raises(ValueError):
                    c.order()

    def test_type_iii_couple_has_index_two(self):
        for c in _table_classes():
            if not c.is_type_iii:
                continue
            low, high = characteristic_l(c), characteristic_h(c)
            assert low != high and is_leq(low, high, Context.SO3), c
            if c.is_finite:
                assert high.order() == 2 * low.order() == c.order(), c
            assert type_iii_class(low, high) is c
