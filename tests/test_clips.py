import copy
import itertools
import pickle
import random

import pytest

from isoclips import (
    ClassSet,
    ClipsRuleOutcome,
    Context,
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
    UnsupportedClipsError,
    clips_pair,
    clips_pair_detailed,
    clips_sets,
    cyclic,
    d_h,
    d_v,
    dihedral,
    isotropy_classes,
    parse_rep,
    RepSpec,
    type_ii,
    z_minus,
)
from isoclips import clips as clips_module
from isoclips import symmetry
from test_properties import clipsable

SO3_CTX, O3_CTX = Context.SO3, Context.O3


def cs(*items):
    return ClassSet(items)


class TestRotationCells:
    def test_cyclic_cyclic(self):
        assert clips_pair(SO3_CTX, cyclic(6), cyclic(4)) == cs(TRIV, cyclic(2))
        assert clips_pair(SO3_CTX, cyclic(3), cyclic(5)) == cs(TRIV)

    def test_dihedral_cyclic(self):
        assert clips_pair(SO3_CTX, dihedral(3), cyclic(6)) == cs(
            TRIV, cyclic(2), cyclic(3)
        )
        assert clips_pair(SO3_CTX, dihedral(2), cyclic(3)) == cs(TRIV)

    def test_dihedral_dihedral(self):
        assert clips_pair(SO3_CTX, dihedral(2), dihedral(2)) == cs(
            TRIV, cyclic(2), dihedral(2)
        )
        assert clips_pair(SO3_CTX, dihedral(6), dihedral(9)) == cs(
            TRIV, cyclic(2), cyclic(3), dihedral(3)
        )

    def test_tetra_row(self):
        assert clips_pair(SO3_CTX, TETRA, cyclic(6)) == cs(TRIV, cyclic(2), cyclic(3))
        assert clips_pair(SO3_CTX, TETRA, dihedral(4)) == cs(
            TRIV, cyclic(2), dihedral(2)
        )

    def test_tetra_tetra_has_no_bare_d2(self):
        # T has a unique D2 whose normalizer is O, and T is normal in O: an
        # intersection of two T copies containing a D2 is all of T.  The
        # brute-force refutation is in test_oracle.
        assert clips_pair(SO3_CTX, TETRA, TETRA) == cs(
            TRIV, cyclic(2), cyclic(3), TETRA
        )

    def test_octa_row(self):
        assert clips_pair(SO3_CTX, OCTA, TETRA) == cs(
            TRIV, cyclic(2), dihedral(2), cyclic(3), TETRA
        )
        assert clips_pair(SO3_CTX, OCTA, OCTA) == cs(
            TRIV, cyclic(2), dihedral(2), cyclic(3), dihedral(3),
            cyclic(4), dihedral(4), OCTA,
        )
        assert clips_pair(SO3_CTX, OCTA, cyclic(8)) == cs(
            TRIV, cyclic(2), cyclic(4)
        )

    def test_ico_row(self):
        assert clips_pair(SO3_CTX, ICO, ICO) == cs(
            TRIV, cyclic(2), cyclic(3), dihedral(3), cyclic(5), dihedral(5),
            TETRA, ICO,
        )
        assert clips_pair(SO3_CTX, ICO, OCTA) == cs(
            TRIV, cyclic(2), dihedral(2), cyclic(3), dihedral(3), TETRA
        )
        assert clips_pair(SO3_CTX, ICO, TETRA) == cs(
            TRIV, cyclic(2), cyclic(3), TETRA
        )
        assert clips_pair(SO3_CTX, ICO, dihedral(15)) == cs(
            TRIV, cyclic(2), cyclic(3), cyclic(5), dihedral(3), dihedral(5)
        )

    def test_so2_row(self):
        assert clips_pair(SO3_CTX, SO2, cyclic(9)) == cs(TRIV, cyclic(9))
        assert clips_pair(SO3_CTX, SO2, dihedral(4)) == cs(
            TRIV, cyclic(2), cyclic(4)
        )
        assert clips_pair(SO3_CTX, SO2, OCTA) == cs(
            TRIV, cyclic(2), cyclic(3), cyclic(4)
        )
        assert clips_pair(SO3_CTX, SO2, SO2) == cs(TRIV, SO2)

    def test_o2_row(self):
        assert clips_pair(SO3_CTX, O2, dihedral(2)) == cs(
            TRIV, cyclic(2), dihedral(2)
        )
        # D2 needs a flip about the O(2) axis: present only for even
        # dihedral parameter (order 4 cannot divide 2n for n odd).
        assert clips_pair(SO3_CTX, O2, dihedral(3)) == cs(
            TRIV, cyclic(2), dihedral(3)
        )
        assert clips_pair(SO3_CTX, O2, dihedral(4)) == cs(
            TRIV, cyclic(2), dihedral(2), dihedral(4)
        )
        assert clips_pair(SO3_CTX, O2, OCTA) == cs(
            TRIV, cyclic(2), dihedral(2), dihedral(3), dihedral(4)
        )
        assert clips_pair(SO3_CTX, O2, SO2) == cs(TRIV, cyclic(2), SO2)
        assert clips_pair(SO3_CTX, O2, O2) == cs(cyclic(2), dihedral(2), O2)

    def test_full_group_and_trivial(self):
        assert clips_pair(SO3_CTX, SO3, TETRA) == cs(TETRA)
        assert clips_pair(SO3_CTX, TRIV, OCTA) == cs(TRIV)


class TestTypeIIICells:
    def test_zminus_zminus(self):
        assert clips_pair(O3_CTX, z_minus(4), z_minus(4)) == cs(TRIV, z_minus(4))
        assert clips_pair(O3_CTX, z_minus(4), z_minus(8)) == cs(TRIV, cyclic(2))
        assert clips_pair(O3_CTX, z_minus(6), z_minus(10)) == cs(TRIV, z_minus(2))
        assert clips_pair(O3_CTX, z_minus(2), z_minus(6)) == cs(TRIV, z_minus(2))
        assert clips_pair(O3_CTX, z_minus(2), z_minus(4)) == cs(TRIV)

    def test_lemma_51_reduction(self):
        assert clips_pair(O3_CTX, z_minus(2), dihedral(5)) == cs(TRIV)
        assert clips_pair(O3_CTX, z_minus(8), dihedral(4)) == cs(
            TRIV, cyclic(2), cyclic(4)
        )
        assert clips_pair(O3_CTX, d_v(6), OCTA) == clips_pair(
            O3_CTX, cyclic(6), OCTA
        )
        assert clips_pair(O3_CTX, d_h(8), TETRA) == clips_pair(
            O3_CTX, dihedral(4), TETRA
        )
        assert clips_pair(O3_CTX, OCTA_MINUS, ICO) == clips_pair(
            O3_CTX, TETRA, ICO
        )
        assert clips_pair(O3_CTX, O2_MINUS, dihedral(6)) == clips_pair(
            O3_CTX, SO2, dihedral(6)
        )

    def test_dv_cells(self):
        assert clips_pair(O3_CTX, d_v(4), z_minus(6)) == cs(
            TRIV, z_minus(2), cyclic(1)
        )
        assert clips_pair(O3_CTX, d_v(6), z_minus(8)) == cs(TRIV, cyclic(2))
        assert clips_pair(O3_CTX, d_v(6), d_v(4)) == cs(
            TRIV, z_minus(2), cyclic(2), d_v(2)
        )
        assert clips_pair(O3_CTX, d_v(3), d_v(5)) == cs(TRIV, z_minus(2))

    def test_dh_zminus(self):
        assert clips_pair(O3_CTX, d_h(8), z_minus(6)) == cs(
            TRIV, z_minus(2), cyclic(1)
        )
        assert clips_pair(O3_CTX, d_h(12), z_minus(4)) == cs(
            TRIV, cyclic(2), z_minus(4)
        )
        assert clips_pair(O3_CTX, d_h(16), z_minus(4)) == cs(
            TRIV, cyclic(2)
        )
        assert clips_pair(O3_CTX, d_h(6), z_minus(6)) == cs(
            TRIV, z_minus(2), z_minus(6)
        )

    def test_dh_dv(self):
        # Z2^- is unconditional: both operands always carry mirrors.
        assert clips_pair(O3_CTX, d_h(4), d_v(2)) == cs(
            TRIV, z_minus(2), cyclic(2), d_v(2)
        )
        assert clips_pair(O3_CTX, d_h(6), d_v(2)) == cs(
            TRIV, z_minus(2), cyclic(2), d_v(2)
        )
        assert clips_pair(O3_CTX, d_h(6), d_v(3)) == cs(
            TRIV, z_minus(2), cyclic(3), d_v(3)
        )

    def test_dh_dh(self):
        assert clips_pair(O3_CTX, d_h(4), d_h(4)) == cs(
            TRIV, cyclic(2), z_minus(2), dihedral(2), z_minus(4), d_h(4)
        )
        assert clips_pair(O3_CTX, d_h(6), d_h(6)) == cs(
            TRIV, cyclic(2), z_minus(2), d_v(2), z_minus(6), d_h(6)
        )
        assert clips_pair(O3_CTX, d_h(6), d_h(4)) == cs(
            TRIV, cyclic(2), z_minus(2), d_v(2)
        )
        assert clips_pair(O3_CTX, d_h(12), d_h(8)) == cs(
            TRIV, cyclic(2), z_minus(2), dihedral(2),
            cyclic(2), dihedral(2), d_v(2),
        )

    def test_octa_minus_cells(self):
        assert clips_pair(O3_CTX, OCTA_MINUS, OCTA_MINUS) == cs(
            TRIV, z_minus(2), z_minus(4), cyclic(3), d_v(3), OCTA_MINUS
        )
        assert clips_pair(O3_CTX, OCTA_MINUS, z_minus(6)) == cs(
            TRIV, z_minus(2), cyclic(3)
        )
        assert clips_pair(O3_CTX, OCTA_MINUS, z_minus(4)) == cs(
            TRIV, z_minus(4), cyclic(1)
        )
        assert clips_pair(O3_CTX, OCTA_MINUS, z_minus(8)) == cs(
            TRIV, cyclic(2)
        )
        assert clips_pair(O3_CTX, OCTA_MINUS, d_v(6)) == cs(
            TRIV, z_minus(2), cyclic(3), d_v(3), cyclic(2), d_v(2)
        )
        assert clips_pair(O3_CTX, OCTA_MINUS, d_h(4)) == cs(
            TRIV, cyclic(2), z_minus(2), z_minus(4), d_h(4)
        )
        assert clips_pair(O3_CTX, OCTA_MINUS, d_h(8)) == cs(
            TRIV, cyclic(2), z_minus(2), dihedral(2), d_v(2)
        )
        assert clips_pair(O3_CTX, OCTA_MINUS, d_h(6)) == cs(
            TRIV, cyclic(2), z_minus(2), d_v(2), cyclic(3), d_v(3)
        )

    def test_o2_minus_cells(self):
        assert clips_pair(O3_CTX, O2_MINUS, z_minus(10)) == cs(
            TRIV, z_minus(2), cyclic(5)
        )
        assert clips_pair(O3_CTX, O2_MINUS, z_minus(4)) == cs(TRIV, cyclic(2))
        assert clips_pair(O3_CTX, O2_MINUS, d_v(7)) == cs(
            TRIV, z_minus(2), d_v(7)
        )
        # The Z2 member appears exactly for even half parameter.
        assert clips_pair(O3_CTX, O2_MINUS, d_h(8)) == cs(
            TRIV, cyclic(2), z_minus(2), d_v(4)
        )
        assert clips_pair(O3_CTX, O2_MINUS, d_h(6)) == cs(
            TRIV, z_minus(2), d_v(2), d_v(3)
        )
        assert clips_pair(O3_CTX, O2_MINUS, OCTA_MINUS) == cs(
            TRIV, z_minus(2), d_v(2), d_v(3)
        )
        assert clips_pair(O3_CTX, O2_MINUS, O2_MINUS) == cs(z_minus(2), O2_MINUS)

    def test_so3_restriction_in_o3(self):
        assert clips_pair(O3_CTX, SO3, OCTA_MINUS) == cs(TETRA)
        assert clips_pair(O3_CTX, SO3, d_h(8)) == cs(dihedral(4))
        assert clips_pair(O3_CTX, SO3, z_minus(2)) == cs(TRIV)
        assert clips_pair(O3_CTX, SO3, O2_MINUS) == cs(SO2)
        assert clips_pair(O3_CTX, SO3, dihedral(5)) == cs(dihedral(5))
        assert clips_pair(O3_CTX, SO3, SO3) == cs(SO3)

    def test_full_o3(self):
        assert clips_pair(O3_CTX, O3_FULL, OCTA_MINUS) == cs(OCTA_MINUS)
        assert clips_pair(O3_CTX, O3_FULL, SO3) == cs(SO3)

    def test_type_ii_rejected(self):
        with pytest.raises(UnsupportedClipsError):
            clips_pair(O3_CTX, type_ii(dihedral(2)), dihedral(2))
        with pytest.raises(UnsupportedClipsError):
            clips_pair(O3_CTX, type_ii(cyclic(4)), z_minus(4))


class TestRuleIds:
    def test_traceable_ids(self):
        assert clips_pair_detailed(SO3_CTX, dihedral(3), cyclic(6)).rule_id == "Table1:Dn-Zm"
        assert clips_pair_detailed(O3_CTX, z_minus(4), z_minus(8)).rule_id == "CorollaryB.2"
        assert clips_pair_detailed(O3_CTX, d_v(3), dihedral(7)).rule_id == "Lemma5.1:Dv"
        assert clips_pair_detailed(O3_CTX, d_h(6), d_h(8)).rule_id == "LemmaB.8+oracle"
        assert clips_pair_detailed(SO3_CTX, SO3, ICO).rule_id == "FullGroup"
        # In O(3), SO(3) restricts the other class to its rotation part.
        for other, part in [(SO3, SO3), (dihedral(4), dihedral(4)),
                            (d_h(6), dihedral(3)), (z_minus(4), cyclic(2))]:
            for pair in [(SO3, other), (other, SO3)]:
                outcome = clips_pair_detailed(O3_CTX, *pair)
                assert outcome == ClipsRuleOutcome(ClassSet([part]), "Table3:L")

    def test_oracle_adjusted_cells_are_flagged(self):
        for pair in [(TETRA, TETRA), (ICO, ICO), (ICO, OCTA)]:
            assert clips_pair_detailed(SO3_CTX, *pair).rule_id.endswith("+oracle")

    def test_outcome_is_an_immutable_value(self):
        outcome = clips_pair_detailed(SO3_CTX, dihedral(3), cyclic(6))
        twin = ClipsRuleOutcome(ClassSet(outcome.result), outcome.rule_id)
        assert twin == outcome and hash(twin) == hash(outcome)
        assert twin != ClipsRuleOutcome(outcome.result, "other")
        with pytest.raises(AttributeError):
            outcome.rule_id = "other"
        with pytest.raises(AttributeError):
            outcome.result = ClassSet()
        assert clips_pair_detailed(SO3_CTX, dihedral(3), cyclic(6)).rule_id == "Table1:Dn-Zm"
        assert copy.deepcopy(outcome) == outcome
        assert pickle.loads(pickle.dumps(outcome)) == outcome
        assert repr(outcome) == (
            "ClipsRuleOutcome(result=ClassSet({1, Z2, Z3}), rule_id='Table1:Dn-Zm')")


class TestCellTable:
    """Every ``_CELLS`` row is reached, and every pair that reaches the table
    lookup finds a row."""

    ORACLE_IDS = {
        "Table1:T-T+oracle", "Table1:I-O+oracle", "Table1:I-I+oracle",
        "Table1:O2-Dn+oracle", "LemmaB.6+oracle", "LemmaB.8+oracle",
        "CorollaryB.12+oracle", "CorollaryB.13+oracle",
    }

    def test_every_row_reached_and_every_lookup_keyed(self, monkeypatch):
        looked_up = set()

        class Recording(dict):
            def __getitem__(self, key):
                looked_up.add(key)
                return dict.__getitem__(self, key)

        monkeypatch.setattr(clips_module, "_CELLS", Recording(clips_module._CELLS))
        clips_pair_detailed.cache_clear()
        try:
            for ctx in (SO3_CTX, O3_CTX):
                classes = [c for c in clipsable(ctx, 16) if not c.is_type_ii]
                for a, b in itertools.product(classes, repeat=2):
                    clips_pair_detailed(ctx, a, b)
        finally:
            clips_pair_detailed.cache_clear()
        assert looked_up == set(clips_module._CELLS)

    def test_oracle_flagged_rows(self):
        flagged = {rule_id for rule_id, _ in clips_module._CELLS.values()
                   if rule_id.endswith("+oracle")}
        assert flagged == self.ORACLE_IDS


class TestClipsSets:
    def test_union_of_pairs(self):
        f = cs(dihedral(2), O2)
        assert clips_sets(SO3_CTX, f, f) == cs(TRIV, cyclic(2), dihedral(2), O2)

    def test_triv_absorbs(self):
        f = cs(dihedral(4), OCTA, SO2)
        assert clips_sets(SO3_CTX, cs(TRIV), f) == cs(TRIV)

    def test_vector_family(self):
        f = cs(SO2, SO3)
        assert clips_sets(SO3_CTX, f, f) == cs(TRIV, SO2, SO3)


def clear_clips_caches():
    clips_module._ROWS.clear()
    clips_pair_detailed.cache_clear()


class TestFoldRows:
    """``clips_sets`` reads its own rows, filled from the uncached rule, so
    it must agree with ``clips_pair`` whatever either cache holds."""

    @staticmethod
    def families(ctx, seed):
        rng = random.Random(seed)
        pool = [c for c in clipsable(ctx, 16) if not c.is_type_ii]
        return [tuple(ClassSet(rng.sample(pool, rng.randint(1, 8))) for _ in "ab")
                for _ in range(60)]

    @staticmethod
    def union_of_pairs(ctx, f1, f2):
        return ClassSet(c for a in f1 for b in f2 for c in clips_pair(ctx, a, b))

    @pytest.mark.parametrize("ctx", [SO3_CTX, O3_CTX], ids=lambda c: c.value)
    @pytest.mark.parametrize("seed", [0, 1])
    def test_rows_agree_with_clips_pair(self, ctx, seed):
        families = self.families(ctx, seed)
        clear_clips_caches()
        try:
            cold = [clips_sets(ctx, f1, f2) for f1, f2 in families]
            assert clips_pair_detailed.cache_info().currsize == 0
            expected = [self.union_of_pairs(ctx, f1, f2) for f1, f2 in families]
            assert cold == expected
            assert [clips_sets(ctx, f1, f2) for f1, f2 in families] == expected
            clips_pair_detailed.cache_clear()
            assert [clips_sets(ctx, f1, f2) for f1, f2 in families] == expected
            assert [clips_sets(ctx, f2, f1) for f1, f2 in families] == expected
        finally:
            clear_clips_caches()


class TestFoldStorage:
    """The fold stores each pair once, in its row, as the class tuple of the
    one shared outcome for its ``(result, rule_id)``: the benchmark's memory
    bound rests on this shape."""

    INPUTS = [
        (SO3_CTX, "H40+H36+H30"),
        (O3_CTX, "2*H12* + 2*H11 + H1 + 2*H6* + 2*H10*"),
    ]

    @pytest.fixture
    def folded(self, monkeypatch):
        """Fold INPUTS from empty caches; yield the pairs the fold asked for."""
        steps = []
        real = symmetry.clips_sets

        def recording(ctx, f1, f2):
            steps.append((ctx, f1, f2))
            return real(ctx, f1, f2)

        monkeypatch.setattr(symmetry, "clips_sets", recording)
        clear_clips_caches()
        try:
            for ctx, expr in self.INPUTS:
                isotropy_classes(RepSpec(ctx, parse_rep(expr)))
            yield {(ctx, a, b) for ctx, f1, f2 in steps for a in f1 for b in f2}
        finally:
            clear_clips_caches()

    def test_each_pair_stored_once_in_its_row(self, folded):
        stored = {(ctx, a, b) for (ctx, a), row in clips_module._ROWS.items() for b in row}
        assert len(folded) > 1000
        assert stored == folded
        assert clips_pair_detailed.cache_info().currsize == 0

    def test_warm_fold_evaluates_no_rule(self, folded, monkeypatch):
        def unexpected(ctx, a, b):
            raise AssertionError(f"rule evaluated for {a}, {b}")

        monkeypatch.setattr(clips_module, "_rule", unexpected)
        for ctx, expr in self.INPUTS:
            isotropy_classes(RepSpec(ctx, parse_rep(expr)))

    def test_stored_outcomes_are_shared(self, folded):
        outcomes = set()
        for ctx, a, b in folded:
            outcome = clips_module._rule(ctx, a, b)
            assert clips_module._OUTCOMES[outcome] is outcome
            assert clips_module._ROWS[ctx, a][b] is outcome.result._classes
            assert clips_pair_detailed(ctx, a, b) is outcome
            outcomes.add(outcome)
        assert len(outcomes) * 5 < len(folded)


class TestContextKey:
    """``Context`` keys every clips cache: its members must survive value
    lookup, pickling and deep copies as the same object, hashing in C."""

    def test_value_lookup_is_member(self):
        assert Context("o3") is Context.O3
        assert Context("so3") is Context.SO3

    @pytest.mark.parametrize("ctx", list(Context), ids=lambda c: c.value)
    @pytest.mark.parametrize("trip", [
        lambda c: pickle.loads(pickle.dumps(c)),
        copy.deepcopy,
    ], ids=["pickle", "deepcopy"])
    def test_round_trip_keeps_member(self, ctx, trip):
        back = trip(ctx)
        assert back is ctx
        assert hash(back) == hash(ctx)

    @pytest.mark.parametrize("ctx", [
        Context("o3"),
        pickle.loads(pickle.dumps(Context.O3)),
        copy.deepcopy(Context.O3),
    ], ids=["value", "pickle", "deepcopy"])
    def test_round_tripped_context_hits_cache(self, ctx):
        clips_pair_detailed(O3_CTX, d_h(6), d_h(8))
        hits = clips_pair_detailed.cache_info().hits
        clips_pair_detailed(ctx, d_h(6), d_h(8))
        assert clips_pair_detailed.cache_info().hits == hits + 1

    def test_hash_runs_in_c(self):
        # Enum.__hash__ is Python code, paid on every cache lookup.
        assert Context.__hash__ is object.__hash__


class TestClassRoundTrip:
    """Classes are interned: pickling and copying must hand back the same
    object, so a round-tripped class keeps the identity shortcut of every
    cache key and set it meets."""

    CLASSES = [cyclic(4), TRIV, type_ii(dihedral(3)), O3_FULL, d_h(8), z_minus(2)]

    @pytest.mark.parametrize("cls", CLASSES, ids=str)
    @pytest.mark.parametrize("trip", [
        lambda c: pickle.loads(pickle.dumps(c)),
        lambda c: pickle.loads(pickle.dumps(c, protocol=0)),
        copy.copy,
        copy.deepcopy,
    ], ids=["pickle", "pickle-0", "copy", "deepcopy"])
    def test_round_trip_keeps_object(self, cls, trip):
        assert trip(cls) is cls

    def test_round_trip_of_container_keeps_objects(self):
        family = cs(*self.CLASSES[:3])
        for back in (pickle.loads(pickle.dumps(family)), copy.deepcopy(family)):
            assert back == family
            assert all(x is y for x, y in zip(back, family))
