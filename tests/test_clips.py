import copy
import itertools
import pickle

import pytest

from isoclips import (
    ClassSet,
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
    type_ii,
    z_minus,
)
from isoclips import clips as clips_module
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

    def test_oracle_adjusted_cells_are_flagged(self):
        for pair in [(TETRA, TETRA), (ICO, ICO), (ICO, OCTA)]:
            assert clips_pair_detailed(SO3_CTX, *pair).rule_id.endswith("+oracle")


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
