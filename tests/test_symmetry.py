import pytest

from isoclips import (
    ClassSet,
    Context,
    HarmonicSum,
    MinusOneAction,
    O2,
    O3_FULL,
    RepSpec,
    SO2,
    SO3,
    TRIV,
    UnsupportedClipsError,
    dihedral,
    isotropy_classes,
    minus_one_action,
    parse_rep,
    type_ii,
)


def spec(text, ctx=Context.SO3):
    return RepSpec(ctx, parse_rep(text))


class TestMinusOneAction:
    def test_so3_not_applicable(self):
        assert minus_one_action(spec("H4 + 2*H2")) is MinusOneAction.NOT_APPLICABLE

    def test_minus_id(self):
        assert minus_one_action(spec("H3 + H2* + 2*H1", Context.O3)) is MinusOneAction.MINUS_ID

    def test_plus_id(self):
        assert minus_one_action(spec("H2 + H0 + H3*", Context.O3)) is MinusOneAction.PLUS_ID

    def test_mixed(self):
        assert minus_one_action(spec("H2 + H3", Context.O3)) is MinusOneAction.MIXED


class TestIsotropyClasses:
    def test_trivial_rep(self):
        assert isotropy_classes(spec("H0")) == ClassSet([SO3])
        assert isotropy_classes(RepSpec(Context.SO3, HarmonicSum())) == ClassSet([SO3])
        assert isotropy_classes(RepSpec(Context.O3, HarmonicSum())) == ClassSet([O3_FULL])

    def test_vector_families(self):
        assert isotropy_classes(spec("H1")) == ClassSet([SO2, SO3])
        got = isotropy_classes(spec("2*H1"))
        assert got == ClassSet([TRIV, SO2, SO3])
        for n in (3, 4, 5):
            assert isotropy_classes(spec(f"{n}*H1")) == got

    def test_elasticity(self):
        got = isotropy_classes(spec("H4 + 2*H2 + 2*H0"))
        assert len(got) == 8

    def test_mixed_rejected(self):
        with pytest.raises(UnsupportedClipsError):
            isotropy_classes(spec("H2 + H3", Context.O3))

    def test_plus_id_lift(self):
        got = isotropy_classes(spec("H2", Context.O3))
        assert got == ClassSet(
            [type_ii(dihedral(2)), type_ii(O2), O3_FULL]
        )

    def test_plus_id_lift_zero_degree(self):
        assert isotropy_classes(spec("H0", Context.O3)) == ClassSet([O3_FULL])

    def test_star_zero_degree(self):
        # det-twisted scalar: nonzero vectors have exactly the rotations as
        # isotropy group.
        got = isotropy_classes(spec("H0*", Context.O3))
        assert got == ClassSet([SO3, O3_FULL])

    def test_star_ignored_in_so3(self):
        assert isotropy_classes(spec("H2*")) == isotropy_classes(spec("H2"))

    def test_full_class_always_member(self):
        for text, ctx in [
            ("H4 + H3", Context.SO3),
            ("H3 + 2*H1", Context.O3),
            ("H2* + H4*", Context.O3),
        ]:
            got = isotropy_classes(spec(text, ctx))
            assert SO3 in got or O3_FULL in got

    def test_fold_handles_multiplicity(self):
        one = isotropy_classes(spec("H2"))
        two = isotropy_classes(spec("2*H2"))
        assert one != two
        assert TRIV in two and TRIV not in one

    def test_monotone_lower_bound(self):
        from isoclips import is_leq

        v1, v2 = parse_rep("H4"), parse_rep("2*H2")
        j1 = isotropy_classes(RepSpec(Context.SO3, v1))
        j2 = isotropy_classes(RepSpec(Context.SO3, v2))
        total = isotropy_classes(RepSpec(Context.SO3, v1 + v2))
        for c in total:
            assert any(
                is_leq(c, a, Context.SO3) and is_leq(c, b, Context.SO3)
                for a in j1
                for b in j2
            )

    def test_stabilization(self):
        for n in range(1, 7):
            sets = [
                isotropy_classes(spec(" + ".join(["H%d" % n] * k)))
                for k in range(1, 6)
            ]
            # Once two consecutive folds agree the set never changes again.
            stable_from = next(
                i for i in range(1, len(sets)) if sets[i] == sets[i - 1]
            )
            assert all(s == sets[stable_from] for s in sets[stable_from:])


class TestFixedPointFold:
    """The fold stops a label's copies once a step leaves the set unchanged."""

    def test_high_multiplicity_takes_few_steps(self, monkeypatch):
        import isoclips.symmetry as symmetry

        expected = isotropy_classes(spec("8*H4"))
        steps = []
        real = symmetry.clips_sets

        def counting(ctx, acc, new):
            steps.append(1)
            return real(ctx, acc, new)

        monkeypatch.setattr(symmetry, "clips_sets", counting)
        assert isotropy_classes(spec("100000*H4")) == expected
        assert len(steps) <= 5

    @staticmethod
    def _unstopped(text, ctx):
        # Every copy of every label folded in, with no early stop.
        from isoclips import clips_sets, isotropy_irrep_o3, isotropy_irrep_so3

        acc = None
        for label, mult in parse_rep(text).terms:
            classes = (isotropy_irrep_so3(label.n) if ctx is Context.SO3
                       else isotropy_irrep_o3(label))
            for _ in range(mult):
                acc = classes if acc is None else clips_sets(ctx, acc, classes)
        return acc

    @pytest.mark.parametrize("k", range(1, 9))
    @pytest.mark.parametrize("text,ctx", [
        ("{k}*H1", Context.SO3),
        ("{k}*H2", Context.SO3),
        ("{k}*H3", Context.SO3),
        ("{k}*H4", Context.SO3),
        ("{k}*H2 + H3", Context.SO3),
        ("{k}*H1", Context.O3),
        ("{k}*H3", Context.O3),
        ("{k}*H2*", Context.O3),
        ("{k}*H4* + H1", Context.O3),
    ])
    def test_equals_unstopped_fold(self, k, text, ctx):
        text = text.format(k=k)
        if ctx is Context.O3:
            assert minus_one_action(spec(text, ctx)) is MinusOneAction.MINUS_ID
        assert isotropy_classes(spec(text, ctx)) == self._unstopped(text, ctx)
