from math import pi

import numpy as np
import pytest

from isoclips import (
    Context,
    ICO,
    OCTA,
    OCTA_MINUS,
    TETRA,
    TRIV,
    clips_pair,
    cyclic,
    d_h,
    d_v,
    dihedral,
    type_ii,
    z_minus,
)
from isoclips.oracle import (
    MATCH_TOL,
    MatrixGroup,
    alignment_frames,
    classify,
    find_witness,
    intersect,
    random_rotations,
    realize,
    rotation,
    verify_clips,
)
from isoclips.oracle.kernels import batch_membership, membership

FINITE_SAMPLE = [
    TRIV,
    cyclic(2),
    cyclic(7),
    dihedral(2),
    dihedral(3),
    dihedral(12),
    TETRA,
    OCTA,
    ICO,
    z_minus(2),
    z_minus(4),
    z_minus(10),
    d_v(2),
    d_v(5),
    d_h(4),
    d_h(14),
    OCTA_MINUS,
    type_ii(dihedral(3)),
]


class TestRealize:
    @pytest.mark.parametrize("cls", FINITE_SAMPLE, ids=str)
    def test_group_axioms_and_order(self, cls):
        g = realize(cls)
        g.validate()
        assert g.order == cls.order()

    def test_infinite_rejected(self):
        from isoclips import O2, O2_MINUS, SO2, SO3

        for cls in (SO2, O2, SO3, O2_MINUS):
            with pytest.raises(ValueError):
                realize(cls)

    def test_type_iii_structure(self):
        for cls in (z_minus(6), d_v(4), d_h(8), OCTA_MINUS):
            g = realize(cls)
            assert not g.contains_minus_id()
            assert (g.dets < 0).any()

    def test_z4_minus_elements(self):
        # Hand enumeration: rotations Z2 about z plus the negated quarter
        # turns.
        g = realize(z_minus(4))
        expected = [
            np.eye(3),
            rotation([0, 0, 1], pi),
            -rotation([0, 0, 1], pi / 2),
            -rotation([0, 0, 1], 3 * pi / 2),
        ]
        assert g.order == 4
        for e in expected:
            assert any(np.abs(e - m).max() < 1e-9 for m in g.elements)

    def test_frame_conjugation(self):
        f = rotation([3, 1, 2], 1.1)
        g = realize(OCTA, f)
        g.validate()
        assert classify(g) == OCTA


class TestClassify:
    @pytest.mark.parametrize("cls", FINITE_SAMPLE, ids=str)
    def test_round_trip_random_frames(self, cls):
        rng = np.random.default_rng(5)
        for f in random_rotations(20, rng):
            assert classify(realize(cls, f)) == cls

    def test_identity_only(self):
        assert classify(MatrixGroup(np.eye(3)[None])) == TRIV

    def test_tetra_from_elements(self):
        assert classify(realize(TETRA)) == TETRA


class TestIntersect:
    def test_self(self):
        g = realize(OCTA)
        assert intersect(g, g).order == 24

    def test_octa_twisted_face_axis(self):
        g1 = realize(OCTA)
        g2 = realize(OCTA, rotation([0, 0, 1], pi / 6))
        got = intersect(g1, g2)
        assert got.order == 4
        assert classify(got) == cyclic(4)

    def test_tetra_quarter_turn_normalizes(self):
        # A quarter turn about a coordinate axis normalizes the tetrahedral
        # group, so the intersection is everything.
        g1 = realize(TETRA)
        g2 = realize(TETRA, rotation([0, 0, 1], pi / 2))
        got = intersect(g1, g2)
        assert got.order == 12
        assert classify(got) == TETRA

    def test_generic_frame_gives_trivial(self):
        g1 = realize(ICO)
        g2 = realize(ICO, rotation([1, 0.3, 0.71], 0.83))
        assert intersect(g1, g2).order == 1


class TestCorrectedCells:
    """Constructive witnesses and refutations for the cells where the
    closed-form rules deviate from their printed sources."""

    def test_no_d2_in_tetra_tetra(self):
        A = realize(TETRA)
        assert dihedral(2) not in clips_pair(Context.SO3, TETRA, TETRA)
        assert find_witness(A, A, dihedral(2)) is None

    def test_d2_witness_in_octa_ico(self):
        f = find_witness(realize(OCTA), realize(ICO), dihedral(2))
        assert f is not None
        got = intersect(realize(OCTA), realize(ICO).conjugate(f))
        assert classify(got) == dihedral(2)

    def test_tetra_witness_in_ico_ico(self):
        # An element of the tetrahedral normalizer outside I shares exactly T.
        A = realize(ICO)
        B = A.conjugate(rotation([0, 0, 1], pi / 2))
        got = intersect(A, B)
        assert classify(got) == TETRA

    def test_octa_minus_self_membership(self):
        got = intersect(realize(OCTA_MINUS), realize(OCTA_MINUS))
        assert classify(got) == OCTA_MINUS

    def test_d3v_witness_in_octa_minus_square(self):
        A = realize(OCTA_MINUS)
        B = A.conjugate(rotation([1, 1, 1], pi / 3))
        got = intersect(A, B)
        assert classify(got) == d_v(3)

    def test_z2_and_z2_minus_witnesses_in_dh_dh(self):
        A = realize(d_h(6))
        for target in (cyclic(2), z_minus(2), d_v(2)):
            f = find_witness(A, A, target)
            assert f is not None, target
            assert classify(intersect(A, A.conjugate(f))) == target

    def test_z2_minus_witness_in_dh_dv_even(self):
        A, B = realize(d_h(4)), realize(d_v(2))
        f = find_witness(A, B, z_minus(2))
        assert f is not None
        assert classify(intersect(A, B.conjugate(f))) == z_minus(2)


class TestContainmentAgreesWithOrder:
    # is_leq must agree with an explicit search for an orientation of one
    # realized group inside the other.
    PAIRS = [
        (cyclic(3), cyclic(6)),
        (cyclic(4), cyclic(6)),
        (dihedral(3), dihedral(6)),
        (dihedral(2), TETRA),
        (dihedral(2), ICO),
        (dihedral(4), ICO),
        (cyclic(5), OCTA),
        (TETRA, OCTA),
        (OCTA, ICO),
        (z_minus(4), d_h(8)),
        (z_minus(4), d_h(12)),
        (z_minus(6), d_h(8)),
        (d_v(2), OCTA_MINUS),
        (d_v(4), OCTA_MINUS),
        (z_minus(2), d_v(5)),
        (cyclic(3), OCTA_MINUS),
    ]

    @pytest.mark.parametrize("small,big", PAIRS, ids=lambda c: str(c))
    def test_embedding_search(self, small, big):
        from isoclips import Context, is_leq

        ctx = Context.O3 if (small.is_type_iii or big.is_type_iii) else Context.SO3
        A, B = realize(big), realize(small)
        embedded = any(
            intersect(A, B.conjugate(f)).order == B.order
            for f in alignment_frames(A, B)
        )
        assert embedded == is_leq(small, big, ctx)


class TestVerifyClips:
    def test_cyclic_pair(self):
        rep = verify_clips(cyclic(6), cyclic(4), samples=200, seed=7)
        assert rep.verdict == "pass"
        assert rep.observed.render() == "1, Z2"

    def test_tetra_tetra(self):
        rep = verify_clips(TETRA, TETRA, samples=300, seed=0)
        assert rep.verdict == "pass"
        assert rep.observed.render() == "1, Z2, Z3, T"

    def test_octa_minus_square(self):
        rep = verify_clips(OCTA_MINUS, OCTA_MINUS, samples=300, seed=0)
        assert rep.verdict == "pass"
        assert rep.observed == clips_pair(Context.O3, OCTA_MINUS, OCTA_MINUS)

    def test_explicit_alignments(self):
        aligned = [np.eye(3), rotation([1, 0, 0], 0.9)]
        rep = verify_clips(cyclic(6), cyclic(4), samples=150, seed=3,
                           alignments=aligned)
        assert rep.verdict == "pass"

    def test_report_json(self):
        rep = verify_clips(dihedral(4), dihedral(6), samples=150, seed=11)
        data = rep.to_json()
        assert data["verdict"] == "pass"
        assert data["pair"] == ["D4", "D6"]
        assert data["samples"] == 150 and data["seed"] == 11
        assert set(data["witnesses"]) == set(data["observed"])
        assert data["extra"] == [] and data["missing"] == []

    def test_infinite_rejected(self):
        from isoclips import O2

        with pytest.raises(ValueError):
            verify_clips(O2, dihedral(4))


class TestKernels:
    def test_batch_matches_per_frame_membership(self):
        # Alignment frames put exact matches in the batch; the entrywise
        # membership kernel is the reference for the Frobenius test.
        A, B = realize(ICO), realize(OCTA)
        frames = np.array(
            alignment_frames(A, B) + list(random_rotations(200, np.random.default_rng(5)))
        )
        BC = np.ascontiguousarray(np.einsum("fab,nbc,fdc->fnad", frames, B.elements, frames))
        masks = batch_membership(A.elements, BC, MATCH_TOL)
        expected = np.array([membership(A.elements, bc, MATCH_TOL) for bc in BC])
        assert np.array_equal(masks, expected)
        assert masks.sum(axis=1).max() == 12  # the T shared at the identity frame

    def test_batch_rejects_tight_tolerance(self):
        A = realize(OCTA).elements
        with pytest.raises(ValueError):
            batch_membership(A, A[None], tol=1e-8)

    def test_alignment_frames_are_rotations(self):
        frames = alignment_frames(realize(TETRA), realize(dihedral(3)))
        sample = frames[:: max(1, len(frames) // 17)]
        for f in sample:
            assert np.abs(f @ f.T - np.eye(3)).max() < 1e-9
            assert np.linalg.det(f) > 0
