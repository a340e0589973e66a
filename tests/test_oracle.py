from dataclasses import FrozenInstanceError
from math import pi

import numpy as np
import pytest

from isoclips import (
    ClassSet,
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
from isoclips.oracle.kernels import (batch_membership, closure_ok, invariant_runs, match_plan,
                                     membership)
from isoclips.oracle.realize import ORTHO_TOL, PHI, _ico_elements_cached, rotations


def _plan(A, B, tol):
    """The match plan of element arrays A and B at ``tol``."""
    return match_plan(A, invariant_runs(A, tol), invariant_runs(B, tol), tol)


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

    def test_batched_rotations_equal_single(self):
        # Alignment frames come from the batched form; each row must be the
        # single rotation bit for bit, whatever the batch and axis length.
        rng = np.random.default_rng(3)
        axes = rng.normal(size=(500, 3)) * rng.uniform(0.1, 10.0, size=(500, 1))
        angles = rng.uniform(-2 * pi, 2 * pi, size=500)
        batch = rotations(axes, angles)
        for axis, angle, R in zip(axes, angles, batch):
            assert np.array_equal(rotation(axis, angle), R)
        assert np.allclose(batch @ batch.transpose(0, 2, 1), np.eye(3), atol=1e-12)
        assert np.allclose(np.linalg.det(batch), 1.0)

    def test_ico_closure_matches_elementwise_loop(self):
        # Reference: the closure that compared each candidate against the
        # elements found so far one at a time, in the same visiting order.
        gens = [rotation((1, 1, 1), 2 * pi / 3), rotation((PHI, 0.0, 1.0), 2 * pi / 5)]
        mats = [np.eye(3)]
        frontier = list(gens)
        while frontier:
            m = frontier.pop()
            if any(np.abs(m - o).max() <= ORTHO_TOL for o in mats):
                continue
            mats.append(m)
            for g in gens:
                frontier.append(g @ m)
                frontier.append(m @ g)
        reference = np.array(mats)
        got = _ico_elements_cached()
        assert got.shape == reference.shape == (60, 3, 3)
        assert got.dtype == reference.dtype
        assert got.tobytes() == reference.tobytes()

    def test_frame_conjugation(self):
        f = rotation([3, 1, 2], 1.1)
        g = realize(OCTA, f)
        g.validate()
        assert classify(g) == OCTA

    @pytest.mark.parametrize("cls", [TRIV, OCTA, d_h(6), type_ii(dihedral(3))], ids=str)
    def test_canonical_group_is_shared_and_read_only(self, cls):
        g = realize(cls)
        assert realize(cls) is g
        with pytest.raises(ValueError):
            g.elements[0, 0, 0] = 2.0
        with pytest.raises(ValueError):
            g.dets[0] = -1.0
        f = rotation([3, 1, 2], 1.1)
        h = realize(cls, f)
        assert h is not g and h.claimed == cls
        assert np.allclose(h.elements, f @ g.elements @ f.T)
        h.elements[0, 0, 0] = 2.0  # a conjugated group is the caller's own
        assert realize(cls, f).elements[0, 0, 0] != 2.0

    @pytest.mark.parametrize("cls", [TRIV, OCTA, d_h(6), type_ii(dihedral(3))], ids=str)
    def test_canonical_group_fields_cannot_be_rebound(self, cls):
        g = realize(cls)
        for name, value in [("claimed", TETRA), ("elements", np.eye(3)[None]),
                            ("dets", np.ones(1))]:
            with pytest.raises(FrozenInstanceError):
                setattr(g, name, value)
        assert realize(cls).claimed == cls
        realize(cls).validate()


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
    closed-form rules deviate from their printed sources.  ``find_witness``
    searches the alignment frames and the generic frame, a set that reaches
    the class of every intersection (``verify`` module docstring), so a None
    refutes the class for every frame."""

    def test_no_d2_in_tetra_tetra(self):
        A = realize(TETRA)
        table = clips_pair(Context.SO3, TETRA, TETRA)
        assert dihedral(2) not in table
        assert find_witness(TETRA, TETRA, dihedral(2)) is None
        # The same frames reach every class of the corrected cell.
        for target in table:
            f = find_witness(TETRA, TETRA, target)
            assert f is not None, target
            assert classify(intersect(A, A.conjugate(f))) == target

    def test_d2_witness_in_octa_ico(self):
        f = find_witness(OCTA, ICO, dihedral(2))
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
            f = find_witness(d_h(6), d_h(6), target)
            assert f is not None, target
            assert classify(intersect(A, A.conjugate(f))) == target

    def test_z2_minus_witness_in_dh_dv_even(self):
        A, B = realize(d_h(4)), realize(d_v(2))
        f = find_witness(d_h(4), d_v(2), z_minus(2))
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
            for f in alignment_frames(big, small)
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

    def test_sampling_free_sweep(self):
        # The alignment frames and the generic frame alone reach the table
        # on every ordered cell of the finite classes to parameter 12.
        classes = [TRIV, TETRA, OCTA, ICO, OCTA_MINUS]
        classes += [f(n) for f in (cyclic, dihedral, d_v) for n in range(2, 13)]
        classes += [z_minus(p) for p in range(2, 13, 2)] + [d_h(p) for p in range(4, 13, 2)]
        assert len(classes) == 49
        failures = [
            (str(a), str(b), rep.missing.render(), rep.extra.render())
            for a in classes for b in classes
            for rep in [verify_clips(a, b, samples=0)]
            if rep.verdict != "pass"
        ]
        assert failures == []

    def test_report_json(self):
        rep = verify_clips(dihedral(4), dihedral(6), samples=150, seed=11)
        data = rep.to_json()
        assert data["verdict"] == "pass"
        assert data["pair"] == ["D4", "D6"]
        assert data["samples"] == 150 and data["seed"] == 11
        assert set(data["witnesses"]) == set(data["observed"])
        assert data["extra"] == [] and data["missing"] == []

    def test_infinite_rejected(self):
        from isoclips import O2, SO2

        with pytest.raises(ValueError):
            verify_clips(O2, dihedral(4))
        with pytest.raises(ValueError):
            alignment_frames(SO2, cyclic(2))
        with pytest.raises(ValueError):
            find_witness(O2, TETRA, TRIV)

    @pytest.mark.parametrize("a,b,seed", [
        (ICO, OCTA, 0),
        (TETRA, TETRA, 1),
        (OCTA_MINUS, OCTA_MINUS, 2),
        (d_h(6), d_v(4), 3),
        (ICO, ICO, 0),
    ], ids=str)
    def test_witness_is_first_frame_of_its_class(self, a, b, seed):
        # Per-frame reference over the curated, random and generic frames:
        # each class's witness is the first frame whose intersection has that
        # class (with the same tight retry).
        from isoclips.oracle.kernels import ROW_BUDGET
        from isoclips.oracle.verify import _GENERIC_FRAME

        A, B = realize(a), realize(b)
        curated = alignment_frames(a, b)
        if a == b == ICO:  # 965 frames: verify_clips takes them in many chunks
            assert len(curated) + 200 + 1 == 965
            assert 965 * B.order > 10 * ROW_BUDGET
        frames = (list(curated) + list(random_rotations(200, np.random.default_rng(seed)))
                  + list(_GENERIC_FRAME))
        first = {}
        for f in frames:
            Bf = B.conjugate(f)
            try:
                c = classify(intersect(A, Bf))
            except ValueError:
                c = classify(intersect(A, Bf, MATCH_TOL / 100.0))
            first.setdefault(c, f)
        rep = verify_clips(a, b, samples=200, seed=seed)
        assert rep.observed == ClassSet(first)
        for c, f in first.items():
            assert np.allclose(rep.witnesses[c], f, rtol=0.0, atol=1e-12), c

    def test_memory_is_bounded_by_the_frame_array(self):
        import tracemalloc

        tracemalloc.start()
        try:
            rep = verify_clips(ICO, ICO, samples=50_000, seed=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rep.verdict == "pass"
        # Frames go through in chunks; all (frames, |B|) conjugates at once
        # would take 440 MB.
        assert peak < 40 * 2**20


class TestSweepCaches:
    """The per-process caches of ``verify`` give what a fresh computation
    gives, whatever ran before."""

    CACHES = ("_subset_class", "_steps", "_frame_block", "_axes_of", "_random_frames",
              "_runs")

    @classmethod
    def _clear(cls):
        from isoclips.oracle import verify

        for name in cls.CACHES:
            getattr(verify, name).cache_clear()

    def test_clear_lists_every_cache(self):
        # A cache left out of _clear would stay warm in the cold runs below.
        from isoclips.oracle import verify

        cached = {n for n in dir(verify) if hasattr(getattr(verify, n), "cache_clear")}
        assert set(self.CACHES) == cached

    @pytest.mark.parametrize("a,b", [
        (ICO, OCTA), (TETRA, TETRA), (OCTA_MINUS, OCTA_MINUS), (d_h(6), d_v(4)),
    ], ids=str)
    def test_subset_class_equals_direct_classify(self, a, b):
        from isoclips.oracle.verify import _NotClosed, _subset_class

        self._clear()
        A, B = realize(a), realize(b)
        frames = np.concatenate(
            [alignment_frames(a, b), random_rotations(200, np.random.default_rng(0))]
        )
        BC = np.einsum("fab,nbc,fdc->fnad", frames, B.elements, frames)
        needed, blocks = _plan(A.elements, B.elements, MATCH_TOL)
        masks = np.unique(batch_membership(A.elements, BC[:, needed], MATCH_TOL, blocks), axis=0)
        for mask in masks:
            packed = np.packbits(mask).tobytes()
            mats = np.ascontiguousarray(A.elements[mask])
            for _ in range(2):  # a miss, then a hit
                if closure_ok(mats, MATCH_TOL):
                    assert _subset_class(a, packed) == classify(MatrixGroup(mats))
                else:
                    with pytest.raises(_NotClosed):
                        _subset_class(a, packed)
        assert _subset_class.cache_info().hits > 0

    def test_open_subset_takes_its_own_tight_retry(self):
        from isoclips.oracle.verify import _classify_mask, _subset_class

        self._clear()
        A = realize(OCTA)
        quarter = np.abs(A.elements - rotation([0, 0, 1], pi / 2)).max(axis=(1, 2)) < 1e-12
        identity = np.abs(A.elements - np.eye(3)).max(axis=(1, 2)) < 1e-12
        mask = quarter | identity  # {1, r}: not closed, r^2 is missing
        assert mask.sum() == 2
        packed = np.packbits(mask).tobytes()
        # The same subset with three different frames: each frame's own
        # conjugated B decides the tight retry.
        Z4, Z2 = realize(cyclic(4)).elements, realize(cyclic(2)).elements
        assert _classify_mask(OCTA, packed, Z4) == cyclic(4)
        assert _classify_mask(OCTA, packed, Z2) == cyclic(2)
        with pytest.raises(ValueError):
            _classify_mask(OCTA, packed, A.elements[mask])
        assert _classify_mask(OCTA, packed, Z4) == cyclic(4)
        assert _subset_class.cache_info().currsize == 0

    def test_cold_alignment_frames_equal_warm(self):
        classes = [TRIV, TETRA, OCTA, ICO, OCTA_MINUS, cyclic(3), dihedral(4),
                   z_minus(6), d_v(5), d_h(6)]
        cells = [(a, b) for i, a in enumerate(classes) for b in classes[i:]]
        cold = []
        for a, b in cells:
            self._clear()
            cold.append(alignment_frames(a, b))
        for a, b in cells:
            verify_clips(a, b, samples=20, seed=1)
        for (a, b), frames in zip(cells, cold):
            warm = alignment_frames(a, b)
            assert np.array_equal(warm.view(np.int64), frames.view(np.int64)), (a, b)

    def test_random_frames_are_the_seeds(self):
        from isoclips.oracle.verify import _random_frames

        self._clear()
        for samples, seed in [(200, 0), (7, 3), (200, 0), (0, 5)]:
            fresh = random_rotations(samples, np.random.default_rng(seed))
            assert np.array_equal(_random_frames(samples, seed), fresh)
        assert _random_frames.cache_info().hits == 1

    def test_reports_do_not_depend_on_cell_order(self):
        classes = [TRIV, TETRA, OCTA, ICO, OCTA_MINUS]
        classes += [cyclic(n) for n in (2, 3, 4, 6)] + [dihedral(n) for n in (2, 3, 5, 6)]
        classes += [z_minus(4), d_v(3), d_h(8)]
        cells = [(a, b) for i, a in enumerate(classes) for b in classes[i:]][:60]
        assert len(cells) == 60
        self._clear()
        forward = [verify_clips(a, b, samples=200, seed=4).to_json() for a, b in cells]
        backward = [verify_clips(a, b, samples=200, seed=4).to_json() for a, b in cells[::-1]]
        assert forward == backward[::-1]

    def test_round9_is_python_round(self):
        from isoclips.oracle.verify import _round9

        rng = np.random.default_rng(9)
        ties = (rng.integers(0, 6_283_185_307, 20000) + 0.5) / 1e9
        d = np.concatenate([
            rng.uniform(0.0, 2 * pi, 100000),
            rng.uniform(-50.0, 50.0, 20000),
            ties, np.nextafter(ties, 0.0), np.nextafter(ties, 7.0),
            [0.0, -0.0, 2.0**-10, 2.0**-11, -(2.0**-10), 1e-12, -1e-12,
             2 * pi, 1e3, 1e12, -1e12],
        ])
        expected = np.array([round(x, 9) for x in d.tolist()])
        assert np.array_equal(_round9(d).view(np.int64), expected.view(np.int64))

class TestKernels:
    def test_batch_matches_per_frame_membership(self):
        # Alignment frames put exact matches in the batch; the entrywise
        # membership kernel is the reference for the Frobenius test.
        A, B = realize(ICO), realize(OCTA)
        frames = np.concatenate(
            [alignment_frames(ICO, OCTA), random_rotations(200, np.random.default_rng(5))]
        )
        BC = np.ascontiguousarray(np.einsum("fab,nbc,fdc->fnad", frames, B.elements, frames))
        needed, blocks = _plan(A.elements, B.elements, MATCH_TOL)
        masks = batch_membership(A.elements, BC[:, needed], MATCH_TOL, blocks)
        expected = np.array([membership(A.elements, bc, MATCH_TOL) for bc in BC])
        assert np.array_equal(masks, expected)
        assert masks.sum(axis=1).max() == 12  # the T shared at the identity frame

    @staticmethod
    def _hits(G):
        # Reference match matrix of all products against G, one element of G
        # at a time over every product (no row blocks).
        products = np.einsum("aij,bjk->abik", G, G).reshape(-1, 3, 3)
        return np.stack(
            [np.abs(products - g).max(axis=(1, 2)) <= MATCH_TOL for g in G], axis=1
        )

    @pytest.mark.parametrize("cls", [ICO, type_ii(ICO)], ids=str)
    def test_match_tables_equal_unchunked_reference(self, cls):
        from isoclips.oracle.kernels import _matches, _products

        G = realize(cls).elements
        n = len(G)
        hit = self._hits(G)
        assert np.array_equal(_matches(_products(G, G), G, MATCH_TOL), hit)
        assert hit.any(axis=1).all() and closure_ok(G, MATCH_TOL)
        part = G[: n // 3]
        assert not self._hits(part).any(axis=1).all() and not closure_ok(part, MATCH_TOL)

    @pytest.mark.parametrize("cls", [ICO, type_ii(ICO)], ids=str)
    def test_closure_equals_match_table_reference(self, cls):
        from isoclips.oracle.kernels import _matches, _products

        G = realize(cls).elements
        rng = np.random.default_rng(4)
        subsets = [G, G[:60], G[: len(G) // 3]]  # closed, closed, open
        subsets += [G[rng.random(len(G)) < p] for p in (0.3, 0.6, 0.9, 0.97)]
        for tol in (MATCH_TOL / 100.0, MATCH_TOL, 1e-3):
            for H in subsets:
                H = np.ascontiguousarray(H)
                expected = _matches(_products(H, H), H, tol).any(axis=1).all()
                assert closure_ok(H, tol) == expected, (len(H), tol)

    @pytest.mark.parametrize("cls", [cyclic(200), dihedral(100)], ids=str)
    def test_closure_of_large_groups(self, cls):
        G = realize(cls).elements
        assert len(G) == 200 and closure_ok(G, MATCH_TOL)
        # Move the half turn about z by d in entry (0, 2).  Its square stays
        # I, its other products move by at most d, and the products that
        # give the half turn stay where they were.
        half = np.flatnonzero(np.abs(G - rotation([0, 0, 1], pi)).max(axis=(1, 2)) < 1e-12)
        assert len(half) == 1
        for d, closed in [(2 * MATCH_TOL, False), (MATCH_TOL / 2, True)]:
            moved = G.copy()
            moved[half[0], 0, 2] += d
            assert closure_ok(moved, MATCH_TOL) == closed, d

    def test_closure_memory_is_bounded(self):
        import tracemalloc

        # _matches compares the 14400 products in row blocks; all at once
        # the difference tensor would take 124 MB.
        G = np.ascontiguousarray(realize(type_ii(ICO)).elements)
        tracemalloc.start()
        try:
            assert closure_ok(G, MATCH_TOL)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2**20

    @pytest.mark.parametrize("tol", [MATCH_TOL, 1e-3], ids=str)
    @pytest.mark.parametrize("a,b", [
        (OCTA_MINUS, d_h(6)),
        (d_h(6), type_ii(ICO)),
        (type_ii(ICO), OCTA_MINUS),
        (cyclic(5), ICO),  # B has third and half turns, A has neither
        (TETRA, OCTA_MINUS),  # B's improper elements have no match in A
        (ICO, ICO),  # every element of B is needed
    ], ids=str)
    def test_blocked_batch_equals_entrywise_reference(self, a, b, tol):
        from isoclips.oracle.verify import _conjugates

        A, B = realize(a), realize(b)
        frames = np.concatenate(
            [alignment_frames(a, b), random_rotations(100, np.random.default_rng(8))]
        )
        # The reference is over all of B; the plan's elements of B go in
        # frame-major and in element-major layout.
        BC = np.ascontiguousarray(np.einsum("fab,nbc,fdc->fnad", frames, B.elements, frames))
        expected = np.array([membership(A.elements, bc, tol) for bc in BC])
        needed, blocks = _plan(A.elements, B.elements, tol)
        assert np.array_equal(batch_membership(A.elements, BC[:, needed], tol, blocks), expected)
        BC = _conjugates(frames, B.elements[needed])
        assert np.array_equal(batch_membership(A.elements, BC, tol, blocks), expected)
        assert expected[0].any() and not expected.all()

    @pytest.mark.parametrize("a,b", [
        (cyclic(5), ICO), (TETRA, OCTA_MINUS), (d_v(4), d_h(8)), (z_minus(6), OCTA),
        (ICO, ICO),  # more rows than ROW_BUDGET: several chunks of frames
    ], ids=str)
    def test_plan_is_complete(self, a, b):
        # The plan that verify_clips builds covers every pair of elements
        # whose invariants lie within the window, and over chunks of frames
        # taken as verify_clips takes them its masks equal the entrywise
        # reference over all of B.
        from isoclips.oracle.kernels import ROW_BUDGET, invariants, match_window
        from isoclips.oracle.verify import _conjugates, _runs

        A, B = realize(a), realize(b)
        needed, blocks = match_plan(A.elements, _runs(a), _runs(b), MATCH_TOL)
        if a == b:
            assert sorted(needed.tolist()) == list(range(B.order))
        else:
            assert 0 < len(needed) < B.order
            assert len(set(needed.tolist())) == len(needed)
        assert [j0 for j0, _, _, _ in blocks] == [0] + [j1 for _, j1, _, _ in blocks[:-1]]
        assert blocks[-1][1] == len(needed)
        near = (np.abs(invariants(B.elements)[:, None] - invariants(A.elements))
                <= match_window(MATCH_TOL))
        covered = np.zeros_like(near)
        for j0, j1, rows, block_a in blocks:
            covered[np.ix_(needed[j0:j1], rows)] = True
            assert np.array_equal(block_a, A.elements[rows].reshape(-1, 9).T)
        assert near.any() and not (near & ~covered).any()

        frames = np.concatenate(
            [alignment_frames(a, b), random_rotations(200, np.random.default_rng(6))]
        )
        step = ROW_BUDGET // len(needed)
        chunks = [batch_membership(A.elements, _conjugates(frames[s:s + step], B.elements[needed]),
                                   MATCH_TOL, blocks)
                  for s in range(0, len(frames), step)]
        if a == b:
            assert len(chunks) > 2
        BC = np.einsum("fab,nbc,fdc->fnad", frames, B.elements, frames)
        expected = np.array([membership(A.elements, bc, MATCH_TOL) for bc in BC])
        assert np.array_equal(np.concatenate(chunks), expected)

    def test_plan_joins_runs_that_share_a_row(self):
        # Rotations about z near a quarter turn, whose invariants step by 0.9
        # window: A's three form one run, which partners both runs of B, and
        # each run of B holds an exact match.  Two blocks share A's rows, and
        # neither block's matches overwrite the other's.
        from isoclips.oracle.kernels import match_window

        tol = 1e-3
        angles = pi / 2 + 0.45 * match_window(tol) * np.arange(3)
        A = rotations(np.tile([0.0, 0.0, 1.0], (3, 1)), angles)
        B = A[[0, 2]]
        needed, blocks = _plan(A, B, tol)
        assert [sorted(rows.tolist()) for _, _, rows, _ in blocks] == [[0, 1, 2]] * 2
        # Turns about z keep every match; the random frame keeps none.
        frames = np.concatenate([rotations(np.tile([0.0, 0.0, 1.0], (3, 1)), [0.0, 0.7, 2.1]),
                                 random_rotations(1, np.random.default_rng(2))])
        BC = np.einsum("fab,nbc,fdc->fnad", frames, B[needed], frames)
        expected = np.array([membership(A, bc, tol) for bc in BC])
        assert expected.tolist() == [[True, False, True]] * 3 + [[False] * 3]
        assert np.array_equal(batch_membership(A, BC, tol, blocks), expected)

    def test_batch_rejects_tight_tolerance(self):
        A = realize(OCTA).elements
        with pytest.raises(ValueError):
            batch_membership(A, A[None], tol=1e-8, blocks=[])

    def test_batch_rejects_loose_tolerance(self):
        # At tol >= 1 the invariant window no longer separates determinants.
        A = realize(OCTA).elements
        with pytest.raises(ValueError):
            batch_membership(A, A[None], tol=1.0, blocks=[])

    def test_alignment_frames_are_rotations(self):
        frames = alignment_frames(TETRA, dihedral(3))
        assert np.array_equal(frames[0], np.eye(3))  # the identity comes first
        sample = frames[:: max(1, len(frames) // 17)]
        for f in sample:
            assert np.abs(f @ f.T - np.eye(3)).max() < 1e-9
            assert np.linalg.det(f) > 0
