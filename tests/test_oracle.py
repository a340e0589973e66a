import functools
from math import acos, atan2, cos, pi, sin

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
    alignment_frames,
    characteristic_axes,
    classify,
    find_witness,
    random_rotations,
    realize,
    rotation,
    rotation_between,
    verify_clips,
)
from isoclips.oracle.kernels import (batch_membership, closure_ok, invariant_runs, match_plan,
                                     membership)
from isoclips.oracle.realize import (ORTHO_TOL, PHI, _ico_elements, contains_minus_id,
                                     pi_image, rotations)


def validate(g, cls):
    """Check that the elements ``g`` are a group of orthogonal matrices of
    the order of ``cls``: orthogonality, determinants, the identity and
    closure."""
    gram = np.einsum("nji,njk->nik", g, g)
    assert np.abs(gram - np.eye(3)).max() <= ORTHO_TOL, "elements are not orthogonal"
    assert np.abs(np.abs(np.linalg.det(g)) - 1.0).max() <= ORTHO_TOL, "dets are not +-1"
    assert (np.abs(g - np.eye(3)).max(axis=(1, 2)) <= MATCH_TOL).any(), "identity missing"
    assert closure_ok(np.ascontiguousarray(g)), "not closed under products"
    assert len(g) == cls.order(), (len(g), cls.order())


def conjugate(g, f):
    """The elements ``f x f^T`` for x in ``g``, as a new array."""
    return np.ascontiguousarray(np.einsum("ab,nbc,dc->nad", f, g, f))


def intersect(g1, g2, tol=MATCH_TOL):
    """The elements of ``g1`` matching an element of ``g2`` within ``tol``;
    raises ``ValueError`` if they are not closed (within ``MATCH_TOL``)."""
    mask = membership(np.ascontiguousarray(g1), np.ascontiguousarray(g2), tol)
    out = np.ascontiguousarray(g1[mask])
    if not closure_ok(out):
        raise ValueError("intersection is not closed; tolerance mismatch")
    return out


def _plan(A, B):
    """The match plan of element arrays A and B."""
    return match_plan(invariant_runs(A), invariant_runs(B))


@functools.lru_cache(maxsize=None)
def _reference_steps(azimuth_frame, b):
    """Each alignment step from an azimuth frame of A, about its axis u,
    into B, derived without B's azimuth frames: B's axes turned by ``base``,
    then the azimuths about u of those off u read with scalar
    ``math.atan2``.  Per step (base, n, twists): the stabiliser order n of
    B's axis and every twist, the generic twists and all azimuth
    differences at equal cosines, rounded as ``round(x, 9)`` and sorted."""
    from isoclips.oracle.verify import (_GENERIC_TWISTS, _axes_of, _perpendicular,
                                        _unpack_azimuth_frame)

    u, _, _, cosines, azimuths = _unpack_azimuth_frame(azimuth_frame)
    e1, e2 = _perpendicular(u)
    axes = characteristic_axes(realize(b))
    steps = []
    for frame, n in _axes_of(b):
        v = _unpack_azimuth_frame(frame)[0]
        for sv in (v, -v):
            base = rotation_between(sv, u)
            ws = np.concatenate([axes @ base.T, -(axes @ base.T)])
            ws = ws[(ws @ e1) ** 2 + (ws @ e2) ** 2 >= 1e-14]
            b_azimuths = np.array([atan2(float(w @ e2), float(w @ e1)) for w in ws])
            ia, ib = np.nonzero(np.abs(cosines[:, None] - ws @ u) < 1e-6)
            differences = ((azimuths[ia] - b_azimuths[ib]) % (2 * pi)).tolist()
            twists = sorted(set(_GENERIC_TWISTS) | {round(x, 9) for x in differences})
            steps.append((base, n, twists))
    return steps


def _reference_frames(a, b, every_twist=False):
    """``alignment_frames(a, b)`` from ``_reference_steps``: the identity,
    then per step ``rotation(u, t) @ base`` over its twists t, keeping the
    first twist of each class modulo ``2 pi / n`` unless ``every_twist``."""
    from isoclips.oracle.verify import _IDENTITY, _axes_of

    blocks = []
    for frame, _ in _axes_of(a):
        u = np.frombuffer(frame)[:3]
        for base, n, twists in _reference_steps(frame, b):
            if not every_twist:
                period = 2 * pi / n
                units = round(period * 1e7)
                kept = {}
                for t in twists:
                    kept.setdefault(round(t % period * 1e7) % units, t)
                twists = list(kept.values())
            blocks.append(rotations(np.repeat(u[None], len(twists), axis=0), twists) @ base)
    return np.concatenate([_IDENTITY, *blocks])


def _every_twist_frames(a, b):
    """``alignment_frames(a, b)`` with every twist of each step kept."""
    return _reference_frames(a, b, every_twist=True)


def _reference_axes_of(cls):
    """``_axes_of`` by a second derivation: the orbit representatives from
    the images of every characteristic axis under every rotation of the
    group's rotation image, and each stabiliser order as the count of those
    rotations that fix its representative, halved when the group holds -I
    (x and -x have one image)."""
    from isoclips.oracle.verify import _azimuths, _off_axis, _perpendicular, _signed

    g = realize(cls)
    image = pi_image(g)
    axes = characteristic_axes(g)
    images = np.einsum("rij,aj->rai", image, axes)
    reps, seen = [], np.zeros(len(axes), dtype=bool)
    for i, u in enumerate(axes):
        if not seen[i]:
            reps.append(u)
            seen |= (np.abs(images @ u) > 1.0 - 1e-7).any(axis=0)
    signed = _signed(axes)
    out = []
    for u in reps:
        e1, e2 = _perpendicular(u)
        ws = signed[_off_axis(signed, e1, e2)]
        fixed = int((np.abs(image @ u - u).max(axis=1) < 1e-7).sum())
        out.append((u.tobytes() + e1.tobytes() + e2.tobytes() + (ws @ u).tobytes()
                    + _azimuths(ws, e1, e2).tobytes(),
                    fixed // (2 if contains_minus_id(g) else 1)))
    return tuple(out)


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

# Orders over 120.
LARGE_SAMPLE = [
    cyclic(121),
    dihedral(61),
    d_v(61),
    z_minus(122),
    d_h(124),
    type_ii(dihedral(61)),
]


def _finite_classes(bound):
    """Every finite class of each ``_KINDS`` row with a parameter up to
    ``bound``, and the type II lift of each rotation class among them."""
    from isoclips.groups import _KINDS, normalize

    out = set()
    for kind, row in _KINDS.items():
        if row.order is not None:
            for n in range(1, bound + 1):
                try:
                    out.add(normalize(kind, n))
                except ValueError:  # an odd parameter of Z2n^- or D2n^h
                    pass
    out |= {type_ii(c) for c in out if c.is_type_i}
    return sorted(out)


def _reference_axis(R):
    """The axis of one non-identity rotation, read one element at a time:
    the reference for the array form of ``classify``."""
    angle = acos(np.clip((np.trace(R) - 1.0) / 2.0, -1.0, 1.0))
    if pi - angle < 1e-7:
        M = (R + np.eye(3)) / 2.0
        k = int(np.argmax(np.diag(M)))
        u = M[:, k] / np.sqrt(max(M[k, k], 1e-12))
    else:
        u = np.array([R[2, 1] - R[1, 2], R[0, 2] - R[2, 0], R[1, 0] - R[0, 1]])
    u = u / np.linalg.norm(u)
    for comp in u:
        if abs(comp) > 1e-8:
            return -u if comp < 0 else u
    return u


def _reference_clusters(rotations):
    """Axis clusters built one element at a time: each element joins the
    first cluster whose axis is within 1e-12 of its own, or opens one."""
    clusters = []
    for R in rotations:
        if np.abs(R - np.eye(3)).max() <= MATCH_TOL:
            continue
        u = _reference_axis(R)
        for i, (v, c) in enumerate(clusters):
            if abs(float(u @ v)) > 1.0 - 1e-12:
                clusters[i] = (v, c + 1)
                break
        else:
            clusters.append((u, 1))
    return clusters


class TestRealize:
    @pytest.mark.parametrize("cls", FINITE_SAMPLE, ids=str)
    def test_group_axioms_and_order(self, cls):
        g = realize(cls)
        validate(g, cls)

    def test_every_finite_kind_is_a_group_of_its_order(self):
        # The canonical groups are checked here, not at run time: every
        # finite row of _KINDS to parameter 40, each type II lift, and a few
        # large parameters.
        from isoclips.groups import _KINDS

        classes = _finite_classes(40) + [
            cyclic(1000), dihedral(500), z_minus(1000), d_v(500), d_h(1000),
            type_ii(cyclic(500)),
        ]
        kinds = {c.kind for c in classes}
        assert kinds == {k for k, row in _KINDS.items() if row.order is not None} | {"type_ii"}
        for cls in classes:
            validate(realize(cls), cls)

    def test_validate_catches_a_broken_group(self):
        g = realize(dihedral(4))
        with pytest.raises(AssertionError, match="order"):
            validate(g, dihedral(5))
        with pytest.raises(AssertionError, match="closed"):
            validate(np.ascontiguousarray(g[:5]), TRIV)
        with pytest.raises(AssertionError, match="identity"):
            validate(np.ascontiguousarray(g[1:]), TRIV)
        with pytest.raises(AssertionError, match="orthogonal"):
            validate(g * 1.01, dihedral(4))

    def test_infinite_rejected(self):
        from isoclips import O2, O2_MINUS, SO2, SO3

        for cls in (SO2, O2, SO3, O2_MINUS):
            with pytest.raises(ValueError):
                realize(cls)

    def test_type_iii_structure(self):
        for cls in (z_minus(6), d_v(4), d_h(8), OCTA_MINUS):
            g = realize(cls)
            assert not contains_minus_id(g)
            assert (np.linalg.det(g) < 0).any()

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
        assert len(g) == 4
        for e in expected:
            assert any(np.abs(e - m).max() < 1e-9 for m in g)

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

    def test_cyclic_and_dihedral_builders_equal_per_element_rotations(self):
        # Reference: one ``rotation`` call per element, the turns about z
        # and then the half turns about the secondary axes.
        from isoclips.oracle.realize import Z, _cyclic_elements, _dihedral_elements

        for n in [*range(1, 41), 1000]:
            turns = np.array([rotation(Z, 2.0 * pi * j / n) for j in range(n)])
            halves = np.array([rotation([cos(j * pi / n), sin(j * pi / n), 0.0], pi)
                               for j in range(n)])
            assert _cyclic_elements(n).tobytes() == turns.tobytes(), n
            assert _dihedral_elements(n).tobytes() == np.concatenate([turns, halves]).tobytes(), n

    def test_large_type_iii_realize_memory(self):
        import tracemalloc

        from isoclips.oracle.realize import _canonical

        cls = d_h(1000)
        _canonical.cache_clear()
        tracemalloc.start()
        try:
            G = realize(cls)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(G) == cls.order()
        # The minus coset looks the elements of H up in L by sorted key; the
        # dense comparison of 256 elements at a time against all of L took
        # 55 MB.
        assert peak < 8 * 2**20

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
        got = _ico_elements()
        assert got.shape == reference.shape == (60, 3, 3)
        assert got.dtype == reference.dtype
        assert got.tobytes() == reference.tobytes()

    def test_frame_conjugation(self):
        f = rotation([3, 1, 2], 1.1)
        g = conjugate(realize(OCTA), f)
        validate(g, OCTA)
        assert classify(g) == OCTA

    @pytest.mark.parametrize("cls", [TRIV, OCTA, d_h(6), type_ii(dihedral(3))], ids=str)
    def test_canonical_group_is_shared_and_read_only(self, cls):
        g = realize(cls)
        assert realize(cls) is g
        with pytest.raises(ValueError):
            g[0, 0, 0] = 2.0
        with pytest.raises(ValueError):
            np.negative(g, out=g)
        validate(realize(cls), cls)


class TestClassify:
    @pytest.mark.parametrize("cls", FINITE_SAMPLE + LARGE_SAMPLE, ids=str)
    def test_round_trip_random_frames(self, cls):
        rng = np.random.default_rng(5)
        for f in random_rotations(20, rng):
            assert classify(conjugate(realize(cls), f)) == cls

    @pytest.mark.parametrize("n", [2222, 5000])
    def test_large_dihedral_axes_stay_apart(self, n):
        # The secondary axes of Dn lie pi/n apart, under 1.4e-3 rad here.
        f = random_rotations(1, np.random.default_rng(n))[0]
        assert classify(realize(dihedral(n))) == dihedral(n)
        assert classify(conjugate(realize(dihedral(n)), f)) == dihedral(n)
        assert len(characteristic_axes(realize(dihedral(n)))) == n + 1

    def test_large_cyclic_angles_in_a_random_frame(self):
        # Near a half turn, the arccos of the trace loses about 2e-8 rad,
        # 2.5e-4 of a step of Z60000.
        f = random_rotations(1, np.random.default_rng(1))[0]
        assert classify(conjugate(realize(cyclic(60000)), f)) == cyclic(60000)

    def test_identity_only(self):
        assert classify(np.eye(3)[None]) == TRIV

    def test_tetra_from_elements(self):
        assert classify(realize(TETRA)) == TETRA

    def test_axes_and_clusters_equal_elementwise_reference(self):
        # The clusters feed the alignment frames, so their order, counts and
        # axes must be those of the element-by-element loop, bit for bit.
        from isoclips.oracle.classify import _axis_clusters, _rotation_axes

        images = [pi_image(realize(c)) for c in _finite_classes(40)]
        R = np.concatenate(images + [random_rotations(5000, np.random.default_rng(1))])
        R = R[np.abs(R - np.eye(3)).max(axis=(1, 2)) > MATCH_TOL]
        expected = np.array([_reference_axis(r) for r in R])
        assert np.array_equal(_rotation_axes(R).view(np.int64), expected.view(np.int64))
        for image in images:
            got, ref = _axis_clusters(image), _reference_clusters(image)
            assert [c for _, c in got] == [c for _, c in ref]
            assert all(np.array_equal(u, v) for (u, _), (v, _) in zip(got, ref))

    @pytest.mark.parametrize("mats", [
        [np.eye(3), rotation([0, 0, 1], 1.0)],  # axial, but not a group
        [rotation(a, pi) for a in np.eye(3)],  # the half turns of D2 without I
        [np.eye(3), -np.eye(3), rotation([0, 0, 1], pi)],  # -I, proper part not half
        [np.eye(3), rotation([0, 0, 1], pi), np.diag([1.0, 1.0, -1.0])],  # no -I, not index 2
    ], ids=["axial_not_cyclic", "no_signature", "minus_id_not_half", "not_index_2"])
    def test_refuses_sets_that_are_not_groups(self, mats):
        with pytest.raises(ValueError):
            classify(np.array(mats))


class TestIntersect:
    def test_self(self):
        g = realize(OCTA)
        assert len(intersect(g, g)) == 24

    def test_octa_twisted_face_axis(self):
        g1 = realize(OCTA)
        g2 = conjugate(realize(OCTA), rotation([0, 0, 1], pi / 6))
        got = intersect(g1, g2)
        assert len(got) == 4
        assert classify(got) == cyclic(4)

    def test_tetra_quarter_turn_normalizes(self):
        # A quarter turn about a coordinate axis normalizes the tetrahedral
        # group, so the intersection is everything.
        g1 = realize(TETRA)
        g2 = conjugate(realize(TETRA), rotation([0, 0, 1], pi / 2))
        got = intersect(g1, g2)
        assert len(got) == 12
        assert classify(got) == TETRA

    def test_generic_frame_gives_trivial(self):
        g1 = realize(ICO)
        g2 = conjugate(realize(ICO), rotation([1, 0.3, 0.71], 0.83))
        assert len(intersect(g1, g2)) == 1


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
            assert classify(intersect(A, conjugate(A, f))) == target

    def test_d2_witness_in_octa_ico(self):
        f = find_witness(OCTA, ICO, dihedral(2))
        assert f is not None
        got = intersect(realize(OCTA), conjugate(realize(ICO), f))
        assert classify(got) == dihedral(2)

    def test_tetra_witness_in_ico_ico(self):
        # An element of the tetrahedral normalizer outside I shares exactly T.
        A = realize(ICO)
        B = conjugate(A, rotation([0, 0, 1], pi / 2))
        got = intersect(A, B)
        assert classify(got) == TETRA

    def test_octa_minus_self_membership(self):
        got = intersect(realize(OCTA_MINUS), realize(OCTA_MINUS))
        assert classify(got) == OCTA_MINUS

    def test_d3v_witness_in_octa_minus_square(self):
        A = realize(OCTA_MINUS)
        B = conjugate(A, rotation([1, 1, 1], pi / 3))
        got = intersect(A, B)
        assert classify(got) == d_v(3)

    def test_z2_and_z2_minus_witnesses_in_dh_dh(self):
        A = realize(d_h(6))
        for target in (cyclic(2), z_minus(2), d_v(2)):
            f = find_witness(d_h(6), d_h(6), target)
            assert f is not None, target
            assert classify(intersect(A, conjugate(A, f))) == target

    def test_z2_minus_witness_in_dh_dv_even(self):
        A, B = realize(d_h(4)), realize(d_v(2))
        f = find_witness(d_h(4), d_v(2), z_minus(2))
        assert f is not None
        assert classify(intersect(A, conjugate(B, f))) == z_minus(2)


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
            len(intersect(A, conjugate(B, f))) == len(B)
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
        # on every ordered cell of the finite classes to parameter 24.
        classes = [TRIV, TETRA, OCTA, ICO, OCTA_MINUS]
        classes += [f(n) for f in (cyclic, dihedral, d_v) for n in range(2, 25)]
        classes += [z_minus(p) for p in range(2, 25, 2)] + [d_h(p) for p in range(4, 25, 2)]
        assert len(classes) == 97
        failures = [
            (str(a), str(b), rep.missing.render(), rep.extra.render())
            for a in classes for b in classes
            for rep in [verify_clips(a, b, samples=0)]
            if rep.verdict != "pass"
        ]
        assert failures == []

    @pytest.mark.parametrize("a,b", [
        (dihedral(61), dihedral(61)),
        (cyclic(121), cyclic(121)),
        (dihedral(120), dihedral(90)),
        (d_v(61), d_v(61)),
        (d_h(124), d_h(62)),
    ], ids=str)
    def test_large_orders_pass_without_samples(self, a, b):
        # Intersections of order over 120 classify like any other.
        assert verify_clips(a, b, samples=0).verdict == "pass"

    def test_twists_modulo_the_stabiliser_keep_every_witness(self):
        # A step drops a twist only after a kept one of the same class
        # modulo 2 pi / n_sv, which conjugates B alike; so on every cell the
        # kept frames reach the classes of every twist, each with the same
        # first frame.
        from isoclips.oracle.verify import _witnesses

        classes = [TRIV, TETRA, OCTA, ICO, OCTA_MINUS]
        classes += [f(n) for f in (cyclic, dihedral, d_v) for n in range(2, 13)]
        classes += [z_minus(p) for p in range(2, 13, 2)] + [d_h(p) for p in range(4, 13, 2)]
        assert len(classes) == 49
        diffs = []
        for i, a in enumerate(classes):
            for b in classes[i:]:
                kept = _witnesses(a, b, alignment_frames(a, b), 0, 0)
                every = _witnesses(a, b, _every_twist_frames(a, b), 0, 0)
                if kept.keys() != every.keys() or any(
                        not np.array_equal(kept[c], every[c]) for c in every):
                    diffs.append((str(a), str(b)))
        assert diffs == []

    def test_alignment_frames_equal_direct_derivation(self):
        # B's side of each step read from B's azimuth frames plus one phase
        # gives, bit for bit, the frames of B's axes turned by base and read
        # about u, on every ordered cell.
        classes = [TRIV, TETRA, OCTA, ICO, OCTA_MINUS]
        classes += [f(n) for f in (cyclic, dihedral, d_v) for n in range(2, 13)]
        classes += [z_minus(p) for p in range(2, 13, 2)] + [d_h(p) for p in range(4, 13, 2)]
        assert len(classes) == 49
        diffs = [
            (str(a), str(b)) for a in classes for b in classes
            if not np.array_equal(alignment_frames(a, b).view(np.int64),
                                  _reference_frames(a, b).view(np.int64))
        ]
        assert diffs == []

    @pytest.mark.parametrize("cls,orders", [
        (cyclic(6), (6,)), (dihedral(6), (6, 2, 2)), (TETRA, (2, 3)), (OCTA, (4, 3, 2)),
        (OCTA_MINUS, (4, 3, 2)), (ICO, (5, 3, 2)), (z_minus(6), (6,)), (d_h(8), (8, 2, 2)),
        (TRIV, (1,)), (type_ii(OCTA), (4, 3, 2)),
    ], ids=str)
    def test_stabiliser_orders(self, cls, orders):
        # Per axis orbit representative: the rotations of the class's
        # rotation image that fix it, each counted once.
        from isoclips.oracle.verify import _axes_of

        assert tuple(n for _, n in _axes_of(cls)) == orders

    def test_axes_of_equals_orbit_reference(self):
        # One clustering pass gives the frames and stabiliser orders of the
        # per-axis derivation, bit for bit, on every class to parameter 40.
        from isoclips.oracle.verify import _axes_of

        diffs = [str(c) for c in _finite_classes(40) if _axes_of(c) != _reference_axes_of(c)]
        assert diffs == []

    def test_axes_of_memory(self):
        import tracemalloc

        from isoclips.oracle.verify import _axes_of

        realize(dihedral(1000))
        _axes_of.cache_clear()
        tracemalloc.start()
        try:
            _axes_of(dihedral(1000))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # Each orbit is an (axes, rotations) array: 16 MB here.  The image of
        # every axis under every rotation would take 48 MB alone.
        assert peak < 48 * 2**20

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
        # Per-frame reference over the curated frames of every twist, the
        # random frames and the generic frame: each class's witness is the
        # first frame whose intersection has that class (with the same tight
        # retry).
        from isoclips.oracle.kernels import ROW_BUDGET
        from isoclips.oracle.verify import _GENERIC_FRAME

        A, B = realize(a), realize(b)
        if a == b == ICO:  # 506 frames: verify_clips takes them in many chunks
            assert len(alignment_frames(a, b)) + 200 + 1 == 506
            assert 506 * len(B) > 7 * ROW_BUDGET
        frames = (list(_every_twist_frames(a, b))
                  + list(random_rotations(200, np.random.default_rng(seed)))
                  + list(_GENERIC_FRAME))
        first = {}
        for f in frames:
            Bf = conjugate(B, f)
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

        from isoclips.oracle.verify import _shared_factor

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
        # The run's 196 pieces of shared factor stream through a bounded cache.
        info = _shared_factor.cache_info()
        assert info.misses > info.maxsize and info.currsize <= info.maxsize

    def test_random_rotation_draw_peak(self):
        import tracemalloc

        # The draw keeps 72 bytes a sample and needs the (n, 4) quaternions
        # (32 more) and a few (n,) products beside it: about 120 bytes a
        # sample.  Stacking rows before the final (n, 3, 3) array took 176.
        samples = 50_000
        random_rotations(10, np.random.default_rng(0))
        tracemalloc.start()
        try:
            random_rotations(samples, np.random.default_rng(2))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / samples < 140


class TestSweepCaches:
    """The per-process caches of ``verify`` give what a fresh computation
    gives, whatever ran before."""

    CACHES = ("_subset_class", "_steps", "_frame_block", "_axes_of", "_random_frames",
              "_shared_factor", "_runs")

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
        from isoclips.oracle.verify import _subset_class

        self._clear()
        A, B = realize(a), realize(b)
        frames = np.concatenate(
            [alignment_frames(a, b), random_rotations(200, np.random.default_rng(0))]
        )
        BC = np.einsum("fab,nbc,fdc->fnad", frames, B, frames)
        needed, blocks = _plan(A, B)
        masks = np.unique(batch_membership(A, BC[:, needed], blocks), axis=0)
        for mask in masks:
            packed = np.packbits(mask).tobytes()
            mats = np.ascontiguousarray(A[mask])
            expected = classify(mats) if closure_ok(mats) else None
            for _ in range(2):  # a miss, then a hit
                assert _subset_class(a, packed) == expected
        assert _subset_class.cache_info().hits > 0

    @pytest.mark.parametrize("a,b,samples,seed,case", [
        (cyclic(6), cyclic(4), 200, 0, "one_chunk"),  # a random frame is a witness
        (ICO, ICO, 200, 0, "cut_curated"),
        (OCTA, OCTA, 300, 5, "cross_piece"),
        (cyclic(6), cyclic(4), 0, 0, "no_samples"),  # the generic frame is a witness
    ], ids=str)
    def test_shared_pieces_equal_direct_conjugates(self, a, b, samples, seed, case):
        # Every frame conjugated directly, one mask per frame, each distinct
        # mask classified at its first frame: the same classes and the same
        # witness frames, bit for bit, as the shared frames' cached pieces.
        from isoclips.oracle.kernels import ROW_BUDGET
        from isoclips.oracle.verify import (_GENERIC_FRAME, _PIECE, _classify_mask, _conjugates,
                                            _runs, _shared_factor)

        self._clear()
        A, B = realize(a), realize(b)
        curated = alignment_frames(a, b)
        frames = np.concatenate([curated, random_rotations(samples, np.random.default_rng(seed)),
                                 _GENERIC_FRAME])
        needed, blocks = match_plan(_runs(a), _runs(b))
        step = ROW_BUDGET // len(needed)
        starts = range(0, len(frames), step)
        if case == "one_chunk":
            assert len(frames) <= step
        elif case == "cut_curated":
            assert len(curated) > step and any(s < len(curated) < s + step for s in starts)
        elif case == "cross_piece":
            assert samples + 1 > _PIECE
            assert any(s < len(curated) + _PIECE < s + step for s in starts)
        BC = np.einsum("fab,nbc,fdc->fnad", frames, B[needed], frames)
        for s in starts:
            e = min(s + step, len(frames))
            chunk = _conjugates(B[needed], curated, samples, seed, s, e)
            assert np.allclose(chunk, BC[s:e], rtol=0.0, atol=1e-12), s
        first, seen = {}, set()
        for f, mask in enumerate(batch_membership(A, BC, blocks)):
            packed = np.packbits(mask).tobytes()
            if packed not in seen:
                seen.add(packed)
                first.setdefault(_classify_mask(a, packed, BC[f]), f)
        if case == "one_chunk":
            assert len(curated) <= max(first.values()) < len(frames) - 1
        elif case == "no_samples":
            assert len(frames) - 1 in first.values()

        rep = verify_clips(a, b, samples=samples, seed=seed)
        assert rep.observed == ClassSet(first)
        for c, f in first.items():
            assert np.array_equal(rep.witnesses[c].view(np.int64), frames[f].view(np.int64)), c
        assert _shared_factor.cache_info().currsize == -(-(samples + 1) // _PIECE)
        if samples == 0:
            for c, f in first.items():
                assert np.array_equal(find_witness(a, b, c).view(np.int64),
                                      frames[f].view(np.int64)), c

    def test_shared_arrays_cannot_be_made_writeable(self):
        # Each is shared by every later caller: setting the flag back would
        # let one caller change what all of them read.
        from isoclips.oracle import kernels, verify

        self._clear()
        verify_clips(OCTA, d_h(6), samples=10, seed=0)
        frame, _ = verify._axes_of(OCTA)[0]
        shared = [realize(OCTA), realize(ICO), kernels._KEY, verify._IDENTITY,
                  verify._GENERIC_FRAME, verify._steps(frame, d_h(6))[0],
                  verify._random_frames(10, 0), verify._shared_factor(10, 0, 0),
                  *verify._runs(OCTA)]
        for x in shared:
            with pytest.raises(ValueError):
                x.flags.writeable = True
        assert realize(OCTA)[0].tolist() == np.eye(3).tolist()

    def test_kernel_calls_go_through_the_kernels_module(self, monkeypatch):
        # The benchmark's tracer counts calls by wrapping these two names in
        # the kernels module, so verify must look them up there.
        from isoclips.oracle import kernels
        from isoclips.oracle.verify import _classify_mask

        calls = {"closure_ok": 0, "membership": 0}

        def counting(name):
            inner = getattr(kernels, name)

            def wrapper(*args):
                calls[name] += 1
                return inner(*args)
            return wrapper

        for name in calls:
            monkeypatch.setattr(kernels, name, counting(name))
        self._clear()
        assert verify_clips(cyclic(4), dihedral(4), samples=20, seed=0).verdict == "pass"
        # A forced tight retry, as in the test below.
        A = realize(OCTA)
        mask = ((np.abs(A - rotation([0, 0, 1], pi / 2)).max(axis=(1, 2)) < 1e-12)
                | (np.abs(A - np.eye(3)).max(axis=(1, 2)) < 1e-12))
        assert _classify_mask(OCTA, np.packbits(mask).tobytes(), realize(cyclic(4))) == cyclic(4)
        assert calls["closure_ok"] > 0 and calls["membership"] > 0

    def test_open_subset_takes_its_own_tight_retry(self):
        from isoclips.oracle.verify import _classify_mask, _subset_class

        self._clear()
        A = realize(OCTA)
        quarter = np.abs(A - rotation([0, 0, 1], pi / 2)).max(axis=(1, 2)) < 1e-12
        identity = np.abs(A - np.eye(3)).max(axis=(1, 2)) < 1e-12
        mask = quarter | identity  # {1, r}: not closed, r^2 is missing
        assert mask.sum() == 2
        packed = np.packbits(mask).tobytes()
        # The same subset with three different frames: each frame's own
        # conjugated B decides the tight retry.
        Z4, Z2 = realize(cyclic(4)), realize(cyclic(2))
        assert _classify_mask(OCTA, packed, Z4) == cyclic(4)
        assert _classify_mask(OCTA, packed, Z2) == cyclic(2)
        with pytest.raises(ValueError):
            _classify_mask(OCTA, packed, A[mask])
        assert _classify_mask(OCTA, packed, Z4) == cyclic(4)
        # Only the subset's own verdict is cached: it is not closed.
        assert _subset_class.cache_info().currsize == 1 and _subset_class(OCTA, packed) is None

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
        BC = np.ascontiguousarray(np.einsum("fab,nbc,fdc->fnad", frames, B, frames))
        needed, blocks = _plan(A, B)
        masks = batch_membership(A, BC[:, needed], blocks)
        expected = np.array([membership(A, bc, MATCH_TOL) for bc in BC])
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
        G = realize(cls)
        n = len(G)
        hit = self._hits(G)
        assert hit.any(axis=1).all() and closure_ok(G)
        part = G[: n // 3]
        assert not self._hits(part).any(axis=1).all() and not closure_ok(part)

    @pytest.mark.parametrize("cls", [ICO, type_ii(ICO)], ids=str)
    def test_closure_equals_match_table_reference(self, cls):
        G = realize(cls)
        rng = np.random.default_rng(4)
        subsets = [G, G[:60], G[: len(G) // 3]]  # closed, closed, open
        subsets += [G[rng.random(len(G)) < p] for p in (0.3, 0.6, 0.9, 0.97)]
        for H in subsets:
            H = np.ascontiguousarray(H)
            expected = self._hits(H).any(axis=1).all()
            assert closure_ok(H) == expected, len(H)

    @pytest.mark.parametrize("cls", [cyclic(200), dihedral(100)], ids=str)
    def test_closure_of_large_groups(self, cls):
        G = realize(cls)
        assert len(G) == 200 and closure_ok(G)
        # Move the half turn about z by d in entry (0, 2).  Its square stays
        # I, its other products move by at most d, and the products that
        # give the half turn stay where they were.
        half = np.flatnonzero(np.abs(G - rotation([0, 0, 1], pi)).max(axis=(1, 2)) < 1e-12)
        assert len(half) == 1
        for d, closed in [(2 * MATCH_TOL, False), (MATCH_TOL / 2, True)]:
            moved = G.copy()
            moved[half[0], 0, 2] += d
            assert closure_ok(moved) == closed, d

    def test_closure_memory_is_bounded(self):
        import tracemalloc

        # closure_ok looks the 14400 products up by sorted key; comparing
        # all of them with every element at once would take 124 MB.
        G = np.ascontiguousarray(realize(type_ii(ICO)))
        tracemalloc.start()
        try:
            assert closure_ok(G)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2**20

    @staticmethod
    def _dense_membership(A, B, tol):
        # Reference: each element of A against every element of B.
        return np.array([(np.abs(B - x).max(axis=(1, 2)) <= tol).any() for x in A], dtype=bool)

    @pytest.mark.parametrize("tol", [MATCH_TOL, MATCH_TOL / 100, ORTHO_TOL * 10],
                             ids=["MATCH_TOL", "MATCH_TOL/100", "ORTHO_TOL*10"])
    def test_membership_equals_dense_reference(self, tol):
        # Elements of B with one entry moved by +-tol/2 (a match) or +-2 tol
        # (none), and random rotations (none).
        rng = np.random.default_rng(12)
        B = realize(type_ii(ICO))
        m = 400
        A = B[rng.integers(0, len(B), m)].copy()
        shift = rng.choice([-2.0, -0.5, 0.5, 2.0], m) * tol
        A.reshape(m, 9)[np.arange(m), rng.integers(0, 9, m)] += shift
        A = np.concatenate([A, random_rotations(50, rng)])
        expected = self._dense_membership(A, B, tol)
        assert np.array_equal(expected[:m], np.abs(shift) < tol) and not expected[m:].any()
        assert np.array_equal(membership(A, B, tol), expected)

    @pytest.mark.parametrize("tol", [MATCH_TOL, MATCH_TOL / 100, ORTHO_TOL * 10],
                             ids=["MATCH_TOL", "MATCH_TOL/100", "ORTHO_TOL*10"])
    def test_membership_over_near_keys(self, tol):
        # B: a rotation R with one entry moved by +-2 tol, 18 members at
        # least 2 tol apart whose keys lie within one reach of each other, so
        # the candidate loop takes many rounds.  A: near the members, and R
        # moved by up to 4 tol in every entry.
        from isoclips.oracle.kernels import _KEY

        R = rotation([1.0, 2.0, 3.0], 0.7)
        B = np.repeat(R[None], 18, axis=0)
        B.reshape(18, 9)[np.arange(18), np.arange(18) % 9] += np.repeat([-2.0, 2.0], 9) * tol
        rng = np.random.default_rng(13)
        A = R + rng.uniform(-4.0, 4.0, size=(2000, 3, 3)) * tol
        A[:18] = B + rng.uniform(-0.9, 0.9, size=(18, 3, 3)) * tol
        reach = np.abs(_KEY).sum() * tol
        keys = B.reshape(-1, 9) @ _KEY
        assert keys.max() - keys.min() < reach
        candidates = (np.abs(A.reshape(-1, 9) @ _KEY - keys[:, None]) <= reach).sum(axis=0)
        assert candidates.max() > 1
        expected = self._dense_membership(A, B, tol)
        assert expected[:18].all() and not expected.all()
        assert np.array_equal(membership(A, B, tol), expected)

    @pytest.mark.parametrize("tol", [MATCH_TOL], ids=str)
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
        curated = alignment_frames(a, b)
        frames = np.concatenate([curated, random_rotations(100, np.random.default_rng(8))])
        # The reference is over all of B, entrywise at tol; the plan's
        # elements of B go in frame-major and in element-major layout.
        BC = np.ascontiguousarray(np.einsum("fab,nbc,fdc->fnad", frames, B, frames))
        expected = np.array([membership(A, bc, tol) for bc in BC])
        needed, blocks = _plan(A, B)
        assert np.array_equal(batch_membership(A, BC[:, needed], blocks), expected)
        BC = _conjugates(B[needed], curated, 100, 8, 0, len(frames))
        assert np.array_equal(batch_membership(A, BC, blocks), expected)
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
        from isoclips.oracle.kernels import MATCH_WINDOW, ROW_BUDGET, invariants
        from isoclips.oracle.verify import _conjugates, _runs

        A, B = realize(a), realize(b)
        needed, blocks = match_plan(_runs(a), _runs(b))
        if a == b:
            assert sorted(needed.tolist()) == list(range(len(B)))
        else:
            assert 0 < len(needed) < len(B)
            assert len(set(needed.tolist())) == len(needed)
        assert [j0 for j0, _, _, _ in blocks] == [0] + [j1 for _, j1, _, _ in blocks[:-1]]
        assert blocks[-1][1] == len(needed)
        near = (np.abs(invariants(B)[:, None] - invariants(A))
                <= MATCH_WINDOW)
        covered = np.zeros_like(near)
        for j0, j1, rows, block_a in blocks:
            covered[np.ix_(needed[j0:j1], rows)] = True
            assert np.array_equal(block_a, A[rows].reshape(-1, 9).T)
        assert near.any() and not (near & ~covered).any()

        curated = alignment_frames(a, b)
        frames = np.concatenate([curated, random_rotations(200, np.random.default_rng(6))])
        step = ROW_BUDGET // len(needed)
        chunks = [batch_membership(A,
                                   _conjugates(B[needed], curated, 200, 6, s,
                                               min(s + step, len(frames))),
                                   blocks)
                  for s in range(0, len(frames), step)]
        if a == b:
            assert len(chunks) > 2
        BC = np.einsum("fab,nbc,fdc->fnad", frames, B, frames)
        expected = np.array([membership(A, bc, MATCH_TOL) for bc in BC])
        assert np.array_equal(np.concatenate(chunks), expected)

    def test_plan_joins_runs_that_share_a_row(self):
        # Rotations about z near a quarter turn, whose invariants step by
        # 0.9 MATCH_WINDOW: A's three form one run, which partners both runs
        # of B, and each run of B holds an exact match.  Two blocks share A's
        # rows, and neither block's matches overwrite the other's.
        from isoclips.oracle.kernels import MATCH_WINDOW

        angles = pi / 2 + 0.45 * MATCH_WINDOW * np.arange(3)
        A = rotations(np.tile([0.0, 0.0, 1.0], (3, 1)), angles)
        B = A[[0, 2]]
        needed, blocks = _plan(A, B)
        assert [sorted(rows.tolist()) for _, _, rows, _ in blocks] == [[0, 1, 2]] * 2
        # Turns about z keep every match; the random frame keeps none.
        frames = np.concatenate([rotations(np.tile([0.0, 0.0, 1.0], (3, 1)), [0.0, 0.7, 2.1]),
                                 random_rotations(1, np.random.default_rng(2))])
        BC = np.einsum("fab,nbc,fdc->fnad", frames, B[needed], frames)
        expected = np.array([membership(A, bc, MATCH_TOL) for bc in BC])
        assert expected.tolist() == [[True, False, True]] * 3 + [[False] * 3]
        assert np.array_equal(batch_membership(A, BC, blocks), expected)

    @pytest.mark.parametrize("v,u", [
        ((1, 0, 0), (1, 0, 0)), ((0, 0, -1), (0, 0, -1)), ((0.6, 0, 0.8), (0.6, 0, 0.8)),
        ((1, 0, 0), (-1, 0, 0)), ((-1, 0, 0), (1, 0, 0)),  # the y fallback
        ((0, 0, 1), (0, 0, -1)), ((0, 0, -1), (0, 0, 1)),
        *(tuple(np.random.default_rng(seed).normal(size=(2, 3))) for seed in range(8)),
    ])
    def test_rotation_between(self, v, u):
        v, u = (np.asarray(x, dtype=float) / np.linalg.norm(x) for x in (v, u))
        R = rotation_between(v, u)
        assert np.abs(R @ R.T - np.eye(3)).max() < 1e-12
        assert abs(np.linalg.det(R) - 1.0) < 1e-12
        assert np.abs(R @ v - u).max() < 1e-12

    def test_alignment_frames_are_rotations(self):
        frames = alignment_frames(TETRA, dihedral(3))
        assert np.array_equal(frames[0], np.eye(3))  # the identity comes first
        sample = frames[:: max(1, len(frames) // 17)]
        for f in sample:
            assert np.abs(f @ f.T - np.eye(3)).max() < 1e-9
            assert np.linalg.det(f) > 0
