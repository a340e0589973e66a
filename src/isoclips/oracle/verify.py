"""Brute-force verification of clips rules against explicit matrix groups.

For a pair of finite classes the verifier intersects one fixed realization
with conjugated copies of the other over many frames and compares the set of
observed intersection classes with the symbolic rule output:

* random frames can only ever produce classes that the rule predicts
  (soundness);
* the curated alignment frames, axis-to-axis with twist angles solved so
  that secondary axes coincide, and one fixed generic frame must reach
  every predicted class (completeness witnesses).

Why these frames reach the class of every ``A n gBg^-1``.  Conjugation by
-g is conjugation by g, so g is a rotation.  Whether I and -I are in the
intersection does not depend on g; any other element lies on an axis that
A and gBg^-1 share, the axis of its rotation image ``det(h) h``.

* For a in A and b in B, ``A n (agb)B(agb)^-1 = a (A n gBg^-1) a^-1`` has
  the same class.  So a shared axis may be taken to be an orbit
  representative u of A's axes, met by a signed orbit representative sv
  of B's: g is ``rotation(u, t) @ base``, with ``base`` sending sv to u.
* A second shared pair of axes has equal cosines to u, and t is its
  azimuth difference about u, which the step lists (rounded to 1e-9).
* If u is the only shared axis, the elements of the intersection lie on u
  and commute with ``rotation(u, t)``, so it is the same at every t where
  no second pair of axes meets.  Those t are among the step's listed
  twists, with 0 when the canonical frames line up, so one of the three
  ``_GENERIC_TWISTS`` must miss them all.
* The rotations ``det(x) x`` of B's image that fix sv, n of them, are the
  turns ``R(sv, phi)`` by the multiples phi of ``2 pi / n``.  Each maps B
  onto itself by conjugation, as its x does, and ``rotation(u, t + phi) @
  base = rotation(u, t) @ base @ R(sv, phi)``, so twists ``2 pi / n`` apart
  give one intersection.  Each step keeps the first of its listed twists in
  each class modulo ``2 pi / n``.  A dropped twist comes after its kept twin
  in the same step, so it is never the first frame to reach a class, and
  the witnesses are those of the full list.
* With no shared axis the intersection is 1, or {I, -I} if both groups
  hold -I; ``_GENERIC_FRAME`` gives it.

The generic choices are measured, not proved.  Over every ordered pair of
finite classes to parameter 40, one generic twist of each step lies at
least 1.5e-4 rad from every listed twist, and in the generic frame every
axis of B lies at least 1.6e-3 rad from every axis of A; both margins
shrink as the parameters grow.  The generic frame comes after the random
frames, so it is the witness only of a class no other frame reaches.

Only work that can change a report is done.

* Conjugation keeps the ``invariants`` of an element, ``trace + 8 det``.
  ``|tr X - tr Y| <= sqrt(3) ||X - Y||_F``, and a det mismatch gives
  ``||X - Y||_F >= 2``, so two elements whose invariants are farther apart
  than ``MATCH_WINDOW`` (``2 sqrt(3) MATCH_TOL``) lie over
  ``2 MATCH_TOL`` apart in every frame.  Such a pair can pass neither the
  Frobenius test of ``batch_membership`` nor the entrywise test at
  ``MATCH_TOL / 100`` of the tight retry (entrywise within t gives
  Frobenius within 3t).  So each cell builds one match plan
  (``match_plan``) from the invariant runs of A and of B: only the
  elements of B in runs with a partner run of A are conjugated, and each
  run is compared only with the elements of A in its partner runs.  In a
  criterion-6 sweep that is 38.6% of B's elements and 12.2% of the element
  pairs.
* A cell's frames are its curated frames, then the shared frames: the
  random frames and the generic frame, alike in every cell at one seed.
  They go through in chunks of at most ``ROW_BUDGET`` (frame, element)
  rows, each conjugated by (9, 9 frames) Kronecker factors written into the
  columns of one product (``_conjugates``): the curated frames' factor is
  built per chunk, the shared frames' is read from cached pieces.  Each
  chunk's new masks are classified in the order of their first frame, and
  masks seen in an earlier chunk are skipped, so each class keeps its first
  frame as witness and each tight retry gets that frame's conjugates, as
  without chunks.  What stays O(samples) is the cached random frames, 72
  bytes a frame; the shared factor passes through a bounded cache.

A sweep over many cells repeats most of its work, so each distinct piece is
done once per process and kept in a bounded cache that holds a full
criterion-6 sweep.  Each cache is exact: its value is a function of its key
alone, so a hit returns what the computation would.  Classes are interned
(``groups``) and ``realize`` returns one read-only array of elements per
class, so a class stands for its group's elements in a key.

* ``_axes_of``: keyed on the class, one representative v per orbit of its
  group's characteristic axes, with its azimuth frame, as the bytes of v,
  of the pair (e1, e2) perpendicular to v, of the cosines to v and of the
  exact azimuths about v of the group's off-axis signed axes, and the order
  of its stabiliser.  All of it comes from one ``_axis_clusters`` pass over
  the group's rotation image: the axes, their orbits, and each stabiliser
  order as one more than the count on v's axis.  A step reads e1 and e2 of
  both its axes from these bytes; they are functions of v, so equal frames
  stay equal.
* ``_steps``: for an azimuth frame of A and the class of B, the frames of
  each alignment step: a signed B representative sv sent to u by ``base``,
  then twisted about u by the generic twists and by the azimuth differences
  of axes at equal cosines, one twist per class modulo sv's period.  B's
  side of a step comes from B's own azimuth frames plus one phase: ``base``
  sends the frame (e1, e2, sv) of sv onto that of u turned by some phi
  about u, so a B axis keeps its cosine to sv and its azimuth about sv plus
  phi.  -v has the e1 of v, so its cosines and azimuths are those of v
  with their signs changed.  The azimuth frame stays a byte key, as equal
  frames are shared across classes: a sweep meets 1248 distinct keys, which
  cover its 10242 steps, where keys on the class of A would be 2242.
* ``_frame_block``: the frames ``rotation(u, t) @ base`` over a step's
  twists, keyed on the bytes of u, base and the twists, so steps with equal
  ones, in any classes, share one array.  A sweep's 58727 curated frames
  (163775 with every twist) come from 964 blocks of 9014 frames in all.
* ``_random_frames``: ``random_rotations(samples, default_rng(seed))``, a
  function of (samples, seed); every cell at one seed draws the same frames.
  It keeps two keys, as the array grows with ``samples``.
* ``_shared_factor``: the Kronecker factor of the shared frames in pieces
  of ``_PIECE`` frames, keyed on (samples, seed, piece); the piece grid
  does not depend on the cell.  A criterion-6 sweep reads its 201 shared
  frames, 80% of its 306177 cell frames, from one piece built once.
* ``_runs``: the ``invariant_runs`` record of a class's elements, keyed on
  the class; a cell's plan joins the records of its two classes.
* ``_subset_class``: the class of a member subset, or None if it is not
  closed, keyed on the class of A and the packed member mask.  The subset
  determines both the closure test and the class.  The tight retry of a
  subset that is not closed depends on the frame that produced it, so it
  runs per frame and is never cached.  A sweep classifies 544 distinct
  subsets in 5155 distinct per-cell masks.
"""

from __future__ import annotations

import functools
import itertools
from math import atan2, pi
from typing import Dict, NamedTuple, Optional, Tuple

import numpy as np

from ..clips import clips_pair
from ..groups import ClassSet, SubgroupClass, needed_context, render_class
from .classify import _axis_clusters, classify, rotation_axis_angle
from . import kernels
from .kernels import ROW_BUDGET, batch_membership, invariant_runs, match_plan, read_only
from .realize import MATCH_TOL, contains_minus_id, pi_image, realize, rotation, rotations

_GENERIC_TWISTS = (0.0, 0.6180339887498949, 1.8392867552141612)
_IDENTITY = read_only(np.eye(3)[None])
_GENERIC_FRAME = read_only(
    rotation((0.3141592653589793, 0.2718281828459045, 0.9), 1.2345678901234567)[None])


def random_rotations(count: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform random rotation matrices via normalized quaternions.

    Each entry is written straight into the one ``(count, 3, 3)`` output."""
    q = rng.normal(size=(count, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    w, x, y, z = q.T
    R = np.empty((count, 3, 3))
    R[:, 0, 0] = 1 - 2 * (y * y + z * z)
    R[:, 0, 1] = 2 * (x * y - z * w)
    R[:, 0, 2] = 2 * (x * z + y * w)
    R[:, 1, 0] = 2 * (x * y + z * w)
    R[:, 1, 1] = 1 - 2 * (x * x + z * z)
    R[:, 1, 2] = 2 * (y * z - x * w)
    R[:, 2, 0] = 2 * (x * z - y * w)
    R[:, 2, 1] = 2 * (y * z + x * w)
    R[:, 2, 2] = 1 - 2 * (x * x + y * y)
    return R


def _cross(a, b) -> np.ndarray:
    """``np.cross`` of two 3-vectors, with the same products and
    differences, without its array set-up."""
    a0, a1, a2 = (float(x) for x in a)
    b0, b1, b2 = (float(x) for x in b)
    return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])


def rotation_between(v: np.ndarray, u: np.ndarray) -> np.ndarray:
    """A rotation sending unit vector v to unit vector u."""
    c = float(np.clip(v @ u, -1.0, 1.0))
    if c > 1.0 - 1e-12:
        return np.eye(3)
    if c < -1.0 + 1e-12:
        # Half turn about any axis perpendicular to v.
        perp = _cross(v, [1.0, 0.0, 0.0])
        if np.linalg.norm(perp) < 1e-8:
            perp = _cross(v, [0.0, 1.0, 0.0])
        return rotation(perp, pi)
    axis = _cross(v, u)
    return rotation(axis, float(np.arccos(c)))


def characteristic_axes(G: np.ndarray) -> np.ndarray:
    """Distinct axes of the rotation images det(x) x of the elements G;
    ``z`` for the groups without one."""
    axes = [u for u, _ in _axis_clusters(pi_image(G))]
    return np.array(axes or [[0.0, 0.0, 1.0]])


def _signed(axes: np.ndarray) -> np.ndarray:
    """Rows w0, -w0, w1, -w1, ...: every axis in both orientations."""
    return np.stack([axes, -axes], axis=1).reshape(-1, 3)


def _perpendicular(u: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """An orthonormal pair (e1, e2) spanning the plane perpendicular to u."""
    ref = np.array([1.0, 0.0, 0.0])
    if abs(float(u @ ref)) > 0.9:
        ref = np.array([0.0, 1.0, 0.0])
    e1 = ref - float(ref @ u) * u
    e1 /= np.linalg.norm(e1)
    return e1, _cross(u, e1)


def _off_axis(ws: np.ndarray, e1: np.ndarray, e2: np.ndarray) -> np.ndarray:
    """Rows with a defined azimuth in the plane (e1, e2)."""
    p1, p2 = ws @ e1, ws @ e2
    return p1 * p1 + p2 * p2 >= 1e-14


def _azimuths(ws: np.ndarray, e1: np.ndarray, e2: np.ndarray) -> np.ndarray:
    # Scalar dot products and math.atan2: the twists are rounded from these
    # exact values, which numpy's vectorised forms can miss by an ulp.
    return np.array([atan2(float(w @ e2), float(w @ e1)) for w in ws])


def _unpack_azimuth_frame(key: bytes) -> Tuple[np.ndarray, ...]:
    """(u, e1, e2, cosines, azimuths) from the bytes of an azimuth frame."""
    data = np.frombuffer(key)
    half = (len(data) - 9) // 2
    return data[:3], data[3:6], data[6:9], data[9:9 + half], data[9 + half:]


@functools.lru_cache(maxsize=256)
def _axes_of(cls: SubgroupClass) -> Tuple[Tuple[bytes, int], ...]:
    """Per axis orbit of the class's canonical group, one representative u:
    its azimuth frame, the bytes of u, of ``_perpendicular(u)`` (e1, e2), of
    the cosines to u and of the exact azimuths about u of the group's
    off-axis signed axes; and the order of its stabiliser in the group's
    rotation image: the identity and the rotations about u."""
    G = realize(cls)
    image = pi_image(G)
    clusters = _axis_clusters(image) or [(np.array([0.0, 0.0, 1.0]), 0)]
    axes = np.array([u for u, _ in clusters])
    signed = _signed(axes)
    # In a group with -I, x and -x have one image, so each rotation is
    # counted twice; the identity is in no cluster.
    twice = 2 if contains_minus_id(G) else 1
    seen = np.zeros(len(axes), dtype=bool)
    out = []
    for i, (u, count) in enumerate(clusters):
        if seen[i]:
            continue
        # u's orbit: the axes through an image of u.
        seen |= (np.abs(axes @ (image @ u).T) > 1.0 - 1e-7).any(axis=1)
        e1, e2 = _perpendicular(u)
        ws = signed[_off_axis(signed, e1, e2)]
        frame = (u.tobytes() + e1.tobytes() + e2.tobytes() + (ws @ u).tobytes()
                 + _azimuths(ws, e1, e2).tobytes())
        out.append((frame, count // twice + 1))
    return tuple(out)


def _round9(d: np.ndarray) -> np.ndarray:
    """``round(x, 9)`` of each finite element, bit for bit as Python
    computes it.

    Python rounds the exact value of x * 10**9 to an integer n, ties to even,
    and returns the double nearest to n / 10**9.  The product in floating
    point is off by at most half an ulp, under 1e-5 while |x * 10**9| < 1e11,
    so ``rint`` finds the same n unless the fraction lies within 1e-5 of a
    half; n and 1e9 are exact doubles, so the division rounds n / 10**9 once,
    to nearest.  The elements left over take Python's ``round``.
    """
    y = d * 1e9
    out = np.rint(y) / 1e9
    rest = (np.abs(y - np.floor(y) - 0.5) < 1e-5) | (np.abs(y) >= 1e11)
    if rest.any():
        out[rest] = [round(x, 9) for x in d[rest].tolist()]
    return out


@functools.lru_cache(maxsize=2048)
def _frame_block(block: bytes) -> np.ndarray:
    """The frames ``rotation(u, t) @ base`` for t in twists, in order, from
    the bytes of u, base and the twists."""
    data = np.frombuffer(block)
    u, base, twists = data[:3], data[3:12], data[12:]
    k = len(twists)
    rots = rotations(np.repeat(u[None], k, axis=0), twists.tolist())
    return read_only(rots @ np.repeat(base.reshape(1, 3, 3), k, axis=0))


@functools.lru_cache(maxsize=2048)
def _steps(azimuth_frame: bytes, b: SubgroupClass) -> Tuple[np.ndarray, ...]:
    """The frames of each alignment step from an azimuth frame of A, about
    its axis u, into B: one block per signed B axis representative sv, in
    order, of sv sent to u and then twisted about u."""
    u, e1, e2, cosines, azimuths = _unpack_azimuth_frame(azimuth_frame)
    blocks = []
    for frame, n in _axes_of(b):
        v, v_e1, _, v_cosines, v_azimuths = _unpack_azimuth_frame(frame)
        # Twists a multiple of 2 pi / n apart differ by a rotation of B about
        # sv, so they conjugate B alike: a step keeps the first twist of each
        # class, keyed by its residue in units of 1e-7 rad, a residue that
        # rounds to the period counting as 0.
        period = 2 * pi / n
        units = round(period * 1e7)
        for s in (1.0, -1.0):
            # B's cosines to sv and azimuths about sv, plus phi, are those
            # about u after base (see the module docstring).
            base = rotation_between(s * v, u)
            w = base @ v_e1
            phi = atan2(float(w @ e2), float(w @ e1))
            # Pairs of A- and B-axes at the same angle to u: twisting by
            # their azimuth difference makes them coincide.
            ia, ib = np.nonzero(np.abs(cosines[:, None] - s * v_cosines) < 1e-6)
            twists = set(_GENERIC_TWISTS)
            if len(ib):
                twists.update(_round9(
                    (azimuths[ia] - (s * v_azimuths[ib] + phi)) % (2 * pi)).tolist())
            kept = {}
            for t in sorted(twists):
                kept.setdefault(round(t % period * 1e7) % units, t)
            blocks.append(_frame_block(u.tobytes() + base.tobytes()
                                       + np.array(list(kept.values())).tobytes()))
    return tuple(blocks)


def alignment_frames(a: SubgroupClass, b: SubgroupClass) -> np.ndarray:
    """Curated frames of the canonical groups of two finite classes as one
    (F, 3, 3) array: axis-to-axis alignments with twist angles that make
    secondary axes coincide, plus generic twists that isolate single shared
    axes.  The identity comes first."""
    steps = (_steps(frame, b) for frame, _ in _axes_of(a))
    return np.concatenate([_IDENTITY, *itertools.chain.from_iterable(steps)])


# ---------------------------------------------------------------------------
# Reports.

def frame_axis_angle(f: np.ndarray) -> dict:
    if np.abs(f - np.eye(3)).max() <= 1e-12:
        return {"axis": [0.0, 0.0, 1.0], "angle": 0.0}
    u, ang = rotation_axis_angle(np.ascontiguousarray(f))
    return {"axis": [round(float(c), 12) for c in u], "angle": round(float(ang), 12)}


class VerificationReport(NamedTuple):
    """Outcome of the brute-force check of one clips cell."""

    pair: Tuple[SubgroupClass, SubgroupClass]
    table: ClassSet
    observed: ClassSet
    witnesses: Dict[SubgroupClass, np.ndarray]
    samples: int
    seed: int
    extra: ClassSet
    missing: ClassSet

    @property
    def verdict(self) -> str:
        return "pass" if self.observed == self.table else "fail"

    def to_json(self) -> dict:
        return {
            "pair": [render_class(self.pair[0]), render_class(self.pair[1])],
            "table": [render_class(c) for c in self.table],
            "observed": [render_class(c) for c in self.observed],
            "witnesses": {
                render_class(c): frame_axis_angle(f)
                for c, f in sorted(self.witnesses.items(), key=lambda t: t[0].sort_key())
            },
            "samples": self.samples,
            "seed": self.seed,
            "extra": [render_class(c) for c in self.extra],
            "missing": [render_class(c) for c in self.missing],
            "verdict": self.verdict,
        }


@functools.lru_cache(maxsize=2048)
def _subset_class(a: SubgroupClass, packed: bytes) -> Optional[SubgroupClass]:
    """Class of the elements of ``realize(a)`` whose bits are set in
    ``packed`` (a ``np.packbits`` member mask), or None if they are not
    closed."""
    G = realize(a)
    mask = np.unpackbits(np.frombuffer(packed, dtype=np.uint8), count=len(G)).astype(bool)
    mats = np.ascontiguousarray(G[mask])
    return classify(mats) if kernels.closure_ok(mats) else None


def _classify_mask(a: SubgroupClass, packed: bytes, BC_f: np.ndarray) -> SubgroupClass:
    """Class of the member subset ``packed`` of ``realize(a)``; ``BC_f`` is
    the first frame's conjugated B with that mask, used for the tight
    retry."""
    c = _subset_class(a, packed)
    if c is not None:
        return c
    # A frame near (but not on) an alignment manifold can match only part
    # of a coset.  Genuine matches sit far below MATCH_TOL, so retry with a
    # tightened tolerance before giving up.
    G = realize(a)
    mats = np.ascontiguousarray(G[kernels.membership(G, BC_f, MATCH_TOL / 100.0)])
    if not kernels.closure_ok(mats):
        raise ValueError(
            "intersection is not closed at either tolerance; "
            "frame sits on a degenerate alignment"
        )
    return classify(mats)


def _kron(F: np.ndarray) -> np.ndarray:
    """The (9, 9 len(F)) factor whose columns 9f:9f+9 are ``F[f] kron F[f]``
    transposed: row-major ``vec(f X f^T) = (f kron f) vec(X)``, so
    ``G.reshape(-1, 9) @ _kron(F)`` conjugates every G[n] by every F[f]."""
    return np.einsum("fab,fdc->bcfad", F, F).reshape(9, 9 * len(F))


@functools.lru_cache(maxsize=2)
def _random_frames(samples: int, seed: int) -> np.ndarray:
    """The seed's random frames: every cell of a sweep draws the same ones."""
    return read_only(random_rotations(samples, np.random.default_rng(seed)))


# Shared frames per piece: one piece holds the 201 shared frames of a
# 200-sample cell, 166 KB at 648 bytes a frame.
_PIECE = 256
# Pieces kept: every piece of one seed up to 4095 samples, so a sweep at that
# size builds each once; a larger run streams through at most 2.7 MB.
_PIECES = 16


@functools.lru_cache(maxsize=_PIECES)
def _shared_factor(samples: int, seed: int, piece: int) -> np.ndarray:
    """``_kron`` of the shared frames ``piece * _PIECE`` onward, at most
    ``_PIECE`` of them: the shared frames are ``_random_frames(samples,
    seed)`` and then ``_GENERIC_FRAME``, alike in every cell at one seed."""
    lo = piece * _PIECE
    frames = _random_frames(samples, seed)[lo:lo + _PIECE]
    if lo + _PIECE > samples:
        frames = np.concatenate([frames, _GENERIC_FRAME])
    return read_only(_kron(frames))


def _conjugates(G: np.ndarray, curated: np.ndarray, samples: int, seed: int,
                start: int, stop: int) -> np.ndarray:
    """(stop - start, len(G), 3, 3) array of f @ G[n] @ f.T over the frames
    f of ``start:stop`` in a cell's frame list, the curated frames and then
    the shared ones, stored with each element's frames contiguous, as
    ``batch_membership`` reads them.

    Each run of frames is one (len(G), 9) x (9, 9 frames) matrix product
    written into its columns of the output: the curated frames' factor is
    built here, the shared frames' comes from the pieces of
    ``_shared_factor``.
    """
    G9 = G.reshape(-1, 9)
    out = np.empty((len(G), 9 * (stop - start)))
    i = min(max(start, len(curated)), stop)
    if start < i:
        np.matmul(G9, _kron(curated[start:i]), out=out[:, :9 * (i - start)])
    while i < stop:
        piece, lo = divmod(i - len(curated), _PIECE)
        j = min(stop, i + _PIECE - lo)
        np.matmul(G9, _shared_factor(samples, seed, piece)[:, 9 * lo:9 * (lo + j - i)],
                  out=out[:, 9 * (i - start):9 * (j - start)])
        i = j
    return out.reshape(len(G), stop - start, 3, 3).swapaxes(0, 1)


def _frame(curated: np.ndarray, samples: int, seed: int, i: int) -> np.ndarray:
    """Frame i of a cell's frame list, as a new array."""
    if i < len(curated):
        return curated[i].copy()
    if i < len(curated) + samples:
        return _random_frames(samples, seed)[i - len(curated)].copy()
    return _GENERIC_FRAME[0].copy()


@functools.lru_cache(maxsize=256)
def _runs(cls: SubgroupClass) -> Tuple[np.ndarray, ...]:
    """``invariant_runs`` of the elements of ``realize(cls)``."""
    return tuple(read_only(x) for x in invariant_runs(realize(cls)))


def _witnesses(a: SubgroupClass, b: SubgroupClass, curated: np.ndarray,
               samples: int, seed: int) -> Dict[SubgroupClass, np.ndarray]:
    """The class of each intersection ``A n fBf^-1`` of the canonical groups
    A and B of a and b over the frames f of the curated frames, then
    ``_random_frames(samples, seed)`` and ``_GENERIC_FRAME``, each with the
    first frame that reaches it."""
    elements_a = realize(a)
    # Only the needed elements of B can match an element of A in any frame.
    needed, blocks = match_plan(_runs(a), _runs(b))
    B_needed = np.ascontiguousarray(realize(b)[needed])
    # Classify each distinct mask once, visiting them in the order of their
    # first frame, chunk after chunk: the first frame to reach a class stays
    # its witness.
    witnesses: Dict[SubgroupClass, np.ndarray] = {}
    seen = set()
    count = len(curated) + samples + 1
    step = max(1, ROW_BUDGET // len(B_needed))
    for start in range(0, count, step):
        BC = _conjugates(B_needed, curated, samples, seed, start, min(start + step, count))
        packed = np.packbits(batch_membership(elements_a, BC, blocks), axis=1)
        rows = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
        _, first = np.unique(rows, return_index=True)
        for f_idx in np.sort(first):
            mask = packed[f_idx].tobytes()
            if mask in seen:
                continue
            seen.add(mask)
            c = _classify_mask(a, mask, BC[f_idx])
            if c not in witnesses:
                witnesses[c] = _frame(curated, samples, seed, start + int(f_idx))
    return witnesses


def find_witness(a: SubgroupClass, b: SubgroupClass,
                 target: SubgroupClass) -> Optional[np.ndarray]:
    """The first frame f of ``alignment_frames(a, b)`` and the generic frame
    for which ``A n fBf^-1``, with A and B the canonical groups of a and b,
    has class ``target``, or None if no frame has it."""
    return _witnesses(a, b, alignment_frames(a, b), 0, 0).get(target)


def verify_clips(a: SubgroupClass, b: SubgroupClass, samples: int = 200,
                 seed: int = 0) -> VerificationReport:
    """Compare the symbolic clips set of (a, b) with observed intersections."""
    if not (a.is_finite and b.is_finite):
        raise ValueError("oracle verification needs finite classes")
    table = clips_pair(needed_context(a, b), a, b)
    witnesses = _witnesses(a, b, alignment_frames(a, b), samples, seed)
    observed = ClassSet(witnesses.keys())
    extra = ClassSet(c for c in observed if c not in table)
    missing = ClassSet(c for c in table if c not in observed)
    return VerificationReport(
        pair=(a, b), table=table, observed=observed, witnesses=witnesses,
        samples=samples, seed=seed, extra=extra, missing=missing,
    )
