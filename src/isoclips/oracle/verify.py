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
  ``||X - Y||_F >= 2``, so with ``tol = MATCH_TOL`` two elements whose
  invariants are farther apart than ``match_window(tol)`` lie over
  ``2 tol`` apart in every frame.  Such a pair can pass neither the
  Frobenius test of ``batch_membership`` nor the entrywise test at
  ``tol / 100`` of the tight retry (entrywise within t gives Frobenius
  within 3t).  So each cell builds one match plan (``match_plan``) from
  the invariant runs of A and of B: only the elements of B in runs with a
  partner run of A are conjugated, and each run is compared only with the
  elements of A in its partner runs.  In a criterion-6 sweep that is 38.6%
  of B's elements and 12.2% of the element pairs.
* Frames go through in chunks of at most ``ROW_BUDGET`` (frame, element)
  rows.  Each chunk's new masks are classified in the order of their first
  frame, and masks seen in an earlier chunk are skipped, so each class keeps
  its first frame as witness and each tight retry gets that frame's
  conjugates, as without chunks.  What stays O(samples) is the frame array,
  72 bytes a frame, and the cached random frames.

A sweep over many cells repeats most of its work, so each distinct piece is
done once per process and kept in a bounded cache that holds a full
criterion-6 sweep.  Each cache is exact: its value is a function of its key
alone, so a hit returns what the computation would.  Classes are interned
(``groups``) and ``realize`` returns one read-only canonical group per class,
so a class stands for its group's elements in a key.

* ``_axes_of``: the characteristic axes of a class's group, keyed on the
  class; the azimuth frame of one axis u per orbit, as the bytes of u, the
  cosines to u and the exact azimuths about u of the group's off-axis signed
  axes; and the bytes of each representative in both signs.
* ``_steps``: for an azimuth frame of A and the class of B, the frames of
  each alignment step: a signed B representative sent to u, then twisted
  about u by the generic twists and by the azimuth differences of axes at
  equal cosines.  The azimuth frame stays a byte key, as equal frames are
  shared across classes: a sweep meets 1248 distinct keys, which cover its
  10242 steps, where keys on the class of A would be 2242.
* ``_frame_block``: the frames ``rotation(u, t) @ base`` over a step's
  twists, keyed on the bytes of u, base and the twists, so steps with equal
  ones, in any classes, share one array.  A sweep's 163775 curated frames
  come from 868 blocks of 25541 frames in all.
* ``_random_frames``: ``random_rotations(samples, default_rng(seed))``, a
  function of (samples, seed); every cell at one seed draws the same frames.
  It keeps two keys, as the array grows with ``samples``.
* ``_runs``: the ``invariant_runs`` of a class's elements, keyed on the
  class; a cell's plan joins the runs of its two classes.
* ``_subset_class``: the class of a member subset, keyed on the class of A
  and the packed member mask.  The subset determines both the closure test
  and the class.  A subset that is not closed is never cached: its tight
  retry depends on the frame that produced it.  A sweep classifies 544
  distinct subsets in 5155 distinct per-cell masks.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from math import atan2, pi
from typing import Dict, NamedTuple, Optional, Tuple

import numpy as np

from ..clips import clips_pair
from ..groups import ClassSet, Context, SubgroupClass, render_class
from .classify import _axis_clusters, classify, rotation_axis_angle
from .kernels import ROW_BUDGET, batch_membership, invariant_runs, match_plan
from .realize import MATCH_TOL, MatrixGroup, realize, rotation, rotations

_GENERIC_TWISTS = (0.0, 0.6180339887498949, 1.8392867552141612)
_IDENTITY = np.eye(3)[None]
_IDENTITY.flags.writeable = False
_GENERIC_FRAME = rotation((0.3141592653589793, 0.2718281828459045, 0.9), 1.2345678901234567)[None]
_GENERIC_FRAME.flags.writeable = False


def random_rotations(count: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform random rotation matrices via normalized quaternions."""
    q = rng.normal(size=(count, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    w, x, y, z = q.T
    return np.stack(
        [
            np.stack([1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)], axis=-1),
            np.stack([2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)], axis=-1),
            np.stack([2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)], axis=-1),
        ],
        axis=1,
    )


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


def characteristic_axes(g: MatrixGroup) -> np.ndarray:
    """Distinct axes of the rotation images det(x) x of all elements; ``z``
    for the groups without one."""
    axes = [u for u, _ in _axis_clusters(g.pi_image())]
    return np.array(axes or [[0.0, 0.0, 1.0]])


def _axis_orbit_reps(axes: np.ndarray, rotations: np.ndarray) -> np.ndarray:
    """One axis per orbit under the given rotation action (axes up to sign)."""
    reps = []
    seen = np.zeros(len(axes), dtype=bool)
    images = np.einsum("rij,aj->rai", rotations, axes)
    for i in range(len(axes)):
        if seen[i]:
            continue
        reps.append(axes[i])
        dots = np.abs(images @ axes[i])
        seen |= (dots > 1.0 - 1e-7).any(axis=0)
    return np.array(reps)


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


def _unpack_azimuth_frame(key: bytes) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(u, cosines, azimuths) from the bytes of an azimuth frame."""
    data = np.frombuffer(key)
    half = (len(data) - 3) // 2
    return data[:3], data[3:3 + half], data[3 + half:]


class _Axes(NamedTuple):
    """Characteristic axes of a class; one azimuth frame per orbit: the
    bytes of a representative u, the cosines to u and the exact azimuths
    about u of the class's off-axis signed axes; and the bytes of each
    representative in both signs."""

    axes: np.ndarray
    frames: Tuple[bytes, ...]
    signed_reps: Tuple[bytes, ...]


@functools.lru_cache(maxsize=256)
def _axes_of(cls: SubgroupClass) -> _Axes:
    """Characteristic axes of the class's canonical group, one axis per
    orbit and the azimuth frame of each."""
    g = realize(cls)
    axes = characteristic_axes(g)
    reps = _axis_orbit_reps(axes, g.pi_image())
    signed = _signed(axes)
    frames = []
    for u in reps:
        e1, e2 = _perpendicular(u)
        ws = signed[_off_axis(signed, e1, e2)]
        frames.append(u.tobytes() + (ws @ u).tobytes() + _azimuths(ws, e1, e2).tobytes())
    # Cached results are shared by every caller.
    axes.flags.writeable = False
    return _Axes(axes, tuple(frames), tuple(sv.tobytes() for sv in _signed(reps)))


def _alignment(u: np.ndarray, sv: np.ndarray, b: SubgroupClass):
    """``base`` sending the signed B axis ``sv`` to u; then, of B's signed
    axes after ``base``, those with an azimuth about u: their cosines to u
    and exact azimuths."""
    base = rotation_between(sv, u)
    ws = _signed(_axes_of(b).axes @ base.T)
    e1, e2 = _perpendicular(u)
    off = _off_axis(ws, e1, e2)
    return base, (ws @ u)[off], _azimuths(ws[off], e1, e2)


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
    out = rots @ np.repeat(base.reshape(1, 3, 3), k, axis=0)
    out.flags.writeable = False
    return out


@functools.lru_cache(maxsize=2048)
def _steps(azimuth_frame: bytes, b: SubgroupClass) -> Tuple[np.ndarray, ...]:
    """The frames of each alignment step from an azimuth frame of A, about
    its axis u, into B: one block per signed B axis representative sv, in
    order, of sv sent to u and then twisted about u."""
    u, cosines, azimuths = _unpack_azimuth_frame(azimuth_frame)
    blocks = []
    for sv in _axes_of(b).signed_reps:
        base, b_cosines, b_azimuths = _alignment(u, np.frombuffer(sv), b)
        # Pairs of A- and B-axes at the same angle to u: twisting by their
        # azimuth difference makes them coincide.
        ia, ib = np.nonzero(np.abs(cosines[:, None] - b_cosines) < 1e-6)
        twists = set(_GENERIC_TWISTS)
        if len(ib):
            twists.update(_round9((azimuths[ia] - b_azimuths[ib]) % (2 * pi)).tolist())
        blocks.append(_frame_block(u.tobytes() + base.tobytes()
                                   + np.array(sorted(twists)).tobytes()))
    return tuple(blocks)


def alignment_frames(a: SubgroupClass, b: SubgroupClass) -> np.ndarray:
    """Curated frames of the canonical groups of two finite classes as one
    (F, 3, 3) array: axis-to-axis alignments with twist angles that make
    secondary axes coincide, plus generic twists that isolate single shared
    axes.  The identity comes first."""
    steps = (_steps(frame, b) for frame in _axes_of(a).frames)
    return np.concatenate([_IDENTITY, *itertools.chain.from_iterable(steps)])


# ---------------------------------------------------------------------------
# Reports.

def frame_axis_angle(f: np.ndarray) -> dict:
    if np.abs(f - np.eye(3)).max() <= 1e-12:
        return {"axis": [0.0, 0.0, 1.0], "angle": 0.0}
    u, ang = rotation_axis_angle(np.ascontiguousarray(f))
    return {"axis": [round(float(c), 12) for c in u], "angle": round(float(ang), 12)}


@dataclass
class VerificationReport:
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


class _NotClosed(Exception):
    """A member subset that is not a group; raised, so never cached."""


@functools.lru_cache(maxsize=2048)
def _subset_class(a: SubgroupClass, packed: bytes) -> SubgroupClass:
    """Class of the elements of ``realize(a)`` whose bits are set in
    ``packed`` (a ``np.packbits`` member mask), if they are closed."""
    # Looked up per call: perfbench's tracer wraps this name in the kernels
    # module.
    from .kernels import closure_ok

    G = realize(a).elements
    mask = np.unpackbits(np.frombuffer(packed, dtype=np.uint8), count=len(G)).astype(bool)
    mats = np.ascontiguousarray(G[mask])
    if not closure_ok(mats, MATCH_TOL):
        raise _NotClosed
    return classify(MatrixGroup(mats))


def _classify_mask(a: SubgroupClass, packed: bytes, BC_f: np.ndarray) -> SubgroupClass:
    """Class of the member subset ``packed`` of ``realize(a)``; ``BC_f`` is
    the first frame's conjugated B with that mask, used for the tight
    retry."""
    try:
        return _subset_class(a, packed)
    except _NotClosed:
        pass
    # Looked up per call: perfbench's tracer wraps these names in the
    # kernels module.
    from .kernels import closure_ok, membership

    # A frame near (but not on) an alignment manifold can match only part
    # of a coset.  Genuine matches sit far below MATCH_TOL, so retry with a
    # tightened tolerance before giving up.
    G = realize(a).elements
    mats = np.ascontiguousarray(G[membership(G, BC_f, MATCH_TOL / 100.0)])
    if not closure_ok(mats, MATCH_TOL):
        raise ValueError(
            "intersection is not closed at either tolerance; "
            "frame sits on a degenerate alignment"
        )
    return classify(MatrixGroup(mats))


def _conjugates(F: np.ndarray, G: np.ndarray) -> np.ndarray:
    """(frames, len(G), 3, 3) array of F[f] @ G[n] @ F[f].T, stored with
    each element's frames contiguous, as ``batch_membership`` reads them.

    Row-major ``vec(f X f^T) = (f kron f) vec(X)``, so all frames are one
    (len(G), 9) x (9, 9 frames) matrix product.
    """
    kron = np.einsum("fab,fdc->bcfad", F, F).reshape(9, 9 * len(F))
    out = G.reshape(-1, 9) @ kron
    return out.reshape(len(G), len(F), 3, 3).swapaxes(0, 1)


@functools.lru_cache(maxsize=2)
def _random_frames(samples: int, seed: int) -> np.ndarray:
    """The seed's random frames: every cell of a sweep draws the same ones."""
    out = random_rotations(samples, np.random.default_rng(seed))
    out.flags.writeable = False
    return out


@functools.lru_cache(maxsize=256)
def _runs(cls: SubgroupClass) -> Tuple[np.ndarray, ...]:
    """``invariant_runs`` of the elements of ``realize(cls)`` at
    ``MATCH_TOL``."""
    out = invariant_runs(realize(cls).elements, MATCH_TOL)
    for x in out:
        x.flags.writeable = False
    return out


def _witnesses(a: SubgroupClass, b: SubgroupClass,
               F: np.ndarray) -> Dict[SubgroupClass, np.ndarray]:
    """The class of each intersection ``A n fBf^-1`` of the canonical groups
    A and B of a and b over the frames f of ``F``, each with the first frame
    that reaches it."""
    elements_a = realize(a).elements
    # Only the needed elements of B can match an element of A in any frame.
    needed, blocks = match_plan(elements_a, _runs(a), _runs(b), MATCH_TOL)
    B_needed = np.ascontiguousarray(realize(b).elements[needed])
    # Classify each distinct mask once, visiting them in the order of their
    # first frame, chunk after chunk: the first frame to reach a class stays
    # its witness.
    witnesses: Dict[SubgroupClass, np.ndarray] = {}
    seen = set()
    step = max(1, ROW_BUDGET // len(B_needed))
    for start in range(0, len(F), step):
        frames = F[start:start + step]
        BC = _conjugates(frames, B_needed)
        packed = np.packbits(batch_membership(elements_a, BC, MATCH_TOL, blocks), axis=1)
        rows = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
        _, first = np.unique(rows, return_index=True)
        for f_idx in np.sort(first):
            mask = packed[f_idx].tobytes()
            if mask in seen:
                continue
            seen.add(mask)
            c = _classify_mask(a, mask, BC[f_idx])
            if c not in witnesses:
                witnesses[c] = frames[f_idx].copy()
    return witnesses


def find_witness(a: SubgroupClass, b: SubgroupClass,
                 target: SubgroupClass) -> Optional[np.ndarray]:
    """The first frame f of ``alignment_frames(a, b)`` and the generic frame
    for which ``realize(a) n realize(b, f)`` has class ``target``, or None if
    no frame has it."""
    F = np.concatenate([alignment_frames(a, b), _GENERIC_FRAME])
    return _witnesses(a, b, F).get(target)


def verify_clips(a: SubgroupClass, b: SubgroupClass, samples: int = 200,
                 seed: int = 0) -> VerificationReport:
    """Compare the symbolic clips set of (a, b) with observed intersections."""
    if not (a.is_finite and b.is_finite):
        raise ValueError("oracle verification needs finite classes")
    ctx = Context.O3 if (a.is_type_iii or b.is_type_iii or a.is_type_ii
                         or b.is_type_ii) else Context.SO3
    table = clips_pair(ctx, a, b)
    frames = [alignment_frames(a, b), _random_frames(samples, seed), _GENERIC_FRAME]
    witnesses = _witnesses(a, b, np.concatenate(frames))
    observed = ClassSet(witnesses.keys())
    extra = ClassSet(c for c in observed if c not in table)
    missing = ClassSet(c for c in table if c not in observed)
    return VerificationReport(
        pair=(a, b), table=table, observed=observed, witnesses=witnesses,
        samples=samples, seed=seed, extra=extra, missing=missing,
    )
