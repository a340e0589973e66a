"""Brute-force verification of clips rules against explicit matrix groups.

For a pair of finite classes the verifier intersects one fixed realization
with conjugated copies of the other over many frames and compares the set of
observed intersection classes with the symbolic rule output:

* random frames can only ever produce classes that the rule predicts
  (soundness);
* a curated family of alignment frames, axis-to-axis with twist angles
  solved so that secondary axes coincide, must reach every predicted class
  (completeness witnesses); a targeted subgroup-embedding search backs this
  up for stubborn cells.

A sweep over many cells repeats most of its work, so each distinct piece is
done once per process and kept in a bounded cache that holds a full
criterion-6 sweep.  Each cache is exact: its value is a function of its key
alone, so a hit returns what the computation would.

* ``_axes_of``: the characteristic axes, orbit representatives and azimuth
  frames of a group, keyed on its element bytes.
* ``_subset_class``: the class of a member subset, keyed on the group's
  element bytes, the packed member mask and ``tol``.  The subset determines
  both the closure test and the class.  A subset that is not closed is
  never cached: its tight retry depends on the frame that produced it.
  A sweep classifies 544 distinct subsets in 5155 distinct per-cell masks.
* ``_alignment``: for an A axis ``u``, a signed B axis ``sv`` and the group
  B, the rotation sending ``sv`` to ``u`` and B's rotated axes with their
  cosines and exact azimuths about ``u``.  These depend on (u, sv, B) alone;
  only the match against A's axes is left per cell.  A sweep meets 2128
  distinct ones in 10242 axis pairs.
* ``_interned``: one shared copy of each element array's bytes, so that the
  keys above do not copy a group once per cell.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from math import atan2, pi
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..clips import clips_pair
from ..groups import ClassSet, Context, SubgroupClass, render_class
from .classify import classify, rotation_axis_angle
from .kernels import batch_membership, mult_table
from .realize import MATCH_TOL, MatrixGroup, intersect, realize, rotation, rotations

_GENERIC_TWISTS = (0.0, 0.6180339887498949, 1.8392867552141612)


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


def rotation_between(v: np.ndarray, u: np.ndarray) -> np.ndarray:
    """A rotation sending unit vector v to unit vector u."""
    c = float(np.clip(v @ u, -1.0, 1.0))
    if c > 1.0 - 1e-12:
        return np.eye(3)
    if c < -1.0 + 1e-12:
        # Half turn about any axis perpendicular to v.
        perp = np.cross(v, [1.0, 0.0, 0.0])
        if np.linalg.norm(perp) < 1e-8:
            perp = np.cross(v, [0.0, 1.0, 0.0])
        return rotation(perp, pi)
    axis = np.cross(v, u)
    return rotation(axis, float(np.arccos(c)))


def characteristic_axes(g: MatrixGroup) -> np.ndarray:
    """Distinct axes of the rotation images det(x) x of all elements."""
    axes: List[np.ndarray] = []
    for R in g.pi_image():
        if np.abs(R - np.eye(3)).max() <= MATCH_TOL:
            continue
        u, _ = rotation_axis_angle(np.ascontiguousarray(R))
        if not any(abs(float(u @ v)) > 1.0 - 1e-7 for v in axes):
            axes.append(u)
    if not axes:
        axes.append(np.array([0.0, 0.0, 1.0]))
    return np.array(axes)


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
    return e1, np.cross(u, e1)


def _off_axis(ws: np.ndarray, e1: np.ndarray, e2: np.ndarray) -> np.ndarray:
    """Rows with a defined azimuth in the plane (e1, e2)."""
    p1, p2 = ws @ e1, ws @ e2
    return p1 * p1 + p2 * p2 >= 1e-14


def _azimuths(ws: np.ndarray, e1: np.ndarray, e2: np.ndarray) -> np.ndarray:
    # Scalar dot products and math.atan2: the twists are rounded from these
    # exact values, which numpy's vectorised forms can miss by an ulp.
    return np.array([atan2(float(w @ e2), float(w @ e1)) for w in ws])


@functools.lru_cache(maxsize=256)
def _interned(elements: bytes) -> bytes:
    """The first equal bytes object seen, so that the cache keys of every
    realization of a class share one copy of its elements."""
    return elements


def _elements_key(g: MatrixGroup) -> bytes:
    return _interned(np.ascontiguousarray(g.elements, dtype=float).tobytes())


class _AxisFrame(NamedTuple):
    """An orbit representative u (and its bytes), with the cosines to u and
    the exact azimuths about u of the class's off-axis signed axes."""

    u: np.ndarray
    key: bytes
    cosines: np.ndarray
    azimuths: np.ndarray


@functools.lru_cache(maxsize=256)
def _axes_of(elements: bytes) -> Tuple[np.ndarray, np.ndarray, Tuple[_AxisFrame, ...]]:
    """Characteristic axes of the group with these elements, one axis per
    orbit and the azimuth frame of each."""
    g = MatrixGroup(np.frombuffer(elements).reshape(-1, 3, 3))
    axes = characteristic_axes(g)
    reps = _axis_orbit_reps(axes, g.pi_image())
    signed = _signed(axes)
    frames = []
    for u in reps:
        e1, e2 = _perpendicular(u)
        ws = signed[_off_axis(signed, e1, e2)]
        frames.append(_AxisFrame(u, u.tobytes(), ws @ u, _azimuths(ws, e1, e2)))
    # Cached results are shared by every caller.
    for a in (axes, reps, *(a for f in frames for a in (f.u, f.cosines, f.azimuths))):
        a.flags.writeable = False
    return axes, reps, tuple(frames)


class _Alignment(NamedTuple):
    """``base`` sends a signed B axis to u.  B's signed axes after it that
    have an azimuth about u: their cosines to u and exact azimuths."""

    base: np.ndarray
    cosines: np.ndarray
    azimuths: np.ndarray


@functools.lru_cache(maxsize=4096)
def _alignment(u: bytes, sv: bytes, elements_b: bytes) -> _Alignment:
    """The part of an alignment that depends on (u, sv, B) alone; a sweep
    meets 2128 distinct ones in 10242 axis pairs."""
    u_ = np.frombuffer(u)
    base = rotation_between(np.frombuffer(sv), u_)
    ws = _signed(_axes_of(elements_b)[0] @ base.T)
    e1, e2 = _perpendicular(u_)
    off = _off_axis(ws, e1, e2)
    out = _Alignment(base, (ws @ u_)[off], _azimuths(ws[off], e1, e2))
    for a in out:
        a.flags.writeable = False
    return out


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


def _alignment_twists(A: MatrixGroup, B: MatrixGroup):
    """Yield (u, base, twists): the frames ``rotation(u, t) @ base``
    for t in twists, in order, for every representative axis pair."""
    key_b = _elements_key(B)
    signed_b = [sv.tobytes() for sv in _signed(_axes_of(key_b)[1])]
    for ax in _axes_of(_elements_key(A))[2]:
        for sv in signed_b:
            al = _alignment(ax.key, sv, key_b)
            # Pairs of A- and B-axes at the same angle to u: twisting by
            # their azimuth difference makes them coincide.
            ia, ib = np.nonzero(np.abs(ax.cosines[:, None] - al.cosines) < 1e-6)
            twists = set(_GENERIC_TWISTS)
            if len(ib):
                twists.update(_round9((ax.azimuths[ia] - al.azimuths[ib]) % (2 * pi)).tolist())
            yield ax.u, al.base, sorted(twists)


def alignment_frames(A: MatrixGroup, B: MatrixGroup, max_frames: int = 20000) -> np.ndarray:
    """Curated frames as one (F, 3, 3) array: axis-to-axis alignments with
    twist angles that make secondary axes coincide, plus generic twists that
    isolate single shared axes.  The identity comes first; at most
    ``max(max_frames, 1)`` frames."""
    room = max_frames - 1
    axes, bases, counts, angles = [], [], [], []
    for u, base, twists in _alignment_twists(A, B):
        if room <= 0:
            break
        twists = twists[:room]
        room -= len(twists)
        axes.append(u)
        bases.append(base)
        counts.append(len(twists))
        angles += twists
    if not angles:
        return np.eye(3)[None]
    rots = rotations(np.repeat(axes, counts, axis=0), angles)
    return np.concatenate([np.eye(3)[None], rots @ np.repeat(bases, counts, axis=0)])


# ---------------------------------------------------------------------------
# Subgroup enumeration for targeted witness search.

@functools.lru_cache(maxsize=None)
def _subgroups_by_class(cls: SubgroupClass) -> Dict[SubgroupClass, List[np.ndarray]]:
    """All subgroups of the canonical realization, grouped by class."""
    g = realize(cls)
    n = g.order
    table = mult_table(np.ascontiguousarray(g.elements), MATCH_TOL)
    if (table < 0).any():
        raise ValueError("multiplication table incomplete")

    def close(seed: Tuple[int, ...]) -> frozenset:
        members = set(seed) | {int(np.argmin(
            np.abs(g.elements - np.eye(3)).max(axis=(1, 2))))}
        frontier = list(members)
        while frontier:
            i = frontier.pop()
            for j in list(members):
                for k in (table[i, j], table[j, i]):
                    if k not in members:
                        members.add(int(k))
                        frontier.append(int(k))
        return frozenset(members)

    subs = {close((i,)) for i in range(n)}
    for pair in itertools.combinations(range(n), 2):
        subs.add(close(pair))
    out: Dict[SubgroupClass, List[np.ndarray]] = {}
    for s in subs:
        mats = np.ascontiguousarray(g.elements[sorted(s)])
        c = classify(MatrixGroup(mats))
        out.setdefault(c, []).append(mats)
    return out


def _group_frame_candidates(mats: np.ndarray) -> List[np.ndarray]:
    """Orthonormal frames (e1, e2, primary) adapted to a small group."""
    g = MatrixGroup(mats)
    best: Tuple[float, np.ndarray] = (0.0, np.array([0.0, 0.0, 1.0]))
    axes = []
    for R in g.pi_image():
        if np.abs(R - np.eye(3)).max() <= MATCH_TOL:
            continue
        u, ang = rotation_axis_angle(np.ascontiguousarray(R))
        axes.append(u)
        if ang > best[0] + 1e-9:
            best = (ang, u)
    # Primary axis: the axis with the highest element count (largest cyclic
    # order); ties broken by any representative.
    counts: Dict[int, int] = {}
    uniq: List[np.ndarray] = []
    for u in axes:
        for i, v in enumerate(uniq):
            if abs(float(u @ v)) > 1.0 - 1e-7:
                counts[i] += 1
                break
        else:
            uniq.append(u)
            counts[len(uniq) - 1] = 1
    if not uniq:
        return [np.eye(3)]
    max_count = max(counts.values())
    primaries = [uniq[i] for i, c in counts.items() if c == max_count]
    frames = []
    for p in primaries:
        secondaries = [w for w in uniq if abs(float(w @ p)) < 1.0 - 1e-7]
        if not secondaries:
            ref = np.array([1.0, 0.0, 0.0])
            if abs(float(p @ ref)) > 0.9:
                ref = np.array([0.0, 1.0, 0.0])
            secondaries = [ref]
        for w in secondaries:
            for sp in (p, -p):
                e1 = w - float(w @ sp) * sp
                e1 /= np.linalg.norm(e1)
                frames.append(np.column_stack([e1, np.cross(sp, e1), sp]))
    return frames


def _axial_axis(mats: np.ndarray) -> Optional[np.ndarray]:
    """The common axis if every element is a (roto)rotation about one axis."""
    axis = None
    for R in MatrixGroup(mats).pi_image():
        if np.abs(R - np.eye(3)).max() <= MATCH_TOL:
            continue
        u, _ = rotation_axis_angle(np.ascontiguousarray(R))
        if axis is None:
            axis = u
        elif abs(float(u @ axis)) < 1.0 - 1e-7:
            return None
    return axis


def find_witness(A: MatrixGroup, B: MatrixGroup, target: SubgroupClass,
                 tol: float = MATCH_TOL) -> Optional[np.ndarray]:
    """Search for a frame f with classify(A n fBf^-1) == target."""
    subs_a = _subgroups_by_class(A.claimed).get(target, [])
    subs_b = _subgroups_by_class(B.claimed).get(target, [])
    for ca in subs_a[:12]:
        frames_a = _group_frame_candidates(ca)
        for cb in subs_b[:12]:
            axis_b = _axial_axis(cb)
            for fa in frames_a:
                for fb in _group_frame_candidates(cb):
                    f0 = fa @ fb.T
                    twists = _GENERIC_TWISTS if axis_b is not None else (0.0,)
                    for t in twists:
                        f = f0 @ rotation(axis_b, t) if axis_b is not None else f0
                        try:
                            got = classify(intersect(A, B.conjugate(f), tol))
                        except ValueError:
                            continue
                        if got == target:
                            return f
    return None


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
def _subset_class(elements: bytes, packed: bytes, tol: float) -> SubgroupClass:
    """Class of the elements whose bits are set in ``packed`` (a
    ``np.packbits`` member mask), if they are closed at ``tol``."""
    # Looked up per call: perfbench's tracer wraps this name in the kernels
    # module.
    from .kernels import closure_ok

    G = np.frombuffer(elements).reshape(-1, 3, 3)
    mask = np.unpackbits(np.frombuffer(packed, dtype=np.uint8), count=len(G)).astype(bool)
    mats = np.ascontiguousarray(G[mask])
    if not closure_ok(mats, tol):
        raise _NotClosed
    return classify(MatrixGroup(mats))


def _classify_mask(elements: bytes, packed: bytes, BC_f: np.ndarray,
                   tol: float) -> SubgroupClass:
    """Class of the member subset ``packed`` of the group with these
    elements; ``BC_f`` is the first frame's conjugated B with that mask,
    used for the tight retry."""
    try:
        return _subset_class(elements, packed, tol)
    except _NotClosed:
        pass
    # Looked up per call: perfbench's tracer wraps these names in the
    # kernels module.
    from .kernels import closure_ok, membership

    # A frame near (but not on) an alignment manifold can match only part
    # of a coset.  Genuine matches sit far below tol, so retry with a
    # tightened tolerance before giving up.
    G = np.frombuffer(elements).reshape(-1, 3, 3)
    mats = np.ascontiguousarray(G[membership(G, BC_f, tol / 100.0)])
    if not closure_ok(mats, tol):
        raise ValueError(
            "intersection is not closed at either tolerance; "
            "frame sits on a degenerate alignment"
        )
    return classify(MatrixGroup(mats))


def _conjugates(F: np.ndarray, G: np.ndarray) -> np.ndarray:
    """(frames, len(G), 3, 3) array of F[f] @ G[n] @ F[f].T.

    Row-major ``vec(f X f^T) = (f kron f) vec(X)``, so each frame is one
    (len(G), 9) x (9, 9) matrix product, written straight into the result.
    """
    out = np.empty((len(F), len(G), 3, 3))
    kron = np.einsum("fab,fdc->fbcad", F, F).reshape(-1, 9, 9)
    np.matmul(G.reshape(-1, 9), kron, out=out.reshape(len(F), len(G), 9))
    return out


def verify_clips(a: SubgroupClass, b: SubgroupClass, samples: int = 200,
                 seed: int = 0, alignments: Optional[Sequence[np.ndarray]] = None,
                 tol: float = MATCH_TOL) -> VerificationReport:
    """Compare the symbolic clips set of (a, b) with observed intersections."""
    if not (a.is_finite and b.is_finite):
        raise ValueError("oracle verification needs finite classes")
    ctx = Context.O3 if (a.is_type_iii or b.is_type_iii or a.is_type_ii
                         or b.is_type_ii) else Context.SO3
    table = clips_pair(ctx, a, b)
    A, B = realize(a), realize(b)
    auto = alignments is None
    if auto:
        curated = alignment_frames(A, B)
    else:
        curated = np.asarray(alignments, dtype=float).reshape(-1, 3, 3)
    rng = np.random.default_rng(seed)
    F = np.concatenate([curated, random_rotations(samples, rng)])

    BC = _conjugates(F, B.elements)
    masks = batch_membership(np.ascontiguousarray(A.elements), BC, tol)
    # Classify each distinct mask once, visiting them in the order of their
    # first frame: the first frame to reach a class stays its witness.
    packed = np.packbits(masks, axis=1)
    rows = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
    _, first = np.unique(rows, return_index=True)
    key = _elements_key(A)
    witnesses: Dict[SubgroupClass, np.ndarray] = {}
    for f_idx in np.sort(first):
        c = _classify_mask(key, packed[f_idx].tobytes(), BC[f_idx], tol)
        if c not in witnesses:
            witnesses[c] = F[f_idx].copy()
    if auto:
        for target in table:
            if target not in witnesses:
                f = find_witness(A, B, target, tol)
                if f is not None:
                    witnesses[target] = f
    observed = ClassSet(witnesses.keys())
    extra = ClassSet(c for c in observed if c not in table)
    missing = ClassSet(c for c in table if c not in observed)
    return VerificationReport(
        pair=(a, b), table=table, observed=observed, witnesses=witnesses,
        samples=samples, seed=seed, extra=extra, missing=missing,
    )
