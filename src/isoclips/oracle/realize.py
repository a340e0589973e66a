"""Explicit 3x3 orthogonal matrix realizations of the finite classes.

Type I groups are built from their rotation generators in a fixed canonical
orientation (primary axis z, first secondary axis x, cube/tetrahedron on the
coordinate frame, dodecahedron with the golden-ratio vertex layout).  A type
III group with characteristic couple (L, H) is realized as
``L u (-(H \\ L))`` with L and H built in the same orientation.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from math import cos, pi, sin, sqrt
from typing import Optional

import numpy as np

from ..groups import (
    SubgroupClass,
    CYCLIC_K,
    DIHEDRAL_K,
    ZMINUS_K,
    DV_K,
    DH_K,
    OCTA_MINUS_K,
    TETRA_K,
    OCTA_K,
    ICO_K,
    TRIV_K,
    TYPE_II_K,
)
from .kernels import MATCH_TOL, closure_ok, membership

ORTHO_TOL = 1e-9

PHI = (1.0 + sqrt(5.0)) / 2.0

X = np.array([1.0, 0.0, 0.0])
Y = np.array([0.0, 1.0, 0.0])
Z = np.array([0.0, 0.0, 1.0])


def rotation(axis, angle: float) -> np.ndarray:
    """Rotation matrix about ``axis`` by ``angle`` (Rodrigues)."""
    u = np.asarray(axis, dtype=float)
    u = u / np.linalg.norm(u)
    c, s = cos(angle), sin(angle)
    ux, uy, uz = u
    K = np.array([[0.0, -uz, uy], [uz, 0.0, -ux], [-uy, ux, 0.0]])
    return c * np.eye(3) + s * K + (1.0 - c) * np.outer(u, u)


def reflection(normal) -> np.ndarray:
    """Reflection through the plane with the given normal."""
    return -rotation(normal, pi)


def _dedupe(mats, tol=ORTHO_TOL) -> np.ndarray:
    out = []
    for m in mats:
        if not any(np.abs(m - o).max() <= tol for o in out):
            out.append(m)
    return np.array(out)


def _cyclic_elements(n: int) -> np.ndarray:
    return np.array([rotation(Z, 2.0 * pi * j / n) for j in range(n)])


def _dihedral_elements(n: int) -> np.ndarray:
    secondaries = [
        rotation([cos(j * pi / n), sin(j * pi / n), 0.0], pi) for j in range(n)
    ]
    return np.concatenate([_cyclic_elements(n), np.array(secondaries)])


def _tetra_elements() -> np.ndarray:
    mats = [np.eye(3)]
    mats += [rotation(a, pi) for a in (X, Y, Z)]
    for v in ((1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)):
        mats += [rotation(v, 2 * pi / 3), rotation(v, 4 * pi / 3)]
    return np.array(mats)


def _octa_elements() -> np.ndarray:
    mats = list(_tetra_elements())
    for a in (X, Y, Z):
        mats += [rotation(a, pi / 2), rotation(a, 3 * pi / 2)]
    for e in ((1, 1, 0), (1, -1, 0), (1, 0, 1), (1, 0, -1), (0, 1, 1), (0, 1, -1)):
        mats.append(rotation(e, pi))
    return np.array(mats)


@functools.lru_cache(maxsize=1)
def _ico_elements_cached() -> np.ndarray:
    # Closure of a vertex 3-fold and a face 5-fold of the dodecahedron with
    # vertices (+-1,+-1,+-1), (0,+-phi,+-1/phi) and cyclic permutations.
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
    assert len(mats) == 60
    return np.array(mats)


def _minus_coset(L: np.ndarray, H: np.ndarray) -> np.ndarray:
    keep = ~membership(np.ascontiguousarray(H), np.ascontiguousarray(L), ORTHO_TOL * 10)
    return -H[keep]


@dataclass
class MatrixGroup:
    """A finite set of orthogonal matrices realizing a subgroup class."""

    elements: np.ndarray
    claimed: Optional[SubgroupClass] = None
    provenance: str = ""
    frame: Optional[np.ndarray] = None
    _dets: Optional[np.ndarray] = field(default=None, repr=False)

    @property
    def order(self) -> int:
        return self.elements.shape[0]

    @property
    def dets(self) -> np.ndarray:
        if self._dets is None:
            self._dets = np.sign(np.linalg.det(self.elements))
        return self._dets

    def conjugate(self, frame: np.ndarray) -> "MatrixGroup":
        f = np.asarray(frame, dtype=float)
        els = np.einsum("ab,nbc,dc->nad", f, self.elements, f)
        return MatrixGroup(
            np.ascontiguousarray(els), self.claimed, self.provenance, frame=f
        )

    def proper_part(self) -> np.ndarray:
        return self.elements[self.dets > 0]

    def pi_image(self) -> np.ndarray:
        """Image under ``x -> det(x) x`` (a rotation group)."""
        return self.elements * self.dets[:, None, None]

    def contains_minus_id(self, tol: float = MATCH_TOL) -> bool:
        return bool(
            (np.abs(self.elements + np.eye(3)).max(axis=(1, 2)) <= tol).any()
        )

    def validate(self, tol: float = MATCH_TOL) -> None:
        """Check orthogonality, closure, identity, and the claimed order."""
        gram = np.einsum("nji,njk->nik", self.elements, self.elements)
        if np.abs(gram - np.eye(3)).max() > ORTHO_TOL:
            raise ValueError("elements are not orthogonal to tolerance")
        dets = np.linalg.det(self.elements)
        if np.abs(np.abs(dets) - 1.0).max() > ORTHO_TOL:
            raise ValueError("element determinants are not +-1")
        if not (np.abs(self.elements - np.eye(3)).max(axis=(1, 2)) <= tol).any():
            raise ValueError("identity element missing")
        if not closure_ok(np.ascontiguousarray(self.elements), tol):
            raise ValueError("set is not closed under products")
        if self.claimed is not None and self.order != self.claimed.order():
            raise ValueError(
                f"order {self.order} does not match {self.claimed} "
                f"({self.claimed.order()})"
            )


def _canonical_elements(cls: SubgroupClass) -> np.ndarray:
    k = cls.kind
    if k == TRIV_K:
        return np.eye(3)[None, :, :]
    if k == CYCLIC_K:
        return _cyclic_elements(cls.n)
    if k == DIHEDRAL_K:
        return _dihedral_elements(cls.n)
    if k == TETRA_K:
        return _tetra_elements()
    if k == OCTA_K:
        return _octa_elements()
    if k == ICO_K:
        return _ico_elements_cached().copy()
    if k == ZMINUS_K:
        L = _cyclic_elements(cls.n // 2) if cls.n > 2 else np.eye(3)[None]
        H = _cyclic_elements(cls.n)
        return np.concatenate([L, _minus_coset(L, H)])
    if k == DV_K:
        L = _cyclic_elements(cls.n)
        H = _dihedral_elements(cls.n)
        return np.concatenate([L, _minus_coset(L, H)])
    if k == DH_K:
        L = _dihedral_elements(cls.n // 2)
        H = _dihedral_elements(cls.n)
        return np.concatenate([L, _minus_coset(L, H)])
    if k == OCTA_MINUS_K:
        L = _tetra_elements()
        H = _octa_elements()
        return np.concatenate([L, _minus_coset(L, H)])
    if k == TYPE_II_K:
        K = _canonical_elements(cls.inner)
        return np.concatenate([K, -K])
    raise ValueError(f"cannot realize the infinite class {cls}")


@functools.lru_cache(maxsize=None)
def _canonical_group(cls: SubgroupClass) -> MatrixGroup:
    g = MatrixGroup(
        np.ascontiguousarray(_canonical_elements(cls)),
        claimed=cls,
        provenance=f"canonical:{cls}",
    )
    g.validate()
    return g


def realize(cls: SubgroupClass, frame: Optional[np.ndarray] = None) -> MatrixGroup:
    """Realize a finite class as an explicit matrix group, optionally rotated."""
    if not cls.is_finite:
        raise ValueError(f"cannot realize the infinite class {cls}")
    g = _canonical_group(cls)
    if frame is None:
        return MatrixGroup(g.elements.copy(), cls, g.provenance, frame=np.eye(3))
    out = g.conjugate(frame)
    out.provenance = f"canonical:{cls}@frame"
    return out


def intersect(g1: MatrixGroup, g2: MatrixGroup, tol: float = MATCH_TOL) -> MatrixGroup:
    """Elements of ``g1`` matching an element of ``g2`` within ``tol``."""
    mask = membership(
        np.ascontiguousarray(g1.elements), np.ascontiguousarray(g2.elements), tol
    )
    out = MatrixGroup(
        np.ascontiguousarray(g1.elements[mask]),
        provenance="intersection",
    )
    if not closure_ok(np.ascontiguousarray(out.elements), tol):
        raise ValueError("intersection is not closed; tolerance mismatch")
    return out
