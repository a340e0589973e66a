"""Explicit 3x3 orthogonal matrix realizations of the finite classes.

Type I groups are built from their rotation generators in a fixed canonical
orientation (primary axis z, first secondary axis x, cube/tetrahedron on the
coordinate frame, dodecahedron with the golden-ratio vertex layout).  A type
III group with characteristic couple (L, H) (``characteristic_l``,
``characteristic_h``) is realized as ``L u (-(H \\ L))`` and a type II
group ``[K x Zc2]`` as ``K u (-K)``, from the cached canonical groups of L,
H and K.
"""

from __future__ import annotations

import functools
from math import cos, pi, sin, sqrt

import numpy as np

from ..groups import (
    SubgroupClass,
    CYCLIC_K,
    DIHEDRAL_K,
    TETRA_K,
    OCTA_K,
    ICO_K,
    TRIV_K,
    characteristic_h,
    characteristic_l,
)
from .kernels import MATCH_TOL, membership, read_only

ORTHO_TOL = 1e-9

PHI = (1.0 + sqrt(5.0)) / 2.0

X = np.array([1.0, 0.0, 0.0])
Y = np.array([0.0, 1.0, 0.0])
Z = np.array([0.0, 0.0, 1.0])


def rotations(axes, angles) -> np.ndarray:
    """(n, 3, 3) rotations about ``axes[i]`` by ``angles[i]`` (Rodrigues)."""
    axes = np.asarray(axes, dtype=float).reshape(-1, 3)
    # Each norm as the dot product u.u, as np.linalg.norm takes it for one
    # vector; the axis=1 reduction sums in another order.
    u = axes / np.sqrt(axes[:, None, :] @ axes[:, :, None])[:, 0]
    c = np.array([cos(t) for t in angles])[:, None, None]
    s = np.array([sin(t) for t in angles])[:, None, None]
    K = np.zeros((len(u), 3, 3))  # [[0, -uz, uy], [uz, 0, -ux], [-uy, ux, 0]]
    K[:, [2, 0, 1], [1, 2, 0]] = u
    K[:, [1, 2, 0], [2, 0, 1]] = -u
    return c * np.eye(3) + s * K + (1.0 - c) * (u[:, :, None] * u[:, None, :])


def rotation(axis, angle: float) -> np.ndarray:
    """Rotation matrix about ``axis`` by ``angle`` (Rodrigues)."""
    return rotations(axis, [angle])[0]


def _cyclic_elements(n: int) -> np.ndarray:
    return rotations(np.tile(Z, (n, 1)), [2.0 * pi * j / n for j in range(n)])


def _dihedral_elements(n: int) -> np.ndarray:
    # The turns about z, then the half turns about the secondary axes.
    secondaries = [[cos(j * pi / n), sin(j * pi / n), 0.0] for j in range(n)]
    return rotations(np.concatenate([np.tile(Z, (n, 1)), secondaries]),
                     [2.0 * pi * j / n for j in range(n)] + [pi] * n)


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


def _ico_elements() -> np.ndarray:
    # Closure of a vertex 3-fold and a face 5-fold of the dodecahedron with
    # vertices (+-1,+-1,+-1), (0,+-phi,+-1/phi) and cyclic permutations.
    gens = [rotation((1, 1, 1), 2 * pi / 3), rotation((PHI, 0.0, 1.0), 2 * pi / 5)]
    # Each candidate is compared against all elements found so far at once.
    mats = np.empty((60, 3, 3))
    mats[0] = np.eye(3)
    count = 1
    frontier = list(gens)
    while frontier:
        m = frontier.pop()
        if (np.abs(mats[:count] - m).max(axis=(1, 2)) <= ORTHO_TOL).any():
            continue
        mats[count] = m
        count += 1
        for g in gens:
            frontier.append(g @ m)
            frontier.append(m @ g)
    assert count == 60
    return mats


def _minus_coset(L: np.ndarray, H: np.ndarray) -> np.ndarray:
    keep = ~membership(np.ascontiguousarray(H), np.ascontiguousarray(L), ORTHO_TOL * 10)
    return -H[keep]


def pi_image(G: np.ndarray) -> np.ndarray:
    """Image of the elements G under ``x -> det(x) x`` (a rotation group)."""
    return G * np.sign(np.linalg.det(G))[:, None, None]


def contains_minus_id(G: np.ndarray) -> bool:
    """Whether -I is among the elements G, to ``MATCH_TOL``."""
    return bool((np.abs(G + np.eye(3)).max(axis=(1, 2)) <= MATCH_TOL).any())


# Element builders of the finite rotation kinds, from the class parameter.
_ROTATION_BUILDERS = {
    TRIV_K: lambda n: np.eye(3)[None, :, :],
    CYCLIC_K: _cyclic_elements,
    DIHEDRAL_K: _dihedral_elements,
    TETRA_K: lambda n: _tetra_elements(),
    OCTA_K: lambda n: _octa_elements(),
    ICO_K: lambda n: _ico_elements(),
}


def _canonical_elements(cls: SubgroupClass) -> np.ndarray:
    if cls.is_type_iii:
        L = _canonical(characteristic_l(cls))
        H = _canonical(characteristic_h(cls))
        return np.concatenate([L, _minus_coset(L, H)])
    if cls.is_type_ii:
        K = _canonical(cls.inner)
        return np.concatenate([K, -K])
    return _ROTATION_BUILDERS[cls.kind](cls.n)


@functools.lru_cache(maxsize=None)
def _canonical(cls: SubgroupClass) -> np.ndarray:
    # Shared by every caller of ``realize``.
    return read_only(np.ascontiguousarray(_canonical_elements(cls)))


def realize(cls: SubgroupClass) -> np.ndarray:
    """The elements of a finite class's canonical group: one cached,
    read-only ``(order, 3, 3)`` array per class."""
    if not cls.is_finite:
        raise ValueError(f"cannot realize the infinite class {cls}")
    return _canonical(cls)
