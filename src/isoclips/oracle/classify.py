"""Classification of explicit matrix groups back to canonical class labels."""

from __future__ import annotations

from math import acos, pi
from typing import List, Tuple

import numpy as np

from ..groups import (
    SubgroupClass,
    TRIV,
    TETRA,
    OCTA,
    ICO,
    cyclic,
    dihedral,
    type_ii,
    type_iii_class,
)
from .realize import MATCH_TOL, MatrixGroup

_ANGLE_TOL = 1e-6
_AXIS_TOL = 1e-6


def rotation_axis_angle(R: np.ndarray) -> Tuple[np.ndarray, float]:
    """Axis (canonical sign) and angle in (0, pi] of a non-identity rotation."""
    c = np.clip((np.trace(R) - 1.0) / 2.0, -1.0, 1.0)
    angle = acos(c)
    if angle < _ANGLE_TOL:
        raise ValueError("identity has no rotation axis")
    if pi - angle < 1e-4:
        # R ~ 2 uu^T - I: read the axis off the symmetric part.
        M = (R + np.eye(3)) / 2.0
        k = int(np.argmax(np.diag(M)))
        u = M[:, k] / np.sqrt(max(M[k, k], 1e-12))
    else:
        u = np.array([R[2, 1] - R[1, 2], R[0, 2] - R[2, 0], R[1, 0] - R[0, 1]])
    u = u / np.linalg.norm(u)
    for comp in u:
        if abs(comp) > 1e-8:
            if comp < 0:
                u = -u
            break
    return u, angle


def _axis_clusters(rotations: np.ndarray) -> List[Tuple[np.ndarray, int]]:
    """Distinct rotation axes with the count of non-identity elements on each."""
    clusters: List[Tuple[np.ndarray, int]] = []
    for R in rotations:
        if np.abs(R - np.eye(3)).max() <= MATCH_TOL:
            continue
        u, _ = rotation_axis_angle(R)
        for i, (v, c) in enumerate(clusters):
            if abs(float(u @ v)) > 1.0 - _AXIS_TOL:
                clusters[i] = (v, c + 1)
                break
        else:
            clusters.append((u, 1))
    return clusters


def _classify_rotations(rotations: np.ndarray) -> SubgroupClass:
    n = rotations.shape[0]
    if n == 1:
        return TRIV
    clusters = _axis_clusters(rotations)
    orders = sorted(c + 1 for _, c in clusters)
    if len(clusters) == 1:
        if orders[0] != n:
            raise ValueError("axial group with inconsistent order")
        # Angles must be the multiples of 2*pi/n, or the set is not a group.
        step = 2.0 * pi / n
        for R in rotations:
            if np.abs(R - np.eye(3)).max() <= MATCH_TOL:
                continue
            _, ang = rotation_axis_angle(np.ascontiguousarray(R))
            if abs(ang / step - round(ang / step)) > 1e-4:
                raise ValueError("axial set is not a cyclic group")
        return cyclic(n)
    if n == 4 and orders == [2, 2, 2]:
        return dihedral(2)
    if n == 12 and orders == [2, 2, 2, 3, 3, 3, 3]:
        return TETRA
    if n == 24 and orders == [2] * 6 + [3] * 4 + [4] * 3:
        return OCTA
    if n == 60 and orders == [2] * 15 + [3] * 10 + [5] * 6:
        return ICO
    k = orders[-1]
    if n == 2 * k and orders == [2] * k + [k]:
        return dihedral(k)
    raise ValueError(f"unrecognized rotation group signature: order {n}, {orders}")


def classify(g: MatrixGroup) -> SubgroupClass:
    """Exact canonical class of a closed matrix group of order <= 120."""
    if g.order > 120:
        raise ValueError("group too large to classify")
    if (g.dets > 0).all():
        return _classify_rotations(g.elements)
    if g.contains_minus_id():
        proper = g.proper_part()
        if 2 * proper.shape[0] != g.order:
            raise ValueError("broken group: -I present but |G| != 2|L|")
        return type_ii(_classify_rotations(proper))
    # Type III: classify by the characteristic couple (L, H).
    proper = g.proper_part()
    if proper.shape[0] * 2 != g.order:
        raise ValueError("broken group: proper part is not index 2")
    L = _classify_rotations(proper)
    H = _classify_rotations(np.ascontiguousarray(g.pi_image()))
    out = type_iii_class(L, H)
    if out is None:
        raise ValueError(f"unrecognized characteristic couple ({L}, {H})")
    return out
