"""Classification of explicit matrix groups back to canonical class labels."""

from __future__ import annotations

from math import acos, pi
from typing import List, Tuple

import numpy as np

from ..groups import (
    SubgroupClass,
    TETRA,
    OCTA,
    ICO,
    cyclic,
    dihedral,
    type_ii,
    type_iii_class,
)
from .realize import MATCH_TOL, contains_minus_id

_ANGLE_TOL = 1e-6
_AXIS_TOL = 1e-12


def _cosines(R: np.ndarray) -> np.ndarray:
    """Cosine of the rotation angle of each of the (n, 3, 3) rotations R."""
    return np.clip((R[:, 0, 0] + R[:, 1, 1] + R[:, 2, 2] - 1.0) / 2.0, -1.0, 1.0)


def _moved(R: np.ndarray) -> np.ndarray:
    """The rotations of R that are not the identity to ``MATCH_TOL``."""
    return R[np.abs(R - np.eye(3)).max(axis=(1, 2)) > MATCH_TOL]


def _axial(R: np.ndarray) -> np.ndarray:
    """(n, 3) vectors of the antisymmetric parts ``R - R^T`` of the (n, 3, 3)
    rotations R: each is 2 sin(angle) times the rotation's axis."""
    return np.stack([R[:, 2, 1] - R[:, 1, 2], R[:, 0, 2] - R[:, 2, 0],
                     R[:, 1, 0] - R[:, 0, 1]], axis=1)


def _rotation_axes(R: np.ndarray) -> np.ndarray:
    """(n, 3) unit axes, of canonical sign, of the (n, 3, 3) non-identity
    rotations R: from the antisymmetric part, or from the symmetric part
    when the angle is within 1e-7 of pi.  Each norm is ``sqrt(u.u)``, as
    ``np.linalg.norm`` takes it for one vector."""
    u = _axial(R)
    near_pi = pi - np.arccos(_cosines(R)) < 1e-7
    if near_pi.any():
        # R ~ 2 uu^T - I: read the axis off the symmetric part.
        M = (R[near_pi] + np.eye(3)) / 2.0
        rows = np.arange(len(M))
        k = np.argmax(np.diagonal(M, axis1=1, axis2=2), axis=1)
        u[near_pi] = M[rows, :, k] / np.sqrt(np.maximum(M[rows, k, k], 1e-12))[:, None]
    u = u / np.sqrt(u[:, None, :] @ u[:, :, None])[:, 0]
    # The first component off zero is positive.
    first = np.argmax(np.abs(u) > 1e-8, axis=1)
    flip = u[np.arange(len(u)), first] < 0
    u[flip] = -u[flip]
    return u


def rotation_axis_angle(R: np.ndarray) -> Tuple[np.ndarray, float]:
    """Axis (canonical sign) and angle in (0, pi] of a non-identity rotation."""
    c = np.clip((np.trace(R) - 1.0) / 2.0, -1.0, 1.0)
    angle = acos(c)
    if angle < _ANGLE_TOL:
        raise ValueError("identity has no rotation axis")
    return _rotation_axes(R[None])[0], angle


def _axis_clusters(rotations: np.ndarray) -> List[Tuple[np.ndarray, int]]:
    """Distinct rotation axes with the count of non-identity elements on
    each.  The first element not yet on an axis opens the next one, with
    its own axis, and every element left whose axis is within ``_AXIS_TOL``
    of it joins it."""
    U = _rotation_axes(_moved(rotations))
    left = np.ones(len(U), dtype=bool)
    clusters: List[Tuple[np.ndarray, int]] = []
    while left.any():
        v = U[np.argmax(left)]
        joins = left & (np.abs(U @ v) > 1.0 - _AXIS_TOL)
        clusters.append((v, int(joins.sum())))
        left &= ~joins
    return clusters


def _classify_rotations(R: np.ndarray) -> SubgroupClass:
    """Class of a closed group of n rotations, named by its element orders.
    Each angle comes from twice its sine, |R - R^T|, and twice its cosine,
    tr R - 1: exact near a half turn, where the arccos of the trace is not.
    In a group every angle is a multiple k of 2*pi/n, and the element's
    order is n / gcd(k, n).  The largest order m names the class: Zn when
    m = n, Dm when n = 2m, and T, O, I at (12, 3), (24, 4), (60, 5)."""
    n = len(R)
    angles = np.arctan2(np.linalg.norm(_axial(R), axis=1),
                        R[:, 0, 0] + R[:, 1, 1] + R[:, 2, 2] - 1.0)
    steps = angles * (n / (2.0 * pi))
    k = np.rint(steps)
    if n == 0 or (np.abs(steps - k) > 1e-4).any():
        raise ValueError("rotation set is not a group")
    m = int((n // np.gcd(k.astype(np.int64), n)).max())
    if m == n:
        return cyclic(n)
    if n == 2 * m and m >= 2:
        return dihedral(m)
    named = {(12, 3): TETRA, (24, 4): OCTA, (60, 5): ICO}.get((n, m))
    if named is None:
        raise ValueError(f"no finite rotation group of order {n} has largest element order {m}")
    return named


def classify(G: np.ndarray) -> SubgroupClass:
    """Exact canonical class of a closed finite matrix group, given as the
    ``(order, 3, 3)`` array of its elements."""
    dets = np.sign(np.linalg.det(G))
    if (dets > 0).all():
        return _classify_rotations(G)
    proper = G[dets > 0]
    if 2 * len(proper) != len(G):
        raise ValueError("broken group: proper part is not index 2")
    L = _classify_rotations(proper)
    if contains_minus_id(G):
        return type_ii(L)
    # Type III: classify by the characteristic couple (L, H).
    H = _classify_rotations(G * dets[:, None, None])
    out = type_iii_class(L, H)
    if out is None:
        raise ValueError(f"unrecognized characteristic couple ({L}, {H})")
    return out
