"""Hot numeric kernels for the matrix-group oracle.

``membership`` and ``closure_ok`` compare 3x3 blocks entrywise within
``tol``.  ``batch_membership`` tests many frames at once with a Frobenius
threshold instead: for orthogonal ``A`` and ``B``,
``||A - B||_F^2 = 6 - 2<A, B>``, so one matrix product over flattened
blocks replaces the difference tensor.  It compares only the pairs whose
conjugation invariants (``invariants``) allow a match.
"""

from __future__ import annotations

from math import sqrt

import numpy as np

# Kept for the benchmark's run record, which reads it; there is one kernel set.
USING_NUMBA = False

MATCH_TOL = 1e-6
ROW_BUDGET = 1 << 12  # (frame, B element) rows per block of frames, bounds memory
_MATCH_ROWS = 256  # rows of A per block in _matches, bounds memory


def _matches(A: np.ndarray, B: np.ndarray, tol: float) -> np.ndarray:
    """Bool matrix (len(A), len(B)): A[i] within entrywise tol of B[j]."""
    out = np.empty((A.shape[0], B.shape[0]), dtype=bool)
    for start in range(0, A.shape[0], _MATCH_ROWS):
        block = A[start:start + _MATCH_ROWS]
        diff = np.abs(block[:, None] - B[None, :])
        out[start:start + block.shape[0]] = diff.max(axis=(2, 3)) <= tol
    return out


def _products(G: np.ndarray) -> np.ndarray:
    """All pairwise products G[a] @ G[b], flattened to (n*n, 3, 3)."""
    n = G.shape[0]
    return np.einsum("aij,bjk->abik", G, G).reshape(n * n, 3, 3)


def membership(A: np.ndarray, B: np.ndarray, tol: float) -> np.ndarray:
    """Bool mask over A: A[i] within entrywise tol of some B[j]."""
    return _matches(A, B, tol).any(axis=1)


def invariants(G: np.ndarray) -> np.ndarray:
    """``trace + 8 det`` of each 3x3 orthogonal matrix.

    Conjugation keeps both.  A proper matrix has trace in [-1, 3] and an
    improper one in [-3, 1], so the two kinds land at least 14 apart.
    """
    m = G.reshape(-1, 9).T
    det = (m[0] * (m[4] * m[8] - m[5] * m[7]) - m[1] * (m[3] * m[8] - m[5] * m[6])
           + m[2] * (m[3] * m[7] - m[4] * m[6]))
    return m[0] + m[4] + m[8] + 8.0 * np.sign(det)


def match_window(tol: float) -> float:
    """Invariant distance beyond which two orthogonal matrices cannot be
    within Frobenius ``tol`` (see ``batch_membership``)."""
    return 2.0 * sqrt(3.0) * tol


def batch_membership(A: np.ndarray, BC: np.ndarray, tol: float) -> np.ndarray:
    """Bool mask (frames, len(A)): ||A[i] - BC[f, j]||_F <= tol for some j.

    All matrices must be orthogonal, and each ``BC[:, j]`` must be the
    conjugates of one matrix: the invariants are read from frame 0.

    Only compatible pairs are compared.  ``tr X - tr Y = <I, X - Y>``, so
    ``|tr X - tr Y| <= sqrt(3) ||X - Y||_F``; an improper ``X^T Y`` has
    eigenvalue -1, so a det mismatch gives ``||X - Y||_F >= 2``.  A pair
    whose invariants differ by more than ``match_window(tol)`` is thus at
    Frobenius distance over ``2 tol``, which the Gram test below never takes
    for a match.  Neighbouring columns of ``BC`` with equal invariants form
    one block, so ``BC`` sorted by invariant makes the fewest blocks.

    Rounding in the Gram form leaves up to ~1e-14 of noise on the squared
    distance, so ``tol**2`` must stay well above it: tolerances below
    ``MATCH_TOL`` are refused, as are tolerances of 1 and above, which would
    match unrelated group elements.
    """
    if not MATCH_TOL <= tol < 1.0:
        raise ValueError(f"batch_membership needs {MATCH_TOL} <= tol < 1, got {tol}")
    F, nb = BC.shape[:2]
    out = np.zeros((F, A.shape[0]), dtype=bool)
    if F == 0 or nb == 0:
        return out
    flat_a = A.reshape(A.shape[0], 9)
    sa = invariants(A)
    window = match_window(tol)
    # Runs of neighbouring columns with equal invariants, each with the rows
    # of A within the window of its value range.
    sb = invariants(BC[0])
    cut = np.flatnonzero(np.abs(np.diff(sb)) > window) + 1
    starts = np.concatenate([[0], cut])
    lows = np.minimum.reduceat(sb, starts) - window
    highs = np.maximum.reduceat(sb, starts) + window
    near = (sa >= lows[:, None]) & (sa <= highs[:, None])
    blocks = []
    for j0, j1, row_mask in zip(starts.tolist(), cut.tolist() + [nb], near):
        rows = np.flatnonzero(row_mask)
        if len(rows):
            blocks.append((j0, j1, rows, np.ascontiguousarray(flat_a[rows].T)))
    bound = 3.0 - tol * tol / 2.0
    step = max(1, ROW_BUDGET // nb)
    for start in range(0, F, step):
        chunk = BC[start:start + step]
        fc = chunk.shape[0]
        # B-major rows: each B element's frames are one contiguous slice.
        flat_bc = np.ascontiguousarray(chunk.reshape(fc, nb, 9).swapaxes(0, 1))
        for j0, j1, rows, block_a in blocks:
            # Inner products of the block; matmul runs on BLAS.
            gram = flat_bc[j0:j1].reshape(-1, 9) @ block_a
            hit = gram.reshape(j1 - j0, fc, len(rows)).max(axis=0) >= bound
            out[start:start + fc, rows] |= hit
    return out


def closure_ok(G: np.ndarray, tol: float) -> bool:
    """Is the set closed under products (within tol)?"""
    # Not through ``membership``: callers count its calls as tight retries.
    return bool(_matches(_products(G), G, tol).any(axis=1).all())
