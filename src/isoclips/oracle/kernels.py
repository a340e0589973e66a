"""Hot numeric kernels for the matrix-group oracle.

``membership``, ``closure_ok`` and ``mult_table`` compare 3x3 blocks
entrywise within ``tol``.  ``batch_membership`` tests many frames at once
with a Frobenius threshold instead: for orthogonal ``A`` and ``B``,
``||A - B||_F^2 = 6 - 2<A, B>``, so one matrix product over flattened
blocks replaces the difference tensor.
"""

from __future__ import annotations

import numpy as np

# Kept for the benchmark's run record, which reads it; there is one kernel set.
USING_NUMBA = False

MATCH_TOL = 1e-6
_NUMPY_CHUNK = 64  # frames per block in batch_membership, bounds memory


def _matches(A: np.ndarray, B: np.ndarray, tol: float) -> np.ndarray:
    """Bool matrix (len(A), len(B)): A[i] within entrywise tol of B[j]."""
    return np.abs(A[:, None] - B[None, :]).max(axis=(2, 3)) <= tol


def _products(G: np.ndarray) -> np.ndarray:
    """All pairwise products G[a] @ G[b], flattened to (n*n, 3, 3)."""
    n = G.shape[0]
    return np.einsum("aij,bjk->abik", G, G).reshape(n * n, 3, 3)


def membership(A: np.ndarray, B: np.ndarray, tol: float) -> np.ndarray:
    """Bool mask over A: A[i] within entrywise tol of some B[j]."""
    return _matches(A, B, tol).any(axis=1)


def batch_membership(A: np.ndarray, BC: np.ndarray, tol: float) -> np.ndarray:
    """Bool mask (frames, len(A)): ||A[i] - BC[f, j]||_F <= tol for some j.

    All matrices must be orthogonal.  Rounding in the Gram form leaves up to
    ~1e-14 of noise on the squared distance, so ``tol**2`` must stay well
    above it: tolerances below ``MATCH_TOL`` are refused.
    """
    if tol < MATCH_TOL:
        raise ValueError(f"batch_membership needs tol >= {MATCH_TOL}, got {tol}")
    F = BC.shape[0]
    flat_a = A.reshape(A.shape[0], 9)
    flat_bc = BC.reshape(F, BC.shape[1], 9)
    bound = 3.0 - tol * tol / 2.0
    out = np.empty((F, A.shape[0]), dtype=bool)
    for start in range(0, F, _NUMPY_CHUNK):
        # (frames, len(BC[f]), len(A)) inner products; matmul runs on BLAS
        # where the equivalent einsum does not.
        gram = flat_bc[start:start + _NUMPY_CHUNK] @ flat_a.T
        out[start:start + gram.shape[0]] = (gram >= bound).any(axis=1)
    return out


def closure_ok(G: np.ndarray, tol: float) -> bool:
    """Is the set closed under products (within tol)?"""
    # Not through ``membership``: callers count its calls as tight retries.
    return bool(_matches(_products(G), G, tol).any(axis=1).all())


def mult_table(G: np.ndarray, tol: float) -> np.ndarray:
    """Index table t[i, j] = k with G[i] @ G[j] ~ G[k], or -1."""
    n = G.shape[0]
    hit = _matches(_products(G), G, tol)
    table = np.where(hit.any(axis=1), hit.argmax(axis=1), -1)
    return table.reshape(n, n).astype(np.int64)
