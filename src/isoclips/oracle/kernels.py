"""Hot numeric kernels for the matrix-group oracle.

``membership`` and ``closure_ok`` compare 3x3 blocks entrywise within
``tol``; ``closure_ok`` compares each product only with the elements near
it in a sorted linear key.  ``batch_membership`` tests many frames at once
with a Frobenius threshold instead: for orthogonal ``A`` and ``B``,
``||A - B||_F^2 = 6 - 2<A, B>``, so one matrix product over flattened
blocks replaces the difference tensor.  It compares only the pairs of a
match plan: ``invariant_runs`` sorts a group's conjugation invariants
(``invariants``) into runs, and ``match_plan`` joins the runs of two groups
into the element pairs whose invariants allow a match.
"""

from __future__ import annotations

from math import sqrt
from typing import List, Tuple

import numpy as np

# Kept for the benchmark's run record, which reads it; there is one kernel set.
USING_NUMBA = False

MATCH_TOL = 1e-6
ROW_BUDGET = 1 << 12  # (frame, B element) rows per chunk of frames, bounds memory
_MATCH_ROWS = 256  # rows of A per block in _matches, bounds memory
_PRODUCTS = 1 << 16  # products per block in closure_ok, bounds memory

# A generic linear form of the nine entries (``closure_ok``): any weights
# give the same verdict, and generic ones leave about one candidate per
# product.
_KEY = np.sqrt([2.0, 3.0, 5.0, 7.0, 11.0, 13.0, 17.0, 19.0, 23.0]) - 1.0
_KEY.flags.writeable = False

# (j0, j1, rows of A, the flattened A[rows] transposed): see ``match_plan``.
Block = Tuple[int, int, np.ndarray, np.ndarray]


def _matches(A: np.ndarray, B: np.ndarray, tol: float) -> np.ndarray:
    """Bool matrix (len(A), len(B)): A[i] within entrywise tol of B[j]."""
    out = np.empty((A.shape[0], B.shape[0]), dtype=bool)
    for start in range(0, A.shape[0], _MATCH_ROWS):
        block = A[start:start + _MATCH_ROWS]
        diff = np.abs(block[:, None] - B[None, :])
        out[start:start + block.shape[0]] = diff.max(axis=(2, 3)) <= tol
    return out


def _products(L: np.ndarray, R: np.ndarray) -> np.ndarray:
    """All products L[a] @ R[b], flattened to (len(L) * len(R), 3, 3)."""
    return np.matmul(L[:, None], R[None]).reshape(-1, 3, 3)


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


def invariant_runs(G: np.ndarray, tol: float) -> Tuple[np.ndarray, ...]:
    """``(order, bounds, lows, highs)``: the element order that sorts the
    invariants of G, and their runs in that order, run k being
    ``order[bounds[k]:bounds[k + 1]]`` with values from ``lows[k]`` to
    ``highs[k]``.  Neighbours within ``match_window(tol)`` share a run, so
    values of different runs lie farther apart."""
    s = invariants(G)
    order = np.argsort(s, kind="stable")
    s = s[order]
    bounds = np.flatnonzero(np.diff(s, prepend=-np.inf, append=np.inf) > match_window(tol))
    return order, bounds, s[bounds[:-1]], s[bounds[1:] - 1]


def match_plan(A: np.ndarray, runs_a, runs_b,
               tol: float) -> Tuple[np.ndarray, List[Block]]:
    """``(needed, blocks)`` for ``batch_membership`` from the
    ``invariant_runs`` of A and of B at ``tol``.

    An A run and a B run are partners when their value ranges come within
    ``match_window(tol)``; no pair of elements outside partner runs can
    match.  ``needed`` holds the indices of B's elements in the runs that
    have a partner, in run order.  Each such run is one block
    ``(j0, j1, rows, A[rows] flat^T)``: its elements are ``needed[j0:j1]``
    and ``rows`` are the elements of A in its partner runs.
    """
    order_a, bounds_a, lows_a, highs_a = runs_a
    order_b, bounds_b, lows_b, highs_b = runs_b
    window = match_window(tol)
    # Runs are disjoint and increasing, so the partners of a B run are
    # consecutive A runs, first .. last - 1.
    first = np.searchsorted(highs_a, lows_b - window).tolist()
    last = np.searchsorted(lows_a, highs_b + window, side="right").tolist()
    ba, bb = bounds_a.tolist(), bounds_b.tolist()
    # A's flattened elements sorted by invariant: a block's rows are a slice.
    flat_a = np.ascontiguousarray(A.reshape(-1, 9)[order_a].T)
    needed, blocks, j0 = [], [], 0
    for k, (f, l) in enumerate(zip(first, last)):
        if f < l:
            b0, b1, a0, a1 = bb[k], bb[k + 1], ba[f], ba[l]
            needed.append(order_b[b0:b1])
            blocks.append((j0, j0 + b1 - b0, order_a[a0:a1], flat_a[:, a0:a1]))
            j0 += b1 - b0
    return np.concatenate(needed) if needed else order_b[:0], blocks


def batch_membership(A: np.ndarray, BC: np.ndarray, tol: float,
                     blocks: List[Block]) -> np.ndarray:
    """Bool mask (frames, len(A)): ||A[i] - BC[f, j]||_F <= tol for some j.

    All matrices must be orthogonal.  ``blocks`` is the plan of
    ``match_plan`` at the same ``tol``, and ``BC[:, j]`` the conjugates of
    ``needed[j]``; only the pairs of a block are compared.
    ``tr X - tr Y = <I, X - Y>``, so ``|tr X - tr Y| <= sqrt(3) ||X - Y||_F``;
    an improper ``X^T Y`` has eigenvalue -1, so a det mismatch gives
    ``||X - Y||_F >= 2``.  A pair whose invariants differ by more than
    ``match_window(tol)`` is thus at Frobenius distance over ``2 tol``,
    which the Gram test below never takes for a match.

    All frames are compared at once: callers bound the rows
    (``ROW_BUDGET``).  Rounding in the Gram form leaves up to ~1e-14 of noise
    on the squared distance, so ``tol**2`` must stay well above it:
    tolerances below ``MATCH_TOL`` are refused, as are tolerances of 1 and
    above, which would match unrelated group elements.
    """
    if not MATCH_TOL <= tol < 1.0:
        raise ValueError(f"batch_membership needs {MATCH_TOL} <= tol < 1, got {tol}")
    F, nb = BC.shape[:2]
    out = np.zeros((F, A.shape[0]), dtype=bool)
    bound = 3.0 - tol * tol / 2.0
    # B-major rows: each B element's frames are one contiguous slice.
    flat_bc = np.ascontiguousarray(BC.reshape(F, nb, 9).swapaxes(0, 1))
    for j0, j1, rows, block_a in blocks:
        # Inner products of the block; matmul runs on BLAS.
        gram = flat_bc[j0:j1].reshape(-1, 9) @ block_a
        out[:, rows] |= gram.reshape(j1 - j0, F, len(rows)).max(axis=0) >= bound
    return out


def closure_ok(G: np.ndarray, tol: float) -> bool:
    """Is the set closed under products (within entrywise tol)?

    An element within entrywise ``tol`` of a product has a key, the linear
    form ``_KEY`` of its entries, within ``||_KEY||_1 tol`` of the
    product's.  So with G sorted by key, each product is compared only with
    the elements whose keys fall in that range, found by ``searchsorted``.
    Products go in blocks of whole rows G[a] @ G, of at most ``_PRODUCTS``
    products unless one row alone holds more.
    """
    n = G.shape[0]
    flat = G.reshape(n, 9)
    keys = flat @ _KEY
    order = np.argsort(keys)
    keys, flat = keys[order], flat[order]
    # The slack covers the rounding of the keys.
    reach = float(np.abs(_KEY).sum()) * (tol + 1e-12)
    step = max(1, _PRODUCTS // max(n, 1))
    for start in range(0, n, step):
        prods = _products(G[start:start + step], G).reshape(-1, 9)
        pk = prods @ _KEY
        lo = np.searchsorted(keys, pk - reach)
        count = np.searchsorted(keys, pk + reach, side="right") - lo
        found = np.zeros(len(prods), dtype=bool)
        # Candidate d of every product at once; rarely more than one round.
        for d in range(int(count.max())):
            near = np.abs(prods - flat[np.minimum(lo + d, n - 1)]) <= tol
            found |= (d < count) & near.all(axis=1)
        if not found.all():
            return False
    return True
