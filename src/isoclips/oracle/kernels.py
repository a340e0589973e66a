"""Hot numeric kernels for the matrix-group oracle.

``membership`` and ``closure_ok`` answer one question, whether each of some
3x3 blocks lies within entrywise ``tol`` of a member of a set, with one
search (``_near``): the set is sorted by a generic linear key of the
entries, and each block is compared only with the members whose keys lie
within reach of its own, found by ``searchsorted``.  With about one
candidate per block, testing m blocks against n members takes
O((m + n) log n) time and O(m + n) memory.  ``batch_membership`` tests many
frames at once with a Frobenius threshold of ``MATCH_TOL`` instead: for
orthogonal ``A`` and ``B``, ``||A - B||_F^2 = 6 - 2<A, B>``, so one matrix
product over flattened blocks replaces the difference tensor.  It compares
only the pairs of a match plan: ``invariant_runs`` sorts a group's
conjugation invariants (``invariants``) into runs, one record per group,
and ``match_plan`` joins the records of two groups into the element pairs
whose invariants allow a match.
"""

from __future__ import annotations

from math import sqrt
from typing import List, Tuple

import numpy as np

# Kept for the benchmark's run record, which reads it; there is one kernel set.
USING_NUMBA = False

MATCH_TOL = 1e-6
# Invariant distance beyond which two orthogonal matrices cannot be within
# Frobenius ``MATCH_TOL`` (see ``batch_membership``).
MATCH_WINDOW = 2.0 * sqrt(3.0) * MATCH_TOL
ROW_BUDGET = 1 << 12  # (frame, B element) rows per chunk of frames, bounds memory
_PRODUCTS = 1 << 16  # products per block in closure_ok, bounds memory


def read_only(a: np.ndarray) -> np.ndarray:
    """A read-only view of ``a``, made read-only itself, or of a copy if
    ``a`` is a view: numpy refuses to make a view of a read-only owner
    writeable again, so a shared array stays as built."""
    if a.base is not None:
        a = a.copy()
    a.flags.writeable = False
    return a.view()


# A generic linear form of the nine entries (``_near``): any weights give
# the same verdict, and generic ones leave about one candidate per block.
_KEY = read_only(np.sqrt([2.0, 3.0, 5.0, 7.0, 11.0, 13.0, 17.0, 19.0, 23.0]) - 1.0)

# (j0, j1, rows of A, the flattened A[rows] transposed): see ``match_plan``.
Block = Tuple[int, int, np.ndarray, np.ndarray]


def _by_key(G: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(keys, flat)``: the elements of G flattened to (len(G), 9) and
    sorted by their ``_KEY`` values, and those values in order."""
    flat = G.reshape(-1, 9)
    keys = flat @ _KEY
    order = np.argsort(keys)
    return keys[order], flat[order]


def _near(keys: np.ndarray, flat: np.ndarray, X: np.ndarray, tol: float) -> np.ndarray:
    """Bool mask over the rows of X (m, 9): X[i] within entrywise ``tol`` of
    some row of ``flat``, a set sorted by its ``keys`` (``_by_key``).

    A row within entrywise ``tol`` of X[i] has a key within
    ``||_KEY||_1 tol`` of X[i]'s, so X[i] is compared only with the rows
    whose keys fall in that range, found by ``searchsorted``.
    """
    n = len(keys)
    # The slack covers the rounding of the keys.
    reach = float(np.abs(_KEY).sum()) * (tol + 1e-12)
    xk = X @ _KEY
    lo = np.searchsorted(keys, xk - reach)
    count = np.searchsorted(keys, xk + reach, side="right") - lo
    found = np.zeros(len(X), dtype=bool)
    # Candidate d of every row at once; rarely more than one round.
    for d in range(int(count.max(initial=0))):
        near = np.abs(X - flat[np.minimum(lo + d, n - 1)]) <= tol
        found |= (d < count) & near.all(axis=1)
    return found


def _products(L: np.ndarray, R: np.ndarray) -> np.ndarray:
    """All products L[a] @ R[b], flattened to (len(L) * len(R), 3, 3)."""
    return np.matmul(L[:, None], R[None]).reshape(-1, 3, 3)


def membership(A: np.ndarray, B: np.ndarray, tol: float) -> np.ndarray:
    """Bool mask over A: A[i] within entrywise tol of some B[j]."""
    keys, flat = _by_key(B)
    return _near(keys, flat, A.reshape(-1, 9), tol)


def invariants(G: np.ndarray) -> np.ndarray:
    """``trace + 8 det`` of each 3x3 orthogonal matrix.

    Conjugation keeps both.  A proper matrix has trace in [-1, 3] and an
    improper one in [-3, 1], so the two kinds land at least 14 apart.
    """
    m = G.reshape(-1, 9).T
    det = (m[0] * (m[4] * m[8] - m[5] * m[7]) - m[1] * (m[3] * m[8] - m[5] * m[6])
           + m[2] * (m[3] * m[7] - m[4] * m[6]))
    return m[0] + m[4] + m[8] + 8.0 * np.sign(det)


def invariant_runs(G: np.ndarray) -> Tuple[np.ndarray, ...]:
    """``(order, bounds, lows, highs, flat)``: the element order that sorts
    the invariants of G, and their runs in that order, run k being
    ``order[bounds[k]:bounds[k + 1]]`` with values from ``lows[k]`` to
    ``highs[k]``; and G's elements flattened, in that order, transposed
    (9, len(G)).  Neighbours within ``MATCH_WINDOW`` share a run, so values
    of different runs lie farther apart."""
    s = invariants(G)
    order = np.argsort(s, kind="stable")
    s = s[order]
    bounds = np.flatnonzero(np.diff(s, prepend=-np.inf, append=np.inf) > MATCH_WINDOW)
    flat = np.ascontiguousarray(G.reshape(-1, 9)[order].T)
    return order, bounds, s[bounds[:-1]], s[bounds[1:] - 1], flat


def match_plan(runs_a, runs_b) -> Tuple[np.ndarray, List[Block]]:
    """``(needed, blocks)`` for ``batch_membership`` from the
    ``invariant_runs`` of A and of B.

    An A run and a B run are partners when their value ranges come within
    ``MATCH_WINDOW``; no pair of elements outside partner runs can match.
    ``needed`` holds the indices of B's elements in the runs that have a
    partner, in run order.  Each such run is one block
    ``(j0, j1, rows, A[rows] flat^T)``: its elements are ``needed[j0:j1]``
    and ``rows`` are the elements of A in its partner runs.
    """
    order_a, bounds_a, lows_a, highs_a, flat_a = runs_a
    order_b, bounds_b, lows_b, highs_b, _ = runs_b
    # Runs are disjoint and increasing, so the partners of a B run are
    # consecutive A runs, first .. last - 1.
    first = np.searchsorted(highs_a, lows_b - MATCH_WINDOW).tolist()
    last = np.searchsorted(lows_a, highs_b + MATCH_WINDOW, side="right").tolist()
    ba, bb = bounds_a.tolist(), bounds_b.tolist()
    # flat_a is in run order: a block's rows are a slice.
    needed, blocks, j0 = [], [], 0
    for k, (f, l) in enumerate(zip(first, last)):
        if f < l:
            b0, b1, a0, a1 = bb[k], bb[k + 1], ba[f], ba[l]
            needed.append(order_b[b0:b1])
            blocks.append((j0, j0 + b1 - b0, order_a[a0:a1], flat_a[:, a0:a1]))
            j0 += b1 - b0
    return np.concatenate(needed) if needed else order_b[:0], blocks


def batch_membership(A: np.ndarray, BC: np.ndarray, blocks: List[Block]) -> np.ndarray:
    """Bool mask (frames, len(A)): ||A[i] - BC[f, j]||_F <= MATCH_TOL for
    some j.

    All matrices must be orthogonal.  ``blocks`` is the plan of
    ``match_plan``, and ``BC[:, j]`` the conjugates of ``needed[j]``; only
    the pairs of a block are compared.
    ``tr X - tr Y = <I, X - Y>``, so ``|tr X - tr Y| <= sqrt(3) ||X - Y||_F``;
    an improper ``X^T Y`` has eigenvalue -1, so a det mismatch gives
    ``||X - Y||_F >= 2``.  A pair whose invariants differ by more than
    ``MATCH_WINDOW`` is thus at Frobenius distance over ``2 MATCH_TOL``,
    which the Gram test below never takes for a match.

    All frames are compared at once: callers bound the rows
    (``ROW_BUDGET``).  Rounding in the Gram form leaves up to ~1e-14 of noise
    on the squared distance, well below ``MATCH_TOL**2``.
    """
    F, nb = BC.shape[:2]
    out = np.zeros((F, A.shape[0]), dtype=bool)
    bound = 3.0 - MATCH_TOL * MATCH_TOL / 2.0
    # B-major rows: each B element's frames are one contiguous slice.
    flat_bc = np.ascontiguousarray(BC.reshape(F, nb, 9).swapaxes(0, 1))
    for j0, j1, rows, block_a in blocks:
        # Inner products of the block; matmul runs on BLAS.
        gram = flat_bc[j0:j1].reshape(-1, 9) @ block_a
        out[:, rows] |= gram.reshape(j1 - j0, F, len(rows)).max(axis=0) >= bound
    return out


def closure_ok(G: np.ndarray) -> bool:
    """Is the set closed under products (within entrywise ``MATCH_TOL``)?

    G is sorted by key once, and each product is looked up in it with
    ``_near``.  Products go in blocks of whole rows G[a] @ G, of at most
    ``_PRODUCTS`` products unless one row alone holds more.
    """
    n = G.shape[0]
    keys, flat = _by_key(G)
    step = max(1, _PRODUCTS // max(n, 1))
    for start in range(0, n, step):
        prods = _products(G[start:start + step], G).reshape(-1, 9)
        if not _near(keys, flat, prods, MATCH_TOL).all():
            return False
    return True
