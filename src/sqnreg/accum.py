"""Order-canonical floating-point reductions.

Results of sums over the images of a stack must not depend on the order in
which the images are listed, down to the last bit.  Plain ``np.sum`` over a
permuted axis rounds differently, and those 1e-16 discrepancies get amplified
by an iterative solver into visibly different iterate paths.  The helpers
here sort partial results into a canonical order before accumulating, which
makes every reduction invariant under permutations of the stack axis.
"""

from __future__ import annotations

import math

import numpy as np


def sorted_sum(values) -> float:
    """Sum of a 1-d collection of floats, invariant under reordering."""
    arr = np.asarray(values, dtype=float).ravel()
    if arr.size == 0:
        return 0.0
    return float(np.sort(arr).sum())


def block_dot(a: np.ndarray, b: np.ndarray) -> float:
    """Dot product of two arrays whose leading axis indexes stack blocks.

    The per-block partial dots are accumulated in sorted order so the result
    does not depend on how the blocks are arranged along axis 0.  They come
    from one batched ``matmul`` of contiguous rows, which runs the same
    BLAS dot per block as ``np.dot`` of the raveled blocks, bit for bit.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch in block_dot: {a.shape} vs {b.shape}")
    if a.ndim == 1:
        return float(np.dot(a, b))
    n = a.shape[0]
    if n == 1:
        # ``+ 0.0`` turns -0.0 into 0.0, as the sorted sum does
        return float(np.dot(a.ravel(), b.ravel())) + 0.0
    m = math.prod(a.shape[1:])
    rows = np.ascontiguousarray(a).reshape(n, 1, m)
    cols = np.ascontiguousarray(b).reshape(n, m, 1)
    return sorted_sum(np.matmul(rows, cols))


def block_norm(a: np.ndarray) -> float:
    return float(np.sqrt(max(block_dot(a, a), 0.0)))


def mean_axis0(arr: np.ndarray) -> np.ndarray:
    """Per-entry mean over axis 0, invariant under reordering of axis 0.

    Entries are sorted along axis 0 before summing; sorting is elementwise,
    which is fine because only the multiset of addends matters per entry.
    """
    arr = np.asarray(arr, dtype=float)
    return np.sort(arr, axis=0).sum(axis=0) / arr.shape[0]
