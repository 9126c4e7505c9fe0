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


def block_dot_plan(a: np.ndarray, b: np.ndarray):
    """``block_dot(a, b)`` bound once to the operands' buffers.

    Returns a zero-argument callable that computes the dot of the current
    entries of ``a`` and ``b``, so an iterative solver that updates them in
    place binds its dots once.  The views are taken here: the rows
    ``(n, 1, m)`` of ``a`` and the columns ``(n, m, 1)`` of ``b`` for the
    batched ``matmul``, or the raveled operands for one block.  Operands
    with two or more axes must therefore be C-contiguous; a reshape would
    otherwise copy them once and the plan would not see later updates.
    """
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch in block_dot: {a.shape} vs {b.shape}")
    if a.ndim == 1:
        return lambda: float(np.dot(a, b))
    if not (a.flags.c_contiguous and b.flags.c_contiguous):
        raise ValueError("block_dot_plan needs C-contiguous operands")
    n = a.shape[0]
    if n == 1:
        flat_a, flat_b = a.reshape(-1), b.reshape(-1)
        # ``+ 0.0`` turns -0.0 into 0.0, as the sorted sum does
        return lambda: float(np.dot(flat_a, flat_b)) + 0.0
    m = math.prod(a.shape[1:])
    rows, cols = a.reshape(n, 1, m), b.reshape(n, m, 1)
    return lambda: sorted_sum(np.matmul(rows, cols))


def block_dot(a: np.ndarray, b: np.ndarray) -> float:
    """Dot product of two arrays whose leading axis indexes stack blocks.

    The per-block partial dots are accumulated in sorted order so the result
    does not depend on how the blocks are arranged along axis 0.  They come
    from one batched ``matmul`` of contiguous rows, which runs the same
    BLAS dot per block as ``np.dot`` of the raveled blocks, bit for bit.
    This is ``block_dot_plan`` bound once and run once, on C-contiguous
    copies of operands that are not.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim > 1:
        a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return block_dot_plan(a, b)()


def block_norm(a: np.ndarray) -> float:
    return float(np.sqrt(max(block_dot(a, a), 0.0)))


def mean_axis0(arr: np.ndarray) -> np.ndarray:
    """Per-entry mean over axis 0, invariant under reordering of axis 0.

    Entries are sorted along axis 0 before summing; sorting is elementwise,
    which is fine because only the multiset of addends matters per entry.
    """
    arr = np.asarray(arr, dtype=float)
    return np.sort(arr, axis=0).sum(axis=0) / arr.shape[0]
