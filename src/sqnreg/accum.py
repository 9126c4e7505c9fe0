"""Floating-point reductions over stacks of fields."""

from __future__ import annotations

import math

import numpy as np


def block_dot(a: np.ndarray, b: np.ndarray) -> float:
    """Dot product of two arrays of one shape, as one ``np.dot`` of the
    raveled operands, on C-contiguous copies of operands that are not."""
    a = np.ascontiguousarray(a, dtype=float)
    b = np.ascontiguousarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch in block_dot: {a.shape} vs {b.shape}")
    # ``+ 0.0`` turns -0.0 into 0.0
    return float(np.dot(a.reshape(-1), b.reshape(-1))) + 0.0


def block_norm(a: np.ndarray) -> float:
    return float(np.sqrt(max(block_dot(a, a), 0.0)))


def field_sums(a: np.ndarray, field_ndim: int) -> np.ndarray:
    """Sums over the last ``field_ndim`` axes, one per field.

    Every field's block is one contiguous row, and one ``sum`` over the rows'
    axis rounds each row exactly like ``np.sum`` on that field alone: the
    pairwise summation of a contiguous run.
    """
    lead = a.shape[: a.ndim - field_ndim]
    blocks = a.reshape(-1, math.prod(a.shape[a.ndim - field_ndim :]))
    return blocks.sum(axis=1).reshape(lead)
