"""Finite-difference gradient oracle.

The ``gradcheck`` CLI subcommand and the test suite compare every analytic
gradient of the package against ``fd_gradient``, a reference that shares no
code with it; each caller measures the relative error itself.
"""

from __future__ import annotations

import numpy as np


def fd_gradient(fn, x: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Central finite-difference gradient of a scalar function.

    ``fn`` maps an array of the same shape as ``x`` to a float; every
    coordinate is perturbed by ``+-step`` in turn.  O(n) evaluations, meant
    for small verification problems only.
    """
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    flat = x.ravel()
    gflat = g.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        fp = fn(x)
        flat[i] = orig - step
        fm = fn(x)
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * step)
    return g
