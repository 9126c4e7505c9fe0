"""Spectral decomposition of feature matrices via the K x K Gram matrix.

The feature matrix F is tall (n >> K), so singular values and right singular
vectors come from an eigendecomposition of ``C = w * F^T F``; the n x K
matrix is never factorized directly, and no left singular vectors are
formed.  Every groupwise measure is a function of the spectrum, so its
gradient with respect to F is ``sum_k c_k d sigma_k / dF``, which
``sigma_gradient`` forms as ``w * F V diag(c / sigma) V^T`` from F and V
alone: one n x K by K x K product.

Columns are brought into a canonical content-based order before the
eigensolver runs.  LAPACK is not permutation-equivariant at the last bit, and
those bit differences would otherwise be amplified by the outer optimizer;
with canonical ordering every spectral quantity, the gradient included, is
exactly invariant (or equivariant) under reordering of the input stack
(provided columns are pairwise distinct).  The eigenvectors stay in
canonical order with the eigensolver's signs: the gradient does not depend
on the sign of a column of V, so no sign convention is imposed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import SpectralError
from .features import FeatureMatrix

# ``eigh`` resolves an eigenvalue of the K x K Gram matrix only to about
# K * eps * lambda_1, so a vanishing sigma_k = sqrt(lambda_k) reads about
# sqrt(K * eps) * sigma_1, far above any fixed multiple of sigma_1 like 1e-10.
# A mode is stable (``u_valid``) when lambda_k exceeds that resolution by the
# factor EIG_RESOLUTION_C, i.e. sigma_k**2 > C * K * eps * sigma_1**2; below
# it a derivative is refused.
EIG_RESOLUTION_C = 100.0


@dataclass(frozen=True)
class ThinSvd:
    """Singular values and right singular vectors of ``sqrt(w) * F``.

    Descending singular-value order.  ``u_valid`` marks the modes whose
    singular value is large enough for a stable derivative, and
    ``eigenvalues`` are the clamped Gram eigenvalues, i.e. ``sigma**2``.

    There are no left singular vectors.  The right singular vectors are the
    Gram eigenvectors ``ordered_v`` in canonical column order: row ``i``
    belongs to the input column ``order[i]``, and ``ordered_entries`` holds
    the feature columns in that order.  Each column of ``ordered_v`` has the
    eigensolver's sign.  ``sigma_gradient`` forms the gradient from these
    and scatters its columns back, which makes it bit-exactly equivariant
    under permutations of the input columns.
    """

    sigma: np.ndarray
    u_valid: np.ndarray
    eigenvalues: np.ndarray
    quad_weight: float
    ordered_entries: np.ndarray = field(repr=False)
    ordered_v: np.ndarray = field(repr=False)
    order: np.ndarray = field(repr=False)

    @property
    def k(self) -> int:
        return self.sigma.size


def _validate(fm: FeatureMatrix):
    n, k = fm.entries.shape
    if k < 2:
        raise SpectralError(f"need at least two feature columns, got {k}")
    if n < k:
        raise SpectralError(f"feature matrix must be tall, got shape {(n, k)}")


@lru_cache(maxsize=8)
def _probe(n: int) -> np.ndarray:
    """The fixed direction that ``_canonical_order`` projects columns of
    length ``n`` on; read-only, because every call shares it."""
    probe = np.random.default_rng(np.random.SeedSequence([0x5EED, n])).standard_normal(n)
    probe.flags.writeable = False
    return probe


def _canonical_order(entries: np.ndarray) -> np.ndarray:
    """Content-based column order, identical for any input permutation."""
    n, k = entries.shape
    probe = _probe(n)
    keys = np.array([np.dot(probe, np.ascontiguousarray(entries[:, j])) for j in range(k)])
    order = np.argsort(keys, kind="stable")
    # refine groups of equal probe keys by full lexicographic comparison
    pos = 0
    while pos < k:
        end = pos + 1
        while end < k and keys[order[end]] == keys[order[pos]]:
            end += 1
        if end - pos > 1:
            group = order[pos:end]
            sub = np.lexsort(entries[::-1, :][:, group])
            order[pos:end] = group[sub]
        pos = end
    return order


def thin_svd(fm: FeatureMatrix) -> ThinSvd:
    """Singular values and right singular vectors of the weighted feature matrix.

    The vectors are left in canonical column order with the signs
    ``eigh`` gives them (see ``ThinSvd``).
    """
    _validate(fm)
    k = fm.k
    w = fm.quad_weight
    order = _canonical_order(fm.entries)
    fs = np.ascontiguousarray(fm.entries[:, order])
    cs = w * (fs.T @ fs)
    cs = 0.5 * (cs + cs.T)
    try:
        lam_asc, vecs = np.linalg.eigh(cs)
    except np.linalg.LinAlgError as exc:
        raise SpectralError(
            f"eigendecomposition failed for a {k}x{k} correlation matrix: {exc}"
        ) from exc
    vs = vecs[:, ::-1].copy()
    lam = np.maximum(lam_asc[::-1], 0.0)
    sigma = np.sqrt(lam)
    u_valid = lam > EIG_RESOLUTION_C * k * np.finfo(float).eps * lam[0]
    return ThinSvd(
        sigma=sigma,
        u_valid=u_valid,
        eigenvalues=lam,
        quad_weight=w,
        ordered_entries=fs,
        ordered_v=vs,
        order=order,
    )


def sigma_gradient(svd: ThinSvd, coeffs: np.ndarray) -> np.ndarray:
    """Gradient of ``sum_k coeffs[k] * sigma_k`` with respect to F.

    ``w * F V diag(coeffs / sigma) V^T`` over the stable modes with a
    nonzero coefficient, i.e. ``sqrt(w) * U diag(coeffs) V^T`` without
    forming U.  The signs of the columns of V cancel, so the canonically
    ordered eigenvectors serve as they come from the eigensolver; the
    product is taken in canonical column order and its columns are
    scattered back to input order.
    """
    grad = np.zeros(svd.ordered_entries.shape)
    cols = np.flatnonzero(svd.u_valid & (coeffs != 0.0))
    if cols.size:
        vc = svd.ordered_v[:, cols]
        kernel = (vc * (svd.quad_weight * coeffs[cols] / svd.sigma[cols])) @ vc.T
        grad[:, svd.order] = svd.ordered_entries @ kernel
    return grad
