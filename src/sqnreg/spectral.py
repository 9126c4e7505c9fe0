"""Spectral decomposition of feature matrices via the K x K Gram matrix.

The feature matrix F is tall (n >> K), so singular values and right singular
vectors come from an eigendecomposition of ``C = w * F^T F``; the n x K
matrix is never factorized directly, and no left singular vectors are
formed.  Every groupwise measure is a function of the spectrum, so its
gradient with respect to F is ``sum_k c_k d sigma_k / dF``, which
``sigma_gradient`` forms as ``w * F V diag(c / sigma) V^T`` from F and V
alone: one n x K by K x K product.

The eigenvectors keep the eigensolver's signs: the gradient does not depend
on the sign of a column of V, so no sign convention is imposed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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

    There are no left singular vectors; ``v`` holds the Gram eigenvectors,
    row ``i`` for column ``i`` of F.
    """

    sigma: np.ndarray
    u_valid: np.ndarray
    eigenvalues: np.ndarray
    quad_weight: float
    v: np.ndarray = field(repr=False)

    @property
    def k(self) -> int:
        return self.sigma.size


def _validate(fm: FeatureMatrix):
    n, k = fm.entries.shape
    if k < 2:
        raise SpectralError(f"need at least two feature columns, got {k}")
    if n < k:
        raise SpectralError(f"feature matrix must be tall, got shape {(n, k)}")


def thin_svd(fm: FeatureMatrix) -> ThinSvd:
    """Singular values and right singular vectors of the weighted feature matrix.

    The vectors keep the signs ``eigh`` gives them (see ``ThinSvd``).
    """
    _validate(fm)
    k = fm.k
    w = fm.quad_weight
    f = fm.entries
    cs = w * (f.T @ f)
    cs = 0.5 * (cs + cs.T)
    try:
        lam_asc, vecs = np.linalg.eigh(cs)
    except np.linalg.LinAlgError as exc:
        raise SpectralError(
            f"eigendecomposition failed for a {k}x{k} correlation matrix: {exc}"
        ) from exc
    lam = np.maximum(lam_asc[::-1], 0.0)
    sigma = np.sqrt(lam)
    u_valid = lam > EIG_RESOLUTION_C * k * np.finfo(float).eps * lam[0]
    return ThinSvd(sigma=sigma, u_valid=u_valid, eigenvalues=lam, quad_weight=w, v=vecs[:, ::-1])


def sigma_gradient(fm: FeatureMatrix, svd: ThinSvd, coeffs: np.ndarray) -> np.ndarray:
    """Gradient of ``sum_k coeffs[k] * sigma_k`` with respect to F, where
    ``svd`` is ``thin_svd(fm)``.

    ``w * F V diag(coeffs / sigma) V^T`` over the stable modes with a
    nonzero coefficient, i.e. ``sqrt(w) * U diag(coeffs) V^T`` without
    forming U.  The signs of the columns of V cancel, so the eigenvectors
    serve as they come from the eigensolver.
    """
    cols = np.flatnonzero(svd.u_valid & (coeffs != 0.0))
    if not cols.size:
        return np.zeros(fm.entries.shape)
    vc = svd.v[:, cols]
    return fm.entries @ ((vc * (svd.quad_weight * coeffs[cols] / svd.sigma[cols])) @ vc.T)
