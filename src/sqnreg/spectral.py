"""Spectral decomposition of feature matrices via the K x K Gram matrix.

The feature matrix F is tall (n >> K), so singular values and right singular
vectors come from an eigendecomposition of ``C = w * F^T F``; left singular
vectors are formed as ``u_k = sqrt(w) * F v_k / sigma_k`` on first access of
``ThinSvd.u``, so evaluations that only need the spectrum never build the
n x K matrix.  The n x K matrix is never factorized directly.

Columns are brought into a canonical content-based order before the
eigensolver runs.  LAPACK is not permutation-equivariant at the last bit, and
those bit differences would otherwise be amplified by the outer optimizer;
with canonical ordering every spectral quantity is exactly invariant under
reordering of the input stack (provided columns are pairwise distinct).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import SpectralError
from .features import FeatureMatrix

EPS_SIGMA_REL = 1e-10  # below this multiple of sigma_1 a derivative is refused
EPS_GAP_REL = 1e-8  # below this multiple of sigma_1 a gap flags a subgradient


@dataclass(frozen=True)
class CorrelationMatrix:
    """Quadrature-weighted Gram matrix of the feature columns."""

    matrix: np.ndarray
    quad_weight: float

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise SpectralError(f"correlation matrix must be square, got {m.shape}")
        object.__setattr__(self, "matrix", m)

    @property
    def k(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class ThinSvd:
    """Thin SVD of ``sqrt(w) * F`` in descending singular-value order.

    ``v`` has one row per feature column in the original input order; ``u``
    holds left singular vectors for the columns marked in ``u_valid`` (the
    rest are zero-filled).  ``eigenvalues`` are the clamped Gram eigenvalues,
    i.e. ``sigma**2``; ``eigenvalues_raw`` keeps the possibly slightly
    negative eigensolver output for rank diagnostics.

    ``u`` is computed on first access from the canonically ordered feature
    columns and eigenvectors kept here, with the same operations an eager
    computation would use, so it is bit-identical to one.
    """

    sigma: np.ndarray
    v: np.ndarray
    u_valid: np.ndarray
    eigenvalues: np.ndarray
    eigenvalues_raw: np.ndarray
    gap_flags: np.ndarray
    quad_weight: float
    eps_sigma: float
    eps_gap: float
    # feature columns and Gram eigenvectors in canonical column order, and
    # the columns the sign convention flipped: what ``u`` is formed from
    ordered_entries: np.ndarray = field(repr=False)
    ordered_v: np.ndarray = field(repr=False)
    flipped: np.ndarray = field(repr=False)

    @property
    def k(self) -> int:
        return self.sigma.size

    @cached_property
    def u(self) -> np.ndarray:
        n, k = self.ordered_entries.shape
        u = np.zeros((n, k))
        if self.u_valid.any():
            cols = np.flatnonzero(self.u_valid)
            u[:, cols] = (
                np.sqrt(self.quad_weight)
                * (self.ordered_entries @ self.ordered_v[:, cols])
                / self.sigma[cols]
            )
        u[:, self.flipped] = -u[:, self.flipped]
        return u

    @property
    def any_gap_flag(self) -> bool:
        return bool(self.gap_flags.any())


def _validate(fm: FeatureMatrix):
    n, k = fm.entries.shape
    if k < 2:
        raise SpectralError(f"need at least two feature columns, got {k}")
    if n < k:
        raise SpectralError(f"feature matrix must be tall, got shape {(n, k)}")


def _canonical_order(entries: np.ndarray) -> np.ndarray:
    """Content-based column order, identical for any input permutation."""
    n, k = entries.shape
    probe = np.random.default_rng(np.random.SeedSequence([0x5EED, n])).standard_normal(n)
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


def gram(fm: FeatureMatrix) -> CorrelationMatrix:
    """Correlation matrix ``C = quad_weight * F^T F``, symmetrized."""
    _validate(fm)
    raw = fm.quad_weight * (fm.entries.T @ fm.entries)
    return CorrelationMatrix(0.5 * (raw + raw.T), fm.quad_weight)


def thin_svd(fm: FeatureMatrix) -> ThinSvd:
    """Singular values and vectors of the weighted feature matrix.

    Left vectors are formed as ``sqrt(w) F v_k / sigma_k`` (on first access
    of ``u``) only where ``sigma_k`` exceeds the stability threshold; the
    deterministic sign convention makes the largest-magnitude entry of each
    ``v_k`` positive, ties broken by the lowest index within the canonical
    column order.
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
    lam_raw = lam_asc[::-1].copy()
    vs = vecs[:, ::-1].copy()
    lam = np.maximum(lam_raw, 0.0)
    sigma = np.sqrt(lam)
    eps_sigma = EPS_SIGMA_REL * sigma[0]
    eps_gap = EPS_GAP_REL * sigma[0]
    u_valid = sigma > eps_sigma
    gaps = np.full(k, np.inf)
    if k > 1:
        d = np.abs(np.diff(sigma))
        gaps[:-1] = np.minimum(gaps[:-1], d)
        gaps[1:] = np.minimum(gaps[1:], d)
    gap_flags = gaps < eps_gap
    v = np.empty_like(vs)
    v[order, :] = vs
    # sign convention on the original row order: largest-magnitude entry of
    # each v_k positive, ties broken by lowest index; u flips with v, so all
    # downstream u v^T products are unaffected by the choice
    flipped = np.zeros(k, dtype=bool)
    for col in range(k):
        peak = np.argmax(np.abs(v[:, col]))
        if v[peak, col] < 0:
            v[:, col] = -v[:, col]
            flipped[col] = True
    return ThinSvd(
        sigma=sigma,
        v=v,
        u_valid=u_valid,
        eigenvalues=lam,
        eigenvalues_raw=lam_raw,
        gap_flags=gap_flags,
        quad_weight=w,
        eps_sigma=eps_sigma,
        eps_gap=eps_gap,
        ordered_entries=fs,
        ordered_v=vs,
        flipped=flipped,
    )


def dsigma(svd: ThinSvd, k: int):
    """Derivative of ``sigma_k`` with respect to the feature-matrix entries.

    Returns ``(matrix, subgradient_flag)`` where the matrix is the rank-1
    outer product ``sqrt(w) u_k v_k^T`` (the quadrature factor mirrors the
    weighted Gram convention) and the flag marks a near-degenerate gap to a
    neighboring singular value.
    """
    if not 0 <= k < svd.k:
        raise SpectralError(f"singular value index {k} out of range 0..{svd.k - 1}")
    if not svd.u_valid[k]:
        raise SpectralError("singular value too small for stable derivative")
    mat = np.sqrt(svd.quad_weight) * np.outer(svd.u[:, k], svd.v[:, k])
    return mat, bool(svd.gap_flags[k])
