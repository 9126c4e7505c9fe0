import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqnreg.errors import SpectralError
from sqnreg.features import FeatureMatrix
from sqnreg.oracles import fd_gradient, relative_error
from sqnreg.spectral import EPS_SIGMA_REL, _canonical_order, dsigma, gram, thin_svd

from conftest import rng_for


def fm_random(rng, n=12, k=4, w=1.0, unit_columns=False):
    entries = rng.standard_normal((n, k))
    if unit_columns:
        entries /= np.sqrt(w) * np.linalg.norm(entries, axis=0)
    return FeatureMatrix(entries, quad_weight=w)


def sixty_degree_fm():
    # two unit vectors at 60 degrees; spectrum is sqrt(1.5), sqrt(0.5)
    entries = np.zeros((4, 2))
    entries[0, 0] = 1.0
    entries[0, 1] = 0.5
    entries[1, 1] = np.sqrt(3.0) / 2.0
    return FeatureMatrix(entries, quad_weight=1.0)


# ---------------------------------------------------------------------------
# gram


def test_gram_is_weighted_cross_products():
    rng = rng_for(0)
    fm = fm_random(rng, n=10, k=3, w=0.25)
    c = gram(fm)
    expected = 0.25 * fm.entries.T @ fm.entries
    assert np.abs(c.matrix - expected).max() <= 1e-12
    assert np.abs(c.matrix - c.matrix.T).max() == 0.0


def test_gram_of_orthonormal_columns_is_identity():
    w = 0.5
    entries = np.zeros((6, 3))
    for j in range(3):
        entries[2 * j, j] = 1.0 / np.sqrt(w)
    c = gram(FeatureMatrix(entries, quad_weight=w))
    assert np.abs(c.matrix - np.eye(3)).max() <= 1e-12


def test_gram_rejects_wide_or_single_column():
    with pytest.raises(SpectralError):
        gram(FeatureMatrix(np.ones((2, 4))))
    with pytest.raises(SpectralError):
        gram(FeatureMatrix(np.ones((4, 1))))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 8))
def test_trace_of_gram_counts_unit_columns(seed, k):
    rng = rng_for(seed)
    fm = fm_random(rng, n=16, k=k, w=0.125, unit_columns=True)
    c = gram(fm)
    assert np.trace(c.matrix) == pytest.approx(k, rel=1e-12)
    svd = thin_svd(fm)
    assert np.sum(svd.eigenvalues) == pytest.approx(k, rel=1e-10)


# ---------------------------------------------------------------------------
# thin SVD


def test_sixty_degree_spectrum_frozen_values():
    svd = thin_svd(sixty_degree_fm())
    assert svd.sigma[0] == pytest.approx(1.224744871391589, abs=1e-12)
    assert svd.sigma[1] == pytest.approx(0.7071067811865476, abs=1e-12)


@pytest.mark.parametrize("w", [1.0, 0.03125])
def test_thin_svd_matches_direct_lapack_svd(w):
    # independent oracle: LAPACK SVD of the explicit weighted matrix,
    # exercising a different factorization path than the Gram eigensolve
    rng = rng_for(7)
    for _ in range(5):
        fm = fm_random(rng, n=20, k=5, w=w)
        svd = thin_svd(fm)
        ref = np.linalg.svd(np.sqrt(w) * fm.entries, compute_uv=False)
        assert np.abs(svd.sigma - ref).max() <= 1e-10 * max(ref[0], 1.0)


def test_u_apply_rule_and_orthonormality():
    rng = rng_for(8)
    fm = fm_random(rng, n=15, k=4, w=0.2)
    svd = thin_svd(fm)
    scaled = np.sqrt(fm.quad_weight) * fm.entries
    for k in range(4):
        resid = scaled @ svd.v[:, k] - svd.sigma[k] * svd.u[:, k]
        assert np.linalg.norm(resid) <= 1e-8 * svd.sigma[0]
    gram_u = svd.u.T @ svd.u
    assert np.abs(gram_u - np.eye(4)).max() <= 1e-10
    gram_v = svd.v.T @ svd.v
    assert np.abs(gram_v - np.eye(4)).max() <= 1e-12


def test_sign_convention_positive_peak_entries():
    svd = thin_svd(sixty_degree_fm())
    for k in range(2):
        peak = np.argmax(np.abs(svd.v[:, k]))
        assert svd.v[peak, k] > 0


def test_sigma_invariant_and_v_equivariant_under_permutation():
    rng = rng_for(21)
    fm = fm_random(rng, n=18, k=6, w=0.04)
    svd = thin_svd(fm)
    perm = rng.permutation(6)
    fm_p = FeatureMatrix(fm.entries[:, perm], quad_weight=fm.quad_weight)
    svd_p = thin_svd(fm_p)
    assert np.array_equal(svd.sigma, svd_p.sigma)
    assert np.array_equal(svd_p.v, svd.v[perm, :])
    assert np.array_equal(svd_p.u, svd.u)


def _eager_left_vectors(fm):
    """Left singular vectors formed up front, with the operations
    ``thin_svd`` used before ``u`` became lazy."""
    k = fm.k
    w = fm.quad_weight
    order = _canonical_order(fm.entries)
    fs = np.ascontiguousarray(fm.entries[:, order])
    cs = w * (fs.T @ fs)
    cs = 0.5 * (cs + cs.T)
    lam_asc, vecs = np.linalg.eigh(cs)
    vs = vecs[:, ::-1].copy()
    sigma = np.sqrt(np.maximum(lam_asc[::-1], 0.0))
    u = np.zeros((fm.n, k))
    cols = np.flatnonzero(sigma > EPS_SIGMA_REL * sigma[0])
    u[:, cols] = np.sqrt(w) * (fs @ vs[:, cols]) / sigma[cols]
    v = np.empty_like(vs)
    v[order, :] = vs
    for col in range(k):
        if v[np.argmax(np.abs(v[:, col])), col] < 0:
            u[:, col] = -u[:, col]
    return u


def test_lazy_left_vectors_equal_eager_ones_bitexact():
    rng = rng_for(23)
    rank_deficient = np.zeros((6, 3))
    rank_deficient[0, :2] = 1.0
    rank_deficient[1, 2] = 1.0
    for fm in (fm_random(rng, n=40, k=6, w=0.04), FeatureMatrix(rank_deficient)):
        svd = thin_svd(fm)
        assert "u" not in vars(svd)  # thin_svd itself does not form U
        assert np.array_equal(svd.u, _eager_left_vectors(fm))
        assert svd.u is svd.u


def test_rank_deficiency_is_visible_in_spectrum():
    entries = np.zeros((6, 3))
    entries[0, 0] = 1.0
    entries[0, 1] = 1.0
    entries[1, 2] = 1.0
    svd = thin_svd(FeatureMatrix(entries))
    assert svd.sigma[0] == pytest.approx(np.sqrt(2.0), abs=1e-12)
    assert svd.sigma[2] <= 1e-12
    assert not svd.u_valid[2]


# ---------------------------------------------------------------------------
# singular-value derivatives


def test_dsigma_frozen_diag_example():
    entries = np.diag([3.0, 1.0])
    svd = thin_svd(FeatureMatrix(entries))
    mat, flagged = dsigma(svd, 0)
    assert not flagged
    assert np.abs(mat - np.array([[1.0, 0.0], [0.0, 0.0]])).max() <= 1e-12


def test_dsigma_is_rank_one_with_weighted_unit_norm():
    rng = rng_for(3)
    for w in (1.0, 0.0625):
        fm = fm_random(rng, n=12, k=4, w=w)
        svd = thin_svd(fm)
        for k in range(4):
            mat, _ = dsigma(svd, k)
            s = np.linalg.svd(mat, compute_uv=False)
            assert s[0] == pytest.approx(np.sqrt(w), rel=1e-10)
            assert s[1] <= 1e-12 * s[0]


def test_dsigma_euler_identity():
    rng = rng_for(4)
    fm = fm_random(rng, n=12, k=4, w=0.3)
    svd = thin_svd(fm)
    for k in range(4):
        mat, _ = dsigma(svd, k)
        assert np.sum(mat * fm.entries) == pytest.approx(svd.sigma[k], rel=1e-10)


@pytest.mark.parametrize("w", [1.0, 0.0625])
def test_dsigma_matches_fd_oracle(w):
    rng = rng_for(5)
    for _ in range(5):
        fm = fm_random(rng, n=12, k=4, w=w)
        svd = thin_svd(fm)
        assert np.min(np.diff(svd.sigma[::-1])) > 1e-3  # healthy gaps only
        for k in range(4):
            mat, flagged = dsigma(svd, k)
            assert not flagged

            def sigma_k(entries, k=k):
                return float(thin_svd(FeatureMatrix(entries, quad_weight=w)).sigma[k])

            fd = fd_gradient(sigma_k, fm.entries.copy(), step=1e-6)
            assert relative_error(mat, fd) <= 1e-6


def test_dsigma_refuses_vanishing_singular_value():
    entries = np.zeros((6, 3))
    entries[0, 0] = 1.0
    entries[0, 1] = 1.0
    entries[1, 2] = 1.0
    svd = thin_svd(FeatureMatrix(entries))
    with pytest.raises(SpectralError, match="singular value too small"):
        dsigma(svd, 2)


def test_equal_singular_values_raise_subgradient_flag():
    entries = np.eye(4, 3)  # orthonormal columns, all sigma equal to 1
    svd = thin_svd(FeatureMatrix(entries))
    assert svd.gap_flags.all()
    mat, flagged = dsigma(svd, 0)
    assert flagged
    assert np.linalg.svd(mat, compute_uv=False)[0] == pytest.approx(1.0, rel=1e-10)


def test_dsigma_index_range_checked():
    svd = thin_svd(sixty_degree_fm())
    with pytest.raises(SpectralError, match="out of range"):
        dsigma(svd, 2)
