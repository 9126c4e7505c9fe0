import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqnreg.errors import SpectralError
from sqnreg.features import FeatureMatrix
from sqnreg.measures import _corr_dev2_coeffs, _logdet_coeffs, _sqn_coeffs
from sqnreg.oracles import fd_gradient
from sqnreg.spectral import EIG_RESOLUTION_C, sigma_gradient, thin_svd

from conftest import gram_matrix, relative_error, rng_for


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


def unit_coeffs(svd, k):
    """Coefficients that pick ``sigma_k`` alone: ``sigma_gradient`` of them
    is the derivative of ``sigma_k``, the rank-1 ``sqrt(w) u_k v_k^T``."""
    coeffs = np.zeros(svd.k)
    coeffs[k] = 1.0
    return coeffs


# ---------------------------------------------------------------------------
# Gram spectrum


def test_gram_is_weighted_cross_products():
    rng = rng_for(0)
    fm = fm_random(rng, n=10, k=3, w=0.25)
    svd = thin_svd(fm)
    rebuilt = svd.v @ np.diag(svd.eigenvalues) @ svd.v.T
    expected = 0.25 * fm.entries.T @ fm.entries
    assert np.abs(rebuilt - expected).max() <= 1e-12


def test_orthonormal_columns_have_unit_gram_eigenvalues():
    w = 0.5
    entries = np.zeros((6, 3))
    for j in range(3):
        entries[2 * j, j] = 1.0 / np.sqrt(w)
    svd = thin_svd(FeatureMatrix(entries, quad_weight=w))
    assert np.abs(svd.eigenvalues - 1.0).max() <= 1e-12


def test_thin_svd_rejects_wide_or_single_column():
    with pytest.raises(SpectralError):
        thin_svd(FeatureMatrix(np.ones((2, 4))))
    with pytest.raises(SpectralError):
        thin_svd(FeatureMatrix(np.ones((4, 1))))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 8))
def test_trace_of_gram_counts_unit_columns(seed, k):
    rng = rng_for(seed)
    fm = fm_random(rng, n=16, k=k, w=0.125, unit_columns=True)
    assert np.trace(gram_matrix(fm)) == pytest.approx(k, rel=1e-12)
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


def test_right_vectors_orthonormal_and_no_left_vectors():
    rng = rng_for(8)
    svd = thin_svd(fm_random(rng, n=15, k=4, w=0.2))
    gram_v = svd.v.T @ svd.v
    assert np.abs(gram_v - np.eye(4)).max() <= 1e-12
    assert not hasattr(svd, "u")


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
# spectral gradient of a coefficient vector


# The Gram eigensolve resolves a vanishing sigma only to about
# sqrt(K * eps) * sigma_1.  Had such a mode stayed in the gradient, its
# roundoff-sized F v_k would be weighed by 2 / jitter in log-det; a small
# jitter shows that it is dropped.
MEASURE_COEFFS = {
    "sqn4": lambda svd: _sqn_coeffs(svd, 4.0)[1],
    "sqn_inf": lambda svd: _sqn_coeffs(svd, math.inf)[1],
    "corr_dev": lambda svd: _corr_dev2_coeffs(svd)[1],
    "logdet": lambda svd: _logdet_coeffs(svd, 1e-3)[1],
}


def full_rank_fm():
    return fm_random(rng_for(31), n=40, k=6, w=0.04)


def rank_deficient_fm():
    # rank 3 with six pairwise distinct columns
    rng = rng_for(32)
    entries = rng.standard_normal((40, 3)) @ rng.standard_normal((3, 6))
    return FeatureMatrix(entries, quad_weight=0.25)


@pytest.mark.parametrize("measure", sorted(MEASURE_COEFFS))
@pytest.mark.parametrize("make_fm", [full_rank_fm, rank_deficient_fm])
def test_sigma_gradient_matches_lapack_left_vectors(measure, make_fm):
    # independent oracle: sqrt(w) U diag(c) V^T from LAPACK's SVD of the
    # explicit weighted matrix, over the modes above the eigensolver's
    # resolution sigma_k**2 > C * K * eps * sigma_1**2
    fm = make_fm()
    svd = thin_svd(fm)
    coeffs = MEASURE_COEFFS[measure](svd)
    u, s, vt = np.linalg.svd(np.sqrt(fm.quad_weight) * fm.entries, full_matrices=False)
    modes = s**2 > EIG_RESOLUTION_C * fm.k * np.finfo(float).eps * s[0] ** 2
    assert np.array_equal(modes, svd.u_valid)
    expected = np.sqrt(fm.quad_weight) * (u[:, modes] * coeffs[modes]) @ vt[modes, :]
    got = sigma_gradient(fm, svd, coeffs)
    assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)


def test_rank_deficient_fixture_has_vanishing_modes():
    svd = thin_svd(rank_deficient_fm())
    assert svd.sigma[2] > 0.1 * svd.sigma[0]
    assert np.all(svd.sigma[3:] <= 1e-6 * svd.sigma[0])
    assert np.all(svd.u_valid[:3])
    assert not np.any(svd.u_valid[3:])


@pytest.mark.parametrize("measure", sorted(MEASURE_COEFFS))
@pytest.mark.parametrize("make_fm", [full_rank_fm, rank_deficient_fm])
def test_sigma_gradient_columns_permute(measure, make_fm):
    # up to rounding: the bit-exact invariance is the solve's, which orders
    # the stack once (``test_optimize.py``)
    fm = make_fm()
    svd = thin_svd(fm)
    grad = sigma_gradient(fm, svd, MEASURE_COEFFS[measure](svd))
    for seed in range(3):
        perm = rng_for(40 + seed).permutation(fm.k)
        fm_p = FeatureMatrix(fm.entries[:, perm], quad_weight=fm.quad_weight)
        svd_p = thin_svd(fm_p)
        assert np.array_equal(svd_p.u_valid, svd.u_valid)
        stable = svd.u_valid
        assert np.allclose(svd_p.sigma[stable], svd.sigma[stable], rtol=1e-13, atol=0.0)
        grad_p = sigma_gradient(fm_p, svd_p, MEASURE_COEFFS[measure](svd_p))
        assert np.linalg.norm(grad_p - grad[:, perm]) <= 1e-12 * np.linalg.norm(grad)


def test_sigma_gradient_skips_invalid_and_zero_modes():
    entries = np.zeros((6, 3))
    entries[0, 0] = 1.0
    entries[0, 1] = 1.0
    entries[1, 2] = 1.0
    fm = FeatureMatrix(entries)
    svd = thin_svd(fm)
    assert np.all(sigma_gradient(fm, svd, np.array([0.0, 0.0, 5.0])) == 0.0)
    assert sigma_gradient(fm, svd, np.zeros(3)).shape == (6, 3)


# ---------------------------------------------------------------------------
# singular-value derivatives: sigma_gradient of a single unit coefficient


def test_sigma_derivative_frozen_diag_example():
    entries = np.diag([3.0, 1.0])
    fm = FeatureMatrix(entries)
    svd = thin_svd(fm)
    mat = sigma_gradient(fm, svd, unit_coeffs(svd, 0))
    assert np.abs(mat - np.array([[1.0, 0.0], [0.0, 0.0]])).max() <= 1e-12


def test_sigma_derivative_is_rank_one_with_weighted_unit_norm():
    rng = rng_for(3)
    for w in (1.0, 0.0625):
        fm = fm_random(rng, n=12, k=4, w=w)
        svd = thin_svd(fm)
        for k in range(4):
            mat = sigma_gradient(fm, svd, unit_coeffs(svd, k))
            s = np.linalg.svd(mat, compute_uv=False)
            assert s[0] == pytest.approx(np.sqrt(w), rel=1e-10)
            assert s[1] <= 1e-12 * s[0]


def test_sigma_derivative_euler_identity():
    rng = rng_for(4)
    fm = fm_random(rng, n=12, k=4, w=0.3)
    svd = thin_svd(fm)
    for k in range(4):
        mat = sigma_gradient(fm, svd, unit_coeffs(svd, k))
        assert np.sum(mat * fm.entries) == pytest.approx(svd.sigma[k], rel=1e-10)


@pytest.mark.parametrize("w", [1.0, 0.0625])
def test_sigma_derivative_matches_fd_oracle(w):
    rng = rng_for(5)
    for _ in range(5):
        fm = fm_random(rng, n=12, k=4, w=w)
        svd = thin_svd(fm)
        assert np.min(np.diff(svd.sigma[::-1])) > 1e-3  # healthy gaps only
        for k in range(4):
            mat = sigma_gradient(fm, svd, unit_coeffs(svd, k))

            def sigma_k(entries, k=k):
                return float(thin_svd(FeatureMatrix(entries, quad_weight=w)).sigma[k])

            fd = fd_gradient(sigma_k, fm.entries.copy(), step=1e-6)
            assert relative_error(mat, fd) <= 1e-6


def test_equal_singular_values_give_a_unit_spectral_norm_derivative():
    entries = np.eye(4, 3)  # orthonormal columns, all sigma equal to 1
    fm = FeatureMatrix(entries)
    svd = thin_svd(fm)
    assert svd.sigma == pytest.approx(np.ones(3), rel=1e-12)
    mat = sigma_gradient(fm, svd, unit_coeffs(svd, 0))
    assert np.linalg.svd(mat, compute_uv=False)[0] == pytest.approx(1.0, rel=1e-10)
