"""Bit-level checks of the order-canonical reductions."""

import numpy as np
import pytest

from sqnreg.accum import block_dot, sorted_sum

from conftest import rng_for


def per_block_dot(a, b):
    """Reference: one ``np.dot`` per raveled block, then the sorted sum."""
    return sorted_sum(np.array([np.dot(a[k].ravel(), b[k].ravel()) for k in range(a.shape[0])]))


def assert_same_bits(got, want):
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


class TestBlockDot:
    @pytest.mark.parametrize("n", [1, 3, 8])
    @pytest.mark.parametrize("shape", [(16, 16, 2), (9, 7, 2), (100,)])
    def test_contiguous_matches_per_block_dot(self, n, shape):
        rng = rng_for(40 + n)
        for scale in (1.0, 1e-3, 1e5):
            a = rng.standard_normal((n, *shape))
            b = scale * rng.standard_normal((n, *shape))
            assert_same_bits(block_dot(a, b), per_block_dot(a, b))

    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_non_contiguous_matches_per_block_dot(self, n):
        rng = rng_for(50 + n)
        fortran = np.asfortranarray(rng.standard_normal((n, 100, 2)))
        every_other = rng.standard_normal((n, 200))[:, ::2]
        strided = rng.standard_normal((n, 9, 14, 2))[:, :, ::2]
        swapped = np.swapaxes(rng.standard_normal((n, 2, 7, 9)), 1, -1)
        for a, b in [
            (fortran, rng.standard_normal((n, 100, 2))),
            (every_other, rng.standard_normal((n, 100))),
            (strided, rng.standard_normal((n, 9, 7, 2))),
            (swapped, strided),
        ]:
            assert not a.flags.c_contiguous
            assert_same_bits(block_dot(a, b), per_block_dot(a, b))
            assert_same_bits(block_dot(b, a), per_block_dot(b, a))

    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_signed_zeros(self, n):
        rng = rng_for(60 + n)
        shape = (n, 5, 4, 2)
        signs = np.where(rng.random(shape) < 0.5, 0.0, -0.0)
        ones = np.ones(shape)
        single = (np.full((n, 1), -0.0), np.ones((n, 1)))  # a one-term dot keeps -0.0
        for a, b in [(-np.zeros(shape), ones), (signs, ones), (signs, -ones), (signs, signs), single]:
            got, want = block_dot(a, b), per_block_dot(a, b)
            assert_same_bits(got, want)
            assert got == 0.0 and not np.signbit(got)

    def test_permuting_blocks_keeps_bits(self):
        rng = rng_for(70)
        a = rng.standard_normal((8, 12, 12, 2))
        b = rng.standard_normal((8, 12, 12, 2))
        perm = rng.permutation(8)
        assert_same_bits(block_dot(a[perm], b[perm]), block_dot(a, b))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            block_dot(np.zeros((2, 3)), np.zeros((3, 2)))
