"""Synthetic stack generation and cut views."""

import numpy as np
import pytest

from sqnreg.errors import ConfigError, FormatError, GridError
from sqnreg.grids import GridSpec, Image, ImageStack, warp_with_jacobian
from sqnreg.synth import cut_view, rng_for_purpose, synth_stack


class TestSynthStack:
    def test_zero_magnitude_identical_images(self):
        stack, truths = synth_stack(0, 3, "shifted_disks", 0.0, dims=(32, 32))
        for img in stack:
            assert np.array_equal(img.data, stack[0].data)
        for truth in truths:
            assert np.all(truth.u == 0.0)

    def test_integer_shift_is_exact(self):
        stack, truths = synth_stack(1, 2, "shifted_disks", (3.0, 0.0), dims=(32, 32))
        a, b = stack[0].data, stack[1].data
        # image 1 is the scene moved 3 px along axis 1
        assert np.array_equal(b[3:, :], a[:-3, :])
        assert truths[1].u[0, 0, 0] == 3.0
        assert truths[1].u[0, 0, 1] == 0.0

    def test_truth_field_aligns_shifted_image(self):
        stack, truths = synth_stack(2, 3, "shifted_disks", (2.0, 1.0), dims=(32, 32))
        warped, _ = warp_with_jacobian(stack[2], truths[2].u, want_jac=False)
        # outside the inflow band the warp must reproduce image 0 exactly
        assert np.array_equal(warped[:-4, :-2], stack[0].data[:-4, :-2])

    def test_same_seed_bit_identical(self):
        for kind, mag in [
            ("shifted_disks", 2.5),
            ("rotated_shepp_like", 0.1),
            ("intensity_perturbed", 0.3),
        ]:
            s1, t1 = synth_stack(7, 3, kind, mag, dims=(24, 24))
            s2, t2 = synth_stack(7, 3, kind, mag, dims=(24, 24))
            for a, b in zip(s1, s2):
                assert np.array_equal(a.data, b.data)
            for a, b in zip(t1, t2):
                assert np.array_equal(a.u, b.u)

    def test_different_seed_differs(self):
        s1, _ = synth_stack(1, 2, "shifted_disks", 2.5, dims=(24, 24))
        s2, _ = synth_stack(2, 2, "shifted_disks", 2.5, dims=(24, 24))
        assert not np.array_equal(s1[0].data, s2[0].data)

    def test_rotation_truth_and_center(self):
        stack, truths = synth_stack(3, 3, "rotated_shepp_like", 0.15, dims=(32, 32))
        assert np.all(truths[0].u == 0.0)
        # rotation leaves the center fixed; truth displacement grows with radius
        c = stack.grid.cell_centers() - 16.0
        radii = np.hypot(c[..., 0], c[..., 1])
        mag = np.hypot(truths[1].u[..., 0], truths[1].u[..., 1])
        expected = 2.0 * np.sin(0.075) * radii
        assert np.allclose(mag, expected, atol=1e-12)

    def test_intensity_perturbed_truth_is_zero(self):
        stack, truths = synth_stack(4, 4, "intensity_perturbed", 0.4, dims=(24, 24))
        for truth in truths:
            assert np.all(truth.u == 0.0)
        assert not np.array_equal(stack[0].data, stack[1].data)
        for img in stack:
            assert img.data.min() >= 0.0 and img.data.max() <= 1.0

    def test_validation(self):
        with pytest.raises(GridError, match="at least two images"):
            synth_stack(0, 1, "shifted_disks", 1.0)
        with pytest.raises(ConfigError, match="unknown synthetic kind"):
            synth_stack(0, 2, "warped_checkers", 1.0)
        # only shifts take a pair (a linear progression); the others take one number
        for kind in ("rotated_shepp_like", "intensity_perturbed"):
            with pytest.raises(ConfigError, match="takes one number"):
                synth_stack(0, 2, kind, (3.0, 0.0), dims=(16, 16))
        # a shift progression takes exactly two numbers
        for magnitude in ((1.0,), [1.0], (1.0, 2.0, 3.0)):
            with pytest.raises(ConfigError, match="takes two numbers"):
                synth_stack(0, 3, "shifted_disks", magnitude, dims=(16, 16))

    def test_purpose_split_independent(self):
        a = rng_for_purpose(5, "one").standard_normal(4)
        b = rng_for_purpose(5, "two").standard_normal(4)
        c = rng_for_purpose(5, "one").standard_normal(4)
        assert np.array_equal(a, c)
        assert not np.array_equal(a, b)


class TestCutView:
    def make_stack(self, rows=8, cols=10, k=4, shift_slice=None):
        grid = GridSpec(dims=(rows, cols))
        base = np.outer(np.linspace(0, 1, rows), np.ones(cols))
        base += 0.3 * np.sin(np.arange(cols) / 2.0)
        images = []
        for i in range(k):
            data = base.copy()
            if shift_slice == i:
                data = np.roll(data, 3, axis=1)
            images.append(Image(grid, np.clip(data, 0, 1)))
        return ImageStack(tuple(images))

    def test_aligned_stack_constant_rows(self):
        stack = self.make_stack()
        cut = cut_view(stack, 1, 4)
        assert cut.grid.dims == (4, 10)
        assert np.ptp(cut.data, axis=0).max() == 0.0

    def test_shifted_slice_visible(self):
        stack = self.make_stack(k=6, shift_slice=3)
        cut = cut_view(stack, 1, 4)
        row_ssd = np.sum(np.diff(cut.data, axis=0) ** 2, axis=1)
        spikes = (row_ssd[2], row_ssd[3])  # boundaries into and out of slice 3
        assert min(spikes) > np.median(row_ssd)

    def test_axis2_extracts_columns(self):
        stack = self.make_stack()
        cut = cut_view(stack, 2, 7)
        assert cut.grid.dims == (4, 8)
        assert np.array_equal(cut.data[0], stack[0].data[:, 7])

    def test_position_out_of_range(self):
        stack = self.make_stack()
        with pytest.raises(FormatError, match="out of range"):
            cut_view(stack, 1, 8)
        with pytest.raises(FormatError, match="cut axis"):
            cut_view(stack, 3, 0)
