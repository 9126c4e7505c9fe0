import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqnreg.errors import GridError
from sqnreg.grids import (
    DisplacementField,
    GridSpec,
    Image,
    ImageStack,
    displacement_array,
    gradient_central,
    gradient_central_adjoint,
    prolong,
    restrict,
    smooth_binomial,
    warp_with_jacobian,
    zero_field,
)
from sqnreg.oracles import fd_gradient

from conftest import fd_safe_instance, random_image, relative_error, rng_for, smooth_random_field


# ---------------------------------------------------------------------------
# construction and validation


def test_gridspec_rejects_degenerate_dims():
    with pytest.raises(GridError):
        GridSpec((1, 8))
    with pytest.raises(GridError):
        GridSpec((8, 8), spacing=(0.0, 1.0))
    with pytest.raises(GridError):
        GridSpec((8, 8), spacing=(-1.0, 1.0))
    with pytest.raises(GridError):
        GridSpec((8, 8), origin=(np.nan, 0.0))
    # non-integer dims are refused, not truncated; numpy integers pass
    for dims in ((64.7, 8.2), (8.0, 8), (True, 8), (8, "8")):
        with pytest.raises(GridError, match="must be integers"):
            GridSpec(dims)
    g = GridSpec((np.int64(8), np.int32(6)))
    assert g.dims == (8, 6) and all(type(d) is int for d in g.dims)


def test_image_shape_and_finiteness_checked():
    g = GridSpec((4, 4))
    with pytest.raises(GridError):
        Image(g, np.zeros((4, 5)))
    bad = np.zeros((4, 4))
    bad[2, 2] = np.inf
    with pytest.raises(GridError):
        Image(g, bad)


def test_stack_needs_two_images_on_one_grid():
    g = GridSpec((4, 4))
    img = Image(g, np.zeros((4, 4)))
    with pytest.raises(GridError):
        ImageStack((img,))
    other = Image(GridSpec((4, 4), spacing=(2.0, 2.0)), np.zeros((4, 4)))
    with pytest.raises(GridError):
        ImageStack((img, other))


def test_cell_centers_layout():
    g = GridSpec((2, 3), origin=(1.0, -1.0), spacing=(0.5, 2.0))
    c = g.cell_centers()
    assert c.shape == (2, 3, 2)
    assert c[0, 0, 0] == 1.25 and c[1, 0, 0] == 1.75
    assert c[0, 0, 1] == 0.0 and c[0, 2, 1] == 4.0


def test_displacement_array_checks_count_grid_and_shape():
    g = GridSpec((4, 5), spacing=(0.5, 0.25))
    stack = ImageStack((Image(g, np.zeros((4, 5))), Image(g, np.ones((4, 5)))))
    rng = rng_for(2)
    fields = [DisplacementField(g, rng.standard_normal((4, 5, 2))) for _ in range(2)]
    u = displacement_array(stack, fields)
    assert u.shape == (2, 4, 5, 2)
    assert np.array_equal(u, np.stack([f.u for f in fields]))
    # a float array of the right shape is passed through without a copy
    assert displacement_array(stack, u) is u
    with pytest.raises(GridError, match=r"shape \(3, 4, 5, 2\), expected \(2, 4, 5, 2\)"):
        displacement_array(stack, fields + [zero_field(g)])
    with pytest.raises(GridError, match=r"shape \(1, 4, 5, 2\), expected \(2, 4, 5, 2\)"):
        displacement_array(stack, fields[:1])
    with pytest.raises(GridError, match=r"shape \(0,\)"):
        displacement_array(stack, [])
    other = GridSpec((4, 5), spacing=(1.0, 1.0))
    with pytest.raises(GridError, match="different grid"):
        displacement_array(stack, [fields[0], zero_field(other)])
    for shape in ((3, 4, 5, 2), (2, 5, 4, 2), (2, 4, 5), (4, 5, 2)):
        with pytest.raises(GridError, match="displacements have shape"):
            displacement_array(stack, np.zeros(shape))


# ---------------------------------------------------------------------------
# bilinear interpolation, sampled by the warp


def sample_at(img, points):
    """Warp ``img`` so that every cell samples the physical point ``points[i, j]``."""
    u = np.asarray(points, dtype=float) - img.grid.cell_centers()
    return warp_with_jacobian(img, u, want_jac=False)[0]


def test_interp_center_of_2x2_square():
    g = GridSpec((2, 2))
    img = Image(g, np.array([[0.0, 1.0], [1.0, 2.0]]))
    mid = np.full((2, 2, 2), 1.0)  # equidistant from all four cell centers
    assert np.abs(sample_at(img, mid) - 1.0).max() <= 1e-15


def test_interp_reproduces_cell_center_values():
    rng = rng_for(3)
    g = GridSpec((7, 5), origin=(-0.3, 0.4), spacing=(1.0 / 3, 0.7))
    img = random_image(g, rng)
    vals = sample_at(img, g.cell_centers())
    assert np.abs(vals - img.data).max() <= 1e-13


def test_interp_clamps_to_nearest_boundary_value():
    g = GridSpec((3, 3))
    img = Image(g, np.arange(9.0).reshape(3, 3))
    pts = g.cell_centers()
    pts[0, 0], pts[1, 1], pts[2, 2] = (-100.0, -100.0), (100.0, -100.0), (100.0, 100.0)
    vals = sample_at(img, pts)
    assert vals[0, 0] == img.data[0, 0]
    assert vals[1, 1] == img.data[2, 0]
    assert vals[2, 2] == img.data[2, 2]


def test_interp_rejects_non_finite_points():
    # a solver's trial displacements are plain arrays, checked nowhere else,
    # so the warp refuses non-finite sample points
    g = GridSpec((3, 3))
    img = Image(g, np.zeros((3, 3)))
    for bad in (np.nan, np.inf):
        u = np.zeros((3, 3, 2))
        u[1, 1, 0] = bad
        with pytest.raises(GridError, match="invalid sample point"):
            warp_with_jacobian(img, u)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_interp_linear_in_intensities(seed):
    rng = rng_for(seed)
    g = GridSpec((6, 6), spacing=(0.25, 0.25))
    a = random_image(g, rng, -1.0, 1.0)
    b = random_image(g, rng, -1.0, 1.0)
    al, be = rng.uniform(-2, 2, size=2)
    pts = rng.uniform(-0.5, 2.0, size=(6, 6, 2))
    combo = Image(g, al * a.data + be * b.data)
    lhs = sample_at(combo, pts)
    rhs = al * sample_at(a, pts) + be * sample_at(b, pts)
    assert np.abs(lhs - rhs).max() <= 1e-12


def test_constant_image_interpolates_constant_everywhere():
    g = GridSpec((4, 4), spacing=(0.1, 0.2))
    img = Image(g, np.full((4, 4), 3.7))
    pts = g.cell_centers()
    pts[0, 0], pts[1, 2], pts[3, 3] = (0.05, 0.1), (-5.0, 9.0), (0.21, 0.33)
    assert np.abs(sample_at(img, pts) - 3.7).max() == 0.0


# ---------------------------------------------------------------------------
# gradient and its adjoint


def test_gradient_matches_interpolant_difference_quotients():
    # independent oracle: symmetric difference quotients of the bilinear
    # interpolant at interior cell centers
    rng = rng_for(11)
    g = GridSpec((8, 8), origin=(0.2, -0.1), spacing=(0.125, 0.25))
    img = random_image(g, rng)
    grad = gradient_central(img.data, img.grid)
    centers = g.cell_centers()
    for axis in range(2):
        delta = 0.5 * g.spacing[axis]
        e = np.zeros(2)
        e[axis] = delta
        quot = (sample_at(img, centers + e) - sample_at(img, centers - e)) / (2.0 * delta)
        interior = np.s_[1:-1, 1:-1]
        assert np.abs(grad[..., axis][interior] - quot[interior]).max() <= 1e-12


def test_gradient_exact_for_affine_images_including_boundary():
    g = GridSpec((6, 9), origin=(0.5, 0.25), spacing=(0.3, 0.15))
    c = g.cell_centers()
    img = Image(g, 1.5 + 2.0 * c[..., 0] - 0.75 * c[..., 1])
    grad = gradient_central(img.data, img.grid)
    assert np.abs(grad[..., 0] - 2.0).max() <= 1e-12
    assert np.abs(grad[..., 1] + 0.75).max() <= 1e-12


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_gradient_adjoint_identity(seed):
    rng = rng_for(seed)
    g = GridSpec((7, 6), spacing=(0.2, 0.4))
    t = rng.standard_normal(g.dims)
    v = rng.standard_normal((*g.dims, 2))
    img = Image(g, t)
    lhs = np.sum(gradient_central(img.data, img.grid) * v)
    rhs = np.sum(t * gradient_central_adjoint(v, g))
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_gradient_takes_leading_axes_bitexact():
    rng = rng_for(4)
    g = GridSpec((7, 6), spacing=(0.2, 0.4))
    data = rng.standard_normal((2, 3, *g.dims))
    out = gradient_central(data, g)
    assert out.shape == (2, 3, *g.dims, 2)
    for idx in np.ndindex(2, 3):
        assert np.array_equal(out[idx], gradient_central(data[idx], g))
    with pytest.raises(GridError):
        gradient_central(data[..., :1], g)


def test_gradient_adjoint_takes_leading_axes_bitexact():
    rng = rng_for(3)
    g = GridSpec((7, 6), spacing=(0.2, 0.4))
    v = rng.standard_normal((2, 3, *g.dims, 2))
    out = gradient_central_adjoint(v, g)
    assert out.shape == (2, 3, *g.dims)
    for idx in np.ndindex(2, 3):
        assert np.array_equal(out[idx], gradient_central_adjoint(v[idx], g))
    with pytest.raises(GridError):
        gradient_central_adjoint(v[..., :1], g)


# ---------------------------------------------------------------------------
# warping


def test_warp_zero_displacement_is_bitexact_identity():
    rng = rng_for(5)
    g = GridSpec((9, 7), origin=(0.1, 0.2), spacing=(1.0 / 3, 1.0 / 7))
    img = random_image(g, rng)
    out, _ = warp_with_jacobian(img, np.zeros((*g.dims, 2)), want_jac=False)
    assert np.array_equal(out, img.data)


def test_warp_shifts_ramp_by_one_cell():
    g = GridSpec((8, 8), spacing=(0.25, 0.25))
    c = g.cell_centers()
    img = Image(g, c[..., 0].copy())
    u = np.zeros((8, 8, 2))
    u[..., 0] = g.spacing[0]
    out, _ = warp_with_jacobian(img, u, want_jac=False)
    expected = c[..., 0] + g.spacing[0]
    assert np.abs(out[:-1, :] - expected[:-1, :]).max() <= 1e-12
    # last row samples outside the hull and clamps to the boundary value
    assert np.abs(out[-1, :] - c[-1, :, 0]).max() <= 1e-12


def test_warp_rejects_wrong_shape_and_nonfinite():
    g = GridSpec((4, 4))
    img = Image(g, np.zeros((4, 4)))
    for shape in ((4, 5, 2), (4, 4), (1, 4, 4, 2)):
        with pytest.raises(GridError, match="does not match grid dims"):
            warp_with_jacobian(img, np.zeros(shape), want_jac=False)
    with pytest.raises(GridError, match="invalid sample point"):
        warp_with_jacobian(img, np.full((4, 4, 2), np.nan), want_jac=False)
    with pytest.raises(GridError):
        DisplacementField(g, np.full((4, 4, 2), np.nan))


def test_warp_jacobian_matches_fd_oracle():
    rng = rng_for(6)
    g = GridSpec((8, 8), spacing=(0.125, 0.125))
    img = random_image(g, rng)
    cvec = rng.standard_normal(g.dims)
    field = smooth_random_field(g, rng, amplitude=0.04)
    assert fd_safe_instance([img], [field])
    warped, jac = warp_with_jacobian(img, field.u)
    analytic = cvec[..., None] * jac

    def objective(u):
        w, _ = warp_with_jacobian(img, u, want_jac=False)
        return float(np.sum(cvec * w))

    fd = fd_gradient(objective, field.u.copy(), step=1e-5)
    assert relative_error(analytic, fd) <= 1e-8


def test_warp_jacobian_zero_in_clamped_regions():
    g = GridSpec((6, 6))
    img = Image(g, np.arange(36.0).reshape(6, 6))
    u = np.zeros((6, 6, 2))
    u[..., 0] = 100.0  # everything samples beyond the top edge
    _, jac = warp_with_jacobian(img, u)
    assert np.all(jac[..., 0] == 0.0)


# ---------------------------------------------------------------------------
# restriction and prolongation


def test_restrict_preserves_constants():
    g = GridSpec((10, 6))
    img = Image(g, np.full((10, 6), 2.5))
    out = restrict(img)
    assert out.grid.dims == (5, 3)
    assert np.abs(out.data - 2.5).max() <= 1e-14


def test_restrict_ramp_keeps_physical_slope():
    g = GridSpec((16, 16), origin=(0.0, 0.0), spacing=(1.0 / 16, 1.0 / 16))
    c = g.cell_centers()
    slope = (3.0, -1.5)
    img = Image(g, slope[0] * c[..., 0] + slope[1] * c[..., 1] + 0.2)
    out = restrict(img)
    assert out.grid.dims == (8, 8)
    assert out.grid.spacing == (1.0 / 8, 1.0 / 8)
    cc = out.grid.cell_centers()
    expected = slope[0] * cc[..., 0] + slope[1] * cc[..., 1] + 0.2
    assert np.abs(out.data - expected).max() <= 1e-12


def test_restrict_floors_odd_dimensions():
    g = GridSpec((9, 7))
    img = Image(g, np.zeros((9, 7)))
    out = restrict(img)
    assert out.grid.dims == (4, 3)


def test_restrict_raises_at_coarsest_level():
    g = GridSpec((3, 8))
    img = Image(g, np.zeros((3, 8)))
    with pytest.raises(GridError, match="coarsest level reached"):
        restrict(img)


def test_smoothing_is_no_op_on_affine_data():
    g = GridSpec((12, 12), spacing=(0.5, 0.5))
    c = g.cell_centers()
    img = Image(g, 1.0 + 4.0 * c[..., 0] - 2.0 * c[..., 1])
    out = smooth_binomial(img)
    assert np.abs(out.data - img.data).max() <= 1e-12


def test_prolong_zero_is_zero_and_linear():
    coarse = GridSpec((8, 8), spacing=(0.25, 0.25))
    fine = GridSpec((16, 16), spacing=(0.125, 0.125))
    z = prolong(np.zeros((8, 8, 2)), coarse, fine)
    assert z.shape == (16, 16, 2) and np.all(z == 0.0)
    rng = rng_for(23)
    a = rng.standard_normal((8, 8, 2))
    b = rng.standard_normal((8, 8, 2))
    lhs = prolong(2.0 * a - 3.0 * b, coarse, fine)
    rhs = 2.0 * prolong(a, coarse, fine) - 3.0 * prolong(b, coarse, fine)
    assert np.abs(lhs - rhs).max() <= 1e-12


def test_prolong_reproduces_affine_fields_in_the_interior():
    coarse = GridSpec((8, 8), spacing=(0.25, 0.25))
    fine = GridSpec((16, 16), spacing=(0.125, 0.125))
    cc = coarse.cell_centers()
    u = np.stack([0.3 * cc[..., 0] - 0.1, 0.2 * cc[..., 1] + 0.05], axis=-1)
    out = prolong(u, coarse, fine)
    fc = fine.cell_centers()
    expected = np.stack([0.3 * fc[..., 0] - 0.1, 0.2 * fc[..., 1] + 0.05], axis=-1)
    assert np.abs(out - expected)[1:-1, 1:-1].max() <= 1e-12


def prolong_reference(u, coarse, fine):
    """Per-field, per-component bilinear prolongation, as a plain loop over
    the planes of ``u`` (..., m1, m2, 2) with the clamp extension."""
    pts = fine.cell_centers()
    q1 = (pts[..., 0] - coarse.origin[0]) / coarse.spacing[0] - 0.5
    q2 = (pts[..., 1] - coarse.origin[1]) / coarse.spacing[1] - 0.5
    m1, m2 = coarse.dims
    qc1, qc2 = np.clip(q1, 0.0, m1 - 1.0), np.clip(q2, 0.0, m2 - 1.0)
    i0 = np.minimum(np.floor(qc1).astype(np.intp), m1 - 2)
    j0 = np.minimum(np.floor(qc2).astype(np.intp), m2 - 2)
    t1, t2 = qc1 - i0, qc2 - j0
    flat = u.reshape(-1, m1, m2, 2)
    out = np.empty((len(flat), *fine.dims, 2))
    for f, field in enumerate(flat):
        for c in range(2):
            p = field[..., c]
            out[f, ..., c] = ((1.0 - t1) * (1.0 - t2) * p[i0, j0]
                              + t1 * (1.0 - t2) * p[i0 + 1, j0]
                              + (1.0 - t1) * t2 * p[i0, j0 + 1]
                              + t1 * t2 * p[i0 + 1, j0 + 1])
    return out.reshape(*u.shape[:-3], *fine.dims, 2)


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("dims", [(9, 7), (8, 8)], ids=["9x7", "8x8"])
@pytest.mark.parametrize("spacing", [(0.45, 0.7), (2.0, 2.0)], ids=["h0.45x0.7", "h2"])
def test_stack_prolong_matches_per_field_reference_bitexact(k, dims, spacing):
    fine = GridSpec(dims, origin=(0.3, -0.2), spacing=spacing)
    # the fine grid's edge cells (and the odd row of 9x7) lie outside the
    # coarse hull, where the samples clamp
    coarse = fine.coarsened()
    u = rng_for(k).standard_normal((k, *coarse.dims, 2))
    out = prolong(u, coarse, fine)
    assert out.shape == (k, *dims, 2) and out.flags.c_contiguous
    assert np.array_equal(out, prolong_reference(u, coarse, fine))
    for idx in range(k):
        assert np.array_equal(prolong(u[idx], coarse, fine), out[idx])


def test_prolong_rejects_a_field_off_the_coarse_grid():
    fine = GridSpec((8, 8))
    with pytest.raises(GridError, match="does not match grid dims"):
        prolong(np.zeros((2, 8, 8, 2)), fine.coarsened(), fine)
