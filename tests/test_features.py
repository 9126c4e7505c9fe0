import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sqnreg.features as features
from sqnreg.accum import field_sums
from sqnreg.errors import FeatureError, GridError
from sqnreg.features import (
    FeatureMatrix,
    IntensityFeature,
    NgfFeature,
    assemble,
    feature_adjoint,
    feature_columns,
    resolve_feature,
    stack_gradient_scale,
)
from sqnreg.grids import GridSpec, Image, gradient_central, gradient_central_adjoint, zero_field
from sqnreg.oracles import fd_gradient

from conftest import random_image, relative_error, rng_for, smooth_random_field, stack_of


def quad_norm_sq(column, w):
    return w * float(np.dot(column, column))


def unit_area_grid(m=8):
    return GridSpec((m, m), spacing=(1.0 / m, 1.0 / m))


def column(kind, img):
    """The feature column of one image."""
    return feature_columns(kind, img.grid, img.data[None])[:, 0]


def adjoint(kind, img, cot):
    """``feature_adjoint`` of one image and one cotangent column."""
    return feature_adjoint(kind, img.grid, img.data[None], cot[:, None])[0]


# ---------------------------------------------------------------------------
# per-image reference: the feature of one image and its adjoint, image by image


def reference_column(kind, img):
    w = img.grid.cell_area
    if isinstance(kind, IntensityFeature):
        nrm = float(np.sqrt(w * np.sum(img.data**2)))
        return img.data.ravel() / nrm
    g = gradient_central(img.data, img.grid)
    nrm = float(np.sqrt(w * np.sum(g**2) + kind.eta))
    return np.concatenate([g[..., 0].ravel(), g[..., 1].ravel()]) / nrm


def reference_adjoint(kind, img, cot):
    w = img.grid.cell_area
    if isinstance(kind, IntensityFeature):
        t = img.data.ravel()
        nrm = float(np.sqrt(w * np.sum(t**2)))
        s = float(np.dot(t, cot))
        return (cot / nrm - t * (w * s / nrm**3)).reshape(img.grid.dims)
    g = gradient_central(img.data, img.grid)
    gvec = np.concatenate([g[..., 0].ravel(), g[..., 1].ravel()])
    nrm = float(np.sqrt(w * np.sum(g**2) + kind.eta))
    s = float(np.dot(gvec, cot))
    cot_g = cot / nrm - gvec * (w * s / nrm**3)
    n = img.grid.n_cells
    vfield = np.stack(
        [cot_g[:n].reshape(img.grid.dims), cot_g[n:].reshape(img.grid.dims)], axis=-1
    )
    return gradient_central_adjoint(vfield, img.grid)


@pytest.mark.parametrize("k", [1, 4])
@pytest.mark.parametrize("kind", [IntensityFeature(), NgfFeature(eta=0.03, relative=False)],
                         ids=["intensity", "ngf"])
def test_stack_kernels_match_per_image_reference_bitexact(kind, k):
    rng = rng_for(21 + k)
    g = GridSpec((7, 9), spacing=(0.3, 0.11))
    data = rng.uniform(0.2, 1.5, size=(k, *g.dims))
    cols = feature_columns(kind, g, data)
    cot = rng.standard_normal(cols.shape)
    sens = feature_adjoint(kind, g, data, cot)
    assert cols.shape == ((2 if isinstance(kind, NgfFeature) else 1) * g.n_cells, k)
    assert sens.shape == data.shape
    for idx in range(k):
        img = Image(g, data[idx])
        assert np.array_equal(cols[:, idx], reference_column(kind, img))
        assert np.array_equal(sens[idx], reference_adjoint(kind, img, cot[:, idx].copy()))
    # a permuted stack gives permuted columns and adjoints, bit for bit
    perm = rng.permutation(k)
    assert np.array_equal(feature_columns(kind, g, data[perm]), cols[:, perm])
    assert np.array_equal(feature_adjoint(kind, g, data[perm], cot[:, perm]), sens[perm])


# ---------------------------------------------------------------------------
# intensity-normalized features


def test_constant_two_on_unit_area_gives_all_ones():
    g = unit_area_grid()
    img = Image(g, np.full(g.dims, 2.0))
    col = column(IntensityFeature(), img)
    assert np.abs(col - 1.0).max() <= 1e-14
    assert quad_norm_sq(col, g.cell_area) == pytest.approx(1.0, abs=1e-12)


def test_zero_image_is_degenerate():
    g = unit_area_grid()
    rng = rng_for(1)
    data = np.stack([random_image(g, rng).data, np.zeros(g.dims)])
    for fn in (feature_columns, lambda *a: feature_adjoint(*a, np.zeros((g.n_cells, 2)))):
        with pytest.raises(FeatureError, match="image 1: degenerate feature: zero image"):
            fn(IntensityFeature(), g, data)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_intensity_columns_have_unit_quadrature_norm(seed):
    rng = rng_for(seed)
    g = GridSpec((6, 9), spacing=(0.3, 0.11))
    img = random_image(g, rng, 0.2, 2.0)
    col = column(IntensityFeature(), img)
    assert quad_norm_sq(col, g.cell_area) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# normalized-gradient features


def test_ngf_norm_is_gradient_energy_over_stabilized_energy():
    rng = rng_for(2)
    g = unit_area_grid()
    img = random_image(g, rng)
    eta = 0.05
    col = column(NgfFeature(eta=eta, relative=False), img)
    grad = gradient_central(img.data, img.grid)
    energy = g.cell_area * float(np.sum(grad**2))
    expected = energy / (energy + eta)
    assert quad_norm_sq(col, g.cell_area) == pytest.approx(expected, rel=1e-12)
    assert quad_norm_sq(col, g.cell_area) < 1.0


def test_ngf_of_constant_image_is_zero_column():
    g = unit_area_grid()
    img = Image(g, np.full(g.dims, 0.7))
    col = column(NgfFeature(eta=1e-2, relative=False), img)
    assert np.all(col == 0.0)


# the odd grid of the stack kernel test, and grids with two cells along an
# axis, where every gradient entry along it is a one-sided difference
RAW_ROW_GRIDS = [
    GridSpec((7, 9), spacing=(0.3, 0.11)),
    GridSpec((2, 7), spacing=(0.45, 0.7)),
    GridSpec((9, 2), spacing=(0.45, 0.7)),
    GridSpec((2, 2), spacing=(0.5, 0.25)),
]


@pytest.mark.parametrize("grid", RAW_ROW_GRIDS, ids=lambda g: f"{g.dims[0]}x{g.dims[1]}")
def test_ngf_rows_are_a_copy_of_the_gradients_it_squares(grid, monkeypatch):
    # the norms square the gradient array in place, so the rows must not
    # share its memory; rows and norms keep the bits of the plain formulas
    kind = NgfFeature(eta=0.03, relative=False)
    data = rng_for(41).uniform(0.2, 1.5, size=(3, *grid.dims))
    made = []
    original = features.gradient_central
    monkeypatch.setattr(features, "gradient_central",
                        lambda d, g: made.append(original(d, g)) or made[-1])
    rows, nrm = features._raw_rows(kind, grid, data)
    assert len(made) == 1 and not np.shares_memory(rows, made[0])
    gradients = original(data, grid)
    assert np.array_equal(rows, np.moveaxis(gradients, -1, 1).reshape(3, -1))
    assert rows.flags.c_contiguous
    assert np.array_equal(nrm, np.sqrt(grid.cell_area * field_sums(gradients**2, 3) + kind.eta))


@pytest.mark.parametrize("eta", [0.0, -1.0, np.inf, np.nan, True, "0.01"])
def test_ngf_rejects_nonpositive_or_nonfinite_eta(eta):
    with pytest.raises(FeatureError, match="eta must be positive"):
        NgfFeature(eta=eta)


def test_relative_eta_resolution_uses_stack_gradient_scale():
    rng = rng_for(4)
    g = unit_area_grid()
    stack = stack_of(g, [random_image(g, rng).data for _ in range(3)])
    kind = resolve_feature(NgfFeature(eta=1e-2, relative=True), stack)
    assert isinstance(kind, NgfFeature) and not kind.relative
    assert kind.eta == pytest.approx(1e-2 * stack_gradient_scale(stack), rel=1e-12)
    # featureless stack falls back to the relative value itself
    flat = stack_of(g, [np.full(g.dims, 1.0), np.full(g.dims, 2.0)])
    kind2 = resolve_feature(NgfFeature(eta=1e-2, relative=True), flat)
    assert kind2.eta == 1e-2


def test_stack_gradient_scale_is_the_mean_gradient_magnitude():
    rng = rng_for(5)
    g = GridSpec((6, 9), spacing=(0.3, 0.11))
    stack = stack_of(g, [random_image(g, rng).data for _ in range(3)])
    per_image = [np.linalg.norm(gradient_central(img.data, g), axis=-1).sum() for img in stack]
    assert stack_gradient_scale(stack) == pytest.approx(
        sum(per_image) / (3 * g.n_cells), rel=1e-14
    )
    assert stack_gradient_scale(stack) == stack_gradient_scale(stack.permuted([2, 0, 1]))


def test_unresolved_relative_eta_is_rejected_outside_assemble():
    g = unit_area_grid()
    data = np.ones((2, *g.dims))
    kind = NgfFeature(eta=1e-2, relative=True)
    with pytest.raises(FeatureError, match="relative"):
        feature_columns(kind, g, data)
    with pytest.raises(FeatureError, match="relative"):
        feature_adjoint(kind, g, data, np.zeros((2 * g.n_cells, 2)))


# ---------------------------------------------------------------------------
# adjoints


def test_adjoint_of_orthogonal_cotangent_is_plain_rescaling():
    rng = rng_for(9)
    g = unit_area_grid()
    data = rng.uniform(0.2, 1.0, size=g.dims)
    data /= np.sqrt(g.cell_area * np.sum(data**2))  # unit L2 norm
    img = Image(g, data)
    col = column(IntensityFeature(), img)
    cot = rng.standard_normal(col.size)
    cot -= col * np.dot(col, cot) / np.dot(col, col)
    sens = adjoint(IntensityFeature(), img, cot)
    assert np.abs(sens - cot.reshape(g.dims)).max() <= 1e-12


@pytest.mark.parametrize("kind", [IntensityFeature(), NgfFeature(eta=0.03, relative=False)])
def test_feature_adjoint_matches_fd_oracle(kind):
    rng = rng_for(12)
    g = GridSpec((6, 6), spacing=(1.0 / 6, 1.0 / 6))
    data = rng.uniform(0.3, 1.2, size=(2, *g.dims))
    cot = rng.standard_normal(feature_columns(kind, g, data).shape)
    analytic = feature_adjoint(kind, g, data, cot)

    def objective(t):
        return float(np.sum(cot * feature_columns(kind, g, t.reshape(data.shape))))

    fd = fd_gradient(objective, data.ravel(), step=1e-5)
    assert relative_error(analytic, fd) <= 1e-8


def test_adjoint_cotangent_shape_checked():
    g = unit_area_grid()
    data = np.ones((2, *g.dims))
    with pytest.raises(FeatureError, match="cotangent shape"):
        feature_adjoint(IntensityFeature(), g, data, np.zeros(3))
    with pytest.raises(FeatureError, match="cotangent shape"):
        feature_adjoint(IntensityFeature(), g, data, np.zeros((2, g.n_cells)))


# ---------------------------------------------------------------------------
# assembly


def test_assemble_shapes_and_quad_weight():
    rng = rng_for(1)
    g = unit_area_grid()
    stack = stack_of(g, [random_image(g, rng).data for _ in range(4)])
    fields = [zero_field(g) for _ in range(4)]
    fm = assemble(stack, fields, IntensityFeature())
    assert fm.entries.shape == (g.n_cells, 4)
    assert fm.quad_weight == g.cell_area
    fm2 = assemble(stack, fields, NgfFeature())
    assert fm2.entries.shape == (2 * g.n_cells, 4)


def test_assemble_field_count_checked():
    rng = rng_for(1)
    g = unit_area_grid()
    stack = stack_of(g, [random_image(g, rng).data for _ in range(3)])
    with pytest.raises(GridError, match="for 3 images"):
        assemble(stack, [zero_field(g)], IntensityFeature())


def test_assemble_reports_degenerate_image_index():
    g = unit_area_grid()
    rng = rng_for(1)
    datas = [random_image(g, rng).data, np.zeros(g.dims), random_image(g, rng).data]
    stack = stack_of(g, datas)
    fields = [zero_field(g) for _ in range(3)]
    with pytest.raises(FeatureError, match="image 1: degenerate feature"):
        assemble(stack, fields, IntensityFeature())


def test_assemble_columns_permute_with_the_stack():
    rng = rng_for(33)
    g = unit_area_grid()
    stack = stack_of(g, [random_image(g, rng).data for _ in range(5)])
    fields = [smooth_random_field(g, rng, 0.03) for _ in range(5)]
    fm = assemble(stack, fields, NgfFeature())
    perm = [3, 0, 4, 1, 2]
    fm_p = assemble(stack.permuted(perm), [fields[i] for i in perm], NgfFeature())
    assert np.array_equal(fm_p.entries, fm.entries[:, perm])


def test_feature_matrix_validation():
    with pytest.raises(FeatureError):
        FeatureMatrix(np.zeros((3, 2, 1)))
    with pytest.raises(FeatureError):
        FeatureMatrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(FeatureError):
        FeatureMatrix(np.eye(3), quad_weight=0.0)
