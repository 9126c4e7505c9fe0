import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqnreg.errors import FeatureError
from sqnreg.features import (
    FeatureMatrix,
    IntensityFeature,
    NgfFeature,
    assemble,
    feature_adjoint,
    feature_column,
    feature_intensity_normalized,
    feature_ngf,
    resolve_feature,
    stack_gradient_scale,
)
from sqnreg.grids import GridSpec, Image, gradient_central, zero_field
from sqnreg.oracles import fd_gradient

from conftest import random_image, relative_error, rng_for, smooth_random_field, stack_of


def quad_norm_sq(column, w):
    return w * float(np.dot(column, column))


def unit_area_grid(m=8):
    return GridSpec((m, m), spacing=(1.0 / m, 1.0 / m))


# ---------------------------------------------------------------------------
# intensity-normalized features


def test_constant_two_on_unit_area_gives_all_ones():
    g = unit_area_grid()
    img = Image(g, np.full(g.dims, 2.0))
    col = feature_intensity_normalized(img)
    assert np.abs(col - 1.0).max() <= 1e-14
    assert quad_norm_sq(col, g.cell_area) == pytest.approx(1.0, abs=1e-12)


def test_zero_image_is_degenerate():
    g = unit_area_grid()
    img = Image(g, np.zeros(g.dims))
    with pytest.raises(FeatureError, match="degenerate feature: zero image"):
        feature_intensity_normalized(img)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_intensity_columns_have_unit_quadrature_norm(seed):
    rng = rng_for(seed)
    g = GridSpec((6, 9), spacing=(0.3, 0.11))
    img = random_image(g, rng, 0.2, 2.0)
    col = feature_column(img, IntensityFeature())
    assert quad_norm_sq(col, g.cell_area) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# normalized-gradient features


def test_ngf_norm_is_gradient_energy_over_stabilized_energy():
    rng = rng_for(2)
    g = unit_area_grid()
    img = random_image(g, rng)
    eta = 0.05
    col = feature_ngf(img, eta)
    grad = gradient_central(img)
    energy = g.cell_area * float(np.sum(grad**2))
    expected = energy / (energy + eta)
    assert quad_norm_sq(col, g.cell_area) == pytest.approx(expected, rel=1e-12)
    assert quad_norm_sq(col, g.cell_area) < 1.0


def test_ngf_of_constant_image_is_zero_column():
    g = unit_area_grid()
    img = Image(g, np.full(g.dims, 0.7))
    col = feature_ngf(img, 1e-2)
    assert np.all(col == 0.0)


def test_ngf_rejects_nonpositive_eta():
    g = unit_area_grid()
    img = Image(g, np.zeros(g.dims))
    with pytest.raises(FeatureError):
        feature_ngf(img, 0.0)
    with pytest.raises(FeatureError):
        NgfFeature(eta=-1.0)


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


def test_unresolved_relative_eta_is_rejected_outside_assemble():
    g = unit_area_grid()
    img = Image(g, np.ones(g.dims))
    with pytest.raises(FeatureError, match="relative"):
        feature_column(img, NgfFeature(eta=1e-2, relative=True))


# ---------------------------------------------------------------------------
# adjoints


def test_adjoint_of_orthogonal_cotangent_is_plain_rescaling():
    rng = rng_for(9)
    g = unit_area_grid()
    data = rng.uniform(0.2, 1.0, size=g.dims)
    data /= np.sqrt(g.cell_area * np.sum(data**2))  # unit L2 norm
    img = Image(g, data)
    col = feature_intensity_normalized(img)
    cot = rng.standard_normal(col.size)
    cot -= col * np.dot(col, cot) / np.dot(col, col)
    sens = feature_adjoint(IntensityFeature(), img, cot)
    assert np.abs(sens - cot.reshape(g.dims)).max() <= 1e-12


@pytest.mark.parametrize("kind", [IntensityFeature(), NgfFeature(eta=0.03, relative=False)])
def test_feature_adjoint_matches_fd_oracle(kind):
    rng = rng_for(12)
    g = GridSpec((6, 6), spacing=(1.0 / 6, 1.0 / 6))
    img = random_image(g, rng, 0.3, 1.2)
    cot = rng.standard_normal(
        2 * g.n_cells if isinstance(kind, NgfFeature) else g.n_cells
    )
    analytic = feature_adjoint(kind, img, cot)

    def objective(t):
        return float(np.dot(cot, feature_column(Image(g, t), kind)))

    fd = fd_gradient(objective, img.data.copy(), step=1e-5)
    assert relative_error(analytic, fd) <= 1e-8


def test_adjoint_cotangent_length_checked():
    g = unit_area_grid()
    img = Image(g, np.ones(g.dims))
    with pytest.raises(FeatureError, match="cotangent length"):
        feature_adjoint(IntensityFeature(), img, np.zeros(3))


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
    with pytest.raises(FeatureError, match="fields"):
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
