import math

import numpy as np
import pytest

from sqnreg.errors import GridError, MeasureError
from sqnreg.features import FeatureMatrix, IntensityFeature, NgfFeature, feature_adjoint
from sqnreg.grids import (
    DisplacementField,
    GridSpec,
    Image,
    ImageStack,
    gradient_central,
    gradient_central_adjoint,
    warp_with_jacobian,
    zero_field,
)
from sqnreg.measures import (
    CorrDev,
    LogDet,
    NgfPair,
    SchattenQ,
    SsdPair,
    _corr_dev2_coeffs,
    _logdet_coeffs,
    _sqn_coeffs,
    measure_eval,
    pair_chain,
    pair_state,
    resolve_measure,
)
from sqnreg.oracles import fd_gradient
from sqnreg.spectral import sigma_gradient, thin_svd

from conftest import fd_instance, fd_safe_instance, relative_error, rng_for, stack_of


def sixty_degree_fm():
    entries = np.zeros((4, 2))
    entries[0, 0] = 1.0
    entries[0, 1] = 0.5
    entries[1, 1] = np.sqrt(3.0) / 2.0
    return FeatureMatrix(entries, quad_weight=1.0)


def unit_columns_fm(rng, n=16, k=4, w=0.125, correlated=0.0):
    entries = rng.standard_normal((n, k))
    if correlated:
        base = rng.standard_normal(n)
        entries = correlated * base[:, None] + (1.0 - correlated) * entries
    entries /= np.sqrt(w) * np.linalg.norm(entries, axis=0)
    return FeatureMatrix(entries, quad_weight=w)


def sqn_value(fm, q):
    return _sqn_coeffs(thin_svd(fm), q)[0]


def corr_dev2(fm):
    return _corr_dev2_coeffs(thin_svd(fm))[0]


# ---------------------------------------------------------------------------
# Schatten measures on feature matrices


def test_sixty_degree_frozen_values():
    fm = sixty_degree_fm()
    assert sqn_value(fm, 4.0) == pytest.approx(-0.5, abs=1e-12)
    assert sqn_value(fm, math.inf) == pytest.approx(-1.224744871391589, abs=1e-12)
    assert corr_dev2(fm) == pytest.approx(0.5, abs=1e-12)
    vld, _ = _logdet_coeffs(thin_svd(fm), 0.0)
    assert vld == pytest.approx(math.log(0.75), abs=1e-12)


def test_orthonormal_and_rank_one_extremes():
    w = 0.25
    k = 4
    ortho = np.zeros((8, k))
    for j in range(k):
        ortho[2 * j, j] = 1.0 / np.sqrt(w)
    fm = FeatureMatrix(ortho, quad_weight=w)
    assert sqn_value(fm, 4.0) == pytest.approx(0.0, abs=1e-10)
    assert sqn_value(fm, math.inf) == pytest.approx(-1.0, abs=1e-10)

    col = np.zeros(8)
    col[0] = 1.0 / np.sqrt(w)
    rank1 = FeatureMatrix(np.tile(col[:, None], (1, k)), quad_weight=w)
    assert sqn_value(rank1, 4.0) == pytest.approx(k - k**2, abs=1e-10)
    assert sqn_value(rank1, math.inf) == pytest.approx(-np.sqrt(k), abs=1e-10)


def test_sqn_inf_all_zero_columns_is_supremum_with_zero_gradient():
    # reachable when a trial step warps every image into a clamped constant
    # region: the value -sigma_1 = 0 is the supremum, and the vanishing mode
    # is not stable, so the gradient is the zero matrix instead of a crash
    fm = FeatureMatrix(np.zeros((8, 3)), quad_weight=0.25)
    svd = thin_svd(fm)
    value, coeffs = _sqn_coeffs(svd, math.inf)
    grad = sigma_gradient(fm, svd, coeffs)
    assert value == 0.0
    assert np.array_equal(grad, np.zeros((8, 3)))
    assert not svd.u_valid[0]


def test_sqn_bounds_on_random_unit_columns():
    rng = rng_for(14)
    for _ in range(200):
        k = int(rng.integers(2, 8))
        fm = unit_columns_fm(rng, n=12, k=k)
        v4 = sqn_value(fm, 4.0)
        vinf = sqn_value(fm, math.inf)
        assert k - k**2 - 1e-10 <= v4 <= 1e-10
        assert -np.sqrt(k) - 1e-10 <= vinf <= -1.0 + 1e-10


def test_gram_schatten_identity_against_entrywise_route():
    rng = rng_for(15)
    for _ in range(50):
        fm = unit_columns_fm(rng, n=20, k=5, w=0.05)
        # independent route: entrywise Frobenius norm of C - I
        c = fm.quad_weight * fm.entries.T @ fm.entries
        frob_sq = float(np.sum((c - np.eye(5)) ** 2))
        sigma = np.linalg.svd(np.sqrt(fm.quad_weight) * fm.entries, compute_uv=False)
        schatten4_4 = float(np.sum(sigma**4))
        assert frob_sq == pytest.approx(schatten4_4 - 5.0, abs=1e-10)
        assert corr_dev2(fm) == pytest.approx(frob_sq, abs=1e-10)


def test_sup_norm_deviation_equals_top_eigen_excess_when_aligned():
    # with unit columns and a dominant first eigenvalue >= 2, the largest
    # eigenvalue deviation of C - I is attained at the top
    rng = rng_for(16)
    for _ in range(25):
        fm = unit_columns_fm(rng, n=24, k=5, w=0.2, correlated=0.8)
        svd = thin_svd(fm)
        assert svd.eigenvalues[0] >= 2.0
        dev_inf = float(np.max(np.abs(svd.eigenvalues - 1.0)))
        sig_top = float(np.linalg.svd(np.sqrt(fm.quad_weight) * fm.entries, compute_uv=False)[0])
        assert dev_inf == pytest.approx(sig_top**2 - 1.0, abs=1e-10)


def test_identical_columns_corr_dev_is_two():
    col = np.zeros(6)
    col[0] = 1.0
    fm = FeatureMatrix(np.tile(col[:, None], (1, 2)))
    assert corr_dev2(fm) == pytest.approx(2.0, abs=1e-12)


@pytest.mark.parametrize("q", [4.0, 3.0, math.inf])
def test_sqn_gradients_match_fd_on_entries(q):
    rng = rng_for(17)
    w = 0.125
    for _ in range(3):
        fm = unit_columns_fm(rng, n=12, k=4, w=w)
        svd = thin_svd(fm)
        assert np.min(np.abs(np.diff(svd.sigma))) > 1e-3
        _, coeffs = _sqn_coeffs(svd, q)
        grad = sigma_gradient(fm, svd, coeffs)

        def value_of(entries):
            return sqn_value(FeatureMatrix(entries, quad_weight=w), q)

        fd = fd_gradient(value_of, fm.entries.copy(), step=1e-6)
        assert relative_error(grad, fd) <= 1e-6


def test_logdet_gradient_matches_fd_on_entries():
    rng = rng_for(18)
    w = 0.125
    fm = unit_columns_fm(rng, n=12, k=4, w=w)
    svd = thin_svd(fm)
    for jitter in (0.0, 1e-3):
        grad = sigma_gradient(fm, svd, _logdet_coeffs(svd, jitter)[1])

        def value_of(entries, jitter=jitter):
            return _logdet_coeffs(thin_svd(FeatureMatrix(entries, quad_weight=w)), jitter)[0]

        fd = fd_gradient(value_of, fm.entries.copy(), step=1e-6)
        assert relative_error(grad, fd) <= 1e-6


def test_logdet_rank_deficient_error():
    col = np.zeros(6)
    col[0] = 1.0
    other = np.zeros(6)
    other[1] = 1.0
    entries = np.stack([col, col, other], axis=1)
    fm = FeatureMatrix(entries)
    svd = thin_svd(fm)
    with pytest.raises(MeasureError, match="rank-deficient correlation"):
        _logdet_coeffs(svd, 0.0)
    # a jitter makes it evaluable again
    value, _ = _logdet_coeffs(svd, 1e-4)
    assert np.isfinite(value)


def test_sqn_validation():
    with pytest.raises(MeasureError):
        SchattenQ(q=0.5)
    with pytest.raises(MeasureError):
        NgfPair(eta_pt=0.0)
    with pytest.raises(MeasureError):
        LogDet(jitter=-1.0)
    with pytest.raises(MeasureError, match="jitter must be"):
        LogDet(jitter="x")
    # ``bool`` and strings other than the jitter's "auto" are refused too
    for bad in (True, "4"):
        with pytest.raises(MeasureError, match="Schatten exponent must be"):
            SchattenQ(q=bad)
        with pytest.raises(MeasureError, match="eta_pt must be"):
            NgfPair(eta_pt=bad)
        with pytest.raises(MeasureError, match="jitter must be"):
            LogDet(jitter=bad)
    assert LogDet(jitter="auto").jitter == "auto"


# ---------------------------------------------------------------------------
# pairwise measures


def pair_eval(kind, ref: Image, moving: Image, field: DisplacementField):
    """A two-image chain: ``ref`` at the zero field, ``moving`` warped by ``field``.

    The gradient with respect to ``field`` is ``.gradient()[1]``.
    """
    return measure_eval(ImageStack((ref, moving)), [zero_field(field.grid), field], kind)


def test_ssd_zero_for_identical_images():
    g = GridSpec((6, 6), spacing=(0.25, 0.25))
    rng = rng_for(2)
    data = rng.uniform(0.0, 1.0, size=g.dims)
    ev = pair_eval(SsdPair(), Image(g, data), Image(g, data), zero_field(g))
    assert ev.value == 0.0
    assert np.all(ev.gradient()[1] == 0.0)


def test_ssd_constant_offset_value():
    m = 8
    g = GridSpec((m, m), spacing=(1.0 / m, 1.0 / m))
    a = Image(g, np.zeros(g.dims))
    b = Image(g, np.full(g.dims, 0.3))
    value = pair_eval(SsdPair(), a, b, zero_field(g)).value
    assert value == pytest.approx(0.5 * 0.3**2, rel=1e-12)  # domain area is 1


def test_ssd_pair_gradient_matches_fd():
    stack, fields = fd_instance(1, k=2)
    assert fd_safe_instance(stack, fields)
    ref = stack[0]
    mov = stack[1]
    field = fields[1]
    grad = pair_eval(SsdPair(), ref, mov, field).gradient()[1]

    def value_of(u):
        return pair_eval(SsdPair(), ref, mov, DisplacementField(field.grid, u)).value

    fd = fd_gradient(value_of, field.u.copy(), step=1e-5)
    assert relative_error(grad, fd) <= 1e-6


def test_ngf_constant_reference_gives_half_domain_area():
    m = 8
    g = GridSpec((m, m), spacing=(1.0 / m, 1.0 / m))
    rng = rng_for(3)
    a = Image(g, np.full(g.dims, 0.5))
    b = Image(g, rng.uniform(0.0, 1.0, size=g.dims))
    value = pair_eval(NgfPair(eta_pt=1e-2), a, b, zero_field(g)).value
    assert value == pytest.approx(0.5, rel=1e-12)


def test_ngf_self_distance_vanishes_as_eta_goes_to_zero():
    m = 8
    g = GridSpec((m, m), spacing=(1.0 / m, 1.0 / m))
    c = g.cell_centers()
    img = Image(g, 3.0 * c[..., 0] + 0.5 * c[..., 1])  # nowhere-flat ramp
    values = [
        pair_eval(NgfPair(eta_pt=eta), img, img, zero_field(g)).value
        for eta in (1e-2, 1e-4, 1e-6, 1e-10)
    ]
    assert all(v2 < v1 for v1, v2 in zip(values, values[1:]))
    assert values[-1] <= 1e-9


def test_ngf_value_bounds():
    stack, fields = fd_instance(2, k=2)
    value = pair_eval(NgfPair(eta_pt=5e-2), stack[0], stack[1], fields[1]).value
    area = stack.grid.domain_area
    assert 0.0 <= value <= 0.5 * area


def test_ngf_pair_gradient_matches_fd():
    stack, fields = fd_instance(3, k=2)
    assert fd_safe_instance(stack, fields)
    ref, mov, field = stack[0], stack[1], fields[1]
    kind = NgfPair(eta_pt=3e-2)
    grad = pair_eval(kind, ref, mov, field).gradient()[1]

    def value_of(u):
        return pair_eval(kind, ref, mov, DisplacementField(field.grid, u)).value

    fd = fd_gradient(value_of, field.u.copy(), step=1e-5)
    assert relative_error(grad, fd) <= 1e-6


def test_pair_grid_mismatch_rejected():
    g = GridSpec((6, 6))
    other = GridSpec((6, 6), spacing=(2.0, 2.0))
    with pytest.raises(GridError):
        pair_eval(
            SsdPair(), Image(g, np.zeros(g.dims)), Image(other, np.zeros(other.dims)),
            zero_field(other),
        )


def pair_term(kind, grid, a, b):
    """One pair term on its own: its value and cotangents ``(da, db)``."""
    w = grid.cell_area
    if isinstance(kind, SsdPair):
        diff = b - a
        return 0.5 * w * float(np.sum(diff**2)), -w * diff, w * diff
    ga, gb = gradient_central(a, grid), gradient_central(b, grid)
    na = np.sqrt(np.sum(ga**2, axis=-1) + kind.eta_pt)
    nb = np.sqrt(np.sum(gb**2, axis=-1) + kind.eta_pt)
    r = np.sum(ga * gb, axis=-1) / (na * nb)
    value = 0.5 * w * float(np.sum(1.0 - r**2))
    shared = w * r[..., None]
    dga = -shared * (gb / (na * nb)[..., None] - (r / na**2)[..., None] * ga)
    dgb = -shared * (ga / (na * nb)[..., None] - (r / nb**2)[..., None] * gb)
    return value, gradient_central_adjoint(dga, grid), gradient_central_adjoint(dgb, grid)


def per_pair_reference(kind, grid, images):
    """The chain written pair by pair: value from 0.0, cotangents from zeros."""
    value = 0.0
    cots = [np.zeros(grid.dims) for _ in images]
    for idx in range(1, len(images)):
        v, da, db = pair_term(kind, grid, images[idx - 1], images[idx])
        value += v
        cots[idx - 1] += da
        cots[idx] += db
    return value, cots


@pytest.mark.parametrize("kind", [SsdPair(), NgfPair(eta_pt=3e-2)])
@pytest.mark.parametrize("k", [2, 3, 5])
def test_pair_chain_matches_per_pair_reference_bitexact(kind, k):
    stack, fields = fd_instance(20 + k, k=k)
    warped = [warp_with_jacobian(img, f.u, want_jac=False)[0] for img, f in zip(stack, fields)]
    states = [pair_state(kind, stack.grid, w) for w in warped]
    value, cotangents = pair_chain(kind, stack.grid, states)
    ref_value, ref_cots = per_pair_reference(kind, stack.grid, warped)
    assert value == ref_value
    cots = cotangents()
    assert len(cots) == k
    for got, want in zip(cots, ref_cots):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("k", [2, 3, 5])
def test_ngf_chain_takes_each_image_gradient_once(k, monkeypatch):
    import sqnreg.measures as measures

    calls = []

    def counted(data, grid):
        calls.append(data)
        return gradient_central(data, grid)

    monkeypatch.setattr(measures, "gradient_central", counted)
    stack, fields = fd_instance(20 + k, k=k)
    warped = [warp_with_jacobian(img, f.u, want_jac=False)[0] for img, f in zip(stack, fields)]
    kind = NgfPair(eta_pt=3e-2)
    pair_chain(kind, stack.grid, [pair_state(kind, stack.grid, w) for w in warped])[1]()
    assert len(calls) == k
    assert all(got is img for got, img in zip(calls, warped))


# ---------------------------------------------------------------------------
# stack-level evaluation


def test_groupwise_eval_at_global_minimizer():
    g = GridSpec((8, 8), spacing=(0.125, 0.125))
    rng = rng_for(4)
    data = rng.uniform(0.2, 1.0, size=g.dims)
    k = 4
    stack = stack_of(g, [data.copy() for _ in range(k)])
    fields = [zero_field(g) for _ in range(k)]
    ev = measure_eval(stack, fields, SchattenQ(q=4.0, feature=IntensityFeature()))
    assert ev.value == pytest.approx(k - k**2, abs=1e-12)
    assert np.linalg.norm(ev.gradient()) <= 1e-8


@pytest.mark.slow
@pytest.mark.parametrize(
    "kind",
    [
        SchattenQ(q=4.0, feature=IntensityFeature()),
        SchattenQ(q=4.0, feature=NgfFeature(eta=0.05, relative=False)),
        SchattenQ(q=3.0, feature=IntensityFeature()),
        SchattenQ(q=math.inf, feature=NgfFeature(eta=0.05, relative=False)),
        CorrDev(feature=IntensityFeature()),
        LogDet(jitter=1e-3, feature=NgfFeature(eta=0.05, relative=False)),
    ],
)
def test_measure_eval_gradients_match_fd(kind):
    stack, fields = fd_instance(5, k=3)
    assert fd_safe_instance(stack, fields)
    ev = measure_eval(stack, fields, kind)

    def value_of(flat):
        k = stack.k
        us = flat.reshape(k, *stack.grid.dims, 2)
        fl = [DisplacementField(stack.grid, us[i]) for i in range(k)]
        return measure_eval(stack, fl, kind).value

    flat0 = np.stack([f.u for f in fields]).copy()
    fd = fd_gradient(value_of, flat0, step=1e-5)
    assert relative_error(ev.gradient(), fd) <= 1e-6


@pytest.mark.slow
@pytest.mark.parametrize("kind", [SsdPair(), NgfPair(eta_pt=3e-2)])
def test_pairwise_stack_eval_gradients_match_fd(kind):
    stack, fields = fd_instance(6, k=3)
    assert fd_safe_instance(stack, fields)
    ev = measure_eval(stack, fields, kind)

    def value_of(flat):
        k = stack.k
        us = flat.reshape(k, *stack.grid.dims, 2)
        fl = [DisplacementField(stack.grid, us[i]) for i in range(k)]
        return measure_eval(stack, fl, kind).value

    flat0 = np.stack([f.u for f in fields]).copy()
    fd = fd_gradient(value_of, flat0, step=1e-5)
    assert relative_error(ev.gradient(), fd) <= 1e-6


def test_pairwise_stack_value_is_sum_of_consecutive_pairs():
    stack, fields = fd_instance(7, k=4)
    ev = measure_eval(stack, fields, SsdPair())
    warped = [warp_with_jacobian(img, f.u, want_jac=False)[0] for img, f in zip(stack, fields)]
    w = stack.grid.cell_area
    expected = sum(
        0.5 * w * float(np.sum((warped[i] - warped[i - 1]) ** 2))
        for i in range(1, 4)
    )
    assert ev.value == pytest.approx(expected, rel=1e-12)


def test_groupwise_value_read_runs_no_backward(monkeypatch):
    import sqnreg.measures as measures

    calls = []

    def counted(*args):
        calls.append(args)
        return feature_adjoint(*args)

    monkeypatch.setattr(measures, "feature_adjoint", counted)
    stack, fields = fd_instance(9, k=3)
    ev = measure_eval(stack, fields, SchattenQ(q=4.0))
    assert math.isfinite(ev.value)
    assert calls == []
    assert ev.gradient().shape == (3, *stack.grid.dims, 2)
    # one adjoint pulls back the cotangents of the whole stack
    assert len(calls) == 1


def test_corrdev_is_negated_as_objective():
    stack, fields = fd_instance(8, k=3)
    kind = CorrDev(feature=IntensityFeature())
    ev = measure_eval(stack, fields, kind)
    from sqnreg.features import assemble

    fm = assemble(stack, fields, IntensityFeature())
    assert ev.value == pytest.approx(-corr_dev2(fm), rel=1e-12)


def test_logdet_degenerates_when_an_image_leaves_the_overlap():
    # drawback of the total-correlation competitor: pushing one image into
    # flat nothingness improves (lowers) logdet while SqN4 worsens
    m = 16
    g = GridSpec((m, m), spacing=(1.0 / m, 1.0 / m))
    c = g.cell_centers()
    r = np.sqrt((c[..., 0] - 0.35) ** 2 + (c[..., 1] - 0.5) ** 2)
    disk = np.clip((0.18 - r) / 0.08 + 0.5, 0.0, 1.0)
    stack = stack_of(g, [disk, disk.copy()])
    aligned = [zero_field(g), zero_field(g)]
    pushed_u = np.zeros((*g.dims, 2))
    pushed_u[..., 0] = -0.9  # samples fall outside the disk and clamp to background
    pushed = [zero_field(g), DisplacementField(g, pushed_u)]
    feature = NgfFeature(eta=1e-4, relative=False)
    jit = 1e-6
    ld_aligned = measure_eval(stack, aligned, LogDet(jitter=jit, feature=feature)).value
    ld_pushed = measure_eval(stack, pushed, LogDet(jitter=jit, feature=feature)).value
    s4_aligned = measure_eval(stack, aligned, SchattenQ(q=4.0, feature=feature)).value
    s4_pushed = measure_eval(stack, pushed, SchattenQ(q=4.0, feature=feature)).value
    assert ld_pushed < ld_aligned  # logdet prefers the degenerate configuration
    assert s4_pushed > s4_aligned  # SqN4 does not


def test_resolve_measure_materializes_relative_eta_and_auto_jitter():
    stack, _ = fd_instance(10, k=3)
    kind = resolve_measure(SchattenQ(q=4.0, feature=NgfFeature(eta=1e-2, relative=True)), stack)
    assert not kind.feature.relative
    ld = resolve_measure(LogDet(jitter="auto", feature=IntensityFeature()), stack)
    assert isinstance(ld.jitter, float)
    assert ld.jitter > 0.0


def test_field_count_mismatch_rejected():
    stack, fields = fd_instance(11, k=3)
    with pytest.raises(GridError, match=r"shape \(2, 8, 8, 2\), expected \(3, 8, 8, 2\)"):
        measure_eval(stack, fields[:2], SsdPair())
