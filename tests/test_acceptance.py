"""Acceptance gates for the full toolkit.

These are the end-to-end checks the package must pass: gradient
correctness through every differentiation path, spectral identities and
analytic extremes of the stack measures, permutation invariance of the
groupwise solver, translation and drift recovery on synthetic stacks,
degeneracy behavior of the volume-style measure, monotone descent, a
budget-matched groupwise-vs-sequential comparison, and file format round
trips.
"""

import math
import time

import numpy as np
import pytest

from sqnreg.accum import block_norm
from sqnreg.features import (
    IntensityFeature,
    NgfFeature,
    FeatureMatrix,
    feature_adjoint,
    feature_columns,
    resolve_feature,
)
from sqnreg.fileio import load_field, load_pgm, save_field, save_pgm
from sqnreg.grids import DisplacementField, GridSpec, Image, ImageStack, zero_field
from sqnreg.measures import (
    CorrDev,
    LogDet,
    NgfPair,
    SchattenQ,
    SsdPair,
    _sqn_coeffs,
    measure_eval,
    resolve_measure,
)
from sqnreg.optimize import ObjectiveSpec, SolveOptions, multilevel_solve, objective
from sqnreg.oracles import fd_gradient
from sqnreg.regularize import Diffusion, Elastic, reg_eval
from sqnreg.spectral import thin_svd
from sqnreg.synth import rng_for_purpose, synth_stack

from conftest import fd_instance, gram_matrix, rng_for

GRAD_TOL = 1e-6


def relerr(analytic, numeric):
    return float(
        np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-300)
    )


def unit_column_matrix(rng, n, k):
    entries = rng.standard_normal((n, k))
    entries /= np.linalg.norm(entries, axis=0, keepdims=True)
    return FeatureMatrix(entries, quad_weight=1.0)


# ---------------------------------------------------------------------------
# shared solve fixtures (criteria 4, 5, 7, 8)


@pytest.fixture(scope="module")
def permutation_solves():
    stack, _ = synth_stack(21, 10, "shifted_disks", 2.0, dims=(32, 32))
    spec = ObjectiveSpec(SchattenQ(q=4.0), Diffusion(alpha=1e-2))
    opts = SolveOptions(levels=2, maxiter=20, gtol=1e-6)
    t0 = time.monotonic()
    base = multilevel_solve(spec, stack, opts)
    perm = [int(i) for i in rng_for_purpose(99, "perm").permutation(10)]
    permuted = multilevel_solve(spec, stack.permuted(perm), opts)
    elapsed = time.monotonic() - t0
    return base, permuted, perm, elapsed


@pytest.fixture(scope="module")
def recovery_instance():
    stack, truths = synth_stack(12, 8, "shifted_disks", 5.0, dims=(64, 64))
    mask = stack[0].data > 0.25
    assert mask.sum() > 100
    return stack, truths, mask


def _recovery_opts():
    return SolveOptions(levels=3, maxiter=40, gtol=1e-6)


@pytest.fixture(scope="module")
def recovery_solves(recovery_instance):
    stack, _, _ = recovery_instance
    reports = {}
    t0 = time.monotonic()
    for name, measure in [
        ("sqn4", SchattenQ(q=4.0)),
        ("sqn_inf", SchattenQ(q=math.inf)),
        ("logdet", LogDet(jitter=1e-2)),
    ]:
        spec = ObjectiveSpec(measure, Diffusion(alpha=1e-2))
        reports[name] = multilevel_solve(spec, stack, _recovery_opts())
    elapsed = time.monotonic() - t0
    return reports, elapsed


@pytest.fixture(scope="module")
def sequential_sweep(recovery_instance):
    stack, _, _ = recovery_instance
    spec = ObjectiveSpec(NgfPair(eta_pt=1e-2), Diffusion(alpha=1e-2), mode="sequential")
    opts = SolveOptions(levels=1, maxiter=30, gtol=1e-6, sweeps=1)
    report = multilevel_solve(spec, stack, opts)
    return spec, report


def rms_relative_shift_error(fields, truths, mask):
    est = np.stack([f.u[mask].mean(axis=0) for f in fields])
    tru = np.stack([t.u[mask].mean(axis=0) for t in truths])
    est -= est.mean(axis=0)
    tru -= tru.mean(axis=0)
    per_image = np.linalg.norm(est - tru, axis=1)
    return float(np.sqrt(np.mean(per_image**2)))


def iter_runs(report):
    """Split a report's records into per-solve runs (iteration resets to 0)."""
    run = []
    for rec in report.all_records():
        if rec.iteration == 0 and run:
            yield run
            run = []
        run.append(rec)
    if run:
        yield run


def mean_pairwise_ngf(stack, fields):
    me = measure_eval(stack, list(fields), NgfPair(eta_pt=1e-2))
    return me.value / (stack.k - 1)


# ---------------------------------------------------------------------------
# criterion 1: every analytic gradient path vs central differences


@pytest.mark.slow
class TestGradientSuite:
    def test_all_paths_within_tolerance(self):
        t0 = time.monotonic()
        # pointwise NGF normalization has large third derivatives at small
        # eta, so its central-difference step is shorter to keep truncation
        # error below the gate
        measures = [
            ("sqn4", SchattenQ(q=4.0), 1e-5),
            ("sqn_inf", SchattenQ(q=math.inf), 1e-5),
            ("sqn3", SchattenQ(q=3.0), 1e-5),
            ("corr_dev2", CorrDev(), 1e-5),
            ("logdet", LogDet(jitter=1e-3), 1e-5),
            ("ssd_pair", SsdPair(), 1e-5),
            ("ngf_pair", NgfPair(eta_pt=1e-2), 1e-6),
        ]
        worst: dict[str, float] = {}
        for seed in range(5):
            stack, fields = fd_instance(seed, k=4, dims=(8, 8))
            grid = stack.grid
            x = np.stack([f.u for f in fields])
            shape = x.shape

            for name, kind, step in measures:
                resolved = resolve_measure(kind, stack)
                base = measure_eval(stack, x_to_fields(grid, x), resolved)

                def fn(vec, _k=resolved):
                    flds = x_to_fields(grid, vec.reshape(shape))
                    return measure_eval(stack, flds, _k).value

                err = relerr(base.gradient().ravel(), fd_gradient(fn, x.ravel(), step))
                worst[name] = max(worst.get(name, 0.0), err)

            for name, reg in [
                ("diffusion", Diffusion(alpha=1e-2)),
                ("elastic", Elastic(mu=1.0, lam=0.5, alpha=1e-2)),
            ]:
                u0 = fields[0].u

                def rn(vec, _r=reg):
                    return reg_eval(_r, grid, vec.reshape(u0.shape))[0]

                g = reg_eval(reg, grid, u0)[1]()
                err = relerr(g.ravel(), fd_gradient(rn, u0.ravel(), 1e-5))
                worst[name] = max(worst.get(name, 0.0), err)

            rng = rng_for(1000 + seed)
            data = np.stack([img.data for img in stack])
            for name, feat in [
                ("feature_intensity", IntensityFeature()),
                ("feature_ngf", resolve_feature(NgfFeature(), stack)),
            ]:
                cot = rng.standard_normal(feature_columns(feat, grid, data).shape)

                def cn(vec, _f=feat):
                    return float(np.sum(cot * feature_columns(_f, grid, vec.reshape(data.shape))))

                analytic = feature_adjoint(feat, grid, data, cot).ravel()
                err = relerr(analytic, fd_gradient(cn, data.ravel(), 1e-6))
                worst[name] = max(worst.get(name, 0.0), err)

            for name, spec in [
                (
                    "objective_groupwise",
                    ObjectiveSpec(SchattenQ(q=4.0), Diffusion(alpha=1e-2), constraint="none"),
                ),
                (
                    "objective_sequential",
                    ObjectiveSpec(SsdPair(), Diffusion(alpha=1e-2), "sequential", "none"),
                ),
            ]:

                def on(vec, _s=spec):
                    return objective(_s, stack, vec.reshape(shape))[0]

                grads = objective(spec, stack, x)[1]()
                err = relerr(grads.ravel(), fd_gradient(on, x.ravel(), 1e-5))
                worst[name] = max(worst.get(name, 0.0), err)

        elapsed = time.monotonic() - t0
        assert len(worst) == 13
        bad = {k: v for k, v in worst.items() if v > GRAD_TOL}
        assert not bad, f"gradient paths above {GRAD_TOL}: {bad}"
        assert elapsed <= 120.0, f"gradient suite took {elapsed:.1f}s"


def x_to_fields(grid, x):
    return [DisplacementField(grid, x[i]) for i in range(x.shape[0])]


# ---------------------------------------------------------------------------
# criterion 2: Gram / fourth-power identity and eigenvalue match


class TestSpectralIdentities:
    def test_gram_schatten_identity_hundred_instances(self):
        rng = rng_for(200)
        for trial in range(100):
            k = int(rng.integers(2, 11))
            n = k + int(rng.integers(2, 40))
            fm = unit_column_matrix(rng, n, k)
            c = gram_matrix(fm)

            # route A: entrywise Frobenius norm of C - I
            lhs = float(np.sum((c - np.eye(k)) ** 2))
            # route B: LAPACK singular values of F
            s_ref = np.linalg.svd(fm.entries, compute_uv=False)
            rhs = float(np.sum(s_ref**4) - k)
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))

            # route C: the packaged measure evaluates the same quantity
            svd = thin_svd(fm)
            value, _ = _sqn_coeffs(svd, 4.0)
            sum4 = k - value
            assert abs((sum4 - k) - lhs) <= 1e-10 * max(1.0, abs(lhs))

            eig = np.linalg.eigvalsh(c)[::-1]
            top = max(eig[0], 1.0)
            assert np.max(np.abs(svd.sigma**2 - eig)) <= 1e-10 * top
            assert np.max(np.abs(s_ref**2 - eig)) <= 1e-10 * top


# ---------------------------------------------------------------------------
# criterion 3: analytic extremes and bounds


class TestAnalyticExtremes:
    def test_orthonormal_and_rank_one_exact(self):
        rng = rng_for(300)
        for k in range(2, 11):
            n = k + 15
            q_mat, _ = np.linalg.qr(rng.standard_normal((n, k)))
            svd = thin_svd(FeatureMatrix(q_mat, quad_weight=1.0))
            v4, _ = _sqn_coeffs(svd, 4.0)
            vinf, _ = _sqn_coeffs(svd, math.inf)
            assert abs(v4 - 0.0) <= 1e-10
            assert abs(vinf - (-1.0)) <= 1e-10

            col = rng.standard_normal(n)
            col /= np.linalg.norm(col)
            svd1 = thin_svd(FeatureMatrix(np.tile(col[:, None], (1, k)), quad_weight=1.0))
            v4, _ = _sqn_coeffs(svd1, 4.0)
            vinf, _ = _sqn_coeffs(svd1, math.inf)
            assert abs(v4 - (k - k**2)) <= 1e-10 * k**2
            assert abs(vinf - (-math.sqrt(k))) <= 1e-10

    def test_bounds_on_thousand_instances(self):
        rng = rng_for(301)
        for trial in range(1000):
            k = int(rng.integers(2, 11))
            n = k + int(rng.integers(1, 30))
            svd = thin_svd(unit_column_matrix(rng, n, k))
            v4, _ = _sqn_coeffs(svd, 4.0)
            vinf, _ = _sqn_coeffs(svd, math.inf)
            assert k - k**2 - 1e-12 <= v4 <= 1e-12
            assert -math.sqrt(k) - 1e-12 <= vinf <= -1.0 + 1e-10


# ---------------------------------------------------------------------------
# criterion 4: permutation invariance of the groupwise solve


@pytest.mark.slow
class TestPermutationInvariance:
    def test_fields_match_after_unpermuting(self, permutation_solves):
        base, permuted, perm, _ = permutation_solves
        for i, j in enumerate(perm):
            diff = np.abs(permuted.fields[i].u - base.fields[j].u).max()
            assert diff <= 1e-6, f"field {j}: max deviation {diff}"

    def test_traces_match_per_iteration(self, permutation_solves):
        base, permuted, _, _ = permutation_solves
        vals = [r.value for r in base.all_records()]
        vals_p = [r.value for r in permuted.all_records()]
        assert len(vals) == len(vals_p)
        for a, b in zip(vals, vals_p):
            assert abs(a - b) <= 1e-9 * max(1.0, abs(a))

    def test_runtime_budget(self, permutation_solves):
        *_, elapsed = permutation_solves
        assert elapsed <= 120.0, f"permutation solves took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# criterion 5: translation recovery on a shifted-disk stack


@pytest.mark.slow
class TestTranslationRecovery:
    @pytest.mark.parametrize("name", ["sqn4", "sqn_inf", "logdet"])
    def test_recovers_within_half_pixel(self, name, recovery_instance, recovery_solves):
        _, truths, mask = recovery_instance
        reports, _ = recovery_solves
        rms = rms_relative_shift_error(reports[name].fields, truths, mask)
        assert rms <= 0.5, f"{name}: RMS relative shift error {rms:.3f} px"

    def test_sequential_sweep_reduces_but_partial(self, recovery_instance, sequential_sweep):
        stack, _, _ = recovery_instance
        spec, report = sequential_sweep
        zero = [zero_field(stack.grid) for _ in range(stack.k)]
        j0 = objective(spec, stack, zero)[0]
        j1 = objective(spec, stack, report.fields)[0]
        assert j1 < j0
        d0 = measure_eval(stack, zero, spec.measure).value
        d1 = measure_eval(stack, report.fields, spec.measure).value
        assert d1 < d0

    def test_runtime_budget(self, recovery_solves):
        _, elapsed = recovery_solves
        assert elapsed <= 300.0, f"recovery solves took {elapsed:.1f}s"

    @pytest.mark.parametrize("name", ["sqn4", "sqn_inf", "logdet"])
    def test_line_search_evaluations_per_iteration(self, name, recovery_solves):
        # the interpolating zoom reads 3.1 (logdet) to 3.9 (sqn_inf) here
        reports, _ = recovery_solves
        report = reports[name]
        iterations = sum(1 for r in report.all_records() if r.iteration > 0)
        per_iteration = report.fevals / iterations
        assert per_iteration <= 4.0, (
            f"{name}: {report.fevals} evaluations over {iterations} iterations"
        )


@pytest.mark.slow
class TestDriftRecovery:
    """Linear drift along the stack, the paper's histological-section case.

    Judged by ground truth, which neither method optimizes.  On this
    instance the zero field reads 1.281, the groupwise solve 0.052 (131
    fevals) and one sequential NGF sweep 0.928 (535 fevals).
    """

    def test_groupwise_recovers_drift_better_than_sequential(self):
        stack, truths = synth_stack(7, 8, "shifted_disks", (0.5, 0.25), dims=(32, 32))
        mask = stack[0].data > 0.25
        zero = rms_relative_shift_error([zero_field(stack.grid)] * stack.k, truths, mask)
        group = multilevel_solve(
            ObjectiveSpec(SchattenQ(q=4.0), Diffusion(alpha=1e-2)),
            stack,
            SolveOptions(levels=2, maxiter=20, gtol=1e-6),
        )
        seq = multilevel_solve(
            ObjectiveSpec(NgfPair(eta_pt=1e-2), Diffusion(alpha=1e-2), mode="sequential"),
            stack,
            SolveOptions(levels=1, maxiter=30),
        )
        group_rms = rms_relative_shift_error(group.fields, truths, mask)
        seq_rms = rms_relative_shift_error(seq.fields, truths, mask)
        assert group_rms <= 0.1 * zero, f"groupwise {group_rms:.3f} vs zero field {zero:.3f}"
        assert seq_rms < zero, f"sequential {seq_rms:.3f} vs zero field {zero:.3f}"
        assert group_rms < seq_rms, f"groupwise {group_rms:.3f} vs sequential {seq_rms:.3f}"


# ---------------------------------------------------------------------------
# criterion 6: degeneracy contrast between log-det and fourth-power measures


class TestDegeneracyContrast:
    def make_instance(self):
        grid = GridSpec(dims=(48, 48))
        pts = grid.cell_centers()

        def soft_disk(center, radius):
            r = np.hypot(pts[..., 0] - center[0], pts[..., 1] - center[1])
            t = np.clip((radius - r) / 1.5 + 0.5, 0.0, 1.0)
            return t * t * (3.0 - 2.0 * t)

        base = 0.1 + 0.6 * soft_disk((24.0, 12.0), 6.0)
        bump = 0.05 * soft_disk((20.0, 15.0), 8.0)
        stack = ImageStack((Image(grid, base), Image(grid, base + bump)))
        aligned = [zero_field(grid), zero_field(grid)]
        pushed_u = np.zeros((*grid.dims, 2))
        pushed_u[..., 1] = 26.0  # sampling lands in the constant right half
        pushed = [zero_field(grid), DisplacementField(grid, pushed_u)]
        return stack, aligned, pushed

    def test_logdet_prefers_degenerate_while_sqn_rejects(self):
        stack, aligned, pushed = self.make_instance()
        logdet = resolve_measure(LogDet(jitter=1e-6), stack)
        sqn4 = resolve_measure(SchattenQ(q=4.0), stack)

        ld_aligned = measure_eval(stack, aligned, logdet).value
        ld_pushed = measure_eval(stack, pushed, logdet).value
        s_aligned = measure_eval(stack, aligned, sqn4).value
        s_pushed = measure_eval(stack, pushed, sqn4).value

        # pushing image 2 into featureless background "improves" log-det
        assert ld_pushed < ld_aligned - 1.0
        # while the fourth-power measure correctly gets worse
        assert s_pushed > s_aligned + 0.5


# ---------------------------------------------------------------------------
# criterion 7: monotone descent on all reported solves


@pytest.mark.slow
class TestMonotoneDescent:
    def assert_monotone(self, report):
        runs = list(iter_runs(report))
        assert runs
        for run in runs:
            for prev, cur in zip(run, run[1:]):
                assert cur.value < prev.value, (
                    f"level {cur.level} component {cur.component} "
                    f"iteration {cur.iteration}: {prev.value} -> {cur.value}"
                )

    def test_permutation_solves_monotone(self, permutation_solves):
        base, permuted, *_ = permutation_solves
        self.assert_monotone(base)
        self.assert_monotone(permuted)

    def test_recovery_solves_monotone(self, recovery_solves):
        reports, _ = recovery_solves
        for report in reports.values():
            self.assert_monotone(report)

    def test_sequential_sweep_monotone(self, sequential_sweep):
        _, report = sequential_sweep
        self.assert_monotone(report)


# ---------------------------------------------------------------------------
# criterion 8: budget-matched groupwise vs one sequential sweep


@pytest.mark.slow
class TestEfficiencyBudget:
    def test_groupwise_beats_sweep_at_equal_fevals(
        self, recovery_instance, sequential_sweep
    ):
        stack, _, _ = recovery_instance
        _, seq_report = sequential_sweep
        budget = seq_report.fevals
        spec = ObjectiveSpec(SchattenQ(q=4.0), Diffusion(alpha=1e-2))
        opts = SolveOptions(levels=3, maxiter=200, gtol=1e-6, max_fevals=budget)
        group_report = multilevel_solve(spec, stack, opts)
        assert group_report.fevals <= budget
        group_ngf = mean_pairwise_ngf(stack, group_report.fields)
        seq_ngf = mean_pairwise_ngf(stack, seq_report.fields)
        assert group_ngf <= seq_ngf, (
            f"groupwise {group_ngf:.6f} vs sequential {seq_ngf:.6f} "
            f"at {budget} function evaluations"
        )


# ---------------------------------------------------------------------------
# criterion 9: format round trips


class TestFormatRoundTrips:
    @pytest.mark.parametrize("maxval", [255, 65535])
    def test_pgm_bit_exact(self, tmp_path, maxval):
        rng = rng_for(900 + maxval)
        raw = rng.integers(0, maxval + 1, size=(12, 9))
        img = Image(GridSpec(dims=(12, 9)), raw / maxval)
        p1 = tmp_path / "a.pgm"
        p2 = tmp_path / "b.pgm"
        save_pgm(img, p1, maxval=maxval)
        loaded = load_pgm(p1)
        assert np.array_equal(np.rint(loaded.data * maxval).astype(int), raw)
        save_pgm(loaded, p2, maxval=maxval)
        assert p1.read_bytes() == p2.read_bytes()

    def test_field_bit_exact(self, tmp_path):
        rng = rng_for(901)
        grid = GridSpec(dims=(11, 6), origin=(-2.0, 0.5), spacing=(0.25, 1.75))
        field = DisplacementField(grid, rng.standard_normal((11, 6, 2)) * 1e3)
        p1 = tmp_path / "a.sqnfield"
        p2 = tmp_path / "b.sqnfield"
        save_field(field, p1)
        loaded = load_field(p1)
        assert loaded.grid == grid
        assert np.array_equal(loaded.u, field.u)
        save_field(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()
