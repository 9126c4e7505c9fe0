"""Solver tests: generic L-BFGS behavior, objective gradients, and the
registration drivers (groupwise, Gauss-Seidel, multilevel)."""

import dataclasses
import math
import time
import weakref
from collections import deque

import numpy as np
import pytest

from sqnreg.accum import block_dot
from sqnreg.errors import ConfigError, GridError, MeasureError, OptimError
from sqnreg.grids import (DisplacementField, GridSpec, Image, ImageStack, warp_with_jacobian,
                          zero_field)
from sqnreg.measures import CorrDev, LogDet, NgfPair, SchattenQ, SsdPair, measure_eval
from sqnreg.features import IntensityFeature, NgfFeature
from sqnreg.optimize import (
    CG_MAXITER,
    CG_TOL,
    LBFGS_MEMORY,
    LS_MAX_EXPAND,
    LS_MAX_ZOOM,
    WOLFE_C1,
    WOLFE_C2,
    LevelTrace,
    ObjectiveSpec,
    SolveOptions,
    _Counters,
    _Eval,
    _LevelMinimizer,
    _cg_solve,
    _component_objective,
    _cosine_metric,
    _make_metric_solve,
    _strong_wolfe,
    _two_loop,
    _zoom_trial,
    build_pyramid,
    gauss_seidel_sweep,
    lbfgs,
    multilevel_solve,
    objective,
)
from sqnreg.oracles import fd_gradient
from sqnreg.regularize import Diffusion, Elastic, reg_eval, reg_hessian_apply
from sqnreg.synth import synth_stack

from conftest import fd_instance, relative_error, rng_for, stack_of


def quadratic_target(a):
    def fun(x):
        return 0.5 * float(np.sum((x - a) ** 2)), lambda: x - a

    return fun


def rosenbrock(x):
    v = (1.0 - x[0]) ** 2 + 100.0 * (x[1] - x[0] ** 2) ** 2
    g = np.array(
        [
            -2.0 * (1.0 - x[0]) - 400.0 * x[0] * (x[1] - x[0] ** 2),
            200.0 * (x[1] - x[0] ** 2),
        ]
    )
    return float(v), lambda: g


def run_lbfgs(fun, x0, opts, metric_solve=lambda q: q, counters=None, trace=None):
    """``lbfgs`` on a plain objective: no gauge, no first-step cap, M = I unless given."""
    return lbfgs(
        fun,
        x0,
        opts,
        metric_solve=metric_solve,
        project_point=lambda x: x,
        first_step_scale=math.inf,
        counters=counters if counters is not None else _Counters(),
        trace=trace if trace is not None else LevelTrace(0),
        level=0,
        component=-1,
        t0=time.perf_counter(),
    )


def unit_grid(dims):
    return GridSpec(dims=dims, spacing=(1.0 / dims[0], 1.0 / dims[1]))


def blob(grid, center, width=0.15, shift=(0.0, 0.0)):
    pts = grid.cell_centers()
    d1 = pts[..., 0] - center[0] - shift[0]
    d2 = pts[..., 1] - center[1] - shift[1]
    return Image(grid, np.exp(-(d1**2 + d2**2) / (2.0 * width**2)))


def shifted_blob_stack(dims, shifts, width=0.15):
    grid = unit_grid(dims)
    center = (0.5, 0.5)
    return ImageStack(tuple(blob(grid, center, width, s) for s in shifts))


class TestLbfgsGeneric:
    def test_quadratic_converges_in_three_iterations(self):
        a = np.array([1.0, -2.0, 3.0, 0.5, 2.0])
        x, termination = run_lbfgs(quadratic_target(a), np.zeros(5), SolveOptions(gtol=1e-12))
        assert quadratic_target(a)(x)[0] <= 1e-10
        assert np.allclose(x, a, atol=1e-10)
        assert termination == "gtol"

    def test_quadratic_iteration_count(self):
        from sqnreg.optimize import LevelTrace

        a = np.array([3.0, -1.0, 0.25])
        trace = LevelTrace(0)
        run_lbfgs(quadratic_target(a), np.zeros(3), SolveOptions(gtol=1e-12), trace=trace)
        # record 0 is the starting point; one step lands on the minimizer
        assert len(trace.records) <= 3
        assert trace.records[-1].value <= 1e-10

    def test_rosenbrock_reaches_minimum(self):
        x, _ = run_lbfgs(rosenbrock, np.array([-1.2, 1.0]), SolveOptions(maxiter=200, gtol=1e-9))
        assert np.linalg.norm(rosenbrock(x)[1]()) < 1e-6
        assert np.allclose(x, [1.0, 1.0], atol=1e-6)

    def test_values_strictly_decrease_within_run(self):
        from sqnreg.optimize import LevelTrace

        trace = LevelTrace(0)
        run_lbfgs(
            rosenbrock, np.array([-1.2, 1.0]), SolveOptions(maxiter=200, gtol=1e-9), trace=trace
        )
        values = [r.value for r in trace.records]
        assert len(values) > 5
        for prev, cur in zip(values, values[1:]):
            assert cur < prev

    def test_accepted_step_satisfies_strong_wolfe(self):
        x = np.array([-2.0])

        def fun(z):
            t = z[0]
            return float(t**4 - 2 * t**2 + 0.5), lambda: np.array([4 * t**3 - 4 * t])

        f0, g0 = fun(x)
        p = -g0()
        slope0 = float(g0() @ p)
        ls = _strong_wolfe(fun, x, p, f0, slope0, _Counters())
        assert ls.ok
        fa, ga = fun(x + ls.ev.alpha * p)
        assert fa <= f0 + WOLFE_C1 * ls.ev.alpha * slope0
        assert abs(float(ga() @ p)) <= WOLFE_C2 * abs(slope0)

    def test_budget_cap_stops_early(self):
        counters = _Counters(budget=5)
        _, termination = run_lbfgs(
            rosenbrock,
            np.array([-1.2, 1.0]),
            SolveOptions(maxiter=200, gtol=1e-12),
            counters=counters,
        )
        assert counters.fevals <= 5
        assert termination == "budget"


class TestTwoLoop:
    @pytest.mark.parametrize("pairs", range(1, LBFGS_MEMORY + 1))
    def test_applies_the_dense_inverse_bfgs_matrix(self, pairs):
        # H from H0 by the inverse BFGS update over the pairs, oldest first
        # (Nocedal & Wright, eq. 6.17); the recursion must apply exactly H
        rng = rng_for(130 + pairs)
        shape = (2, 3, 2)
        n = math.prod(shape)
        root = rng.standard_normal((n, n))
        h0 = np.eye(n) + 0.1 * root @ root.T
        curv = rng.standard_normal((n, n))
        a = np.eye(n) + 0.5 * curv @ curv.T / n
        memory = deque(maxlen=LBFGS_MEMORY)
        h = h0
        for _ in range(pairs):
            s = rng.standard_normal(n)
            y = a @ s
            sy = float(s @ y)
            assert sy > 0.0
            memory.append((s.reshape(shape), y.reshape(shape), 1.0 / sy))
            left = np.eye(n) - np.outer(s, y) / sy
            h = left @ h @ left.T + np.outer(s, s) / sy
        g = rng.standard_normal(shape)
        g0 = g.copy()
        got = _two_loop(g, memory, lambda q: (h0 @ q.ravel()).reshape(q.shape))
        assert got.shape == shape
        assert relative_error(got, h @ g0.ravel()) <= 1e-12
        # the gradient is read, not written
        assert np.array_equal(g, g0)


def kinked(c):
    """``c |x_0| + x_1^2`` whose gradient at the kink is the right derivative."""

    def fun(x):
        return c * abs(x[0]) + x[1] ** 2, lambda: np.array([c if x[0] >= 0 else -c, 2 * x[1]])

    return fun


def stretch_first(q):
    # a metric that makes the kink direction dominate the seeded step
    return q * np.array([1e4, 1.0])


class TestSteepestDescentRestart:
    def test_failed_search_retries_along_negative_gradient(self):
        fun, trials = recorded_points(kinked(1.0))
        x0 = np.array([0.0, 1.0])
        counters = _Counters()
        x, termination = run_lbfgs(fun, x0, SolveOptions(maxiter=1), stretch_first, counters)
        # no trial along -M^-1 g decreases J; -g = (-1, -2) does
        assert termination == "maxiter"
        assert counters.line_search_failures == 0
        assert kinked(1.0)(x)[0] < 1.0
        step = x - x0
        assert step[0] < 0 and step[1] == pytest.approx(2.0 * step[0], rel=1e-12)
        assert any(t[0] < -1e-3 and abs(t[1] - 1.0) < 1e-3 for t in trials)

    def test_failed_restart_ends_run(self):
        x0 = np.array([0.0, 1.0])
        counters = _Counters()
        x, termination = run_lbfgs(kinked(10.0), x0, SolveOptions(maxiter=5), stretch_first, counters)
        assert termination == "line_search_failure"
        assert counters.line_search_failures == 1
        assert np.array_equal(x, x0)

    def test_no_retry_when_direction_already_steepest(self):
        fun, trials = recorded_points(kinked(10.0))
        x0 = np.array([0.0, 1.0])
        # an uphill metric direction falls back to -g before the first search
        _, termination = run_lbfgs(fun, x0, SolveOptions(maxiter=5), metric_solve=lambda q: -q)
        assert termination == "line_search_failure"
        # the start point and one search, not a second one along the same ray
        assert len(trials) <= 1 + LS_MAX_EXPAND + LS_MAX_ZOOM
        # every trial lies on the one ray x0 - alpha * (10, 2)
        for t in trials[1:]:
            assert t[0] < 0 and t[1] - 1.0 == pytest.approx(0.2 * t[0], rel=1e-9)


def recorded_points(fun):
    """Wrap an objective so that every evaluated point is recorded."""
    points = []

    def wrapped(z):
        points.append(z.copy())
        return fun(z)

    return wrapped, points


def recorded(fun):
    """Wrap a line function so that every trial step is recorded."""
    trials = []

    def wrapped(z):
        trials.append(float(z[0]))
        return fun(z)

    return wrapped, trials


class _State:
    """Stands in for a trial's forward state; weakly referenceable."""


def stateful_line(value_of, slope_of):
    """A line function (for ``x = 0``, ``p = 1``: each trial point is its
    step) whose gradient closure holds one ``_State`` per trial.

    Also returns, per forward pass, the earlier trials whose state was
    still held when it began, as ``(step, value)`` pairs.
    """
    states = []
    held_at_start = []

    def fun(z):
        t = float(z[0])
        held_at_start.append([(s, v) for s, v, ref in states if ref() is not None])
        state = _State()
        states.append((t, value_of(t), weakref.ref(state)))

        def gradient(state=state):  # the closure holds the state
            return np.array([slope_of(t)])

        return value_of(t), gradient

    return fun, held_at_start


class TestZoomInterpolation:
    def test_quadratic_minimizer_after_one_interpolated_trial(self):
        # phi(t) = (t - 1/4)^2: the first trial t = 1 fails sufficient
        # decrease, and the quadratic through phi(0), phi'(0) and phi(1) is
        # phi itself, so the next trial is its minimizer, exactly
        fun, trials = recorded(lambda z: ((z[0] - 0.25) ** 2, lambda: 2.0 * (z - 0.25)))
        ls = _strong_wolfe(fun, np.zeros(1), np.ones(1), 0.0625, -0.5, _Counters())
        assert ls.ok and ls.reason == "wolfe"
        assert trials == [1.0, 0.25]
        assert ls.ev.alpha == 0.25

    @pytest.mark.parametrize("reversed_bracket", [False, True])
    def test_trial_is_clamped_to_the_inner_bracket(self, reversed_bracket):
        # bracket [0.5, 2.5]; the inner 80 % is [0.7, 2.3]
        a, b = (2.5, 0.5) if reversed_bracket else (0.5, 2.5)
        downhill = -1.0 if b > a else 1.0  # phi decreases from lo towards hi
        lo = _Eval(a, 0.0, None, slope=downhill)
        steep = _Eval(b, 100.0, None)  # minimizer just past lo
        flat = _Eval(b, -1.9, None)  # minimizer far beyond hi
        near_lo, near_hi = (2.3, 0.7) if reversed_bracket else (0.7, 2.3)
        assert _zoom_trial(lo, steep) == pytest.approx(near_lo, abs=1e-15)
        assert _zoom_trial(lo, flat) == pytest.approx(near_hi, abs=1e-15)
        # inside the inner bracket the quadratic's minimizer is kept
        inner = _Eval(b, 1.0, None)
        assert _zoom_trial(lo, inner) == pytest.approx(a + (b - a) / 3.0, abs=1e-15)

    @pytest.mark.parametrize("hi_value", [math.inf, -2.0, -3.0])
    def test_midpoint_without_a_convex_quadratic(self, hi_value):
        # +inf is a rejected trial; -2 and -3 give curvature 0 and < 0
        lo = _Eval(0.0, 0.0, None, slope=-1.0)
        assert _zoom_trial(lo, _Eval(2.0, hi_value, None)) == 1.0
        lo_rev = _Eval(2.0, 0.0, None, slope=1.0)
        assert _zoom_trial(lo_rev, _Eval(0.0, hi_value, None)) == 1.0

    def test_rejected_first_trial_is_bisected(self):
        def fun(z):
            if z[0] > 0.6:
                raise MeasureError("outside the valid region")
            return (z[0] - 0.25) ** 2, lambda: 2.0 * (z - 0.25)

        fun, trials = recorded(fun)
        counters = _Counters()
        ls = _strong_wolfe(fun, np.zeros(1), np.ones(1), 0.0625, -0.5, counters)
        assert ls.ok
        assert trials[:2] == [1.0, 0.5]
        assert counters.rejected_trials == 1


class TestObjective:
    def test_identical_images_zero_fields(self, unit_grid8):
        rng = rng_for(31)
        data = rng.uniform(0.3, 1.0, size=unit_grid8.dims)
        stack = stack_of(unit_grid8, [data, data, data, data])
        spec = ObjectiveSpec(
            SchattenQ(q=4.0, feature=IntensityFeature()), Diffusion(alpha=1e-2)
        )
        fields = [zero_field(unit_grid8) for _ in range(4)]
        value, gradient = objective(spec, stack, fields)
        grads = gradient()
        k = 4
        assert value == pytest.approx(k - k**2, abs=1e-9)
        assert np.linalg.norm(grads) <= 1e-8

    @pytest.mark.parametrize(
        "measure, reg, mode",
        [
            (SchattenQ(q=4.0), Diffusion(alpha=1e-2), "groupwise"),
            (CorrDev(feature=IntensityFeature()), Elastic(mu=1.0, lam=0.5, alpha=1e-2),
             "groupwise"),
            (NgfPair(eta_pt=1e-2), Diffusion(alpha=1e-2), "sequential"),
            (SsdPair(), Elastic(mu=1.0, lam=0.5, alpha=1e-2), "sequential"),
        ],
        ids=["sqn4-diffusion", "corrdev-elastic", "ngf-diffusion", "ssd-elastic"],
    )
    def test_field_list_and_array_give_the_same_bits(self, measure, reg, mode):
        # the public entry points take either form through one adapter
        stack, fields = fd_instance(13, k=4)
        x = np.stack([f.u for f in fields])
        spec = ObjectiveSpec(measure, reg, mode=mode)
        v_list, g_list = objective(spec, stack, fields)
        v_arr, g_arr = objective(spec, stack, x)
        assert v_list == v_arr
        assert np.array_equal(g_list(), g_arr())
        me_list = measure_eval(stack, fields, measure)
        me_arr = measure_eval(stack, x, measure)
        assert me_list.value == me_arr.value
        assert np.array_equal(me_list.gradient(), me_arr.gradient())

    def test_groupwise_value_is_measure_plus_reg(self):
        stack, fields = fd_instance(2, k=3)
        spec = ObjectiveSpec(SchattenQ(q=4.0), Diffusion(alpha=1e-2), constraint="none")
        value, _ = objective(spec, stack, fields)
        from sqnreg.regularize import reg_glo

        me = measure_eval(stack, fields, spec.measure)
        rv, _ = reg_glo(spec.regularizer, stack.grid, np.stack([f.u for f in fields]))
        assert value == pytest.approx(me.value + rv, rel=1e-14)

    @pytest.mark.parametrize("reg", [Diffusion(alpha=1e-2), Elastic(mu=1.0, lam=0.5, alpha=1e-2)])
    def test_sequential_regularizer_is_per_field_reference_bitexact(self, reg):
        # the anchor carries no regularization term; every other field's term
        # and gradient are the bits of ``reg_eval`` on that field alone
        stack, fields = fd_instance(9, k=4)
        spec = ObjectiveSpec(SsdPair(), reg, mode="sequential", constraint="none")
        value, gradient = objective(spec, stack, fields)
        grads = gradient()
        me = measure_eval(stack, fields, spec.measure)
        parts = [(v, g()) for v, g in (reg_eval(reg, f.grid, f.u) for f in fields[1:])]
        assert value == me.value + np.sum([v for v, _ in parts])
        assert np.array_equal(grads[0], me.gradient()[0])
        for k, (_, g) in enumerate(parts, start=1):
            assert np.array_equal(grads[k], me.gradient()[k] + g)

    @pytest.mark.slow
    @pytest.mark.parametrize(
        "mode,measure,reg",
        [
            ("groupwise", SchattenQ(q=4.0), Diffusion(alpha=1e-2)),
            ("groupwise", SchattenQ(q=4.0, feature=IntensityFeature()), Elastic(mu=1.0, lam=0.5, alpha=1e-2)),
            ("sequential", SsdPair(), Diffusion(alpha=1e-2)),
            ("sequential", NgfPair(eta_pt=1e-2), Diffusion(alpha=1e-2)),
        ],
    )
    def test_fd_gradient(self, mode, measure, reg):
        stack, fields = fd_instance(4, k=3)
        spec = ObjectiveSpec(measure, reg, mode=mode, constraint="none")
        x = np.stack([f.u for f in fields])
        shape = x.shape

        def fn(vec):
            return objective(spec, stack, vec.reshape(shape))[0]

        analytic = objective(spec, stack, x)[1]().ravel()
        numeric = fd_gradient(fn, x.ravel(), step=1e-5)
        err = np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-300)
        assert err <= 1e-6

    @pytest.mark.parametrize(
        "measure,constraint,perm",
        [
            (SchattenQ(q=4.0), "zero_mean", [3, 1, 0, 2]),
            (CorrDev(feature=IntensityFeature()), "none", [2, 3, 1, 0]),
            (LogDet(), "fix_first", [0, 3, 1, 2]),
        ],
        ids=["sqn4-zero_mean", "corrdev-none", "logdet-fix_first"],
    )
    def test_groupwise_permutation_equivariance_bitexact(self, measure, constraint, perm):
        # the value of a permuted stack and fields has the same bits, and its
        # gradient is the gradient with the fields permuted
        stack, fields = fd_instance(12, k=4)
        x = np.stack([f.u for f in fields])
        spec = ObjectiveSpec(measure, Diffusion(alpha=1e-2), constraint=constraint)
        value, gradient = objective(spec, stack, x)
        value_p, gradient_p = objective(spec, stack.permuted(perm), x[perm])
        assert value_p == value
        assert np.array_equal(gradient_p(), gradient()[perm])

    def test_fix_first_zeroes_first_gradient(self):
        stack, fields = fd_instance(5, k=3)
        spec = ObjectiveSpec(SsdPair(), Diffusion(alpha=1e-2), mode="sequential")
        assert spec.constraint == "fix_first"
        grads = objective(spec, stack, fields)[1]()
        assert np.all(grads[0] == 0.0)
        assert np.linalg.norm(grads[1]) > 0

    def test_zero_mean_gradient_projection(self):
        stack, fields = fd_instance(6, k=4)
        spec = ObjectiveSpec(SchattenQ(q=4.0), Diffusion(alpha=1e-2))
        assert spec.constraint == "zero_mean"
        grads = objective(spec, stack, fields)[1]()
        assert np.abs(grads.mean(axis=0)).max() <= 1e-15

    def test_spec_validation(self):
        with pytest.raises(ConfigError, match="sequential mode requires"):
            ObjectiveSpec(SchattenQ(q=4.0), Diffusion(), mode="sequential")
        with pytest.raises(ConfigError, match="groupwise mode requires"):
            ObjectiveSpec(SsdPair(), Diffusion(), mode="groupwise")
        with pytest.raises(ConfigError, match="zero-mean constraint"):
            ObjectiveSpec(SsdPair(), Diffusion(), mode="sequential", constraint="zero_mean")
        with pytest.raises(ConfigError, match="unknown constraint"):
            ObjectiveSpec(SchattenQ(q=4.0), Diffusion(), constraint="bogus")
        with pytest.raises(ConfigError, match="unknown mode"):
            ObjectiveSpec(SchattenQ(q=4.0), Diffusion(), mode="pairwise")


class TestSolveOptions:
    def test_fields_are_the_callers_settings(self):
        names = [f.name for f in dataclasses.fields(SolveOptions)]
        assert names == ["levels", "maxiter", "gtol", "sweeps", "max_fevals", "metric_eps_rel"]

    @pytest.mark.parametrize(
        "name,value,constant",
        [
            ("memory", 5, "LBFGS_MEMORY"),
            ("wolfe_c1", 1e-4, "WOLFE_C1"),
            ("wolfe_c2", 0.9, "WOLFE_C2"),
            ("ls_max_expand", 10, "LS_MAX_EXPAND"),
            ("ls_max_zoom", 20, "LS_MAX_ZOOM"),
            ("metric", "reg", None),
            ("cg_tol", 1e-10, "CG_TOL"),
            ("cg_maxiter", 200, "CG_MAXITER"),
        ],
    )
    def test_solver_policy_is_not_an_option(self, name, value, constant):
        import sqnreg.optimize as optimize

        with pytest.raises(TypeError, match=name):
            SolveOptions(**{name: value})
        if constant is not None:
            assert getattr(optimize, constant) == value

    @pytest.mark.parametrize("max_fevals", [0, -3])
    def test_max_fevals_below_one_is_rejected(self, max_fevals):
        with pytest.raises(ConfigError, match="max_fevals"):
            SolveOptions(max_fevals=max_fevals)

    @pytest.mark.parametrize(
        "name,value",
        [("levels", 0), ("levels", 2.0), ("levels", True), ("maxiter", -1), ("maxiter", 2.5),
         ("maxiter", False), ("sweeps", 0), ("sweeps", 1.5), ("sweeps", True),
         ("max_fevals", 3.5), ("max_fevals", True)],
    )
    def test_counts_out_of_range_or_not_integers_are_rejected(self, name, value):
        # a float ``levels``, ``maxiter`` or ``sweeps`` used to fail with a
        # TypeError inside the solve, and ``max_fevals=3.5`` or
        # ``levels=True`` was accepted
        with pytest.raises(ConfigError, match=name):
            SolveOptions(**{name: value})

    @pytest.mark.parametrize("gtol", [-1.0, math.nan, math.inf, "1e-5", True])
    def test_gtol_negative_or_not_finite_is_rejected(self, gtol):
        with pytest.raises(ConfigError, match="gtol"):
            SolveOptions(gtol=gtol)

    @pytest.mark.parametrize("eps_rel", [-1.0, 0.0, math.nan, math.inf, None, True])
    def test_metric_eps_rel_not_positive_or_not_finite_is_rejected(self, eps_rel):
        # a negative shift makes CG break on p·Bp <= 0, and with NaN no CG
        # iteration meets the tolerance, yet none is counted as capped; None
        # and a string used to raise a TypeError, and True was accepted
        with pytest.raises(ConfigError, match="metric_eps_rel"):
            SolveOptions(metric_eps_rel=eps_rel)

    def test_edge_values_are_accepted(self):
        opts = SolveOptions(gtol=0.0, max_fevals=1)
        assert opts.gtol == 0.0 and opts.max_fevals == 1
        opts = SolveOptions(levels=np.int64(2), maxiter=0, sweeps=np.int32(1))
        assert (opts.levels, opts.maxiter, opts.sweeps) == (2, 0, 1)
        assert SolveOptions().max_fevals is None


class TestSolvers:
    def test_groupwise_recovers_relative_shift(self):
        h = 1.0 / 24
        shift = (2.0 * h, -1.0 * h)
        stack = shifted_blob_stack((24, 24), [(0.0, 0.0), shift])
        spec = ObjectiveSpec(SchattenQ(q=4.0), Diffusion(alpha=1e-3))
        opts = SolveOptions(levels=1, maxiter=60, gtol=1e-6)
        report = multilevel_solve(spec, stack, opts)
        records = list(report.all_records())
        assert records[-1].value < records[0].value
        u = np.stack([f.u for f in report.fields])
        # weight by blob mass: the background carries no alignment signal
        mass = stack[0].data
        rel = u[1] - u[0]
        est = (rel * mass[..., None]).sum(axis=(0, 1)) / mass.sum()
        # truth: image 1 is image 0 translated by +shift, so u1 - u0 = +shift
        err = np.hypot(est[0] - shift[0], est[1] - shift[1])
        assert err <= 0.5 * h

    def test_zero_mean_invariant_on_iterates(self):
        stack = shifted_blob_stack((16, 16), [(0.0, 0.0), (0.05, 0.0), (0.0, -0.05)])
        spec = ObjectiveSpec(SchattenQ(q=4.0), Diffusion(alpha=1e-3))
        report = multilevel_solve(spec, stack, SolveOptions(maxiter=15, gtol=1e-10))
        u = np.stack([f.u for f in report.fields])
        assert np.abs(u.mean(axis=0)).max() <= 1e-12

    @pytest.mark.parametrize("seed,k", [(1, 3), (4, 5)])
    def test_final_value_is_objective_at_the_fields_bitexact(self, seed, k):
        # the zero-mean projection of the accepted trial point moved the last
        # bits of the returned fields away from the point the record's J was
        # evaluated at
        stack, _ = synth_stack(seed, k, "shifted_disks", 1.5, dims=(16, 16))
        spec = ObjectiveSpec(SchattenQ(q=4.0), Diffusion(alpha=1e-2))
        report = multilevel_solve(spec, stack, SolveOptions(levels=1, maxiter=8))
        assert report.final_value == objective(spec, stack, report.fields)[0]

    def test_final_value_is_nan_when_the_budget_ends_before_the_finest_level(self):
        # the coarse level spends the whole budget, so the finest level has
        # no record; the coarse level's J (-5.196 here) is not J at the
        # returned fields (-4.049)
        stack, _ = synth_stack(3, 3, "shifted_disks", 2.0, dims=(16, 16))
        spec = ObjectiveSpec(SchattenQ(q=4.0), Diffusion(alpha=1e-2))
        report = multilevel_solve(spec, stack, SolveOptions(levels=2, maxiter=5, max_fevals=4))
        assert report.traces[0].records and not report.traces[-1].records
        assert report.traces[-1].terminations[-1] == "level1:budget"
        assert math.isnan(report.final_value)

    def test_fix_first_keeps_first_field_zero(self):
        stack = shifted_blob_stack((16, 16), [(0.0, 0.0), (0.05, 0.0)])
        spec = ObjectiveSpec(
            SchattenQ(q=4.0), Diffusion(alpha=1e-3), constraint="fix_first"
        )
        report = multilevel_solve(spec, stack, SolveOptions(maxiter=15, gtol=1e-10))
        assert np.all(report.fields[0].u == 0.0)
        assert np.linalg.norm(report.fields[1].u) > 0

    def test_gauss_seidel_sweep_decreases_sequential_objective(self):
        h = 1.0 / 20
        stack = shifted_blob_stack(
            (20, 20), [(0.0, 0.0), (1.5 * h, 0.0), (3.0 * h, 0.0)], width=0.2
        )
        spec = ObjectiveSpec(SsdPair(), Diffusion(alpha=1e-3), mode="sequential")
        fields = [zero_field(stack.grid) for _ in range(3)]
        j0 = objective(spec, stack, fields)[0]
        d0 = measure_eval(stack, fields, spec.measure).value
        x = np.zeros((3, *stack.grid.dims, 2))
        minimizer = _LevelMinimizer(
            spec,
            stack.grid,
            SolveOptions(maxiter=25, gtol=1e-8),
            _Counters(),
            LevelTrace(0),
            time.perf_counter(),
        )
        # the sweep writes each solved field into the level array in place
        assert gauss_seidel_sweep(spec, stack, x, minimizer) is x
        out_fields = [DisplacementField(stack.grid, u) for u in x]
        j1 = objective(spec, stack, out_fields)[0]
        d1 = measure_eval(stack, out_fields, spec.measure).value
        assert j1 < j0
        assert d1 < d0
        assert np.all(x[0] == 0.0)
        assert minimizer.trace.terminations[0].startswith("level0:sweep0:field1:")

    @pytest.mark.parametrize(
        "measure,mode,constraint",
        [(SchattenQ(q=4.0), "groupwise", "zero_mean"), (SchattenQ(q=4.0), "groupwise", "none"),
         (SsdPair(), "sequential", "fix_first")],
    )
    def test_run_from_a_read_only_start(self, measure, mode, constraint):
        # ``lbfgs`` projects its start point without copying it: the start
        # is read, never written, so a read-only array serves
        stack = shifted_blob_stack((16, 16), [(0.0, 0.0), (0.05, 0.0), (0.0, -0.05)])
        spec = ObjectiveSpec(measure, Diffusion(alpha=1e-3), mode=mode, constraint=constraint)
        minimizer = _LevelMinimizer(spec, stack.grid, SolveOptions(maxiter=5), _Counters(),
                                    LevelTrace(0), time.perf_counter())
        x = np.zeros((stack.k, *stack.grid.dims, 2))
        x.flags.writeable = False
        if mode == "groupwise":
            out = minimizer.run(lambda z: objective(spec, stack, z), x)
        else:
            out = minimizer.run(_component_objective(spec, stack, x, 1), x[1:2], 1)
        assert np.all(x == 0.0)
        assert np.abs(out).max() > 0.0

    def test_multilevel_identical_images_stays_zero(self):
        rng = rng_for(7)
        grid = unit_grid((16, 16))
        data = rng.uniform(0.2, 1.0, size=grid.dims)
        stack = stack_of(grid, [data, data, data])
        spec = ObjectiveSpec(SchattenQ(q=4.0), Diffusion(alpha=1e-2))
        report = multilevel_solve(spec, stack, SolveOptions(levels=2, maxiter=10))
        for f in report.fields:
            assert np.all(f.u == 0.0)
        assert len(report.traces) == 2

    def test_build_pyramid_validates_coarsest(self):
        stack = shifted_blob_stack((16, 16), [(0.0, 0.0), (0.05, 0.0)])
        levels = build_pyramid(stack, 2)
        assert levels[0].grid.dims == (8, 8)
        assert levels[-1].grid.dims == (16, 16)
        with pytest.raises(OptimError, match="8x8 minimum"):
            build_pyramid(stack, 3)

    @pytest.mark.parametrize("constraint,perm",
                             [("zero_mean", [2, 0, 1]), ("none", [1, 2, 0]), ("fix_first", [0, 2, 1])])
    def test_permutation_equivariance_bitexact(self, constraint, perm):
        # under ``fix_first`` image 0 is the anchor, so only the others move
        rng = rng_for(11)
        grid = unit_grid((12, 12))
        datas = [rng.uniform(0.2, 1.0, size=grid.dims) for _ in range(3)]
        base = np.exp(
            -((grid.cell_centers() - 0.5) ** 2).sum(-1) / 0.08
        )
        stack = stack_of(grid, [base + 0.15 * d for d in datas])
        spec = ObjectiveSpec(SchattenQ(q=4.0), Diffusion(alpha=1e-3), constraint=constraint)
        opts = SolveOptions(maxiter=5, gtol=1e-12)
        report = multilevel_solve(spec, stack, opts)
        report_p = multilevel_solve(spec, stack.permuted(perm), opts)
        for i, j in enumerate(perm):
            assert np.array_equal(report_p.fields[i].u, report.fields[j].u)
        vals = [r.value for r in report.all_records()]
        vals_p = [r.value for r in report_p.all_records()]
        assert vals == vals_p

    def test_rerun_is_bit_identical(self):
        stack = shifted_blob_stack((16, 16), [(0.0, 0.0), (0.04, -0.02)])
        spec = ObjectiveSpec(SchattenQ(q=4.0), Diffusion(alpha=1e-3))
        opts = SolveOptions(maxiter=8)
        a = multilevel_solve(spec, stack, opts)
        b = multilevel_solve(spec, stack, opts)
        for fa, fb in zip(a.fields, b.fields):
            assert np.array_equal(fa.u, fb.u)
        assert [r.value for r in a.all_records()] == [r.value for r in b.all_records()]


def textbook_cg(reg, grid, q, eps):
    """CG on ``(H_reg + eps I) z = q`` as textbooks write it, with the
    solver's constants and reductions and the Hessian applied field by
    field; returns the solution and the iteration count."""

    def apply_b(z):
        return np.stack([reg_hessian_apply(reg, grid, zi) for zi in z]) + eps * z

    x = np.zeros_like(q)
    r = q.copy()
    rs = block_dot(r, r)
    rhs_norm = math.sqrt(rs)
    p = r.copy()
    for iteration in range(1, CG_MAXITER + 1):
        bp = apply_b(p)
        a = rs / block_dot(p, bp)
        x = x + a * p
        r = r - a * bp
        rs_new = block_dot(r, r)
        if math.sqrt(rs_new) <= CG_TOL * rhs_norm:
            break
        p = r + (rs_new / rs) * p
        rs = rs_new
    return x, iteration


METRIC_GRID = GridSpec((10, 7), spacing=(0.1, 0.15))


class TestMetricSolve:
    # the elastic metric solve runs CG in the pixel basis, with the
    # operations of the textbook loop; ``id`` keeps the case names
    @pytest.mark.parametrize("k", [1, 4])
    @pytest.mark.parametrize("reg", [pytest.param(Elastic(mu=1.0, lam=0.5, alpha=1e-2), id="reg1")])
    def test_stack_apply_equals_per_field_loop_bitexact(self, reg, k):
        # k = 1 is the shape of a sequential component solve
        rng = rng_for(21)
        grid = METRIC_GRID
        q = rng.standard_normal((k, *grid.dims, 2))
        eps_rel = SolveOptions().metric_eps_rel
        want, iterations = textbook_cg(reg, grid, q, eps_rel * reg.alpha)
        counters = _Counters()
        got = _make_metric_solve(reg, grid, eps_rel, counters)(q)
        assert np.array_equal(got, want)
        assert (counters.metric_solves, counters.metric_iterations) == (1, iterations)

    def test_cosine_operator_is_the_diffusion_metric(self):
        reg = Diffusion(alpha=1e-2)
        eps = SolveOptions().metric_eps_rel * reg.alpha
        c1, c2, lam = _cosine_metric(reg, METRIC_GRID, eps)
        for c in (c1, c2):
            assert np.allclose(c @ c.T, np.eye(len(c)), rtol=0.0, atol=1e-14)
        u = rng_for(23).standard_normal((3, *METRIC_GRID.dims, 2))
        # per field component: C1^T (lam * (C1 u C2^T)) C2
        got = np.einsum("ai,bj,ab,ak,bl,nklc->nijc", c1, c2, lam, c1, c2, u)
        want = reg_hessian_apply(reg, METRIC_GRID, u) + eps * u
        assert relative_error(got, want) <= 1e-12

    @pytest.mark.parametrize("k", [1, 4])
    def test_cosine_solve_matches_textbook_cg(self, k):
        # on this grid CG converges, so both solve the same system to CG_TOL
        reg = Diffusion(alpha=1e-2)
        q = rng_for(21).standard_normal((k, *METRIC_GRID.dims, 2))
        eps_rel = SolveOptions().metric_eps_rel
        want, iterations = textbook_cg(reg, METRIC_GRID, q, eps_rel * reg.alpha)
        assert iterations < CG_MAXITER
        counters = _Counters()
        got = _make_metric_solve(reg, METRIC_GRID, eps_rel, counters)(q)
        assert got.shape == q.shape and got.flags.c_contiguous
        assert relative_error(got, want) <= 1e-9
        assert counters.metric_solves == 1
        assert 0 < counters.metric_iterations < CG_MAXITER
        assert counters.metric_solves_capped == 0
        # a zero right-hand side gives the zero field
        assert np.array_equal(_make_metric_solve(reg, METRIC_GRID, eps_rel, counters)(0.0 * q),
                              np.zeros(q.shape))

    def test_cosine_solve_permutes_with_the_fields(self):
        # up to rounding: the norm over fields sums in the stack's order
        reg = Diffusion(alpha=1e-2)
        q = rng_for(24).standard_normal((4, *METRIC_GRID.dims, 2))
        solve = _make_metric_solve(reg, METRIC_GRID, SolveOptions().metric_eps_rel, _Counters())
        z = solve(q)
        for perm in ([3, 2, 1, 0], [1, 3, 0, 2]):
            assert np.linalg.norm(solve(q[perm]) - z[perm]) <= 1e-12 * np.linalg.norm(z)

    def test_cosine_solve_runs_one_cg_for_the_stack(self, monkeypatch):
        # CG runs once, on the norm over fields of the transformed right-hand
        # side: one plane per displacement component, whatever the stack size
        import sqnreg.optimize as optimize

        shapes = []

        def recording_cg(apply_b, rhs, tol, maxiter):
            shapes.append(rhs.shape)
            return _cg_solve(apply_b, rhs, tol, maxiter)

        monkeypatch.setattr(optimize, "_cg_solve", recording_cg)
        reg = Diffusion(alpha=1e-2)
        m1, m2 = METRIC_GRID.dims
        solve = _make_metric_solve(reg, METRIC_GRID, SolveOptions().metric_eps_rel, _Counters())
        q = rng_for(25).standard_normal((4, m1, m2, 2))
        for k in (4, 1):
            shapes.clear()
            solve(q[:k])
            assert shapes == [(1, 2, m1, m2)]
        # a field with a zero right-hand side gets the zero field, with no
        # division by its zero norm
        q[2] = 0.0
        with np.errstate(all="raise"):
            z = solve(q)
        assert np.array_equal(z[2], np.zeros(q[2].shape))
        assert np.all(z[[0, 1, 3]] != 0.0)

    def test_one_field_cosine_solve_is_cg_on_both_components_bitexact(self):
        # at one field CG's result is scaled by q_hat / |q_hat| = +-1 exactly;
        # scaling q_hat by the result over the norm instead moves the last
        # bits, which the sequential chain amplifies
        reg = Diffusion(alpha=1e-2)
        eps_rel = SolveOptions().metric_eps_rel
        c1, c2, lam = _cosine_metric(reg, METRIC_GRID, eps_rel * reg.alpha)
        q = rng_for(26).standard_normal((1, *METRIC_GRID.dims, 2))
        # without a mean the mode of eigenvalue eps does not swamp the last
        # bits of the others in the back-transform
        q -= q.mean(axis=(1, 2), keepdims=True)
        counters = _Counters()
        got = _make_metric_solve(reg, METRIC_GRID, eps_rel, counters)(q)

        def apply_lam(p, bp):
            np.multiply(p, lam, out=bp)

        qt = np.matmul(np.matmul(c1, np.ascontiguousarray(q.transpose(0, 3, 1, 2))), c2.T)
        zt, iterations, _ = _cg_solve(apply_lam, qt, CG_TOL, CG_MAXITER)
        want = np.matmul(np.matmul(c1.T, zt), c2).transpose(0, 2, 3, 1)
        assert np.array_equal(got, want)
        assert counters.metric_iterations == iterations

    @pytest.mark.parametrize("reg", [Diffusion(alpha=1e-2), Elastic(mu=1.0, lam=0.5, alpha=1e-2)],
                             ids=["diffusion", "elastic"])
    def test_non_finite_solve_is_counted_as_capped(self, reg):
        # CG stops at the first non-finite residual, short of its cap, and
        # a solve that ends without a residual at or below CG_TOL is capped
        q = rng_for(27).standard_normal((3, *METRIC_GRID.dims, 2))
        q[1, 2, 3, 0] = np.nan
        counters = _Counters()
        z = _make_metric_solve(reg, METRIC_GRID, SolveOptions().metric_eps_rel, counters)(q)
        assert not np.all(np.isfinite(z))
        assert (counters.metric_solves, counters.metric_solves_capped) == (1, 1)
        assert counters.metric_iterations < CG_MAXITER

    def test_cg_reports_iterations_and_residual(self):
        rng = rng_for(22)
        diag = rng.uniform(1.0, 3.0, size=(2, 6))
        rhs = rng.standard_normal((2, 6))

        def apply_diag(p, bp):
            np.multiply(diag, p, out=bp)

        x, iterations, residual = _cg_solve(apply_diag, rhs, 1e-12, 50)
        assert 0 < iterations <= 12
        assert residual <= 1e-12
        assert np.allclose(x, rhs / diag, rtol=1e-10)
        x, iterations, residual = _cg_solve(apply_diag, rhs, 1e-12, 2)
        assert iterations == 2
        assert residual > 1e-12
        assert _cg_solve(apply_diag, np.zeros((2, 6)), 1e-12, 5)[1:] == (0, 0.0)

    def test_capped_metric_solves_are_counted(self):
        # at 64x64 CG stops at its cap of CG_MAXITER iterations
        stack = shifted_blob_stack((64, 64), [(0.0, 0.0), (0.04, -0.02)])
        spec = ObjectiveSpec(SchattenQ(q=4.0), Diffusion(alpha=1e-3))
        report = multilevel_solve(spec, stack, SolveOptions(maxiter=3))
        assert report.metric_solves > 0
        assert 0 < report.metric_solves_capped <= report.metric_solves
        assert (CG_MAXITER * report.metric_solves_capped <= report.metric_iterations
                <= CG_MAXITER * report.metric_solves)


class TestValueFirstTrials:
    @pytest.mark.parametrize("reg", [Diffusion(alpha=1e-2), Elastic(mu=1.0, lam=0.5, alpha=1e-2)])
    @pytest.mark.parametrize(
        "mode,measure",
        [
            ("groupwise", SchattenQ(q=4.0)),
            ("groupwise", SchattenQ(q=math.inf)),
            ("groupwise", CorrDev()),
            ("groupwise", LogDet()),
            ("sequential", SsdPair()),
            ("sequential", NgfPair(eta_pt=1e-2)),
        ],
    )
    def test_trial_matches_objective_bitexact(self, mode, measure, reg):
        stack, fields = fd_instance(7, k=3)
        spec = ObjectiveSpec(measure, reg, mode=mode)
        value, gradient = objective(spec, stack, fields)
        t_value, t_gradient = objective(spec, stack, np.stack([f.u for f in fields]))
        assert t_value == value
        assert np.array_equal(t_gradient(), gradient())

    def test_value_read_runs_no_backward(self, monkeypatch):
        import sqnreg.measures as measures
        import sqnreg.regularize as regularize

        calls = []
        for module, name in [(measures, "feature_adjoint"), (regularize, "_diff_adjoint")]:
            original = getattr(module, name)
            monkeypatch.setattr(module, name,
                                lambda *args, _f=original, _n=name: calls.append(_n) or _f(*args))
        stack, fields = fd_instance(9, k=3)
        spec = ObjectiveSpec(SchattenQ(q=4.0), Diffusion(alpha=1e-2))
        assert math.isfinite(objective(spec, stack, fields)[0])
        assert calls == []
        objective(spec, stack, fields)[1]()
        assert set(calls) == {"feature_adjoint", "_diff_adjoint"}

    @pytest.mark.parametrize(
        "mode,measure",
        [("groupwise", SchattenQ(q=4.0)), ("groupwise", LogDet()), ("sequential", SsdPair()),
         ("sequential", NgfPair(eta_pt=1e-2))],
    )
    def test_gradient_called_twice_returns_the_same_array(self, mode, measure):
        # the objective adds the regularizer gradient into the measure's
        # array and projects it in place: a second call must not do it again
        stack, fields = fd_instance(7, k=3)
        spec = ObjectiveSpec(measure, Diffusion(alpha=1e-2), mode=mode)
        for gradient in (objective(spec, stack, fields)[1],
                         measure_eval(stack, fields, measure).gradient):
            first = gradient()
            snapshot = first.copy()
            assert gradient() is first
            assert np.array_equal(first, snapshot)

    @pytest.mark.parametrize("mode,measure", [("groupwise", SchattenQ(q=4.0)),
                                              ("sequential", NgfPair(eta_pt=1e-2))])
    def test_gradient_does_not_read_the_callers_array(self, mode, measure):
        # the backward pass runs from the forward state, so writing into the
        # evaluated array before the gradient is read changes nothing
        stack, fields = fd_instance(7, k=3)
        spec = ObjectiveSpec(measure, Diffusion(alpha=1e-2), mode=mode)
        x = np.stack([f.u for f in fields])
        expected = objective(spec, stack, x.copy())[1]()
        _, gradient = objective(spec, stack, x)
        x += 0.1
        assert np.array_equal(gradient(), expected)

    @pytest.mark.parametrize("measure", [SsdPair(), NgfPair(eta_pt=1e-2)])
    def test_component_gradient_equals_full_objective_bitexact(self, measure):
        # the sequential solver minimizes one field at a time; its deferred
        # gradient must be the full objective's gradient for that field
        stack, fields = fd_instance(8, k=4)
        spec = ObjectiveSpec(measure, Diffusion(alpha=1e-2), mode="sequential")
        grads = objective(spec, stack, fields)[1]()
        x = np.stack([f.u for f in fields])
        for idx in range(1, stack.k):
            fun = _component_objective(spec, stack, x, idx)
            _, gradient = fun(x[idx:idx + 1])
            assert np.array_equal(gradient()[0], grads[idx])

    def test_interior_component_takes_neighbour_gradients_once(self, monkeypatch):
        import sqnreg.measures as measures

        calls = []
        original = measures.gradient_central
        monkeypatch.setattr(
            measures, "gradient_central", lambda d, g: calls.append(d) or original(d, g)
        )
        stack, fields = fd_instance(8, k=4)
        spec = ObjectiveSpec(NgfPair(eta_pt=1e-2), Diffusion(alpha=1e-2), mode="sequential")
        x = np.stack([f.u for f in fields])
        fun = _component_objective(spec, stack, x, 2)
        # the two frozen neighbours once per component, then one per evaluation
        assert len(calls) == 2
        for _ in range(2):
            _, gradient = fun(x[2:3])
            gradient()
        assert len(calls) == 4

    def test_evaluations_construct_no_image(self, monkeypatch):
        # warped intensities stay plain arrays; an Image is built only for I/O
        stack, fields = fd_instance(8, k=4)
        x = np.stack([f.u for f in fields])
        assert type(warp_with_jacobian(stack[1], x[1])[0]) is np.ndarray
        made = []
        original = Image.__post_init__
        monkeypatch.setattr(Image, "__post_init__", lambda img: made.append(img) or original(img))
        groupwise = ObjectiveSpec(SchattenQ(q=4.0), Diffusion(alpha=1e-2))
        _, gradient = objective(groupwise, stack, x)
        gradient()
        sequential = ObjectiveSpec(NgfPair(eta_pt=1e-2), Diffusion(alpha=1e-2), mode="sequential")
        _, gradient = _component_objective(sequential, stack, x, 2)(x[2:3])
        gradient()
        assert made == []

    @pytest.mark.parametrize("measure", [SsdPair(), NgfPair(eta_pt=1e-2)])
    def test_component_at_the_chain_start_reads_its_own_cotangent(self, measure):
        # the anchor is never solved for, but the chain [image 0, right
        # neighbor] must still give image 0 its own data gradient
        stack, fields = fd_instance(8, k=4)
        reg = Diffusion(alpha=1e-2)
        spec = ObjectiveSpec(measure, reg, mode="sequential")
        x = np.stack([f.u for f in fields])
        fun = _component_objective(spec, stack, x, 0)
        _, gradient = fun(x[0:1])
        expected = measure_eval(stack, fields, measure).gradient()[0] + reg_eval(reg, stack.grid, x[0])[1]()
        assert np.array_equal(gradient()[0], expected)

    def test_no_gradient_for_trials_failing_sufficient_decrease(self):
        trials = []
        graded = []

        def value_of(t):
            return (t - 0.3) ** 2

        def fun(z):
            t = float(z[0])
            trials.append(t)

            def gradient():
                graded.append(t)
                return np.array([2.0 * (t - 0.3)])

            return value_of(t), gradient

        # x = 0 and p = 1, so each trial point is its step length exactly
        f0, slope0 = value_of(0.0), -0.6
        ls = _strong_wolfe(fun, np.zeros(1), np.ones(1), f0, slope0, _Counters())
        assert ls.ok
        sufficient = [t for t in trials if value_of(t) <= f0 + WOLFE_C1 * t * slope0]
        assert len(sufficient) < len(trials)
        assert graded == sufficient
        assert np.array_equal(ls.ev.grad, [2.0 * (ls.ev.alpha - 0.3)])

    def test_fallback_trial_keeps_its_deferred_gradient(self):
        # the first trial (t = 0.5) decreases J, by less than sufficient
        # decrease asks for; every zoom trial, all inside (0, 0.5), lands on
        # a bump, so the search falls back to the first trial.  Its gradient
        # is formed only when the caller reads it, from the state the trial
        # kept.
        f0, slope0 = 0.09, -0.6
        assert f0 + WOLFE_C1 * 0.5 * slope0 < f0 - 1e-5
        trials = []
        graded = []

        def fun(z):
            t = float(z[0])
            trials.append(t)

            def gradient():
                graded.append(t)
                return np.array([2.0 * (t - 0.3)])

            value = 0.1 if t < 0.45 else f0 - 1e-5
            return value, gradient

        ls = _strong_wolfe(fun, np.zeros(1), np.ones(1), f0, slope0, _Counters(), 0.5)
        assert not ls.ok and ls.reason == "zoom_cap"
        assert len(trials) == 1 + LS_MAX_ZOOM
        assert all(0.0 < t < 0.45 for t in trials[1:])
        assert ls.ev.alpha == 0.5 and graded == []
        assert np.array_equal(ls.ev.grad, [0.4])
        assert graded == [0.5]

    @pytest.mark.parametrize(
        "value_of,slope_of,f0,slope0,first",
        [
            # a fallback below f0 and zoom trials above it
            (lambda t: 0.1 if t < 0.45 else 0.09 - 1e-5, lambda t: 0.0, 0.09, -0.6, 0.5),
            # expansion, then a zoom among wiggles below f0
            (lambda t: (t - 3.0) ** 2 + 0.5 * math.sin(9.0 * t),
             lambda t: 2.0 * (t - 3.0) + 4.5 * math.cos(9.0 * t), 9.0, -1.5, 0.1),
        ],
        ids=["fallback", "wiggles"],
    )
    def test_forward_pass_runs_with_at_most_the_best_earlier_state(
            self, value_of, slope_of, f0, slope0, first):
        fun, held_at_start = stateful_line(value_of, slope_of)
        _strong_wolfe(fun, np.zeros(1), np.ones(1), f0, slope0, _Counters(), first)
        assert len(held_at_start) > 1
        for held in held_at_start:
            assert len(held) <= 1
            assert all(value < f0 for _, value in held)

    def test_overshooting_first_trial_keeps_no_state(self):
        fun, held_at_start = stateful_line(lambda t: (t - 0.3) ** 2, lambda t: 2.0 * (t - 0.3))
        ls = _strong_wolfe(fun, np.zeros(1), np.ones(1), 0.09, -0.6, _Counters(), 1.0)
        assert ls.ok and ls.ev.alpha == pytest.approx(0.3, abs=1e-15)
        # the first trial (t = 1, J = 0.49 > f0) was gone when the second began
        assert held_at_start == [[], []]

    def test_trial_at_f0_that_passes_sufficient_decrease_keeps_its_slope(self):
        # c1 * alpha * slope0 = -1e-24 is below the rounding of f0 = 1, so
        # a flat trial at f0 passes sufficient decrease and its slope is read
        f0, slope0 = 1.0, -1e-20
        assert f0 + WOLFE_C1 * slope0 == f0
        ls = _strong_wolfe(lambda z: (f0, lambda: np.zeros(1)),
                           np.zeros(1), np.ones(1), f0, slope0, _Counters())
        assert ls.ok and ls.ev.alpha == 1.0 and ls.ev.slope == 0.0

    def test_accepted_trial_does_not_keep_the_direction_alive(self):
        p = np.ones(1)
        direction = weakref.ref(p)
        ls = _strong_wolfe(lambda z: ((z[0] - 0.25) ** 2, lambda: 2.0 * (z - 0.25)),
                           np.zeros(1), p, 0.0625, -0.5, _Counters())
        del p
        assert ls.ok and ls.ev.slope == 0.0
        assert direction() is None

    def test_released_trial_lets_go_of_its_computed_gradient(self):
        # phi falls with slope -1 up to t = 1 and rises with slope 1 after it.
        # Bracketing reads the slopes at t = 0.6 and t = 1.2; t = 1.2 is the
        # new best, so t = 0.6 is released, though it stays the high end of
        # the zoom bracket while the first zoom trial runs
        computed = []  # (step, weak reference to the gradient array)
        held_at_start = []

        def fun(z):
            t = float(z[0])
            held_at_start.append([s for s, ref in computed if ref() is not None])

            def gradient():
                g = np.array([-1.0 if t <= 1.0 else 1.0])
                computed.append((t, weakref.ref(g)))
                return g

            return (-t if t <= 1.0 else t - 2.0), gradient

        _strong_wolfe(fun, np.zeros(1), np.ones(1), 0.0, -1.0, _Counters(), 0.6)
        assert [s for s, _ in computed[:2]] == [0.6, 1.2]
        assert held_at_start[:3] == [[], [0.6], [1.2]]

    def test_gevals_counts_computed_gradients(self):
        stack = shifted_blob_stack((16, 16), [(0.0, 0.0), (0.04, -0.02), (-0.03, 0.02)])
        spec = ObjectiveSpec(SchattenQ(q=4.0), Diffusion(alpha=1e-3))
        report = multilevel_solve(spec, stack, SolveOptions(maxiter=10))
        assert 0 < report.gevals < report.fevals
        assert list(report.all_records())[-1].gevals == report.gevals
        # the ledger counts one gradient per call of the objective's thunk
        calls = []

        def counted(x):
            value, grad = rosenbrock(x)
            return value, lambda: calls.append(x) or grad()

        counters = _Counters()
        run_lbfgs(counted, np.array([-1.2, 1.0]), SolveOptions(maxiter=30), counters=counters)
        assert 0 < counters.gevals == len(calls) < counters.fevals

    @pytest.mark.parametrize("failure", ["raise", "nan", "inf"])
    def test_failing_trials_are_rejected_steps(self, failure):
        a = np.array([3.0, -2.0])

        def fun(x):
            if np.abs(x).max() > 1.0:
                if failure == "raise":
                    raise MeasureError("outside the valid region")
                return (math.nan if failure == "nan" else math.inf), None
            return 0.5 * float(np.sum((x - a) ** 2)), lambda: x - a

        counters = _Counters()
        trace = LevelTrace(0)
        x, _ = run_lbfgs(fun, np.zeros(2), SolveOptions(maxiter=20), counters=counters, trace=trace)
        values = [r.value for r in trace.records]
        assert len(values) > 2
        assert all(b < a for a, b in zip(values, values[1:]))
        assert counters.rejected_trials > 0
        assert np.abs(x).max() <= 1.0
        if failure == "raise":
            # the start point of a run is not a trial: its errors propagate
            with pytest.raises(MeasureError):
                run_lbfgs(fun, np.full(2, 5.0), SolveOptions())

    def test_solve_report_counts_rejected_trials(self, monkeypatch):
        import sqnreg.optimize as optimize

        # the level loop evaluates the ordered level stack through ``_objective``
        trial = optimize._objective

        def guarded(spec, stack, x):
            if np.abs(x).max() > 0.01:
                raise GridError("displacement outside the trusted range")
            return trial(spec, stack, x)

        monkeypatch.setattr(optimize, "_objective", guarded)
        stack = shifted_blob_stack((16, 16), [(0.0, 0.0), (0.05, 0.0), (0.0, -0.05)])
        spec = ObjectiveSpec(SchattenQ(q=4.0), Diffusion(alpha=1e-3))
        report = multilevel_solve(spec, stack, SolveOptions(maxiter=10))
        assert report.rejected_trials > 0
        values = [r.value for r in report.all_records()]
        assert len(values) > 1
        assert all(b < a for a, b in zip(values, values[1:]))
        assert max(np.abs(f.u).max() for f in report.fields) <= 0.01


@pytest.mark.slow
class TestKinkAtGridNodes:
    def test_rotated_sequential_solve_descends(self):
        # at u = 0 every sample sits on a grid node, where the bilinear
        # interpolant has a kink; the metric-seeded first direction of every
        # component finds no decrease there, and each component used to end
        # at iteration 1 with a zero field
        stack, _ = synth_stack(7, 8, "rotated_shepp_like", 0.03, dims=(64, 64))
        spec = ObjectiveSpec(NgfPair(1e-2), Diffusion(1e-2), mode="sequential")
        report = multilevel_solve(spec, stack, SolveOptions(levels=1, maxiter=30))
        x = np.stack([f.u for f in report.fields])
        j0 = objective(spec, stack, np.zeros_like(x))[0]
        assert objective(spec, stack, x)[0] < j0
        failed = [t for t in report.traces[0].terminations if t.endswith("line_search_failure")]
        assert len(failed) < 7
        assert report.line_search_failures == len(failed)
