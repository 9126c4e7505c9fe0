"""Objective assembly and solvers for stack registration.

The objective couples a distance measure with a deformation regularizer:

* groupwise mode: ``J = D(all fields) + sum_k S(u_k)`` with an optional
  gauge constraint (zero mean displacement over the stack, or first image
  fixed),
* sequential mode: ``J = sum_{k>=2} D(pair k-1, k) + S(u_k)`` with the
  first image fixed, minimized by Gauss-Seidel sweeps over one field at a
  time.  The data term of the stack objective and of each one-field solve
  is the same chain, ``measures.pair_chain``: on the whole warped stack in
  the first case, on the field's image and its two frozen neighbors in the
  second.

The solver is limited-memory BFGS with a strong Wolfe line search.  Its
two-loop recursion is always seeded by running conjugate gradients on
``(H_reg + eps I) z = q``, where ``H_reg`` is the (constant) regularizer
Hessian, applied to the whole stack at once, and ``eps = 1e-6 * alpha``.
CG is truncated, not converged: at 64x64 it stops at ``CG_MAXITER = 200``
with a relative residual of about 1.1, so the seed is a fixed polynomial in
the metric rather than its inverse.  ``SolveReport.metric_solves_capped``
counts the solves that stopped at the cap, and
``SolveReport.metric_iterations`` sums the CG iterations.  Each metric solve
allocates CG's vectors and the stencil's scratch once and binds a plan to
them: the Hessian action on CG's direction (``regularize.hessian_plan``) and
the two dots ``p·Bp`` and ``r·r`` (``accum.block_dot_plan``).  Every CG
iteration then runs a fixed list of ufunc calls on those buffers, with the
operations of ``reg_hessian_apply`` and ``block_dot`` in their order, so the
iterates are the same bit for bit.  There is no identity seed.

The line search brackets a strong Wolfe step (``WOLFE_C1``, ``WOLFE_C2``)
and zooms in with safeguarded quadratic interpolation (Nocedal & Wright,
Alg. 3.6): each zoom trial minimizes the quadratic through the value and
slope at the bracket's low end and the value at its high end, clamped to
the inner 80 % of the bracket, and falls back to the midpoint when the high
end was rejected or the quadratic is not convex.  It needs no extra
gradient: the slope at the low end has always been read.  The first trial
is capped at ``first_step_scale / |p|_inf``.  A search
along the quasi-Newton direction that finds no decrease is retried once
along ``-g`` with the L-BFGS memory cleared; at the zero field every sample
sits on a grid node, where the gradient is a one-sided derivative and that
direction can point uphill.

Line-search trials are value first.  An evaluation is split into a forward
pass (warp, features, Gram matrix and ``eigh``, regularizer value), which
gives the value and the subgradient flag, and a deferred backward pass
(spectral gradient, feature adjoint, chain rule, regularizer gradient,
projection), which reuses the forward state and runs only when the line
search reads the slope of a trial that passed sufficient decrease, or when
L-BFGS falls back to the best trial.  ``fevals`` counts evaluations and
``gevals`` the gradients actually computed.  A trial whose forward pass
raises a grid, feature, spectral or measure error, or whose value is not
finite, is a rejected step: it counts as ``+inf`` and the line search
shrinks the step (``SolveReport.rejected_trials``).

Every count a solve reports, line-search failures included, is tallied in
one ledger, ``_Counters``, shared by all levels and all runs of a solve.

All inner products run through order-canonical accumulation, so solves are
exactly invariant under permutations of the input stack.

The L-BFGS memory, the Wolfe constants, the line-search trial caps and the
CG stopping rule are the module constants below, not options: every solve
runs with the same policy.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .accum import block_dot, block_dot_plan, block_norm, mean_axis0
from .errors import ConfigError, FeatureError, GridError, MeasureError, OptimError, SpectralError
from .grids import DisplacementField, GridSpec, ImageStack, prolong, restrict_stack
from .measures import (
    GROUPWISE_KINDS,
    PAIRWISE_KINDS,
    MeasureKind,
    measure_eval,
    pair_chain,
    pair_state,
    resolve_measure,
)
from .regularize import RegKind, hessian_plan, reg_eval, reg_glo

# Not called here: perfbench's tracer recomputes each metric solve's residual
# with ``optimize.reg_hessian_apply``, and tests/test_perfbench_hooks.py
# checks that the tracer finds the name where it looks.
from .regularize import reg_hessian_apply  # noqa: F401

CONSTRAINTS = ("none", "fix_first", "zero_mean")

# errors of a forward pass that make a line-search trial a rejected step
TRIAL_ERRORS = (GridError, FeatureError, SpectralError, MeasureError)

LBFGS_MEMORY = 5  # (s, y) pairs kept by the two-loop recursion
WOLFE_C1 = 1e-4  # sufficient decrease
WOLFE_C2 = 0.9  # curvature
LS_MAX_EXPAND = 10  # bracketing trials of one line search
LS_MAX_ZOOM = 20  # zoom trials of one line search
CG_TOL = 1e-10  # relative residual at which a metric solve stops early
CG_MAXITER = 200  # CG iterations of one metric solve


@dataclass(frozen=True)
class ObjectiveSpec:
    """What to minimize: measure + regularizer, mode, gauge constraint.

    ``constraint='auto'`` resolves to ``zero_mean`` for groupwise mode and
    ``fix_first`` for sequential mode.
    """

    measure: MeasureKind
    regularizer: RegKind
    mode: str = "groupwise"
    constraint: str = "auto"

    def __post_init__(self):
        if self.mode not in ("groupwise", "sequential"):
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.mode == "sequential" and not isinstance(self.measure, PAIRWISE_KINDS):
            raise ConfigError("sequential mode requires a pairwise measure")
        if self.mode == "groupwise" and not isinstance(self.measure, GROUPWISE_KINDS):
            raise ConfigError("groupwise mode requires a groupwise measure")
        if self.constraint == "auto":
            resolved = "zero_mean" if self.mode == "groupwise" else "fix_first"
            object.__setattr__(self, "constraint", resolved)
        if self.constraint not in CONSTRAINTS:
            raise ConfigError(f"unknown constraint {self.constraint!r}")
        if self.mode == "sequential" and self.constraint == "zero_mean":
            raise ConfigError("zero-mean constraint requires groupwise mode")


@dataclass(frozen=True)
class SolveOptions:
    """Solver settings shared by all levels.

    ``levels`` is the depth of the image pyramid and ``sweeps`` the number
    of Gauss-Seidel sweeps per level in sequential mode.  ``maxiter`` caps
    the L-BFGS iterations of one run (a level, or one field of a sweep),
    which stops early once the gradient norm is at most ``gtol`` times
    ``max(1, |g_0|)``.  ``max_fevals`` caps the
    objective evaluations of the whole solve; None means no cap.  The metric
    seed solves ``(H_reg + eps I) z = q`` with ``eps = metric_eps_rel *
    alpha``.  The rest of the solver policy is the module constants.
    """

    levels: int = 1
    maxiter: int = 50
    gtol: float = 1e-5
    sweeps: int = 1
    max_fevals: int | None = None
    metric_eps_rel: float = 1e-6

    def __post_init__(self):
        if self.levels < 1:
            raise ConfigError(f"levels must be >= 1, got {self.levels}")
        if self.maxiter < 0 or self.sweeps < 1:
            raise ConfigError("maxiter must be >= 0 and sweeps >= 1")
        if not (math.isfinite(self.gtol) and self.gtol >= 0):
            raise ConfigError(f"gtol must be finite and >= 0, got {self.gtol}")
        if self.max_fevals is not None and self.max_fevals < 1:
            raise ConfigError(f"max_fevals must be >= 1 or None, got {self.max_fevals}")


@dataclass
class IterRecord:
    level: int
    component: int  # -1 for groupwise solves, else index of the active field
    iteration: int
    value: float
    grad_norm: float
    step: float
    wolfe_ok: bool
    subgradient: bool
    fevals: int
    gevals: int
    elapsed: float


@dataclass
class LevelTrace:
    level: int
    dims: tuple[int, int]
    records: list[IterRecord] = field(default_factory=list)
    terminations: list[str] = field(default_factory=list)


@dataclass
class SolveReport:
    spec: ObjectiveSpec
    options: SolveOptions
    traces: list[LevelTrace]
    fields: list[DisplacementField]
    fevals: int
    gevals: int
    elapsed: float
    line_search_failures: int
    metric_solves: int = 0
    # metric solves whose CG hit ``CG_MAXITER`` with the residual above ``CG_TOL``
    metric_solves_capped: int = 0
    # CG iterations summed over all metric solves
    metric_iterations: int = 0
    # line-search trials that raised in their forward pass or had a non-finite value
    rejected_trials: int = 0

    @property
    def final_value(self) -> float:
        """The value of the last iteration record.

        For a groupwise solve this is J at ``fields``; for a sequential solve
        it is the one-field objective of the last component solved, not the
        stack J.
        """
        for trace in reversed(self.traces):
            if trace.records:
                return trace.records[-1].value
        return math.nan

    def all_records(self):
        for trace in self.traces:
            yield from trace.records


# ---------------------------------------------------------------------------
# objective


def _fields_to_array(fields) -> np.ndarray:
    return np.stack([f.u for f in fields])


def _array_to_fields(grid: GridSpec, x: np.ndarray):
    return [DisplacementField(grid, x[i]) for i in range(x.shape[0])]


def _project_gradient(grads: np.ndarray, constraint: str) -> np.ndarray:
    if constraint == "fix_first":
        grads = grads.copy()
        grads[0] = 0.0
        return grads
    if constraint == "zero_mean":
        return grads - mean_axis0(grads)[None, ...]
    return grads


def _project_point(x: np.ndarray, constraint: str) -> np.ndarray:
    if constraint == "zero_mean":
        return x - mean_axis0(x)[None, ...]
    return x


def objective_trial(spec: ObjectiveSpec, stack: ImageStack, fields):
    """Forward pass of ``objective``: the value now, the gradients on demand.

    Returns ``(value, gradient, subgradient_flag)``, where ``gradient`` is a
    zero-argument callable that runs the backward pass from the state the
    forward pass kept and returns what ``objective`` returns as ``grads``,
    bit for bit.
    """
    if isinstance(fields, np.ndarray):
        fields = _array_to_fields(stack.grid, fields)
    me = measure_eval(stack, list(fields), spec.measure)
    if spec.mode == "groupwise":
        reg_value, reg_gradient = reg_glo(fields, spec.regularizer, deferred=True)
    else:
        # the first image is the anchor of the sequential chain; it carries
        # no regularization term of its own and gets a zero gradient row
        reg_value, chain_gradient = reg_glo(fields[1:], spec.regularizer, deferred=True)

        def reg_gradient():
            grads = np.zeros((stack.k, *stack.grid.dims, 2))
            grads[1:] = chain_gradient()
            return grads

    def gradient():
        return _project_gradient(me.grads + reg_gradient(), spec.constraint)

    return me.value + reg_value, gradient, me.subgradient


def objective(spec: ObjectiveSpec, stack: ImageStack, fields):
    """Evaluate ``J`` and its per-field gradients under the chosen constraint.

    ``fields`` may be a list of ``DisplacementField`` or a raw array of shape
    (K, m1, m2, 2).  Returns ``(value, grads, subgradient_flag)``.
    """
    value, gradient, subgradient = objective_trial(spec, stack, fields)
    return value, gradient(), subgradient


# ---------------------------------------------------------------------------
# inner linear algebra


def _cg_solve(bind_b, rhs: np.ndarray, tol: float, maxiter: int):
    """Conjugate gradients for ``B x = rhs`` from ``x = 0``.

    ``bind_b(p, bp)`` binds the action of ``B`` to CG's direction ``p`` and
    its image ``bp``: it returns a zero-argument callable that writes
    ``B p`` into ``bp`` from the current entries of ``p``.  CG binds it and
    its two dots, ``p·bp`` and ``r·r``, once per solve and updates its
    vectors in place, so every iteration runs the same calls on the same
    buffers.  Returns ``(x, iterations, residual)``: the number of completed
    CG updates and the final recursive residual norm relative to ``|rhs|``.
    """
    x = np.zeros(rhs.shape)
    r = np.array(rhs, order="C")
    r_dot_r = block_dot_plan(r, r)
    rs = r_dot_r()
    rhs_norm = math.sqrt(max(rs, 0.0))
    if rhs_norm == 0.0:
        return x, 0, 0.0
    p = r.copy()
    bp = np.empty(rhs.shape)
    tmp = np.empty(rhs.shape)
    apply_b = bind_b(p, bp)
    p_dot_bp = block_dot_plan(p, bp)
    iterations = 0
    while iterations < maxiter:
        apply_b()
        denom = p_dot_bp()
        if denom <= 0.0:
            break
        a = rs / denom
        x += np.multiply(p, a, out=tmp)
        r -= np.multiply(bp, a, out=tmp)
        iterations += 1
        rs_new = r_dot_r()
        rs_prev, rs = rs, rs_new
        if math.sqrt(max(rs_new, 0.0)) <= tol * rhs_norm:
            break
        # p = r + beta * p, in place
        p *= rs_new / rs_prev
        p += r
    return x, iterations, math.sqrt(max(rs, 0.0)) / rhs_norm


def _make_metric_solve(reg_kind: RegKind, grid: GridSpec, eps_rel: float,
                       counters: _Counters):
    eps = eps_rel * reg_kind.alpha

    def solve(q: np.ndarray) -> np.ndarray:
        def bind_b(p: np.ndarray, bp: np.ndarray):
            # the stencil's scratch; its first array then holds eps * p
            work = (np.empty(q.shape), np.empty(q.shape))
            hessian = hessian_plan(reg_kind, grid, p, bp, work)
            shift = work[0]

            def apply_b():
                hessian()
                np.add(bp, np.multiply(p, eps, out=shift), out=bp)

            return apply_b

        z, iterations, residual = _cg_solve(bind_b, q, CG_TOL, CG_MAXITER)
        counters.metric_solves += 1
        counters.metric_iterations += iterations
        if iterations == CG_MAXITER and residual > CG_TOL:
            counters.metric_solves_capped += 1
        return z

    return solve


# ---------------------------------------------------------------------------
# L-BFGS with strong Wolfe line search


@dataclass
class _Counters:
    """The ledger of one solve: what its ``SolveReport`` counts."""

    fevals: int = 0
    gevals: int = 0  # gradients actually computed
    budget: int | None = None
    metric_solves: int = 0
    metric_solves_capped: int = 0  # stopped at CG_MAXITER above CG_TOL
    metric_iterations: int = 0  # CG iterations over all metric solves
    rejected_trials: int = 0
    # searches that ended without a Wolfe step, other than for the budget
    line_search_failures: int = 0

    def charge(self):
        self.fevals += 1

    @property
    def exhausted(self) -> bool:
        return self.budget is not None and self.fevals >= self.budget


class _Eval:
    """One point on the search line.

    ``grad`` is a zero-argument callable that computes the gradient, or
    None for a rejected trial.  The gradient and the slope along
    ``direction`` are computed on first access.
    """

    def __init__(self, alpha: float, value: float, grad, subgradient: bool,
                 direction: np.ndarray | None = None, slope: float | None = None):
        self.alpha = alpha
        self.value = value
        self.subgradient = subgradient
        self._grad = grad
        self._direction = direction
        self._slope = slope

    @property
    def grad(self) -> np.ndarray:
        if callable(self._grad):
            self._grad = self._grad()
        if self._grad is None:
            raise OptimError("no gradient at a rejected or released line-search trial")
        return self._grad

    @property
    def slope(self) -> float:
        if self._slope is None:
            self._slope = block_dot(self.grad, self._direction)
        return self._slope

    def release(self):
        """Drop the forward state of a gradient that was never computed."""
        if callable(self._grad):
            self._grad = None


# share of the bracket kept free at each end of an interpolated zoom trial
_ZOOM_SAFEGUARD = 0.1


def _zoom_trial(lo: _Eval, hi: _Eval) -> float:
    """Step of the next zoom trial inside the bracket ``[lo, hi]``.

    The minimizer of the quadratic through ``f(lo)``, ``phi'(lo)`` and
    ``f(hi)`` (Nocedal & Wright, Alg. 3.6), clamped to the inner 80 % of the
    bracket, which may be reversed (``lo.alpha > hi.alpha``).  The midpoint
    when ``hi`` is a rejected trial or the quadratic is not convex.  The
    slope at ``lo`` has always been read already: ``lo`` is the start point
    or a trial that passed sufficient decrease.
    """
    a, b = lo.alpha, hi.alpha
    d = b - a
    # c * d**2 for the quadratic f(lo) + phi'(lo) (t - a) + c (t - a)**2
    curvature = hi.value - lo.value - lo.slope * d
    if not math.isfinite(hi.value) or not curvature > 0.0:
        return 0.5 * (a + b)
    t = a - 0.5 * lo.slope * d * d / curvature
    margin = _ZOOM_SAFEGUARD * abs(d)
    return min(max(t, min(a, b) + margin), max(a, b) - margin)


class _LineSearchResult:
    def __init__(self, ev: _Eval | None, ok: bool, reason: str):
        self.ev = ev
        self.ok = ok
        self.reason = reason


def _strong_wolfe(fun, x, p, f0, slope0, counters: _Counters, first_trial: float = 1.0):
    """Bracket + interpolating zoom for the strong Wolfe conditions.

    Zoom trials come from ``_zoom_trial``.  Returns the accepted evaluation,
    or the best strictly-decreasing evaluation seen with ``ok=False`` when
    bracketing fails (``expansion_cap``) or zoom has spent ``LS_MAX_ZOOM``
    trials without an acceptable one (``zoom_cap``).  ``fun`` returns its
    gradient as a zero-argument callable, which is called only for trials
    that pass sufficient decrease and for the returned fallback; the forward
    state is kept only for the current trial and the best one.  A trial that
    raises one of ``TRIAL_ERRORS`` or has a non-finite value counts as
    ``+inf``.
    """
    c1, c2 = WOLFE_C1, WOLFE_C2
    best: _Eval | None = None
    current: _Eval | None = None

    def evaluate(alpha: float) -> _Eval:
        nonlocal best, current
        try:
            value, grad, sub = fun(x + alpha * p)
        except TRIAL_ERRORS:
            value = math.nan
        if not math.isfinite(value):
            counters.rejected_trials += 1
            value, grad, sub = math.inf, None, False
        ev = _Eval(alpha, value, grad, sub, direction=p)
        stale = (current, best)
        current = ev
        if best is None or ev.value < best.value:
            best = ev
        for old in stale:
            if old is not None and old is not best:
                old.release()
        return ev

    def fallback(reason: str) -> _LineSearchResult:
        if best is not None and best.value < f0:
            return _LineSearchResult(best, False, reason)
        return _LineSearchResult(None, False, reason)

    def zoom(lo: _Eval, hi: _Eval) -> _LineSearchResult:
        for _ in range(LS_MAX_ZOOM):
            if counters.exhausted:
                return fallback("budget")
            trial = evaluate(_zoom_trial(lo, hi))
            if trial.value > f0 + c1 * trial.alpha * slope0 or trial.value >= lo.value:
                hi = trial
            else:
                if abs(trial.slope) <= c2 * abs(slope0):
                    return _LineSearchResult(trial, True, "wolfe")
                if trial.slope * (hi.alpha - lo.alpha) >= 0:
                    hi = lo
                lo = trial
        return fallback("zoom_cap")

    prev = _Eval(0.0, f0, None, False, slope=slope0)
    alpha = first_trial
    for i in range(LS_MAX_EXPAND):
        if counters.exhausted:
            return fallback("budget")
        ev = evaluate(alpha)
        if ev.value > f0 + c1 * alpha * slope0 or (i > 0 and ev.value >= prev.value):
            return zoom(prev, ev)
        if abs(ev.slope) <= c2 * abs(slope0):
            return _LineSearchResult(ev, True, "wolfe")
        if ev.slope >= 0:
            return zoom(ev, prev)
        prev = ev
        alpha *= 2.0
    return fallback("expansion_cap")


@dataclass
class _LbfgsOutcome:
    x: np.ndarray
    value: float
    termination: str


def lbfgs(
    fun,
    x0: np.ndarray,
    opts: SolveOptions,
    metric_solve,
    project_point,
    first_step_scale: float,
    counters: _Counters,
    trace: LevelTrace,
    level: int,
    component: int,
    t0: float,
) -> _LbfgsOutcome:
    """Limited-memory BFGS minimization of ``fun``, seeded by ``metric_solve``.

    ``fun`` maps an array to ``(value, gradient, subgradient_flag)``, where
    ``gradient`` is a zero-argument callable that the line search calls
    only when it needs the slope.  Only the start point's errors propagate;
    a line-search trial that fails is a rejected step (see
    ``_strong_wolfe``).  The two-loop recursion always seeds with
    ``metric_solve``; there is no identity seed.  ``project_point`` maps the
    start point and every accepted iterate back onto the gauge constraint.
    The first trial of each line search is capped at
    ``first_step_scale / |p|_inf``, because the metric's near-null
    directions carry no natural scale; Wolfe expansion can still grow the
    step from there.  When a search finds no decrease along a direction
    other than ``-g``, the memory is cleared and one more search runs along
    ``-g``; the run ends with ``line_search_failure`` only if that fails too.
    Evaluations, gradients, rejected trials and line-search failures are
    tallied in ``counters``; one ``IterRecord`` per iteration goes to
    ``trace``, stamped with ``level``, ``component`` and the time since
    ``t0``.
    """

    def charged(z):
        counters.charge()
        value, grad, sub = fun(z)

        def gradient():
            counters.gevals += 1
            return grad()

        return value, gradient, sub

    x = project_point(x0.copy())
    if counters.exhausted:
        return _LbfgsOutcome(x, math.nan, "budget")
    value, grad, sub = charged(x)
    grad = grad()
    gnorm = block_norm(grad)
    gnorm0 = gnorm
    s_list: list[np.ndarray] = []
    y_list: list[np.ndarray] = []
    rho_list: list[float] = []

    def record(iteration, step, wolfe_ok, subflag):
        trace.records.append(
            IterRecord(
                level=level,
                component=component,
                iteration=iteration,
                value=value,
                grad_norm=gnorm,
                step=step,
                wolfe_ok=wolfe_ok,
                subgradient=subflag,
                fevals=counters.fevals,
                gevals=counters.gevals,
                elapsed=time.perf_counter() - t0,
            )
        )

    def search(p, slope):
        pinf = float(np.abs(p).max())
        first_trial = first_step_scale / pinf if pinf > first_step_scale else 1.0
        return _strong_wolfe(charged, x, p, value, slope, counters, first_trial)

    record(0, 0.0, True, sub)
    termination = "maxiter"
    for iteration in range(1, opts.maxiter + 1):
        if gnorm <= opts.gtol * max(1.0, gnorm0):
            termination = "gtol"
            break
        if counters.exhausted:
            termination = "budget"
            break
        p = -_two_loop(grad, s_list, y_list, rho_list, metric_solve)
        slope = block_dot(grad, p)
        steepest = not (np.isfinite(slope) and slope < 0.0)
        if steepest:
            p, slope = -grad, -(gnorm**2)
        ls = search(p, slope)
        if ls.ev is None and ls.reason != "budget" and not steepest:
            # no decrease along the quasi-Newton direction, e.g. where the
            # gradient is a one-sided derivative at a kink of the
            # interpolant: drop the memory and retry once along -g
            s_list.clear()
            y_list.clear()
            rho_list.clear()
            p, slope = -grad, -(gnorm**2)
            ls = search(p, slope)
        if not ls.ok and ls.reason != "budget":
            counters.line_search_failures += 1
        if ls.ev is None:
            termination = "budget" if ls.reason == "budget" else "line_search_failure"
            break
        x_new = project_point(x + ls.ev.alpha * p)
        s = x_new - x
        y = ls.ev.grad - grad
        x = x_new
        value = ls.ev.value
        grad = ls.ev.grad
        gnorm = block_norm(grad)
        sy = block_dot(s, y)
        if sy > 1e-10 * block_norm(s) * block_norm(y):
            s_list.append(s)
            y_list.append(y)
            rho_list.append(1.0 / sy)
            if len(s_list) > LBFGS_MEMORY:
                s_list.pop(0)
                y_list.pop(0)
                rho_list.pop(0)
        record(iteration, ls.ev.alpha, ls.ok, ls.ev.subgradient)
        if not ls.ok:
            termination = "budget" if ls.reason == "budget" else "line_search_failure"
            break
    else:
        termination = "maxiter"
    if gnorm <= opts.gtol * max(1.0, gnorm0) and termination == "maxiter":
        termination = "gtol"
    return _LbfgsOutcome(x, value, termination)


def _two_loop(grad, s_list, y_list, rho_list, metric_solve):
    q = grad.copy()
    alphas = []
    for s, y, rho in zip(reversed(s_list), reversed(y_list), reversed(rho_list)):
        a = rho * block_dot(s, q)
        alphas.append(a)
        q -= a * y
    r = metric_solve(q)
    for (s, y, rho), a in zip(zip(s_list, y_list, rho_list), reversed(alphas)):
        b = rho * block_dot(y, r)
        r += (a - b) * s
    return r


# ---------------------------------------------------------------------------
# solvers


def _solve_level_groupwise(spec, stack, x0, opts, counters, trace, level, t0):
    metric = _make_metric_solve(spec.regularizer, stack.grid, opts.metric_eps_rel, counters)

    def fun(x):
        return objective_trial(spec, stack, x)

    outcome = lbfgs(
        fun,
        x0,
        opts,
        metric_solve=metric,
        project_point=partial(_project_point, constraint=spec.constraint),
        first_step_scale=min(stack.grid.spacing),
        counters=counters,
        trace=trace,
        level=level,
        component=-1,
        t0=t0,
    )
    trace.terminations.append(f"level{level}:{outcome.termination}")
    return outcome.x


def _component_objective(spec, stack, fields, idx):
    """Objective restricted to field ``idx`` in a sequential chain.

    Only the pair terms touching image ``idx`` and its own regularizer vary.
    The neighbors are warped by their current (frozen) fields and their
    ``pair_state`` is taken once; each evaluation runs ``pair_chain`` on
    ``[left] + [state of warped] + [right]`` and takes the gradient from the
    cotangent of image ``idx``, so it matches the stack objective's gradient
    for that field bit for bit.  Like ``objective_trial`` it returns the
    gradient as a zero-argument callable.
    """
    # looked up in ``grids`` at call time, where perfbench's tracer wraps it
    from .grids import warp_with_jacobian

    kind = spec.measure
    left, right = (
        [pair_state(kind, warp_with_jacobian(stack[j], fields[j], want_jac=False)[0])]
        if 0 <= j < stack.k
        else []
        for j in (idx - 1, idx + 1)
    )
    pos = len(left)
    grid = stack.grid

    def fun(x):
        u = DisplacementField(grid, x[0])
        warped, jac = warp_with_jacobian(stack[idx], u)
        value, cotangents = pair_chain(kind, grid, left + [pair_state(kind, warped)] + right)
        rv, reg_gradient = reg_eval(spec.regularizer, u, deferred=True)
        value += rv

        def gradient():
            cot = cotangents()[pos]
            return (cot[..., None] * jac + reg_gradient())[None, ...]

        return value, gradient, False

    return fun


def gauss_seidel_sweep(
    spec: ObjectiveSpec,
    stack: ImageStack,
    fields,
    opts: SolveOptions,
    counters: _Counters,
    trace: LevelTrace,
    level: int,
    t0: float,
):
    """Sequential Gauss-Seidel sweeps: minimize over one field at a time.

    The first field stays exactly as given (the chain anchor).  Returns the
    updated field list; the counts go to ``counters``.
    """
    if spec.mode != "sequential":
        raise ConfigError("gauss_seidel_sweep needs a sequential spec")
    fields = list(fields)
    metric = _make_metric_solve(spec.regularizer, stack.grid, opts.metric_eps_rel, counters)
    for sweep in range(opts.sweeps):
        for idx in range(1, stack.k):
            if counters.exhausted:
                trace.terminations.append(f"level{level}:budget")
                return fields
            fun = _component_objective(spec, stack, fields, idx)
            outcome = lbfgs(
                fun,
                fields[idx].u[None, ...],
                opts,
                metric_solve=metric,
                project_point=partial(_project_point, constraint=spec.constraint),
                first_step_scale=min(stack.grid.spacing),
                counters=counters,
                trace=trace,
                level=level,
                component=idx,
                t0=t0,
            )
            fields[idx] = DisplacementField(stack.grid, outcome.x[0])
            trace.terminations.append(f"level{level}:sweep{sweep}:field{idx}:{outcome.termination}")
    return fields


def build_pyramid(stack: ImageStack, levels: int):
    """Stacks from finest to coarsest, validating the coarsest size."""
    pyramid = [stack]
    for _ in range(levels - 1):
        pyramid.append(restrict_stack(pyramid[-1]))
    coarsest = pyramid[-1].grid.dims
    if coarsest[0] < 8 or coarsest[1] < 8:
        raise OptimError(
            f"coarsest level {coarsest} is below the 8x8 minimum; use fewer levels"
        )
    return pyramid[::-1]


def multilevel_solve(
    spec: ObjectiveSpec,
    stack: ImageStack,
    opts: SolveOptions,
    initial_fields=None,
) -> SolveReport:
    """Coarse-to-fine solve with warm starts prolonged between levels."""
    t0 = time.perf_counter()
    pyramid = build_pyramid(stack, opts.levels)
    counters = _Counters(budget=opts.max_fevals)
    traces: list[LevelTrace] = []
    k = stack.k
    coarse_grid = pyramid[0].grid
    if initial_fields is not None:
        fields = list(initial_fields)
        if len(fields) != k:
            raise OptimError(f"expected {k} initial fields, got {len(fields)}")
        if any(f.grid != coarse_grid for f in fields):
            raise OptimError("initial fields must live on the coarsest grid")
        x = _fields_to_array(fields)
    else:
        x = np.zeros((k, *coarse_grid.dims, 2))
    for level, level_stack in enumerate(pyramid):
        trace = LevelTrace(level, level_stack.grid.dims)
        traces.append(trace)
        level_spec = replace(spec, measure=resolve_measure(spec.measure, level_stack))
        if spec.mode == "groupwise":
            x = _project_point(x, spec.constraint)
            x = _solve_level_groupwise(
                level_spec, level_stack, x, opts, counters, trace, level, t0
            )
        else:
            fields = gauss_seidel_sweep(
                level_spec,
                level_stack,
                _array_to_fields(level_stack.grid, x),
                opts,
                counters=counters,
                trace=trace,
                level=level,
                t0=t0,
            )
            x = _fields_to_array(fields)
        if level + 1 < len(pyramid):
            fine_grid = pyramid[level + 1].grid
            fields = _array_to_fields(level_stack.grid, x)
            x = _fields_to_array([prolong(f, fine_grid) for f in fields])
    final_fields = _array_to_fields(pyramid[-1].grid, x)
    return SolveReport(
        spec=spec,
        options=opts,
        traces=traces,
        fields=final_fields,
        fevals=counters.fevals,
        gevals=counters.gevals,
        elapsed=time.perf_counter() - t0,
        line_search_failures=counters.line_search_failures,
        metric_solves=counters.metric_solves,
        metric_solves_capped=counters.metric_solves_capped,
        metric_iterations=counters.metric_iterations,
        rejected_trials=counters.rejected_trials,
    )
