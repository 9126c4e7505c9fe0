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
two-loop recursion is seeded by running conjugate gradients on
``(H_reg + eps I) z = q``, where ``H_reg`` is the (constant) regularizer
Hessian, applied to the whole stack at once, and ``eps = 1e-6 * alpha``.
CG is truncated, not converged: at 64x64 it stops at ``cg_maxiter=200``
with a relative residual of about 1.1, so the seed is a fixed polynomial in
the metric rather than its inverse.  ``SolveReport.metric_solves_capped``
counts the solves that stopped at the cap.  CG allocates its vectors and
the Hessian's scratch arrays once per solve and updates them in place.

The line search brackets a strong Wolfe step and zooms in with safeguarded
quadratic interpolation (Nocedal & Wright, Alg. 3.6): each zoom trial
minimizes the quadratic through the value and slope at the bracket's low end
and the value at its high end, clamped to the inner 80 % of the bracket, and
falls back to the midpoint when the high end was rejected or the quadratic
is not convex.  It needs no extra gradient: the slope at the low end has
always been read.  In metric-seeded runs the first trial is capped at
``first_step_scale / |p|_inf``.  A search along the quasi-Newton direction
that finds no decrease is retried once along ``-g`` with the L-BFGS memory
cleared; at the zero field every sample sits on a grid node, where the
gradient is a one-sided derivative and that direction can point uphill.

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

All inner products run through order-canonical accumulation, so solves are
exactly invariant under permutations of the input stack.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .accum import block_dot, block_norm, mean_axis0, sorted_sum
from .errors import ConfigError, FeatureError, GridError, MeasureError, OptimError, SpectralError
from .grids import DisplacementField, GridSpec, ImageStack, prolong, restrict_stack
from .measures import (
    GROUPWISE_KINDS,
    PAIRWISE_KINDS,
    MeasureKind,
    measure_eval,
    pair_chain,
    resolve_measure,
)
from .regularize import RegKind, reg_eval, reg_glo, reg_hessian_apply

CONSTRAINTS = ("none", "fix_first", "zero_mean")

# errors of a forward pass that make a line-search trial a rejected step
TRIAL_ERRORS = (GridError, FeatureError, SpectralError, MeasureError)


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
    """Solver knobs shared by all levels.

    ``ls_max_zoom`` caps the zoom trials of one line search.
    """

    levels: int = 1
    maxiter: int = 50
    gtol: float = 1e-5
    memory: int = 5
    sweeps: int = 1
    wolfe_c1: float = 1e-4
    wolfe_c2: float = 0.9
    ls_max_expand: int = 10
    ls_max_zoom: int = 20
    metric: str = "reg"  # "reg" or "identity"
    metric_eps_rel: float = 1e-6
    cg_tol: float = 1e-10
    cg_maxiter: int = 200
    max_fevals: int | None = None

    def __post_init__(self):
        if self.levels < 1:
            raise ConfigError(f"levels must be >= 1, got {self.levels}")
        if self.maxiter < 0 or self.sweeps < 1:
            raise ConfigError("maxiter must be >= 0 and sweeps >= 1")
        if not 0 < self.wolfe_c1 < self.wolfe_c2 < 1:
            raise ConfigError("need 0 < c1 < c2 < 1 for the Wolfe conditions")
        if self.metric not in ("reg", "identity"):
            raise ConfigError(f"unknown metric {self.metric!r}")


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
    # metric solves whose CG hit ``cg_maxiter`` with the residual above ``cg_tol``
    metric_solves_capped: int = 0
    # line-search trials that raised in their forward pass or had a non-finite value
    rejected_trials: int = 0

    @property
    def final_value(self) -> float:
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
        # no regularization term of its own.  This objective is off the
        # solve path (the solver minimizes ``_component_objective``), so it
        # stays eager.
        reg_grads = np.zeros((stack.k, *stack.grid.dims, 2))
        parts = []
        for k in range(1, stack.k):
            v, g = reg_eval(spec.regularizer, fields[k])
            parts.append(v)
            reg_grads[k] = g
        reg_value = sorted_sum(parts)

        def reg_gradient():
            return reg_grads

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


def _cg_solve(apply_b, rhs: np.ndarray, tol: float, maxiter: int):
    """Conjugate gradients for ``apply_b(x) = rhs`` from ``x = 0``.

    Returns ``(x, iterations, residual)``: the number of completed CG
    updates and the final recursive residual norm relative to ``|rhs|``.
    The vectors and one temporary are allocated once and updated in place;
    ``apply_b`` may return the same array on every call.
    """
    x = np.zeros_like(rhs)
    r = rhs.copy()
    rs = block_dot(r, r)
    rhs_norm = math.sqrt(max(rs, 0.0))
    if rhs_norm == 0.0:
        return x, 0, 0.0
    p = r.copy()
    tmp = np.empty_like(rhs)
    iterations = 0
    while iterations < maxiter:
        bp = apply_b(p)
        denom = block_dot(p, bp)
        if denom <= 0.0:
            break
        a = rs / denom
        x += np.multiply(p, a, out=tmp)
        r -= np.multiply(bp, a, out=tmp)
        iterations += 1
        rs_new = block_dot(r, r)
        rs_prev, rs = rs, rs_new
        if math.sqrt(max(rs_new, 0.0)) <= tol * rhs_norm:
            break
        # p = r + beta * p, in place
        p *= rs_new / rs_prev
        p += r
    return x, iterations, math.sqrt(max(rs, 0.0)) / rhs_norm


def _make_metric_solve(reg_kind: RegKind, grid: GridSpec, opts: SolveOptions,
                       counters: _Counters):
    eps = opts.metric_eps_rel * reg_kind.alpha

    def solve(q: np.ndarray) -> np.ndarray:
        # output and scratch of the matvec, shared by all CG iterations
        bz = np.empty_like(q)
        work = (np.empty_like(q), np.empty_like(q))

        def apply_b(z: np.ndarray) -> np.ndarray:
            out = reg_hessian_apply(reg_kind, grid, z, out=bz, work=work)
            out += np.multiply(z, eps, out=work[0])
            return out

        z, iterations, residual = _cg_solve(apply_b, q, opts.cg_tol, opts.cg_maxiter)
        counters.metric_solves += 1
        if iterations == opts.cg_maxiter and residual > opts.cg_tol:
            counters.metric_solves_capped += 1
        return z

    return solve


# ---------------------------------------------------------------------------
# L-BFGS with strong Wolfe line search


@dataclass
class _Counters:
    fevals: int = 0
    gevals: int = 0  # gradients actually computed
    budget: int | None = None
    metric_solves: int = 0
    metric_solves_capped: int = 0  # stopped at cg_maxiter above cg_tol
    rejected_trials: int = 0

    def charge(self):
        self.fevals += 1

    @property
    def exhausted(self) -> bool:
        return self.budget is not None and self.fevals >= self.budget


class _Eval:
    """One point on the search line.

    ``grad`` is an array, a zero-argument callable that computes it, or
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


def _strong_wolfe(fun, x, p, f0, slope0, opts: SolveOptions, counters: _Counters,
                  first_trial: float = 1.0):
    """Bracket + interpolating zoom for the strong Wolfe conditions.

    Zoom trials come from ``_zoom_trial``.  Returns the accepted evaluation,
    or the best strictly-decreasing evaluation seen with ``ok=False`` when
    bracketing fails (``expansion_cap``) or zoom has spent ``ls_max_zoom``
    trials without an acceptable one (``zoom_cap``).  ``fun`` may
    return its gradient as a zero-argument callable; it is then called only
    for trials that pass sufficient decrease and for the returned fallback,
    and the forward state is kept only for the current trial and the best
    one.  A trial that raises one of ``TRIAL_ERRORS`` or has a non-finite
    value counts as ``+inf``.
    """
    c1, c2 = opts.wolfe_c1, opts.wolfe_c2
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
        for _ in range(opts.ls_max_zoom):
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
    for i in range(opts.ls_max_expand):
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
    ls_failures: int


def lbfgs(
    fun,
    x0: np.ndarray,
    opts: SolveOptions,
    metric_solve=None,
    project_point=None,
    first_step_scale: float | None = None,
    counters: _Counters | None = None,
    trace: LevelTrace | None = None,
    level: int = 0,
    component: int = -1,
    t0: float | None = None,
) -> _LbfgsOutcome:
    """Limited-memory BFGS minimization of ``fun``.

    ``fun`` maps an array to ``(value, grad, subgradient_flag)``; ``grad``
    may be an array or a zero-argument callable that computes it, which
    the line search calls only when it needs the slope.  Only the start
    point's errors propagate; a line-search trial that fails is a rejected
    step (see ``_strong_wolfe``).  With
    ``metric_solve`` the two-loop recursion seeds with the regularizer
    metric; otherwise the usual ``s.y / y.y`` scaled identity is used.  In
    metric-seeded runs the first trial of each line search is capped at
    ``first_step_scale / |p|_inf``, because the metric's near-null
    directions carry no natural scale; Wolfe expansion can still grow the
    step from there.  When a search finds no decrease along a direction
    other than ``-g``, the memory is cleared and one more search runs along
    ``-g``; the run ends with ``line_search_failure`` only if that fails too.
    """
    counters = counters if counters is not None else _Counters()
    t0 = t0 if t0 is not None else time.perf_counter()

    def charged(z):
        counters.charge()
        value, grad, sub = fun(z)
        if not callable(grad):
            counters.gevals += 1
            return value, grad, sub

        def gradient():
            counters.gevals += 1
            return grad()

        return value, gradient, sub

    x = x0.copy()
    if project_point is not None:
        x = project_point(x)
    if counters.exhausted:
        return _LbfgsOutcome(x, math.nan, "budget", 0)
    value, grad, sub = charged(x)
    if callable(grad):
        grad = grad()
    gnorm = block_norm(grad)
    gnorm0 = gnorm
    s_list: list[np.ndarray] = []
    y_list: list[np.ndarray] = []
    rho_list: list[float] = []
    ls_failures = 0

    def record(iteration, step, wolfe_ok, subflag):
        if trace is not None:
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
        first_trial = 1.0
        if metric_solve is not None and first_step_scale is not None:
            pinf = float(np.abs(p).max())
            if pinf > first_step_scale:
                first_trial = first_step_scale / pinf
        return _strong_wolfe(charged, x, p, value, slope, opts, counters, first_trial)

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
        steepest = metric_solve is None and not s_list
        if not np.isfinite(slope) or slope >= 0.0:
            p, slope, steepest = -grad, -(gnorm**2), True
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
        if ls.ev is None:
            if ls.reason == "budget":
                termination = "budget"
            else:
                termination = "line_search_failure"
                ls_failures += 1
            break
        if not ls.ok and ls.reason != "budget":
            ls_failures += 1
        x_new = x + ls.ev.alpha * p
        if project_point is not None:
            x_new = project_point(x_new)
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
            if len(s_list) > opts.memory:
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
    return _LbfgsOutcome(x, value, termination, ls_failures)


def _two_loop(grad, s_list, y_list, rho_list, metric_solve):
    q = grad.copy()
    alphas = []
    for s, y, rho in zip(reversed(s_list), reversed(y_list), reversed(rho_list)):
        a = rho * block_dot(s, q)
        alphas.append(a)
        q -= a * y
    if metric_solve is not None:
        r = metric_solve(q)
    elif s_list:
        gamma = block_dot(s_list[-1], y_list[-1]) / block_dot(y_list[-1], y_list[-1])
        r = gamma * q
    else:
        r = q
    for (s, y, rho), a in zip(zip(s_list, y_list, rho_list), reversed(alphas)):
        b = rho * block_dot(y, r)
        r += (a - b) * s
    return r


# ---------------------------------------------------------------------------
# solvers


def _solve_level_groupwise(spec, stack, x0, opts, counters, trace, level, t0):
    metric = None
    if opts.metric == "reg":
        metric = _make_metric_solve(spec.regularizer, stack.grid, opts, counters)

    def fun(x):
        return objective_trial(spec, stack, x)

    def project(x):
        return _project_point(x, spec.constraint)

    outcome = lbfgs(
        fun,
        x0,
        opts,
        metric_solve=metric,
        project_point=project,
        first_step_scale=min(stack.grid.spacing),
        counters=counters,
        trace=trace,
        level=level,
        component=-1,
        t0=t0,
    )
    trace.terminations.append(f"level{level}:{outcome.termination}")
    return outcome.x, outcome.ls_failures


def _component_objective(spec, stack, fields, idx):
    """Objective restricted to field ``idx`` in a sequential chain.

    Only the pair terms touching image ``idx`` and its own regularizer vary.
    The neighbors are warped once by their current (frozen) fields; each
    evaluation runs ``pair_chain`` on ``[left] + [warped] + [right]`` and
    takes the gradient from the cotangent of image ``idx``, so it matches
    the stack objective's gradient for that field bit for bit.  Like
    ``objective_trial`` it returns the gradient as a zero-argument callable.
    """
    # looked up in ``grids`` at call time, where perfbench's tracer wraps it
    from .grids import warp_with_jacobian

    left, right = (
        [warp_with_jacobian(stack[j], fields[j], want_jac=False)[0]] if 0 <= j < stack.k else []
        for j in (idx - 1, idx + 1)
    )
    pos = len(left)
    grid = stack.grid

    def fun(x):
        u = DisplacementField(grid, x[0])
        warped, jac = warp_with_jacobian(stack[idx], u)
        value, cotangents = pair_chain(spec.measure, left + [warped] + right)
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
    counters: _Counters | None = None,
    trace: LevelTrace | None = None,
    level: int = 0,
    t0: float | None = None,
):
    """Sequential Gauss-Seidel sweeps: minimize over one field at a time.

    The first field stays exactly as given (the chain anchor).  Returns the
    updated field list and the number of line-search failures.
    """
    if spec.mode != "sequential":
        raise ConfigError("gauss_seidel_sweep needs a sequential spec")
    counters = counters if counters is not None else _Counters()
    trace = trace if trace is not None else LevelTrace(level, stack.grid.dims)
    t0 = t0 if t0 is not None else time.perf_counter()
    fields = list(fields)
    metric = None
    if opts.metric == "reg":
        metric = _make_metric_solve(spec.regularizer, stack.grid, opts, counters)
    failures = 0
    for sweep in range(opts.sweeps):
        for idx in range(1, stack.k):
            if counters.exhausted:
                trace.terminations.append(f"level{level}:budget")
                return fields, failures
            fun = _component_objective(spec, stack, fields, idx)
            outcome = lbfgs(
                fun,
                fields[idx].u[None, ...],
                opts,
                metric_solve=metric,
                first_step_scale=min(stack.grid.spacing),
                counters=counters,
                trace=trace,
                level=level,
                component=idx,
                t0=t0,
            )
            fields[idx] = DisplacementField(stack.grid, outcome.x[0])
            failures += outcome.ls_failures
            trace.terminations.append(f"level{level}:sweep{sweep}:field{idx}:{outcome.termination}")
    return fields, failures


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
    failures = 0
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
            x, fails = _solve_level_groupwise(
                level_spec, level_stack, x, opts, counters, trace, level, t0
            )
        else:
            fields, fails = gauss_seidel_sweep(
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
        failures += fails
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
        line_search_failures=failures,
        metric_solves=counters.metric_solves,
        metric_solves_capped=counters.metric_solves_capped,
        rejected_trials=counters.rejected_trials,
    )
