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

``multilevel_solve`` runs one loop over the pyramid for both modes.  A
level's state is one ``(K, m1, m2, 2)`` array, from the zero stack at the
coarsest level to the prolonged fields at the next.  Each level builds one
``_LevelMinimizer`` (metric solve, gauge projection, first-step scale,
ledger, trace), and every ``lbfgs`` call goes through it: once for a
groupwise level, once per component of a Gauss-Seidel sweep, which writes
each solved field back into the level array in place.

The solver is limited-memory BFGS with a strong Wolfe line search.  Its
two-loop recursion is always seeded by running conjugate gradients on
``(H_reg + eps I) z = q``, where ``H_reg`` is the (constant) regularizer
Hessian of the whole stack and ``eps = 1e-6 * alpha``.  CG is truncated, not
converged: at 64x64 it stops at ``CG_MAXITER = 200`` with a relative
residual of about 1.1, so the seed is a fixed polynomial in the metric
rather than its inverse.  ``SolveReport.metric_solves_capped`` counts the
solves that stopped at the cap (or at a non-finite residual), and ``SolveReport.metric_iterations`` sums
the CG iterations.  There is no identity seed.

For ``Diffusion`` CG runs in the cosine basis.  The forward-difference
Hessian with natural boundary is diagonal in the orthonormal DCT-II basis,
so a metric solve transforms ``q`` once, ``C1 q C2^T`` per field component,
runs CG with ``B`` one elementwise multiply by the eigenvalues plus
``eps``, and transforms the result back, ``C1^T z C2``.  The basis is
orthogonal, so CG's scalars and iterates are those of the pixel-basis CG up
to rounding.  ``B`` is one diagonal shared by every field, so CG's
scalars read the transformed ``q`` only through its sum of squares over
fields per entry.  CG runs once per solve, on the norm ``r`` of that sum,
a ``(1, 2, m1, m2)`` array for any K, and each field is ``q / r`` (0 where
``r = 0``) times CG's result: the stacked CG's result up to rounding, at
``1/K`` of its work.  The squares are sorted over fields before the sum,
which keeps solves bit-exactly permutation invariant.  At one field (every
Gauss-Seidel component) ``q / r`` is exactly +-1, so the result is the
stacked CG's bit for bit; ``q`` times CG's result over ``r`` would move
the last bits, which the sequential chain amplifies.  ``Elastic`` is not
diagonal in that basis; its CG runs in the pixel basis, with ``B`` the
elastic kernel on CG's direction (``reg_hessian_apply``) plus ``eps``
times the direction.
CG binds its two dots ``p·Bp`` and ``r·r`` once per solve
(``accum.block_dot_plan``), so every CG iteration runs the same calls on
the same buffers.  ``x`` and ``r`` are the two rows of one buffer, and so
are ``p`` and ``Bp``: one multiply by ``[a, -a]`` and one add update ``x``
and ``r`` together, with the bits of the two separate updates, since
``r + (-a) Bp`` rounds like ``r - a Bp``.  The cosine basis's eigenvalues
are stored once per level in CG's own ``(1, 2, m1, m2)`` shape, so ``B`` is
a multiply without broadcasting.  CG stops at the first non-finite
``r·r``, and a solve that ends without a residual at or below ``CG_TOL``
counts as capped.

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

Line-search trials are value first.  Every evaluation, ``objective`` and
the sequential one-field objective alike, returns ``(value, gradient)``: a
forward pass (warp, features, Gram matrix and ``eigh``, regularizer value)
gives the value, and ``gradient`` is a zero-argument callable behind
``regularize.once`` that runs the deferred backward pass (spectral
gradient, feature adjoint, chain rule, regularizer gradient, projection)
on its first call and returns that array on every call.  The pass reuses
the forward state and runs only when the line search reads the slope of a
trial that passed sufficient decrease, or when L-BFGS falls back to the
best trial.  The search keeps a trial's gradient callable only while a
rule can still read it: the trial just evaluated, and the best trial below
the start value.  A trial with no decrease keeps none, and a superseded
trial is released before the next forward pass, with its forward state or
the gradient computed from it, so at most two whole-stack states are alive
at once.  ``fevals`` counts evaluations and ``gevals`` the
gradients actually computed.  A trial whose forward pass raises a grid,
feature, spectral or measure error, or whose value is not finite, is a
rejected step: it counts as ``+inf`` and the line search shrinks the step
(``SolveReport.rejected_trials``).

Every count a solve reports, line-search failures included, is declared
once, in ``SolveCounts``, and tallied in one ledger, ``_Counters``, shared by
all levels and all runs of a solve; ``SolveReport`` copies it.

All inner products run through order-canonical accumulation, so solves are
exactly invariant under permutations of the input stack.

The L-BFGS memory, the Wolfe constants, the line-search trial caps and the
CG stopping rule are the module constants below, not options: every solve
runs with the same policy.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass, field, replace
from dataclasses import fields as dc_fields
from functools import partial

import numpy as np

from .accum import block_dot, block_dot_plan, block_norm, mean_axis0
from .errors import ConfigError, FeatureError, GridError, MeasureError, OptimError, SpectralError
from .grids import (DisplacementField, GridSpec, ImageStack, displacement_array, prolong,
                    restrict_stack)
from .measures import (
    GROUPWISE_KINDS,
    PAIRWISE_KINDS,
    MeasureKind,
    measure_eval,
    pair_chain,
    pair_state,
    resolve_measure,
)
from .regularize import Diffusion, RegKind, once, reg_eval, reg_glo, reg_hessian_apply

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
    alpha``, where ``metric_eps_rel`` is finite and positive.  The four
    counts are integers, not ``bool``: ``levels``, ``sweeps`` and
    ``max_fevals`` at least 1 and ``maxiter`` at least 0.  ``gtol`` and
    ``metric_eps_rel`` are real numbers, not ``bool``.  The rest of the
    solver policy is the module constants.
    """

    levels: int = 1
    maxiter: int = 50
    gtol: float = 1e-5
    sweeps: int = 1
    max_fevals: int | None = None
    metric_eps_rel: float = 1e-6

    def __post_init__(self):
        for name, low in (("levels", 1), ("maxiter", 0), ("sweeps", 1), ("max_fevals", 1)):
            value = getattr(self, name)
            if name == "max_fevals" and value is None:
                continue
            # ``bool`` is an ``Integral``, but ``levels=True`` is a mistake
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
                raise ConfigError(f"{name} must be an integer >= {low}, got {value!r}")
        for name in ("gtol", "metric_eps_rel"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ConfigError(f"{name} must be a real number, got {value!r}")
        if not (math.isfinite(self.gtol) and self.gtol >= 0):
            raise ConfigError(f"gtol must be finite and >= 0, got {self.gtol}")
        if not (math.isfinite(self.metric_eps_rel) and self.metric_eps_rel > 0):
            raise ConfigError(f"metric_eps_rel must be finite and > 0, got {self.metric_eps_rel}")


@dataclass
class IterRecord:
    level: int
    component: int  # -1 for groupwise solves, else index of the active field
    iteration: int
    value: float
    grad_norm: float
    step: float
    wolfe_ok: bool
    fevals: int
    gevals: int
    elapsed: float


@dataclass
class LevelTrace:
    level: int
    dims: tuple[int, int]
    records: list[IterRecord] = field(default_factory=list)
    terminations: list[str] = field(default_factory=list)


@dataclass(kw_only=True)
class SolveCounts:
    """The counts of one solve, in the order ``sqnreg register`` prints them."""

    fevals: int = 0  # objective evaluations
    gevals: int = 0  # gradients actually computed
    # searches that ended without a Wolfe step, other than for the budget
    line_search_failures: int = 0
    # line-search trials that raised in their forward pass or had a non-finite value
    rejected_trials: int = 0
    metric_solves: int = 0
    # metric solves whose CG ended without a residual at or below ``CG_TOL``:
    # at ``CG_MAXITER`` iterations, or at a non-finite residual
    metric_solves_capped: int = 0
    # CG iterations summed over all metric solves
    metric_iterations: int = 0

    def counts(self) -> dict[str, int]:
        """The counts by name, in declaration order."""
        return {f.name: getattr(self, f.name) for f in dc_fields(SolveCounts)}


@dataclass
class SolveReport(SolveCounts):
    spec: ObjectiveSpec
    options: SolveOptions
    traces: list[LevelTrace]
    fields: list[DisplacementField]
    elapsed: float

    @property
    def final_value(self) -> float:
        """The value of the last iteration record.

        For a groupwise solve this is J at ``fields`` bit for bit, except
        when the evaluation budget runs out before the finest level: that
        level's ``lbfgs`` returns without a record, and this reads the last J
        of a coarser level (see "One meaning of ``SolveReport.final_value``"
        in ROADMAP.md).  For a sequential solve it is the one-field objective
        of the last component solved, not the stack J.
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


def _project_gradient(grads: np.ndarray, constraint: str) -> np.ndarray:
    """Project ``grads`` onto the gauge constraint in place and return it."""
    if constraint == "fix_first":
        grads[0] = 0.0
    elif constraint == "zero_mean":
        grads -= mean_axis0(grads)[None, ...]
    return grads


def _project_point(x: np.ndarray, constraint: str) -> np.ndarray:
    if constraint == "zero_mean":
        return x - mean_axis0(x)[None, ...]
    return x


def objective(spec: ObjectiveSpec, stack: ImageStack, fields):
    """Evaluate ``J``, and its per-field gradients under the constraint on demand.

    ``fields`` may be a list of ``DisplacementField`` or a raw array of shape
    (K, m1, m2, 2).  Returns ``(value, gradient)``: the forward pass's value,
    and a zero-argument callable behind ``once`` that runs the backward pass
    from the state the forward pass kept, not from ``fields``, and returns
    the (K, m1, m2, 2) gradients.  For a groupwise spec, ``objective(...)[0]``
    runs no backward pass.
    """
    x = displacement_array(stack, fields)
    me = measure_eval(stack, x, spec.measure)
    # the first image is the anchor of the sequential chain; it carries no
    # regularization term of its own
    regularized = slice(None) if spec.mode == "groupwise" else slice(1, None)
    reg_value, reg_gradient = reg_glo(spec.regularizer, stack.grid, x[regularized])

    def gradient():
        grads = me.gradient()
        grads[regularized] += reg_gradient()
        return _project_gradient(grads, spec.constraint)

    return me.value + reg_value, once(gradient)


# ---------------------------------------------------------------------------
# inner linear algebra


def _cg_solve(apply_b, rhs: np.ndarray, tol: float, maxiter: int):
    """Conjugate gradients for ``B x = rhs`` from ``x = 0``.

    ``apply_b(p, bp)`` writes ``B p`` into ``bp``; CG calls it on its
    direction and that direction's image on every iteration.  CG updates
    its vectors in place and binds its two dots, ``p·bp`` and ``r·r``, once
    per solve, so every iteration runs the same calls on the same buffers.
    The iterate and the residual are the two rows of one buffer, and so are
    the direction and its image, each row viewed in ``rhs.shape``: one
    multiply by ``[a, -a]`` and one add update ``x += a p`` and
    ``r -= a Bp`` together, with the bits of the two separate updates.  CG
    stops early at a residual norm of at most ``tol`` times ``|rhs|``, or at
    the first non-finite ``r·r``.  Returns ``(x, iterations, residual)``:
    the number of completed CG updates and the final recursive residual norm
    relative to ``|rhs|``.
    """
    xr = np.zeros((2, rhs.size))
    x, r = (row.reshape(rhs.shape) for row in xr)
    r[...] = rhs
    r_dot_r = block_dot_plan(r, r)
    rs = r_dot_r()
    rhs_norm = math.sqrt(max(rs, 0.0))
    if rhs_norm == 0.0:
        return x, 0, 0.0
    pbp = np.empty((2, rhs.size))
    p, bp = (row.reshape(rhs.shape) for row in pbp)
    p[...] = r
    tmp = np.empty((2, rhs.size))
    step = np.empty((2, 1))
    p_dot_bp = block_dot_plan(p, bp)
    iterations = 0
    while iterations < maxiter:
        apply_b(p, bp)
        denom = p_dot_bp()
        if denom <= 0.0:
            break
        a = rs / denom
        # r - a Bp and r + (-a) Bp round alike
        step[0], step[1] = a, -a
        xr += np.multiply(pbp, step, out=tmp)
        iterations += 1
        rs_new = r_dot_r()
        rs_prev, rs = rs, rs_new
        if not math.isfinite(rs_new) or math.sqrt(max(rs_new, 0.0)) <= tol * rhs_norm:
            break
        # p = r + beta * p, in place
        p *= rs_new / rs_prev
        p += r
    return x, iterations, math.sqrt(max(rs, 0.0)) / rhs_norm


def _cosine_matrix(m: int) -> np.ndarray:
    """The orthonormal DCT-II matrix ``C[k, i] = s_k cos(pi k (i + 1/2) / m)``."""
    k = np.arange(m)[:, None]
    c = math.sqrt(2.0 / m) * np.cos(math.pi / m * k * (np.arange(m) + 0.5))
    c[0] = math.sqrt(1.0 / m)
    return c


def _cosine_metric(reg_kind: Diffusion, grid: GridSpec, eps: float):
    """``H_reg + eps I`` of ``Diffusion`` in the cosine basis.

    Returns ``(C1, C2, lam)``: for every field component ``u`` (m1, m2),
    ``(H_reg + eps I) u = C1^T (lam * (C1 u C2^T)) C2``.  The forward
    differences with natural boundary have the eigenvalues
    ``(2 / h sin(pi k / 2m))**2`` on each axis (Fischer & Modersitzki, "Fast
    diffusion registration", 2002).
    """
    c1, c2 = (_cosine_matrix(m) for m in grid.dims)
    w1, w2 = ((2.0 / h * np.sin(math.pi / (2 * m) * np.arange(m))) ** 2
              for m, h in zip(grid.dims, grid.spacing))
    lam = reg_kind.alpha * grid.cell_area * (w1[:, None] + w2[None, :]) + eps
    return c1, c2, lam


def _make_metric_solve(reg_kind: RegKind, grid: GridSpec, eps_rel: float,
                       counters: _Counters):
    eps = eps_rel * reg_kind.alpha

    def cg(apply_b, rhs):
        z, iterations, residual = _cg_solve(apply_b, rhs, CG_TOL, CG_MAXITER)
        counters.metric_solves += 1
        counters.metric_iterations += iterations
        if not residual <= CG_TOL:
            counters.metric_solves_capped += 1
        return z

    if isinstance(reg_kind, Diffusion):
        c1, c2, lam = _cosine_metric(reg_kind, grid, eps)
        # in CG's own (1, 2, m1, m2) shape: a multiply without broadcasting
        lam = np.ascontiguousarray(np.broadcast_to(lam, (1, 2, *lam.shape)))

        def apply_lam(p: np.ndarray, bp: np.ndarray):
            np.multiply(p, lam, out=bp)

        def cosine_solve(q: np.ndarray) -> np.ndarray:
            # one (m1, m2) transform per field component, batched over
            # (K, 2): no product mixes two fields
            qt = np.ascontiguousarray(q.transpose(0, 3, 1, 2))
            np.matmul(np.matmul(c1, qt), c2.T, out=qt)
            # one CG on the norm over fields; the squares are sorted so the
            # sum does not depend on the fields' order, and ``unit`` (exactly
            # +-1 at one field) goes first to keep the stacked CG's bits
            r = np.sqrt(np.sort(qt**2, axis=0).sum(axis=0, keepdims=True))
            unit = np.divide(qt, r, out=np.zeros(qt.shape), where=r > 0)
            zt = unit * cg(apply_lam, r)
            z = np.matmul(np.matmul(c1.T, zt), c2)
            return np.ascontiguousarray(z.transpose(0, 2, 3, 1))

        return cosine_solve

    def apply_b(p: np.ndarray, bp: np.ndarray):
        reg_hessian_apply(reg_kind, grid, p, bp)
        bp += eps * p

    return lambda q: cg(apply_b, q)


# ---------------------------------------------------------------------------
# L-BFGS with strong Wolfe line search


@dataclass
class _Counters(SolveCounts):
    """The ledger of one solve: the counts its ``SolveReport`` copies, and
    the evaluation budget."""

    budget: int | None = None

    @property
    def exhausted(self) -> bool:
        return self.budget is not None and self.fevals >= self.budget


class _Eval:
    """One point on the search line.

    ``gradient`` is the trial's zero-argument gradient callable, held
    behind ``once``, or None for a trial that keeps no state (rejected, or
    no decrease).  The slope along ``direction`` is computed on first access
    and drops the direction.  ``release`` drops the callable, and with it
    the forward state or the gradient computed from it.
    """

    def __init__(self, alpha: float, value: float, gradient,
                 direction: np.ndarray | None = None, slope: float | None = None):
        self.alpha = alpha
        self.value = value
        self._gradient = None if gradient is None else once(gradient)
        self._direction = direction
        self._slope = slope

    @property
    def grad(self) -> np.ndarray:
        if self._gradient is None:
            raise OptimError("no gradient at a line-search trial that kept no forward state")
        return self._gradient()

    @property
    def slope(self) -> float:
        if self._slope is None:
            self._slope = block_dot(self.grad, self._direction)
            self._direction = None
        return self._slope

    def release(self):
        """Drop the gradient callable; the line search calls it once no rule
        can read this trial's gradient.  Its value, step and a slope already
        read stay."""
        self._gradient = None


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
    that pass sufficient decrease and for the returned fallback, and at most
    once per trial (``_Eval`` holds it behind ``once``).

    A gradient callable is kept only for the current trial and the best one,
    and only while a rule can still read it.  The current trial's slope may
    be read next; the best trial below ``f0`` is the fallback.  A trial that
    is neither below ``f0`` nor passes sufficient decrease keeps none, and
    the previous trial, unless it is the best, is released before the next
    forward pass runs, whether or not its gradient was computed.  A released
    trial is read only for its value, step and slope already read.  A trial
    that raises one of ``TRIAL_ERRORS`` or has a non-finite value counts as
    ``+inf``.
    """
    c1, c2 = WOLFE_C1, WOLFE_C2
    best: _Eval | None = None  # the lowest trial below f0
    current: _Eval | None = None

    def evaluate(alpha: float) -> _Eval:
        nonlocal best, current
        if current is not best:
            # never the fallback now, and its slope was read if a rule needs it
            current.release()
        try:
            value, grad = fun(x + alpha * p)
        except TRIAL_ERRORS:
            value = math.nan
        if not math.isfinite(value):
            counters.rejected_trials += 1
            value, grad = math.inf, None
        # no fallback, and no rule reads its slope; both tests, because a
        # value at f0 passes sufficient decrease when c1 * alpha * slope0
        # is below f0's rounding
        if not value < f0 and value > f0 + c1 * alpha * slope0:
            grad = None
        current = _Eval(alpha, value, grad, direction=p)
        if value < f0 and (best is None or value < best.value):
            if best is not None:
                best.release()
            best = current
        return current

    def fallback(reason: str) -> _LineSearchResult:
        return _LineSearchResult(best, False, reason)

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

    prev = _Eval(0.0, f0, None, slope=slope0)
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
) -> tuple[np.ndarray, str]:
    """Limited-memory BFGS minimization of ``fun``, seeded by ``metric_solve``.

    ``fun`` maps an array to ``(value, gradient)``, where ``gradient`` is a
    zero-argument callable that the line search calls only when it needs
    the slope.  Only the start point's errors propagate; a line-search trial
    that fails is a rejected step (see ``_strong_wolfe``).  The two-loop
    recursion always seeds with ``metric_solve``; there is no identity
    seed.  ``project_point`` maps the start point onto the gauge constraint.
    ``x0`` is never written, and a run that accepts no step may return the
    projection of ``x0``, which can be ``x0`` itself.  An accepted iterate
    is the evaluated trial point itself, so a record's J is J at that
    iterate; it keeps the constraint up to rounding, because the gradient
    is projected.
    The first trial of each line search is capped at
    ``first_step_scale / |p|_inf``, because the metric's near-null
    directions carry no natural scale; Wolfe expansion can still grow the
    step from there.  When a search finds no decrease along a direction
    other than ``-g``, the memory is cleared and one more search runs along
    ``-g``; the run ends with ``line_search_failure`` only if that fails too.
    Evaluations, gradients, rejected trials and line-search failures are
    tallied in ``counters``; one ``IterRecord`` per iteration goes to
    ``trace``, stamped with ``level``, ``component`` and the time since
    ``t0``.  Returns ``(x, termination)``: the last accepted iterate and why
    the run stopped.
    """

    def charged(z):
        counters.fevals += 1
        value, grad = fun(z)

        def gradient():
            counters.gevals += 1
            return grad()

        return value, gradient

    x = project_point(x0)
    if counters.exhausted:
        return x, "budget"
    value, grad = charged(x)
    grad = grad()
    gnorm = block_norm(grad)
    gnorm0 = gnorm
    s_list: list[np.ndarray] = []
    y_list: list[np.ndarray] = []
    rho_list: list[float] = []

    def record(iteration, step, wolfe_ok):
        trace.records.append(
            IterRecord(
                level=level,
                component=component,
                iteration=iteration,
                value=value,
                grad_norm=gnorm,
                step=step,
                wolfe_ok=wolfe_ok,
                fevals=counters.fevals,
                gevals=counters.gevals,
                elapsed=time.perf_counter() - t0,
            )
        )

    def search(p, slope):
        pinf = float(np.abs(p).max())
        first_trial = first_step_scale / pinf if pinf > first_step_scale else 1.0
        return _strong_wolfe(charged, x, p, value, slope, counters, first_trial)

    record(0, 0.0, True)
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
        if not ls.ok:
            termination = "budget" if ls.reason == "budget" else "line_search_failure"
            if termination == "line_search_failure":
                counters.line_search_failures += 1
            if ls.ev is None:
                break
        x_new = x + ls.ev.alpha * p
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
        record(iteration, ls.ev.alpha, ls.ok)
        if not ls.ok:
            break
    if gnorm <= opts.gtol * max(1.0, gnorm0) and termination == "maxiter":
        termination = "gtol"
    return x, termination


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


class _LevelMinimizer:
    """The L-BFGS set-up that one pyramid level shares.

    It holds the level's metric solve, gauge projection and first-step scale
    (the smallest grid spacing), the solve's ledger and start time, and the
    level's trace.  The groupwise level and every Gauss-Seidel component are
    minimized through ``run``.
    """

    def __init__(self, spec: ObjectiveSpec, grid: GridSpec, opts: SolveOptions,
                 counters: _Counters, trace: LevelTrace, t0: float):
        self.opts = opts
        self.counters = counters
        self.trace = trace
        self.t0 = t0
        self.metric_solve = _make_metric_solve(spec.regularizer, grid, opts.metric_eps_rel, counters)
        self.project_point = partial(_project_point, constraint=spec.constraint)
        self.first_step_scale = min(grid.spacing)

    def terminate(self, reason: str):
        self.trace.terminations.append(f"level{self.trace.level}:{reason}")

    def run(self, fun, x0: np.ndarray, component: int = -1, label: str = "") -> np.ndarray:
        """Minimize ``fun`` from ``x0``; the termination is logged after ``label``."""
        # ``lbfgs`` is read from the module at each call, where perfbench's
        # tracer replaces it and binds ``fun``, ``x0`` and ``metric_solve``
        x, termination = lbfgs(
            fun,
            x0,
            self.opts,
            metric_solve=self.metric_solve,
            project_point=self.project_point,
            first_step_scale=self.first_step_scale,
            counters=self.counters,
            trace=self.trace,
            level=self.trace.level,
            component=component,
            t0=self.t0,
        )
        self.terminate(label + termination)
        return x


def _component_objective(spec, stack, x, idx):
    """Objective restricted to field ``idx`` of the level array ``x``.

    Only the pair terms touching image ``idx`` and its own regularizer vary.
    The neighbors are warped by their current (frozen) fields and their
    ``pair_state`` is taken once; each evaluation runs ``pair_chain`` on
    ``[left] + [state of warped] + [right]`` and takes the gradient from the
    cotangent of image ``idx`` alone, so it matches the stack objective's gradient
    for that field bit for bit.  Like ``objective`` it returns the gradient
    as a zero-argument callable behind ``once``.
    """
    # looked up in ``grids`` at call time, where perfbench's tracer wraps it
    from .grids import warp_with_jacobian

    kind = spec.measure
    grid = stack.grid
    left, right = (
        [pair_state(kind, grid, warp_with_jacobian(stack[j], x[j], want_jac=False)[0])]
        if 0 <= j < stack.k
        else []
        for j in (idx - 1, idx + 1)
    )
    pos = len(left)

    def fun(z):
        warped, jac = warp_with_jacobian(stack[idx], z[0])
        value, cotangents = pair_chain(kind, grid, left + [pair_state(kind, grid, warped)] + right)
        rv, reg_gradient = reg_eval(spec.regularizer, grid, z[0])
        value += rv

        def gradient():
            cot = cotangents(pos)
            return (cot[..., None] * jac + reg_gradient())[None, ...]

        return value, once(gradient)

    return fun


def gauss_seidel_sweep(spec: ObjectiveSpec, stack: ImageStack, x: np.ndarray,
                       minimizer: _LevelMinimizer) -> np.ndarray:
    """Sequential Gauss-Seidel sweeps on the level array, one field at a time.

    ``x`` is the level's ``(K, m1, m2, 2)`` displacement array.  Component
    ``idx`` is minimized from ``x[idx:idx + 1]`` through ``minimizer``, the
    level's set-up that a groupwise level solve uses too, and the result is
    written into ``x[idx]`` in place.  The first field, the chain anchor, is
    never touched.  Returns ``x``; the counts go to the minimizer's ledger.
    """
    if spec.mode != "sequential":
        raise ConfigError("gauss_seidel_sweep needs a sequential spec")
    for sweep in range(minimizer.opts.sweeps):
        for idx in range(1, stack.k):
            if minimizer.counters.exhausted:
                minimizer.terminate("budget")
                return x
            fun = _component_objective(spec, stack, x, idx)
            x[idx] = minimizer.run(fun, x[idx:idx + 1], idx, f"sweep{sweep}:field{idx}:")[0]
    return x


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


def multilevel_solve(spec: ObjectiveSpec, stack: ImageStack, opts: SolveOptions) -> SolveReport:
    """Coarse-to-fine solve from the zero stack, warm-started between levels.

    A level's state is one ``(K, m1, m2, 2)`` array, minimized through one
    ``_LevelMinimizer``: as a whole in groupwise mode, by
    ``gauss_seidel_sweep`` in sequential mode.  It is prolonged to the next
    level in one ``prolong`` call; only the report wraps its fields.
    """
    t0 = time.perf_counter()
    pyramid = build_pyramid(stack, opts.levels)
    counters = _Counters(budget=opts.max_fevals)
    traces: list[LevelTrace] = []
    x = np.zeros((stack.k, *pyramid[0].grid.dims, 2))
    for level, level_stack in enumerate(pyramid):
        grid = level_stack.grid
        trace = LevelTrace(level, grid.dims)
        traces.append(trace)
        level_spec = replace(spec, measure=resolve_measure(spec.measure, level_stack))
        minimizer = _LevelMinimizer(level_spec, grid, opts, counters, trace, t0)
        if spec.mode == "groupwise":
            x = _project_point(x, spec.constraint)
            x = minimizer.run(partial(objective, level_spec, level_stack), x)
        else:
            x = gauss_seidel_sweep(level_spec, level_stack, x, minimizer)
        if level + 1 < len(pyramid):
            x = prolong(x, grid, pyramid[level + 1].grid)
    return SolveReport(
        spec=spec,
        options=opts,
        traces=traces,
        fields=[DisplacementField(pyramid[-1].grid, u) for u in x],
        elapsed=time.perf_counter() - t0,
        **counters.counts(),
    )
