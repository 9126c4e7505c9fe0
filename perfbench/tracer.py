"""Span tracing of one solve, from outside the sqnreg package.

``Tracer.install`` replaces module-level functions by wrappers at the
places where their callers look them up (``thin_svd`` in
``sqnreg.measures``, ``reg_hessian_apply`` in ``sqnreg.optimize``,
``warp_with_jacobian`` in ``grids``, ``features`` and ``measures``, ...),
so ``src/`` needs no edits.  The wrapper of ``optimize.lbfgs`` also wraps
the evaluation and metric-solve callables it receives, which covers every
objective the solver minimizes, the private sequential one included.

A span is ``[name, start, end, parent, solve, tag]``; spans are kept in
memory and written out by the caller.  A name that the package no longer
has is skipped and listed in ``missing``; every metric that needs it is
then reported as absent instead of stopping the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import statistics
import time

import numpy as np

NAME, START, END, PARENT, SOLVE, TAG = range(6)

# (module where callers look the name up, attribute, span name)
PLAIN_WRAPS = (
    ("sqnreg.optimize", "restrict_stack", "grids.pyramid"),
    ("sqnreg.optimize", "measure_eval", "measures.measure_eval"),
    ("sqnreg.optimize", "reg_glo", "regularize.value_grad"),
    ("sqnreg.optimize", "reg_eval", "regularize.value_grad"),
    ("sqnreg.optimize", "reg_hessian_apply", "regularize.hessian_apply"),
    ("sqnreg.optimize", "block_dot", "accum.block_dot"),
    ("sqnreg.measures", "assemble_with_chain", "features.assemble"),
    ("sqnreg.measures", "feature_adjoint", "features.adjoint"),
    ("sqnreg.measures", "thin_svd", "spectral.thin_svd"),
    ("sqnreg.grids", "warp_with_jacobian", "grids.warp"),
    ("sqnreg.features", "warp_with_jacobian", "grids.warp"),
    ("sqnreg.measures", "warp_with_jacobian", "grids.warp"),
)
LBFGS = ("sqnreg.optimize", "lbfgs")
WARP_SITES = tuple(
    f"{mod}.{attr}" for mod, attr, span in PLAIN_WRAPS if span == "grids.warp"
)


class Tracer:
    def __init__(self, finest_dims):
        self.finest_dims = tuple(finest_dims)
        self.spans: list[list] = []
        self.missing: set[str] = set()
        # (metric-solve span index, right-hand side, solution) on the finest level
        self.metric_solves: list[tuple[int, np.ndarray, np.ndarray]] = []
        self._open = [-1]
        self._solve = -1
        self._saved: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------

    def open(self, name: str, tag=None) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), math.nan, self._open[-1], self._solve, tag])
        self._open.append(idx)
        return idx

    def close(self, idx: int):
        self.spans[idx][END] = time.perf_counter()
        self._open.pop()

    def solve(self, solve_id: int, fn, *args, **kwargs):
        """Run ``fn`` as the root span of solve ``solve_id``."""
        self._solve = solve_id
        idx = self.open("optimize.multilevel_solve")
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(idx)
            self._solve = -1

    def _spanned(self, fn, name, tag_of=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name, tag_of(args) if tag_of else None)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        return wrapper

    # -- installation -----------------------------------------------------

    def _replace(self, module, attr, new):
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, new)

    def install(self):
        for mod_name, attr, span in PLAIN_WRAPS:
            module = importlib.import_module(mod_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.add(f"{mod_name}.{attr}")
                continue
            tag_of = _pixels if span == "grids.warp" else None
            self._replace(module, attr, self._spanned(fn, span, tag_of))
        module = importlib.import_module(LBFGS[0])
        fn = getattr(module, LBFGS[1], None)
        if fn is None:
            self.missing.add(".".join(LBFGS))
        else:
            self._replace(module, LBFGS[1], self._wrap_lbfgs(fn))

    def uninstall(self):
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _wrap_lbfgs(self, lbfgs):
        sig = inspect.signature(lbfgs)

        @functools.wraps(lbfgs)
        def wrapper(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            x0 = bound.arguments.get("x0")
            finest = x0 is not None and tuple(np.shape(x0)[1:3]) == self.finest_dims
            fun = bound.arguments.get("fun")
            if fun is not None:
                bound.arguments["fun"] = self._spanned(fun, "optimize.eval", lambda _: finest)
            metric = bound.arguments.get("metric_solve")
            if metric is not None:
                bound.arguments["metric_solve"] = self._traced_metric(metric, finest)
            idx = self.open("optimize.lbfgs", finest)
            try:
                return lbfgs(*bound.args, **bound.kwargs)
            finally:
                self.close(idx)

        return wrapper

    def _traced_metric(self, metric_solve, finest):
        def traced(q):
            idx = self.open("optimize.metric_solve", finest)
            try:
                z = metric_solve(q)
            finally:
                self.close(idx)
            if finest:
                # the residual is computed after the solve, outside every span
                self.metric_solves.append((idx, np.array(q), np.array(z)))
            return z

        return traced


def _pixels(args):
    img = args[0] if args else None
    grid = getattr(img, "grid", None)
    return getattr(grid, "n_cells", 0)


# ---------------------------------------------------------------------------
# reduction of spans to per-layer metrics


def span_stats(spans):
    """Total time, self time and call count per span name."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    total: dict[str, float] = {}
    self_t: dict[str, float] = {}
    calls: dict[str, int] = {}
    for s, c in zip(spans, child):
        d = s[END] - s[START]
        total[s[NAME]] = total.get(s[NAME], 0.0) + d
        self_t[s[NAME]] = self_t.get(s[NAME], 0.0) + d - c
        calls[s[NAME]] = calls.get(s[NAME], 0) + 1
    return total, self_t, calls


def metric_residuals(tracer: Tracer, workload, grid) -> list[float] | None:
    """Relative residual of each finest-level metric solve.

    Recomputes ``(H_reg + eps I) z - q`` with the unwrapped Hessian; None
    when the package no longer has the Hessian action or ``eps``.
    """
    module = importlib.import_module("sqnreg.optimize")
    hessian = getattr(module, "reg_hessian_apply", None)
    eps_rel = getattr(workload.opts, "metric_eps_rel", None)
    if hessian is None or eps_rel is None or not tracer.metric_solves:
        return None
    reg = workload.spec.regularizer
    eps = eps_rel * reg.alpha
    out = []
    for _, q, z in tracer.metric_solves:
        bz = np.stack([hessian(reg, grid, zi) for zi in z]) + eps * z
        qn = float(np.linalg.norm(q))
        out.append(float(np.linalg.norm(bz - q)) / qn if qn > 0 else 0.0)
    return out


def layer_metrics(tracer: Tracer, report, workload, residuals) -> dict[str, float]:
    """Per-layer metrics of the traced solve; absent ones are left out."""
    spans = tracer.spans
    total, self_t, calls = span_stats(spans)

    def have(*attrs):
        return not any(a in tracer.missing for a in attrs)

    opt = "sqnreg.optimize."
    m: dict[str, float] = {}
    iterations = sum(1 for r in report.all_records() if r.iteration > 0)
    starts = sum(1 for r in report.all_records() if r.iteration == 0)
    m["optimize.iterations"] = iterations
    if iterations:
        m["optimize.evals_per_iter"] = (report.fevals - starts) / iterations
    m["optimize.ls_failures"] = report.line_search_failures
    if have(opt + "lbfgs"):
        m["optimize.lbfgs_self_s"] = self_t.get("optimize.lbfgs", 0.0)
        m["optimize.metric_solve_s"] = total.get("optimize.metric_solve", 0.0)
        m["optimize.metric_solve_calls"] = calls.get("optimize.metric_solve", 0)
        finest_evals = [
            s[END] - s[START] for s in spans if s[NAME] == "optimize.eval" and s[TAG]
        ]
        if finest_evals:
            m["optimize.eval_ms"] = 1e3 * statistics.median(finest_evals)
        m["optimize.eval_self_s"] = self_t.get("optimize.eval", 0.0)
    if have(opt + "lbfgs", opt + "reg_hessian_apply") and tracer.metric_solves:
        per_solve = {idx: 0 for idx, _, _ in tracer.metric_solves}
        for s in spans:
            if s[NAME] == "regularize.hessian_apply" and s[PARENT] in per_solve:
                per_solve[s[PARENT]] += 1
        m["optimize.metric_matvecs_per_field"] = statistics.median(
            [per_solve[idx] / q.shape[0] for idx, q, _ in tracer.metric_solves]
        )
    if residuals:
        m["optimize.metric_residual_p50"] = statistics.median(residuals)
    if have(opt + "reg_hessian_apply"):
        m["regularize.hessian_apply_s"] = total.get("regularize.hessian_apply", 0.0)
        m["regularize.hessian_apply_calls"] = calls.get("regularize.hessian_apply", 0)
    if have(opt + "block_dot"):
        m["accum.block_dot_s"] = total.get("accum.block_dot", 0.0)
        m["accum.block_dot_calls"] = calls.get("accum.block_dot", 0)
    if have(opt + "measure_eval"):
        m["measures.measure_eval_self_s"] = self_t.get("measures.measure_eval", 0.0)
    if have("sqnreg.measures.assemble_with_chain"):
        m["features.assemble_self_s"] = self_t.get("features.assemble", 0.0)
    if have("sqnreg.measures.feature_adjoint"):
        m["features.adjoint_s"] = total.get("features.adjoint", 0.0)
    if have(*WARP_SITES):
        warp_s = total.get("grids.warp", 0.0)
        pixels = sum(s[TAG] for s in spans if s[NAME] == "grids.warp")
        m["grids.warp_s"] = warp_s
        m["grids.warp_calls"] = calls.get("grids.warp", 0)
        if warp_s > 0:
            m["grids.warp_mpix_per_s"] = pixels / warp_s / 1e6
    if have(opt + "restrict_stack"):
        m["grids.pyramid_s"] = total.get("grids.pyramid", 0.0)
    if have("sqnreg.measures.thin_svd"):
        m["spectral.thin_svd_s"] = total.get("spectral.thin_svd", 0.0)
        m["spectral.thin_svd_calls"] = calls.get("spectral.thin_svd", 0)
    if have(opt + "reg_glo", opt + "reg_eval"):
        m["regularize.value_grad_s"] = total.get("regularize.value_grad", 0.0)
    return m


def consistency_problems(tracer: Tracer, report, workload) -> list[str]:
    """Checks that the wrappers saw every call they should have seen."""
    calls = span_stats(tracer.spans)[2]
    problems = []

    def expect(what, got, want):
        if got != want:
            problems.append(f"{what}: {got} spans, expected {want}")

    if "sqnreg.optimize.lbfgs" not in tracer.missing:
        expect("optimize.eval", calls.get("optimize.eval", 0), report.fevals)
    k = workload.k
    if workload.groupwise:
        if "sqnreg.measures.thin_svd" not in tracer.missing:
            expect("spectral.thin_svd", calls.get("spectral.thin_svd", 0), report.fevals)
        if not tracer.missing.intersection(WARP_SITES):
            expect("grids.warp", calls.get("grids.warp", 0), report.fevals * k)
    else:
        for name in ("spectral.thin_svd", "features.assemble", "features.adjoint"):
            expect(name, calls.get(name, 0), 0)
    return problems
