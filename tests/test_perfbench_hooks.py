"""The package keeps what perfbench's tracer and workloads rely on.

The tracer skips a name the package no longer has and reports every metric
that needs it as absent, so a refactor that drops one would only make a
per-layer metric disappear.  These checks make it a test failure instead.
They also check that ``lbfgs`` is still reached where the tracer replaces
it, that a traced solve of every workload passes the tracer's consistency
check, and that every workload still gives ``run.py`` finite result values.
"""

import dataclasses
import importlib
import importlib.util
import inspect
import math
import numbers
import sys
from pathlib import Path

import numpy as np
import pytest

import sqnreg.optimize as optimize
from sqnreg import Diffusion, NgfPair, ObjectiveSpec, SchattenQ, SolveOptions, multilevel_solve
from sqnreg.synth import synth_stack

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_module(name):
    """Import ``perfbench/<name>.py`` from its file, as ``run.py`` sees it."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # ``dataclass`` looks its class's module up in ``sys.modules``
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


tracer = load_module("tracer")
workloads = load_module("workloads")


@pytest.mark.parametrize("site", tracer.PLAIN_WRAPS + (tracer.LBFGS,), ids=lambda s: ".".join(s[:2]))
def test_wrapped_site_resolves(site):
    module, attr = site[:2]
    assert callable(getattr(importlib.import_module(module), attr, None))


def test_lbfgs_takes_the_arguments_the_tracer_binds():
    module, attr = tracer.LBFGS
    params = inspect.signature(getattr(importlib.import_module(module), attr)).parameters
    assert {"fun", "x0", "metric_solve"} <= params.keys()


def test_solve_options_keep_the_metric_shift():
    assert "metric_eps_rel" in {f.name for f in dataclasses.fields(SolveOptions)}


@pytest.mark.parametrize(
    "spec, levels, shapes, components",
    [
        (ObjectiveSpec(SchattenQ(q=4.0), Diffusion(alpha=1e-2)), 2,
         [(3, 8, 8, 2), (3, 16, 16, 2)], [-1, -1]),
        (ObjectiveSpec(NgfPair(eta_pt=1e-2), Diffusion(alpha=1e-2), mode="sequential"), 1,
         [(1, 16, 16, 2)] * 2, [1, 2]),
    ],
    ids=["groupwise", "sequential"],
)
def test_lbfgs_is_reached_where_the_tracer_replaces_it(monkeypatch, spec, levels, shapes,
                                                       components):
    # the tracer swaps ``optimize.lbfgs`` before a solve and binds ``fun``,
    # ``x0`` and ``metric_solve`` by name; ``x0``'s shape tells it the level
    original = optimize.lbfgs
    signature = inspect.signature(original)
    calls = []

    def recording(*args, **kwargs):
        calls.append(signature.bind(*args, **kwargs).arguments)
        return original(*args, **kwargs)

    monkeypatch.setattr(optimize, "lbfgs", recording)
    stack, _ = synth_stack(12, 3, "shifted_disks", 1.0, dims=(16, 16))
    multilevel_solve(spec, stack, SolveOptions(levels=levels, maxiter=2))
    # one call per groupwise level, one per sequential component
    assert [call["component"] for call in calls] == components
    assert [np.shape(call["x0"]) for call in calls] == shapes
    for call in calls:
        assert callable(call["fun"]) and callable(call["metric_solve"])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_gives_finite_result_values(name):
    # what ``run.py`` derives from a solve must be a finite number, or its
    # last line is not a valid result; ``maxiter=0`` keeps the solve short
    w = workloads.WORKLOADS[name]
    inst = workloads.build_instance(w, 1)
    report = multilevel_solve(w.spec, inst.stack, dataclasses.replace(w.opts, maxiter=0))
    problems = workloads.check_solution(inst, report)
    assert isinstance(problems, list)
    assert all(isinstance(problem, str) for problem in problems)
    for value in (
        report.final_value - w.j_lower_bound,
        workloads.rms_shift_px(inst, report.fields),
        report.fevals,
    ):
        assert isinstance(value, numbers.Real) and math.isfinite(value)


def traced_tiny_solve(name):
    """A one-level solve of workload ``name`` on a small instance under the
    tracer: ``(tracer, report, workload)``."""
    w = dataclasses.replace(
        workloads.WORKLOADS[name], k=3, dims=(16, 16), shift=2.0,
        opts=dataclasses.replace(workloads.WORKLOADS[name].opts, levels=1, maxiter=3),
    )
    inst = workloads.build_instance(w, 1)
    traced = tracer.Tracer(w.dims)
    with traced:
        report = traced.solve(0, multilevel_solve, w.spec, inst.stack, w.opts)
    return traced, report, w


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_tiny_solve_is_consistent(name):
    # the tracer counts one ``optimize.eval`` span per evaluation and, for a
    # groupwise workload, one ``thin_svd`` and K warps per evaluation
    traced, report, w = traced_tiny_solve(name)
    assert traced.missing == set()
    assert report.fevals > 0
    assert tracer.consistency_problems(traced, report, w) == []


@pytest.mark.parametrize("name, sees_cg", [("elastic32", True), ("recovery64", False)])
def test_tracer_sees_the_hessian_actions_of_the_metric_solve(name, sees_cg):
    # the elastic CG applies ``reg_hessian_apply`` once per iteration, where
    # the tracer wraps it; the diffusion CG multiplies by its eigenvalues in
    # the cosine basis and applies no Hessian
    traced, report, w = traced_tiny_solve(name)
    calls = tracer.layer_metrics(traced, report, w, None)["regularize.hessian_apply_calls"]
    assert report.metric_iterations > 0
    assert calls == (report.metric_iterations if sees_cg else 0)
