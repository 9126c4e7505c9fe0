"""The names perfbench's tracer wraps or reads still exist in the package.

The tracer skips a name the package no longer has and reports every metric
that needs it as absent, so a refactor that drops one would only make a
per-layer metric disappear.  These checks make it a test failure instead.
"""

import dataclasses
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from sqnreg import SolveOptions

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()


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
