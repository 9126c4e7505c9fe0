import dataclasses
import importlib.util
import re
from pathlib import Path

import pytest

from sqnreg import SolveOptions

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "solve_fingerprint.py"


@pytest.fixture(scope="module")
def script():
    spec = importlib.util.spec_from_file_location("solve_fingerprint", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def tiny(workload):
    """A tiny instance of the workload: three 16x16 images, a few iterations."""
    return dataclasses.replace(
        workload, k=3, dims=(16, 16), shift=2.0,
        opts=SolveOptions(levels=1, maxiter=3, gtol=1e-6),
    )


@pytest.mark.parametrize("name", ["recovery64", "sequential64"])
def test_two_runs_print_the_same_line(script, name):
    workload = tiny(script.WORKLOADS[name])
    first = script.fingerprint(workload, 2)
    assert first == script.fingerprint(workload, 2)
    assert re.fullmatch(
        r"fevals=\d+ gevals=\d+ J=-?0x1\.[0-9a-f]+p[+-]\d+ "
        r"fields_sha1=[0-9a-f]{40} trace_sha1=[0-9a-f]{40} rms=0x[01]\.[0-9a-f]+p[+-]\d+ "
        r"metric=\d+/\d+/\d+",
        first,
    )


def test_unknown_workload_is_refused(script):
    with pytest.raises(SystemExit):
        script.main(["--workload", "no-such-workload"])


def test_several_workloads_print_one_line_each(script, monkeypatch, capsys):
    names = ["sequential64", "recovery64"]
    monkeypatch.setattr(script, "WORKLOADS", {n: tiny(w) for n, w in script.WORKLOADS.items()})
    script.main(["--workload", *names, "--seed", "2"])
    lines = capsys.readouterr().out.splitlines()
    assert lines == [f"{n} seed=2 {script.fingerprint(script.WORKLOADS[n], 2)}" for n in names]


def test_no_workload_fingerprints_every_workload(script, monkeypatch, capsys):
    monkeypatch.setattr(script, "fingerprint", lambda workload, seed: f"k={workload.k}")
    script.main(["--seed", "3"])
    lines = capsys.readouterr().out.splitlines()
    assert lines == [f"{n} seed=3 k={w.k}" for n, w in script.WORKLOADS.items()]


def test_a_groupwise_seed_changes_only_the_fields(script):
    # the seed only reorders the stack, which a groupwise solve orders by
    # content first: J and the trace keep their bits, and only the fields'
    # order, hence their SHA-1, follows the seed
    workload = tiny(script.WORKLOADS["recovery64"])
    one, two = (dict(item.split("=", 1) for item in script.fingerprint(workload, seed).split())
                for seed in (1, 2))
    assert one["J"] == two["J"] and one["trace_sha1"] == two["trace_sha1"]
    assert one["fields_sha1"] != two["fields_sha1"]
