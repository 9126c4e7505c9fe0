import dataclasses
import importlib
import re
import sys
from pathlib import Path

import pytest

from sqnreg import SolveOptions

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "solve_peak.py"


@pytest.fixture(scope="module")
def script():
    # imported by name: the spawned child imports it again, from this sys.path
    sys.path.insert(0, str(SCRIPT.parent))
    yield importlib.import_module("solve_peak")
    sys.path.remove(str(SCRIPT.parent))


def tiny(workload):
    """A tiny instance of the workload: three 16x16 images, a few iterations."""
    return dataclasses.replace(
        workload, k=3, dims=(16, 16), shift=2.0,
        opts=SolveOptions(levels=1, maxiter=3, gtol=1e-6),
    )


@pytest.mark.parametrize("name", ["recovery64", "sequential64"])
def test_two_runs_print_the_same_line(script, name):
    workload = tiny(script.WORKLOADS[name])
    first = script.solve_peak(workload, 2)
    assert first == script.solve_peak(workload, 2)
    match = re.fullmatch(r"peak_kib=(\d+) retained_kib=(\d+) check_kib=(\d+)", first)
    assert match and 0 < int(match[2]) <= int(match[1])
    # the check runs with the report alive
    assert int(match[2]) <= int(match[3])


def test_several_workloads_print_one_line_each(script, monkeypatch, capsys):
    names = ["sequential64", "recovery64"]
    monkeypatch.setattr(script, "solve_peak", lambda workload, seed: f"k={workload.k} seed={seed}")
    script.main(["--workload", *names, "--seed", "2"])
    lines = capsys.readouterr().out.splitlines()
    assert lines == [f"{n} seed=2 k={script.WORKLOADS[n].k} seed=2" for n in names]


def test_a_failing_solve_is_reported(script):
    # a one-cell grid is refused, so the child raises before it prints a line
    broken = dataclasses.replace(tiny(script.WORKLOADS["recovery64"]), dims=(1, 1))
    with pytest.raises(RuntimeError, match="the solve failed"):
        script.solve_peak(broken, 2)
