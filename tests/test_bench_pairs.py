"""Smoke test of scripts/bench_pairs.py on stub checkouts.

Each stub checkout has a ``perfbench/run.py`` that prints fixed metrics in
the benchmark's output format, so the pairing, the summary and the refusal
of malformed output are checked without running a solve.
"""

import importlib.util
import json
import textwrap
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"

STUB_RUN = '''
import argparse, json
ap = argparse.ArgumentParser()
for opt in ("--workload", "--seed", "--seconds", "--trace"):
    ap.add_argument(opt)
args = ap.parse_args()
solve_s = {solve_s!r} + 0.01 * int(args.seed)
print("perfbench " + json.dumps({{"env": {{"workload": args.workload, "seed": int(args.seed)}}}}))
print({last_line})
'''

RESULT = ('json.dumps({"correct": True, "attempted": 3, "failed": 0, "metrics": {'
          '"solve_s": {"value": solve_s, "unit": "s"}, '
          '"fevals": {"value": 456, "unit": "count"}}})')

BENCHMARK = {
    "end_to_end": [
        {"name": "solve_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "fevals", "unit": "count", "better": "lower", "bound": 0.1},
    ],
    "per_layer": [],
}


@pytest.fixture(scope="module")
def script():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def stub_checkout(root: Path, solve_s: float, last_line: str = RESULT) -> Path:
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(
        textwrap.dedent(STUB_RUN.format(solve_s=solve_s, last_line=last_line))
    )
    (root / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    return root


def run_pairs(script, tmp_path, change_last_line=RESULT, pairs=4):
    parent = stub_checkout(tmp_path / "parent", 2.0)
    change = stub_checkout(tmp_path / "change", 1.5, change_last_line)
    status = script.main([
        "--parent", str(parent), "--change", str(change), "--name", "stub",
        "--workload", "a", "b", "--seed", "1", "3", "--pairs", str(pairs),
        "--seconds", "1", "--out", str(tmp_path),
    ])
    return status, json.loads((tmp_path / "BENCH_stub.json").read_text())


def test_alternating_pairs_are_recorded_and_summarized(script, tmp_path):
    status, record = run_pairs(script, tmp_path)
    assert status == 0 and record["complete"] and "refused" not in record
    runs = record["runs"]
    assert len(runs) == 4 * 2 * 2
    for pair in range(4):
        firsts = [r["side"] for r in runs if r["pair"] == pair and r["position"] == 0]
        assert firsts == ["parent" if pair % 2 == 0 else "change"] * 2
        assert {r["seed"] for r in runs if r["pair"] == pair} == {(1, 3)[pair % 2]}
    assert all(r["solves"] == 3 and r["env"]["workload"] == r["workload"] for r in runs)
    assert set(record["checkouts"]) == {"parent", "change"}
    solve = record["summary"]["a"]["solve_s"]
    assert solve["parent"]["median"] == pytest.approx(2.02)
    assert solve["change"]["median"] == pytest.approx(1.52)
    assert solve["parent"]["iqr"] == pytest.approx(0.02)
    assert (solve["wins"], solve["losses"], solve["ties"]) == (4, 0, 0)
    assert solve["gain_rule_met"] and solve["within_bound"]
    fevals = record["summary"]["b"]["fevals"]
    assert (fevals["wins"], fevals["ties"]) == (0, 4)
    assert not fevals["gain_rule_met"] and fevals["within_bound"]


@pytest.mark.parametrize(
    "last_line",
    [
        # a non-finite metric value, as json.dumps writes NaN
        RESULT.replace('"value": solve_s', '"value": float("nan")'),
        '"solve_s=1.5"',  # a last line that is not a JSON object
        '"{}"',  # an object without metrics
        RESULT + ' + "\\nsolved"',  # a trailing line after the result
    ],
)
def test_malformed_output_is_refused(script, tmp_path, last_line):
    status, record = run_pairs(script, tmp_path, change_last_line=last_line, pairs=1)
    assert status == 1 and not record["complete"]
    refused = record["refused"]
    assert (refused["side"], refused["workload"], refused["pair"]) == ("change", "a", 0)
    assert refused["returncode"] == 0 and refused["stdout_tail"]
    # the parent's run of the pair came first and is kept
    assert [r["side"] for r in record["runs"]] == ["parent"]
