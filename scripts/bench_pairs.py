"""Run the solve benchmark of two checkouts in alternating pairs.

Pair ``i`` runs ``perfbench/run.py`` of the parent and of the change checkout
on the same workload and seed, one after the other: the parent first in even
pairs, the change first in odd ones.  Pairs cycle through the given seeds.
Every run must exit with status 0 and end its standard output with one JSON
object whose ``metrics`` all have finite values.  A run that does not is
refused: the record keeps its command, exit status and the end of its
output, and the script stops with status 1.

The record ``BENCH_<name>.json`` is written after every run.  It holds:

* per run, the metric values, the solves it made and its environment;
* per workload and metric, each side's median and quartiles, and the
  change's wins, losses and ties over the pairs;
* the gain rule (the change wins at least nine tenths of the pairs and the
  medians differ by more than the parent's interquartile range) and the
  bound rule (the change's median is no worse than the parent's by more
  than the metric's bound in the parent's ``BENCHMARK.json``).

Example, from the root of a source checkout, with the parent unpacked in
``../parent``:
    python3 scripts/bench_pairs.py --parent ../parent --change . --name cg_plan \\
        --workload recovery64 sequential64 --seed 1 3 --pairs 10
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

SIDES = ("parent", "change")
TAIL_LINES = 20  # lines of a refused run's output kept in the record


class Refused(Exception):
    """A run whose output is not a result the record can use; ``run`` holds
    what the record keeps of it."""

    def __init__(self, reason: str, run: dict | None = None):
        super().__init__(reason)
        self.run = run or {}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True, help="parent checkout")
    ap.add_argument("--change", type=Path, required=True, help="changed checkout")
    ap.add_argument("--name", required=True, help="the record is BENCH_<name>.json")
    ap.add_argument("--workload", nargs="+", required=True)
    ap.add_argument("--seed", type=int, nargs="+", default=[1], help="seeds the pairs cycle through")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, default=Path("."), help="directory of the record")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")
    for side in SIDES:
        if not (getattr(args, side) / "perfbench" / "run.py").is_file():
            ap.error(f"--{side} has no perfbench/run.py")
    return args


def checkout_id(root: Path) -> dict:
    """The git commit of a checkout, if it has one, and a digest of its
    ``src/`` and ``perfbench/`` files, which identifies it either way."""
    digest = hashlib.sha1()
    for sub in ("src", "perfbench"):
        for path in sorted((root / sub).rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    try:
        commit = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    return {"commit": commit, "sources_sha1": digest.hexdigest()}


def parse_output(stdout: str) -> tuple[dict, dict]:
    """The result object of a run's last line and the ``perfbench`` detail
    object before it; raises ``Refused`` for a malformed result."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise Refused("no output")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        raise Refused("the last line is not JSON") from None
    metrics = result.get("metrics") if isinstance(result, dict) else None
    if not isinstance(metrics, dict) or not metrics:
        raise Refused("the last line is not an object with metrics")
    for name, metric in metrics.items():
        value = metric.get("value") if isinstance(metric, dict) else None
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
            raise Refused(f"metric {name} has no finite value: {value!r}")
    detail = {}
    for line in lines[:-1]:
        if line.startswith("perfbench {"):
            try:
                detail = json.loads(line[len("perfbench "):])
            except json.JSONDecodeError:
                detail = {}  # the environment is missing from the record, not the result
    return result, detail


def run_once(root: Path, workload: str, seed: int, args) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", f"{args.seconds:g}", "--trace", str(args.trace)]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                              timeout=20 * args.seconds + 600)
    except subprocess.TimeoutExpired as exc:
        raise Refused(f"no exit after {exc.timeout:g} s", {"command": cmd[1:]}) from None
    run = {"command": cmd[1:], "returncode": proc.returncode, "wall_s": time.monotonic() - t0}
    try:
        if proc.returncode != 0:
            raise Refused(f"exit status {proc.returncode}")
        result, detail = parse_output(proc.stdout)
    except Refused as exc:
        run.update(reason=str(exc),
                   stdout_tail=proc.stdout.splitlines()[-TAIL_LINES:],
                   stderr_tail=proc.stderr.splitlines()[-TAIL_LINES:])
        raise Refused(str(exc), run) from None
    run.update(
        correct=result.get("correct"),
        solves=result.get("attempted"),
        failed=result.get("failed"),
        values={name: m["value"] for name, m in result["metrics"].items()},
        units={name: m.get("unit") for name, m in result["metrics"].items()},
        env=detail.get("env"),
    )
    return run


def spread(values: list[float]) -> dict:
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = median = q3 = values[0]
    return {"n": len(values), "median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarize(runs: list[dict], rules: dict) -> dict:
    """Per workload and metric: both sides' spread, pair wins and the rules."""
    summary: dict[str, dict] = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        by_pair: dict[int, dict] = {}
        for r in runs:
            if r["workload"] == workload:
                by_pair.setdefault(r["pair"], {})[r["side"]] = r
        pairs = [p for p in by_pair.values() if len(p) == 2]
        if not pairs:
            continue
        names = [n for n in pairs[0]["parent"]["values"]
                 if all(n in p[s]["values"] for p in pairs for s in SIDES)]
        summary[workload] = {}
        for name in names:
            sides = {s: [p[s]["values"][name] for p in pairs] for s in SIDES}
            entry = {"unit": pairs[0]["parent"]["units"].get(name)}
            entry.update({s: spread(sides[s]) for s in SIDES})
            rule = rules.get(name)
            if rule is not None:
                sign = 1.0 if rule["better"] == "lower" else -1.0
                gaps = [sign * (p - c) for p, c in zip(sides["parent"], sides["change"])]
                wins = sum(g > 0 for g in gaps)
                losses = sum(g < 0 for g in gaps)
                parent_med, change_med = entry["parent"]["median"], entry["change"]["median"]
                gain = sign * (parent_med - change_med)
                entry.update(
                    better=rule["better"],
                    bound=rule.get("bound"),
                    wins=wins,
                    losses=losses,
                    ties=len(gaps) - wins - losses,
                    median_gain=gain,
                    gain_rule_met=wins >= 0.9 * len(gaps) and gain > entry["parent"]["iqr"],
                )
                if rule.get("bound") is not None:
                    entry["within_bound"] = -gain <= rule["bound"] * abs(parent_med)
            summary[workload][name] = entry
    return summary


def benchmark_rules(root: Path) -> dict:
    path = root / "BENCHMARK.json"
    if not path.is_file():
        return {}
    bench = json.loads(path.read_text())
    return {m["name"]: m for m in bench.get("end_to_end", []) + bench.get("per_layer", [])}


def main(argv=None) -> int:
    args = parse_args(argv)
    roots = {side: getattr(args, side).resolve() for side in SIDES}
    rules = benchmark_rules(roots["parent"])
    record = {
        "name": args.name,
        "settings": {
            "workloads": args.workload, "seeds": args.seed, "pairs": args.pairs,
            "seconds": args.seconds, "trace": args.trace,
            "order": "parent first in even pairs, change first in odd pairs",
        },
        "checkouts": {side: checkout_id(root) for side, root in roots.items()},
        "host": {"python": platform.python_version(), "machine": platform.machine(),
                 "system": platform.system()},
        "complete": False,
        "runs": [],
        "summary": {},
    }
    out = args.out / f"BENCH_{args.name}.json"
    args.out.mkdir(parents=True, exist_ok=True)

    def write():
        record["summary"] = summarize(record["runs"], rules)
        out.write_text(json.dumps(record, indent=1) + "\n")

    for pair in range(args.pairs):
        seed = args.seed[pair % len(args.seed)]
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for workload in args.workload:
            for position, side in enumerate(order):
                try:
                    run = run_once(roots[side], workload, seed, args)
                except Refused as exc:
                    record["refused"] = dict(exc.run, reason=str(exc), workload=workload,
                                             pair=pair, seed=seed, side=side)
                    write()
                    print(f"bench_pairs: refused the {side} run of {workload} in pair {pair}: "
                          f"{exc}; see {out}", file=sys.stderr)
                    return 1
                record["runs"].append(dict(run, workload=workload, pair=pair, seed=seed,
                                           side=side, position=position))
                write()
                print(f"bench_pairs: pair {pair} {workload} {side}: "
                      f"{json.dumps(run['values'])}", file=sys.stderr, flush=True)
    record["complete"] = True
    write()
    return 0


if __name__ == "__main__":
    sys.exit(main())
