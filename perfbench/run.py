"""Solve benchmark for sqnreg: one workload per invocation.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload recovery64 --seed 1 --seconds 50 --trace 0

The run imports ``sqnreg`` from ``src/`` of the checkout, times whole
``multilevel_solve`` calls one after another in this process (at least one;
another only while it is expected to end within ``--seconds``), checks every
solution outside the timed region and prints one JSON object as the last
line of standard output.  ``--trace 0`` reports the end-to-end metrics of
BENCHMARK.json, ``--trace 1`` the per-layer metrics of one extra, traced
solve.  README.md describes the workloads and metrics.
"""

import os

# Pin BLAS and OpenMP pools before anything imports NumPy: the workloads are
# single-threaded by definition, and the setup probes inherit these values.
PINS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in PINS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gzip  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=50.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_package():
    """Import sqnreg from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "sqnreg" / "__init__.py").is_file():
        sys.exit(f"perfbench: no sqnreg package under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import sqnreg

    if Path(sqnreg.__file__).resolve().parent != (SRC / "sqnreg").resolve():
        sys.exit(f"perfbench: imported sqnreg from {sqnreg.__file__}, not from {SRC}")


def setup_probe(args):
    """Child side of ``setup_s``: do what a run does before its first solve."""
    import_package()
    from workloads import WORKLOADS, build_instance

    build_instance(WORKLOADS[args.workload], args.seed)
    print(time.monotonic(), flush=True)


def measure_setup(args) -> list[float]:
    """Seconds from spawning a fresh interpreter to its first solve call."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--setup-probe",
    ]
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        out = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True
        )
        samples.append(float(out.stdout.split()[-1]) - t0)
    return samples


def calibrate_ms() -> float:
    """Median time of a fixed small-array kernel, a probe of host speed.

    Recorded with every run so that drift in host speed between two sets of
    runs shows; no metric is normalized by it.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    u = rng.standard_normal((64, 64, 2))
    c = rng.standard_normal((8, 8))
    c = c @ c.T
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        acc = 0.0
        for _ in range(300):
            d = np.moveaxis(u, 1, 0)
            d = (d[1:] - d[:-1]) * 0.5
            acc += float(np.dot(d.ravel(), d.ravel()))
            acc += float(np.linalg.eigh(c)[0][-1])
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def environment(args) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "pins": {var: os.environ.get(var) for var in PINS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


class Solve:
    """One timed ``multilevel_solve`` call and what came out of it."""

    def __init__(self, inst, tracer=None):
        from sqnreg import multilevel_solve

        w = inst.workload
        self.report = None
        self.error = None
        t0 = time.perf_counter()
        try:
            if tracer is None:
                self.report = multilevel_solve(w.spec, inst.stack, w.opts)
            else:
                self.report = tracer.solve(0, multilevel_solve, w.spec, inst.stack, w.opts)
        except Exception:  # a raising solve is a failed solve, not a crash
            self.error = traceback.format_exc()
        self.seconds = time.perf_counter() - t0
        self.problems = []

    @property
    def signature(self):
        if self.report is None:
            return None
        return self.report.fevals, float(self.report.final_value).hex()


def timed_solves(inst, seconds: float) -> list[Solve]:
    solves = []
    t_start = time.perf_counter()
    while True:
        solves.append(Solve(inst))
        elapsed = time.perf_counter() - t_start
        if elapsed + statistics.median(s.seconds for s in solves) > seconds:
            return solves


def check(inst, solves: list[Solve]):
    """Output checks, run after all timing; fills ``Solve.problems``."""
    from workloads import check_solution

    reference = next((s.signature for s in solves if s.report is not None), None)
    for s in solves:
        if s.report is None:
            s.problems.append("raised: " + s.error.strip().splitlines()[-1])
            continue
        s.problems.extend(check_solution(inst, s.report))
        if s.signature != reference:
            s.problems.append(f"fevals/final J bits {s.signature} differ from {reference}")


def main(argv=None):
    args = parse_args(argv)
    if args.setup_probe:
        setup_probe(args)
        return
    import_package()
    from workloads import WORKLOADS, build_instance, rms_shift_px

    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; have {sorted(WORKLOADS)}")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    workload = WORKLOADS[args.workload]
    env = environment(args)
    inst = build_instance(workload, args.seed)
    env["order"] = inst.order
    setup = measure_setup(args)
    env["calib_ms"] = calibrate_ms()

    OUT_DIR.mkdir(exist_ok=True)
    solves = timed_solves(inst, args.seconds)
    untraced_s = statistics.median(s.seconds for s in solves)
    detail = {}
    if args.trace:
        traced, layer, spans_file = traced_solve(inst, args)
        solves.append(traced)
        detail["spans_file"] = spans_file
    check(inst, solves)

    ok = [s for s in solves if not s.problems]
    good = next((s.report for s in solves if s.report is not None), None)
    if args.trace:
        values = dict(layer)
        values["bench.trace_overhead"] = traced.seconds / untraced_s
    else:
        values = {
            "solve_s": untraced_s,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "solved_frac": len(ok) / len(solves),
        }
        if good is not None:
            values["fevals"] = good.fevals
            values["final_J_gap"] = good.final_value - workload.j_lower_bound
            values["rms_shift_px"] = rms_shift_px(inst, good.fields)
    detail.update(
        env=env,
        setup_s=setup,
        solve_s=[s.seconds for s in solves],
        final_J=[s.report.final_value if s.report else None for s in solves],
        problems=[s.problems for s in solves],
    )
    metrics = {name: {"value": v, "unit": units[name]} for name, v in values.items()}
    result = {
        "correct": len(ok) == len(solves),
        "attempted": len(solves),
        "failed": len(solves) - len(ok),
        "metrics": metrics,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps({"detail": detail, "result": result}, indent=1))
    for s in solves:
        for problem in s.problems:
            print(f"perfbench: failed solve: {problem}", file=sys.stderr)
    print("perfbench " + json.dumps(detail))
    print(json.dumps(result), flush=True)


def traced_solve(inst, args):
    """One traced solve; returns it, its per-layer metrics and the span file."""
    from tracer import Tracer, consistency_problems, layer_metrics, metric_residuals

    tracer = Tracer(inst.stack.grid.dims)
    with tracer:
        solve = Solve(inst, tracer)
    layer = {}
    if solve.report is not None:
        residuals = metric_residuals(tracer, inst.workload, inst.stack.grid)
        layer = layer_metrics(tracer, solve.report, inst.workload, residuals)
        problems = consistency_problems(tracer, solve.report, inst.workload)
        for problem in problems:
            print(f"perfbench: trace inconsistent: {problem}", file=sys.stderr)
        layer["bench.trace_consistent"] = int(not problems)
    for name in sorted(tracer.missing):
        print(f"perfbench: {name} is gone; metrics that need it are absent", file=sys.stderr)
    spans_file = OUT_DIR / f"{args.workload}-seed{args.seed}-spans.json.gz"
    with gzip.open(spans_file, "wt") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "solve", "tag"],
                   "missing": sorted(tracer.missing), "spans": tracer.spans}, fh)
    return solve, layer, str(spans_file.relative_to(ROOT))


if __name__ == "__main__":
    main()
