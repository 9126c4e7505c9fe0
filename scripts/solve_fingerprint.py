"""Print a one-line fingerprint of each named benchmark solve.

Solves each named workload of ``perfbench/workloads.py`` once and prints
one line per workload: its evaluation counts, the final J as
``float.hex``, the SHA-1 of the final fields' bytes and the SHA-1 of the
per-iteration J values, and the RMS error of the recovered shifts against
the truth (``rms_shift_px`` of ``perfbench/workloads.py``) as ``float.hex``,
and the metric solves as ``solves/capped/CG iterations``.
Two checkouts whose lines agree took the same iterates bit for bit, so a
change that is meant to keep the arithmetic can be checked with one solve
per workload.  A change that is meant to move the arithmetic shows in the
``rms`` field how far the solution moved from the truth, which the
evaluation counts alone do not tell, and the ``metric`` field shows
whether a change to the metric solve changed what CG itself did.
``--seed`` picks the order in which a groupwise workload's images are
handed to the solver.  The solve orders the stack by content first, so
the seed changes only ``fields_sha1``, the fields in the caller's order.
A sequential workload keeps its chain order for every seed.

With no ``--workload``, every workload is solved, in the order of
``WORKLOADS``.  Example, from the root of a source checkout:
    python3 scripts/solve_fingerprint.py --seed 1
    python3 scripts/solve_fingerprint.py --seed 3 --workload recovery64
"""

import argparse
import hashlib
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
# the package and the workload definitions of this checkout
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from sqnreg import multilevel_solve  # noqa: E402
from workloads import WORKLOADS, build_instance, rms_shift_px  # noqa: E402


def fingerprint(workload, seed: int) -> str:
    """The fingerprint line of one solve of ``workload`` at ``seed``."""
    inst = build_instance(workload, seed)
    report = multilevel_solve(workload.spec, inst.stack, workload.opts)
    fields = np.stack([f.u for f in report.fields])
    trace = np.array([rec.value for rec in report.all_records()], dtype=float)
    return (
        f"fevals={report.fevals} gevals={report.gevals} "
        f"J={float(report.final_value).hex()} "
        f"fields_sha1={hashlib.sha1(fields.tobytes()).hexdigest()} "
        f"trace_sha1={hashlib.sha1(trace.tobytes()).hexdigest()} "
        f"rms={rms_shift_px(inst, report.fields).hex()} "
        f"metric={report.metric_solves}/{report.metric_solves_capped}/{report.metric_iterations}"
    )


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", nargs="+", choices=sorted(WORKLOADS), default=list(WORKLOADS),
                    help="workloads to solve (default: all)")
    ap.add_argument("--seed", type=int, default=1, help="image order of a groupwise workload")
    args = ap.parse_args(argv)
    for name in args.workload:
        print(f"{name} seed={args.seed} {fingerprint(WORKLOADS[name], args.seed)}", flush=True)


if __name__ == "__main__":
    main()
