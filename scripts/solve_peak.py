"""Print the traced memory peak of one benchmark solve per workload.

Solves and checks each named workload of ``perfbench/workloads.py`` twice,
in a child process: once to warm up (caches, NumPy's first allocations),
then once under ``tracemalloc``.  Prints one line per workload: the peak of the
memory traced during the second solve, what is still traced when it returns
(the report and its fields), and the peak traced while
``workloads.check_solution`` then checks that report, all in KiB.  The
reading covers one solve only, unlike the process RSS that
``perfbench/run.py`` reports, which also grows with every solve report a
run keeps.  ``perfbench/run.py`` runs the same check after its timed solves,
so a check that peaks above the solve sets that process maximum.

With no ``--workload``, every workload is solved, in the order of
``WORKLOADS``.  Example, from the root of a source checkout:
    python3 scripts/solve_peak.py --seed 1
    python3 scripts/solve_peak.py --seed 3 --workload recovery64
"""

import argparse
import multiprocessing
import sys
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# the package and the workload definitions of this checkout
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from sqnreg import multilevel_solve  # noqa: E402
from workloads import WORKLOADS, build_instance, check_solution  # noqa: E402


def _traced_solve(workload, seed: int, out) -> None:
    inst = build_instance(workload, seed)
    check_solution(inst, multilevel_solve(workload.spec, inst.stack, workload.opts))
    tracemalloc.start()
    report = multilevel_solve(workload.spec, inst.stack, workload.opts)
    # read while the report is alive, so that ``retained`` counts it
    retained, peak = tracemalloc.get_traced_memory()
    tracemalloc.reset_peak()
    check_solution(inst, report)
    check = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    out.send(f"peak_kib={peak // 1024} retained_kib={retained // 1024} check_kib={check // 1024}")


def solve_peak(workload, seed: int) -> str:
    """The memory line of one solve of ``workload`` at ``seed``, after a
    warm-up solve, and of the check of its report.

    Both solves run in a child process started with ``spawn``.  Every call
    therefore starts from a fresh interpreter; in one process, Python's free
    lists and caches shift the reading by a few hundred bytes from solve to
    solve.
    """
    ctx = multiprocessing.get_context("spawn")
    recv, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_traced_solve, args=(workload, seed, send))
    child.start()
    send.close()  # a child that fails then ends the pipe
    with recv:
        try:
            line = recv.recv()
        except EOFError:
            line = None
    child.join()
    if line is None:
        raise RuntimeError(f"the solve failed: child exit status {child.exitcode}")
    return line


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", nargs="+", choices=sorted(WORKLOADS), default=list(WORKLOADS),
                    help="workloads to solve (default: all)")
    ap.add_argument("--seed", type=int, default=1, help="image order of a groupwise workload")
    args = ap.parse_args(argv)
    for name in args.workload:
        print(f"{name} seed={args.seed} {solve_peak(WORKLOADS[name], args.seed)}", flush=True)


if __name__ == "__main__":
    main()
