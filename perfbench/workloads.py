"""The benchmark's workloads and the checks on their solutions.

Every workload is one fixed synthetic instance (``synth_stack`` with the
instance seed below) solved by ``multilevel_solve``.  The ``--seed`` of a
run picks the order in which the images of a groupwise instance are handed
to the solver.  Groupwise solves are bit-exactly equivariant under that
reordering, so the seed changes the input without changing the problem,
and every seed reports the same fevals, J and shift error.  Sequential
registration depends on the chain order, and no reordering or mirroring
leaves it unchanged, so ``sequential64`` keeps its instance order for every
seed.  README.md says why each workload exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from sqnreg import (
    Diffusion,
    Elastic,
    NgfPair,
    ObjectiveSpec,
    SchattenQ,
    SolveOptions,
    measure_eval,
    objective,
    synth_stack,
    zero_field,
)

MAX_RMS_SHIFT_PX = 0.5


@dataclass(frozen=True)
class Workload:
    instance_seed: int
    k: int
    dims: tuple[int, int]
    shift: float
    spec: ObjectiveSpec
    opts: SolveOptions

    @property
    def groupwise(self) -> bool:
        return self.spec.mode == "groupwise"

    @property
    def j_lower_bound(self) -> float:
        """A value J cannot reach, so that ``J - bound`` is positive.

        SchattenQ(4) is ``K - sum sigma^4`` with ``sum sigma^2 < K`` (every
        NGF column has weighted norm below one), and both regularizers are
        nonnegative, so groupwise J exceeds ``K - K^2``.  The pairwise NGF
        distance and the regularizer are nonnegative, so sequential J
        exceeds 0.
        """
        return float(self.k - self.k**2) if self.groupwise else 0.0


_SQN_DIFFUSION = ObjectiveSpec(SchattenQ(q=4.0), Diffusion(alpha=1e-2))

WORKLOADS = {
    "recovery64": Workload(
        12, 8, (64, 64), 5.0, _SQN_DIFFUSION,
        SolveOptions(levels=3, maxiter=40, gtol=1e-6),
    ),
    "wide32": Workload(
        5, 32, (32, 32), 3.0, _SQN_DIFFUSION,
        SolveOptions(levels=2, maxiter=20, gtol=1e-6),
    ),
    "sequential64": Workload(
        12, 8, (64, 64), 5.0,
        ObjectiveSpec(NgfPair(eta_pt=1e-2), Diffusion(alpha=1e-2), mode="sequential"),
        SolveOptions(levels=1, maxiter=30, gtol=1e-6, sweeps=1),
    ),
    "elastic32": Workload(
        12, 8, (32, 32), 3.0,
        ObjectiveSpec(SchattenQ(q=4.0), Elastic(mu=1.0, lam=0.0, alpha=1e-2)),
        SolveOptions(levels=2, maxiter=20, gtol=1e-6),
    ),
}


@dataclass(frozen=True)
class Instance:
    workload: Workload
    stack: object  # the ImageStack handed to the solver
    truths: list  # ground-truth fields, in instance order
    order: list[int]  # order[i] = instance index of the solver's image i
    mask: np.ndarray  # disk mask of the unshifted scene


def build_instance(workload: Workload, seed: int) -> Instance:
    stack, truths = synth_stack(
        workload.instance_seed, workload.k, "shifted_disks", workload.shift,
        dims=workload.dims,
    )
    # image 0 of a shifted_disks stack is the unshifted scene
    mask = stack[0].data > 0.25
    order = list(range(workload.k))
    if workload.groupwise:
        order = [int(i) for i in np.random.default_rng(seed).permutation(workload.k)]
    return Instance(
        workload,
        stack.permuted(order),
        truths,
        order,
        mask,
    )


def rms_shift_px(inst: Instance, fields) -> float:
    """RMS error of the relative mean shift over the disk mask.

    The same formula as ``rms_relative_shift_error`` in the acceptance
    tests, taken in instance order so that it does not depend on the seed.
    """
    unpermuted = [None] * len(fields)
    for pos, idx in enumerate(inst.order):
        unpermuted[idx] = fields[pos]
    est = np.stack([f.u[inst.mask].mean(axis=0) for f in unpermuted])
    tru = np.stack([t.u[inst.mask].mean(axis=0) for t in inst.truths])
    est -= est.mean(axis=0)
    tru -= tru.mean(axis=0)
    per_image = np.linalg.norm(est - tru, axis=1)
    return float(np.sqrt(np.mean(per_image**2)))


def _runs(report):
    """Records split into per-L-BFGS runs (the iteration count resets to 0)."""
    run = []
    for rec in report.all_records():
        if rec.iteration == 0 and run:
            yield run
            run = []
        run.append(rec)
    if run:
        yield run


def check_solution(inst: Instance, report) -> list[str]:
    """Reasons the solve failed; empty when it passed every output check."""
    problems = []
    if not math.isfinite(report.final_value):
        problems.append(f"non-finite final J {report.final_value!r}")
    if not all(np.all(np.isfinite(f.u)) for f in report.fields):
        problems.append("non-finite displacement field")
    for run in _runs(report):
        for prev, cur in zip(run, run[1:]):
            if not cur.value < prev.value:
                problems.append(
                    f"descent not monotone at level {cur.level} component "
                    f"{cur.component} iteration {cur.iteration}: {prev.value!r} -> {cur.value!r}"
                )
                break
    spec = inst.workload.spec
    if inst.workload.groupwise:
        rms = rms_shift_px(inst, report.fields)
        if not rms <= MAX_RMS_SHIFT_PX:
            problems.append(f"RMS shift error {rms:.4f} px above {MAX_RMS_SHIFT_PX}")
    else:
        zero = [zero_field(inst.stack.grid) for _ in range(inst.stack.k)]
        if not objective(spec, inst.stack, report.fields)[0] < objective(spec, inst.stack, zero)[0]:
            problems.append("sequential J did not decrease")
        d0 = measure_eval(inst.stack, zero, spec.measure).value
        d1 = measure_eval(inst.stack, report.fields, spec.measure).value
        if not d1 < d0:
            problems.append("pairwise NGF distance did not decrease")
    return problems
