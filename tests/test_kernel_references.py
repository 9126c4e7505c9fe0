"""The hot kernels against plain reference versions, bit for bit.

Each reference below is the straightforward form of a kernel that the
package writes for speed: ``np.clip`` and 2-d fancy indexing in the
bilinear sampler, ``np.gradient`` plus ``np.stack`` for central
differences, one ``np.sum`` per field, and a pair chain that pulls back
both sides of every pair.  The fast kernels must give the same bits, alone
and inside whole solves.  CG's reference takes its dots afresh from the
raveled operands on every iteration, where the solver binds flat views
once per solve.
"""

import dataclasses
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

import sqnreg.features as features
import sqnreg.grids as grids
import sqnreg.measures as measures
import sqnreg.optimize as optimize
import sqnreg.regularize as regularize
from sqnreg.accum import field_sums
from sqnreg.errors import GridError
from sqnreg.grids import GridSpec, gradient_central, gradient_central_adjoint, prolong
from sqnreg.measures import NgfPair, SsdPair, pair_chain, pair_state
from sqnreg.optimize import SolveOptions, _cg_solve, _cosine_metric
from sqnreg.regularize import Elastic, reg_hessian_apply

from conftest import rng_for, smooth_random_field, stack_of

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "solve_fingerprint.py"


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# reference kernels


def ref_sample_core(data, q1, q2, want_jac):
    m1, m2 = data.shape[-2:]
    qc1 = np.clip(q1, 0.0, m1 - 1.0)
    qc2 = np.clip(q2, 0.0, m2 - 1.0)
    i0 = np.minimum(np.floor(qc1).astype(np.intp), m1 - 2)
    j0 = np.minimum(np.floor(qc2).astype(np.intp), m2 - 2)
    t1 = qc1 - i0
    t2 = qc2 - j0
    f00 = data[..., i0, j0]
    f10 = data[..., i0 + 1, j0]
    f01 = data[..., i0, j0 + 1]
    f11 = data[..., i0 + 1, j0 + 1]
    w00 = (1.0 - t1) * (1.0 - t2)
    w10 = t1 * (1.0 - t2)
    w01 = (1.0 - t1) * t2
    w11 = t1 * t2
    val = w00 * f00 + w10 * f10 + w01 * f01 + w11 * f11
    if not want_jac:
        return val, None, None
    in1 = (q1 > 0.0) & (q1 < m1 - 1.0)
    in2 = (q2 > 0.0) & (q2 < m2 - 1.0)
    d1 = ((1.0 - t2) * (f10 - f00) + t2 * (f11 - f01)) * in1
    d2 = ((1.0 - t1) * (f01 - f00) + t1 * (f11 - f10)) * in2
    return val, d1, d2


def ref_warp_with_jacobian(img, u, want_jac=True):
    if u.shape != (*img.grid.dims, 2):
        raise GridError(f"field shape {u.shape} does not match grid dims {img.grid.dims}")
    if not np.all(np.isfinite(u)):
        raise GridError("invalid sample point")
    m1, m2 = img.grid.dims
    h1, h2 = img.grid.spacing
    q1 = np.arange(m1, dtype=float)[:, None] + u[..., 0] / h1
    q2 = np.arange(m2, dtype=float)[None, :] + u[..., 1] / h2
    val, d1, d2 = ref_sample_core(img.data, q1, q2, want_jac=want_jac)
    if not want_jac:
        return val, None
    return val, np.stack([d1 / h1, d2 / h2], axis=-1)


def ref_gradient_central(data, grid):
    return np.stack(np.gradient(data, *grid.spacing, axis=(-2, -1)), axis=-1)


def ref_grad_axis_adjoint(v, h, axis):
    v = np.moveaxis(v, axis, 0)
    out = np.zeros_like(v)
    if v.shape[0] > 2:
        out[2:] += v[1:-1] / (2.0 * h)
        out[:-2] -= v[1:-1] / (2.0 * h)
    out[0] -= v[0] / h
    out[1] += v[0] / h
    out[-1] += v[-1] / h
    out[-2] -= v[-1] / h
    return np.moveaxis(out, 0, axis)


def ref_field_sums(a, field_ndim):
    lead = a.shape[: a.ndim - field_ndim]
    blocks = a.reshape(-1, math.prod(a.shape[a.ndim - field_ndim:]))
    return np.array([np.sum(b) for b in blocks]).reshape(lead)


def ref_cg_solve(apply_b, rhs, tol, maxiter):
    x = np.zeros(rhs.shape)
    r = np.array(rhs, order="C")
    rs = float(np.dot(r.ravel(), r.ravel()))
    rhs_norm = math.sqrt(max(rs, 0.0))
    if rhs_norm == 0.0:
        return x, 0, 0.0
    p = r.copy()
    bp = np.empty(rhs.shape)
    tmp = np.empty(rhs.shape)
    iterations = 0
    while iterations < maxiter:
        apply_b(p, bp)
        denom = float(np.dot(p.ravel(), bp.ravel()))
        if denom <= 0.0:
            break
        a = rs / denom
        x += np.multiply(p, a, out=tmp)
        r -= np.multiply(bp, a, out=tmp)
        iterations += 1
        rs_new = float(np.dot(r.ravel(), r.ravel()))
        rs_prev, rs = rs, rs_new
        if math.sqrt(max(rs_new, 0.0)) <= tol * rhs_norm:
            break
        p *= rs_new / rs_prev
        p += r
    return x, iterations, math.sqrt(max(rs, 0.0)) / rhs_norm


def _ref_pair_backward(kind, grid, a, b):
    """Both cotangents ``(da, db)`` of one pair term."""
    w = grid.cell_area
    if isinstance(kind, SsdPair):
        diff = b - a
        return -w * diff, w * diff
    (ga, na), (gb, nb) = a, b
    r = np.sum(ga * gb, axis=-1) / (na * nb)
    shared = w * r[..., None]
    dga = -shared * (gb / (na * nb)[..., None] - (r / na**2)[..., None] * ga)
    dgb = -shared * (ga / (na * nb)[..., None] - (r / nb**2)[..., None] * gb)
    return gradient_central_adjoint(dga, grid), gradient_central_adjoint(dgb, grid)


def ref_pair_chain(kind, grid, states):
    """``pair_chain`` that pulls back both sides of every pair, also when
    one image's cotangent is asked for.  The value is the package's own;
    ``tests/test_measures.py`` checks it pair by pair."""
    value, _ = pair_chain(kind, grid, states)

    def all_cotangents():
        cots = [np.zeros(grid.dims) for _ in states]
        for idx in range(1, len(states)):
            da, db = _ref_pair_backward(kind, grid, states[idx - 1], states[idx])
            cots[idx - 1] += da
            cots[idx] += db
        return cots

    def cotangents(pos=None):
        return all_cotangents() if pos is None else all_cotangents()[pos]

    return value, cotangents


# ---------------------------------------------------------------------------
# each kernel on its own


def _sample_points(rng, shape, m1, m2):
    """Fractional index points: inside, clamped beyond both ends, exactly on
    the clamp bounds (signed zeros included) and on grid nodes."""
    q1 = rng.uniform(-2.0, m1 + 1.0, size=shape)
    q2 = rng.uniform(-2.0, m2 + 1.0, size=shape)
    q1.flat[:6] = [0.0, -0.0, m1 - 1.0, m1 - 2.0, 1.0, -3.5]
    q2.flat[:6] = [-0.0, 0.0, m2 - 1.0, 3.0, m2 + 0.25, m2 - 1.0]
    q1.flat[6:12] = np.arange(6) % m1
    q2.flat[6:12] = (np.arange(6) * 3) % m2
    return q1, q2


@pytest.mark.parametrize("lead", [(), (3,), (2, 2)])
@pytest.mark.parametrize("want_jac", [True, False])
def test_sample_core_matches_reference(lead, want_jac):
    rng = rng_for(101)
    m1, m2 = 7, 5
    data = rng.standard_normal((*lead, m1, m2))
    q1, q2 = _sample_points(rng, (6, 9), m1, m2)
    got = grids._sample_core(data, q1, q2, want_jac)
    want = ref_sample_core(data, q1, q2, want_jac)
    for g, w in zip(got, want):
        if w is None:
            assert g is None
        else:
            assert_same_bits(g, w)


def test_sample_core_matches_reference_on_prolong_data():
    # prolong samples the field components as a non-contiguous leading axis
    rng = rng_for(102)
    coarse = GridSpec((6, 5), spacing=(0.4, 0.3))
    fine = GridSpec((12, 10), spacing=(0.2, 0.15))
    u = rng.standard_normal((3, *coarse.dims, 2))
    pts = fine.cell_centers()
    q1 = pts[..., 0] / coarse.spacing[0] - 0.5
    q2 = pts[..., 1] / coarse.spacing[1] - 0.5
    data = np.moveaxis(u, -1, -3)
    assert not data.flags.c_contiguous
    got = grids._sample_core(data, q1, q2, want_jac=False)[0]
    assert_same_bits(got, ref_sample_core(data, q1, q2, want_jac=False)[0])
    want = np.ascontiguousarray(np.moveaxis(got, -3, -1))
    assert_same_bits(prolong(u, coarse, fine), want)


@pytest.mark.parametrize("amplitude", [0.0, 0.3, 4.0])
def test_warp_matches_reference(amplitude):
    # zero, small and clamping displacements, at non-unit spacing
    rng = rng_for(103)
    grid = GridSpec((9, 6), spacing=(0.5, 0.25))
    img = stack_of(grid, [rng.uniform(size=grid.dims)] * 2)[0]
    u = smooth_random_field(grid, rng, amplitude).u
    for want_jac in (True, False):
        got = grids.warp_with_jacobian(img, u, want_jac)
        want = ref_warp_with_jacobian(img, u, want_jac)
        assert_same_bits(got[0], want[0])
        if want_jac:
            assert_same_bits(got[1], want[1])
        else:
            assert got[1] is None


@pytest.mark.parametrize("lead", [(), (4,), (2, 3)])
@pytest.mark.parametrize("dims", [(2, 3), (7, 5), (16, 16)])
def test_gradient_central_matches_reference(lead, dims):
    grid = GridSpec(dims, spacing=(0.3, 1.7))
    data = rng_for(104).standard_normal((*lead, *dims))
    assert_same_bits(gradient_central(data, grid), ref_gradient_central(data, grid))


@pytest.mark.parametrize("axis", [0, 1, -1, -2])
def test_grad_axis_adjoint_matches_reference(axis):
    for m in (2, 3, 8):
        v = rng_for(105).standard_normal((m, m + 1, 2))
        assert_same_bits(grids.grad_axis_adjoint(v, 0.7, axis), ref_grad_axis_adjoint(v, 0.7, axis))


@pytest.mark.parametrize("shape,field_ndim", [
    ((3, 7, 5, 2), 3), ((5, 9, 11), 2), ((1, 13, 3), 2), ((4, 3, 2), 1),
    ((7, 33, 17, 2), 3), ((2, 64, 64, 2), 3), ((3, 129, 65, 2), 3), ((11, 13), 2),
])
def test_field_sums_matches_reference(shape, field_ndim):
    a = rng_for(106).standard_normal(shape) ** 2
    assert_same_bits(field_sums(a, field_ndim), ref_field_sums(a, field_ndim))


def test_cg_solve_matches_reference_on_a_diagonal_system():
    # the cosine-basis metric solve: one diagonal, CG's (1, 2, m, m) shape
    grid = GridSpec((12, 12), spacing=(0.1, 0.1))
    _, _, lam = _cosine_metric(regularize.Diffusion(alpha=1e-2), grid, 1e-8)
    full = np.ascontiguousarray(np.broadcast_to(lam, (1, 2, *lam.shape)))

    def apply_lam(p, bp):
        np.multiply(p, full, out=bp)

    rhs = np.abs(rng_for(107).standard_normal((1, 2, *grid.dims)))
    for tol, maxiter in ((1e-10, 200), (1e-10, 7), (1e-3, 200)):
        got = _cg_solve(apply_lam, rhs, tol, maxiter)
        want = ref_cg_solve(apply_lam, rhs, tol, maxiter)
        assert_same_bits(got[0], want[0])
        assert got[1:] == want[1:]


def test_cg_solve_matches_reference_with_the_elastic_operator():
    grid = GridSpec((10, 10), spacing=(0.1, 0.1))
    reg = Elastic(mu=1.0, lam=0.5, alpha=1e-2)
    eps = SolveOptions().metric_eps_rel * reg.alpha

    def apply_b(p, bp):
        reg_hessian_apply(reg, grid, p, bp)
        bp += eps * p

    rhs = rng_for(108).standard_normal((3, *grid.dims, 2))
    for maxiter in (200, 9):
        got = _cg_solve(apply_b, rhs, 1e-10, maxiter)
        want = ref_cg_solve(apply_b, rhs, 1e-10, maxiter)
        assert_same_bits(got[0], want[0])
        assert got[1:] == want[1:]


@pytest.mark.parametrize("kind", [NgfPair(eta_pt=1e-2), SsdPair()], ids=["ngf", "ssd"])
def test_one_image_cotangent_matches_the_whole_chain(kind):
    rng = rng_for(109)
    grid = GridSpec((9, 8), spacing=(0.125, 0.125))
    states = [pair_state(kind, grid, rng.uniform(size=grid.dims)) for _ in range(4)]
    _, cotangents = pair_chain(kind, grid, states)
    _, ref_cotangents = ref_pair_chain(kind, grid, states)
    every = cotangents()
    for got, want in zip(every, ref_cotangents()):
        assert_same_bits(got, want)
    for pos in (0, 1, len(states) - 1):
        assert_same_bits(cotangents(pos), every[pos])


# ---------------------------------------------------------------------------
# whole solves with the reference kernels patched in


REFERENCE_SITES = [
    (grids, "_sample_core", ref_sample_core),
    (grids, "warp_with_jacobian", ref_warp_with_jacobian),
    (features, "warp_with_jacobian", ref_warp_with_jacobian),
    (features, "gradient_central", ref_gradient_central),
    (measures, "gradient_central", ref_gradient_central),
    (grids, "grad_axis_adjoint", ref_grad_axis_adjoint),
    (regularize, "grad_axis_adjoint", ref_grad_axis_adjoint),
    (features, "field_sums", ref_field_sums),
    (regularize, "field_sums", ref_field_sums),
    (optimize, "_cg_solve", ref_cg_solve),
    (optimize, "pair_chain", ref_pair_chain),
]


@pytest.fixture(scope="module")
def fingerprint_script():
    spec = importlib.util.spec_from_file_location("solve_fingerprint", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_solve_fingerprints_are_unchanged_by_the_reference_kernels(fingerprint_script,
                                                                   monkeypatch):
    # tiny two-level instances, so the prolongation runs too; both sides run
    # here, on the same BLAS
    workloads = [
        dataclasses.replace(workload, k=3, dims=(16, 16), shift=2.0,
                            opts=SolveOptions(levels=2, maxiter=3, gtol=1e-6))
        for workload in fingerprint_script.WORKLOADS.values()
    ]
    fast = [fingerprint_script.fingerprint(workload, 2) for workload in workloads]
    called = set()

    def counted(site, ref):
        def wrapper(*args, **kwargs):
            called.add(site)
            return ref(*args, **kwargs)

        return wrapper

    for module, attr, ref in REFERENCE_SITES:
        monkeypatch.setattr(module, attr, counted(f"{module.__name__}.{attr}", ref))
    assert [fingerprint_script.fingerprint(workload, 2) for workload in workloads] == fast
    # every reference took part, so no site is one the package no longer reads
    assert called == {f"{module.__name__}.{attr}" for module, attr, _ in REFERENCE_SITES}
