"""Deformation regularizers: diffusion and linear-elastic potentials.

Both act on displacement fields (not transforms), are quadratic with
symmetric positive semidefinite Hessians, and vanish on rigid shifts; the
elastic potential additionally ignores linearized rotations because it is
built from the symmetrized displacement gradient.

The groupwise regularizer is the plain sum over the per-image fields.  The
kernels act on the last three axes ``(m1, m2, 2)`` and accept any leading
axes, so one call serves a single field or a whole stack
``(K, m1, m2, 2)``.  Every entry sees exactly the operations of the
single-field computation, and per-field energies are summed field by field,
so stack results are bit-identical to per-field results.

The diffusion value, its deferred gradient and the Hessian action share one
flat stencil.  On the C-ordered buffer of the whole stack, grid neighbors
along axis 0 are ``2 * m2`` entries apart and along axis 1 two entries, so
each forward difference, and the inner part of each adjoint difference, is
one contiguous pass over the flat buffer shifted by that many entries.  A
difference whose neighbor lies in the next row or the next field (the last
row or last column of a field) is scratch: the values are summed over views
that leave it out, and where the adjoint pass reads it, it writes the first
or last row or column, which are then overwritten slice by slice.  So every
result entry is computed from the same operands by the same operations in
the same order as in the per-field slicing code, and the bits are equal.
The stencil is built as lists of ``(ufunc, x, y, out)`` calls on views of
the flat buffers (``_diff_ops``, ``_grad_ops``).  The value and the
gradient run their list once; ``hessian_plan`` binds both lists once to an
iterative solver's buffers and reruns them on every call.
The elastic kernels take their central differences with ``np.gradient``,
as ``grids.gradient_central`` does, and the adjoint with
``grids.grad_axis_adjoint``; the field axes are batch axes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .accum import sorted_sum
from .errors import RegularizerError
from .grids import DisplacementField, GridSpec, grad_axis_adjoint


@dataclass(frozen=True)
class Diffusion:
    """Dirichlet energy of the displacement, weight ``alpha``."""

    alpha: float = 1e-2

    def __post_init__(self):
        if not np.isfinite(self.alpha) or self.alpha <= 0:
            raise RegularizerError(f"alpha must be positive, got {self.alpha}")


@dataclass(frozen=True)
class Elastic:
    """Linear-elastic potential of the symmetrized displacement gradient."""

    mu: float = 1.0
    lam: float = 0.0
    alpha: float = 1e-2

    def __post_init__(self):
        if not np.isfinite(self.mu) or self.mu <= 0:
            raise RegularizerError(f"mu must be positive, got {self.mu}")
        if not np.isfinite(self.lam) or self.lam < 0:
            raise RegularizerError(f"lam must be nonnegative, got {self.lam}")
        if not np.isfinite(self.alpha) or self.alpha <= 0:
            raise RegularizerError(f"alpha must be positive, got {self.alpha}")


RegKind = Diffusion | Elastic


def _along(axis: int, index) -> tuple:
    """Index ``index`` along grid axis 0 or 1 of an array (..., m1, m2, 2)."""
    if axis == 0:
        return (..., index, slice(None), slice(None))
    return (..., index, slice(None))


def _field_sums(a: np.ndarray, field_ndim: int) -> np.ndarray:
    """Sums over the last ``field_ndim`` axes, one per field.

    Every field's block is contiguous and summed on its own, so each sum
    rounds exactly like ``np.sum`` on that field alone.
    """
    lead = a.shape[: a.ndim - field_ndim]
    blocks = a.reshape(-1, math.prod(a.shape[a.ndim - field_ndim :]))
    return np.array([np.sum(b) for b in blocks]).reshape(lead)


def _once(fn):
    """A zero-argument callable that runs ``fn`` on its first call, returns
    that result on every call and then lets go of ``fn``'s state."""
    result = None

    def call():
        nonlocal fn, result
        if fn is not None:
            result, fn = fn(), None
        return result

    return call


def _run(ops):
    """Run the ``(ufunc, x, y, out)`` calls of a stencil builder in order."""
    for ufunc, x, y, out in ops:
        ufunc(x, y, out)


def _divide_ops(a: np.ndarray, h: float) -> list:
    """The calls of ``a /= h`` in place: none for ``h = 1``, where division
    is the identity."""
    return [] if h == 1.0 else [(np.divide, a, h, a)]


def _step(shape: tuple, axis: int) -> int:
    """Entries between grid neighbors along ``axis`` in a C-ordered buffer of
    ``shape`` (..., m1, m2, 2)."""
    return 2 * shape[-2] if axis == 0 else 2


def _diff_ops(grid: GridSpec, shape: tuple, uf: np.ndarray, d1: np.ndarray,
              d2: np.ndarray) -> list:
    """The calls that write the forward differences of the flat buffer
    ``uf`` of ``shape``, divided by the spacing, into the flat buffers ``d1``
    and ``d2``.

    One contiguous pass per grid axis: ``d[p] = u[p + step] - u[p]``.  Entries
    in the last row (``d1``) or last column (``d2``) of a field straddle a
    field or row boundary and are scratch; the final ``step`` entries are
    not written at all.
    """
    ops = []
    for axis, d in enumerate((d1, d2)):
        step = _step(shape, axis)
        ops.append((np.subtract, uf[step:], uf[:-step], d[:-step]))
        ops += _divide_ops(d[:-step], grid.spacing[axis])
    return ops


def _diff_adjoint_ops(df: np.ndarray, axis: int, shape: tuple, out: np.ndarray) -> list:
    """The calls of ``out = D^T d`` for the forward difference ``D`` along
    grid ``axis``.

    ``df`` and ``out`` are flat buffers of ``shape``, and ``df`` is laid out
    as ``_diff_ops`` writes it.  Inside, ``d[i-1] - d[i]`` is one
    contiguous pass that reads only written entries; where it reads scratch
    it lands on the first or last entry along ``axis``, which are then
    written slice by slice as ``0 - d[0]`` and ``d[-1] + 0``.  Each entry has
    the value, up to the sign of a zero, that accumulating ``-d`` and then
    ``+d`` into zeros gives.
    """
    step, n = _step(shape, axis), df.size
    d, o = df.reshape(shape), out.reshape(shape)
    return [
        (np.subtract, df[: n - 2 * step], df[step : n - step], out[step : n - step]),
        (np.subtract, 0.0, d[_along(axis, 0)], o[_along(axis, 0)]),
        (np.add, d[_along(axis, -2)], 0.0, o[_along(axis, -1)]),
    ]


def _grad_ops(grid: GridSpec, shape: tuple, d1: np.ndarray, d2: np.ndarray,
              alpha: float, out: np.ndarray, part: np.ndarray) -> list:
    """The calls that write ``alpha * w`` times the adjoint differences of
    ``(d1, d2)`` into ``out``.

    All four are flat buffers of ``shape``.  The calls divide the written
    entries of ``d1`` and ``d2`` by the spacing once more, in place.  The
    axis-1 part goes through ``part`` so that each entry is rounded as
    ``part0 + part1``; ``d1`` is consumed before ``part`` is written, so the
    two may share memory.
    """
    ops = []
    for axis, (d, adjoint) in enumerate(((d1, out), (d2, part))):
        ops += _divide_ops(d[: -_step(shape, axis)], grid.spacing[axis])
        ops += _diff_adjoint_ops(d, axis, shape, adjoint)
    ops.append((np.add, out, part, out))
    ops.append((np.multiply, out, alpha * grid.cell_area, out))
    return ops


def _diffusion_value(grid: GridSpec, u: np.ndarray, alpha: float):
    u = np.ascontiguousarray(u)
    shape, uf = u.shape, u.reshape(-1)
    d1, d2 = np.empty_like(uf), np.empty_like(uf)
    _run(_diff_ops(grid, shape, uf, d1, d2))
    # squares of the entries that are not scratch, each field's block in the
    # order of a single-field array
    value = (_field_sums(d1.reshape(shape)[..., :-1, :, :] ** 2, 3)
             + _field_sums(d2.reshape(shape)[..., :-1, :] ** 2, 3))

    def grad():
        # not ``empty_like(u)``: the closure would keep ``u`` alive with the
        # differences of every trial the line search holds
        out = np.empty(shape)
        _run(_grad_ops(grid, shape, d1, d2, alpha, out.reshape(-1), part=d1))
        return out

    return 0.5 * alpha * grid.cell_area * value, _once(grad)


def _elastic_strain(grid: GridSpec, u: np.ndarray):
    """Symmetrized displacement gradient (..., m1, m2, 2, 2) and its trace."""
    h1, h2 = grid.spacing
    # g[..., c, a] = d u_c / d x_a at cell centers
    g = np.stack([np.gradient(u, h1, axis=-3), np.gradient(u, h2, axis=-2)], axis=-1)
    strain = 0.5 * (g + np.swapaxes(g, -1, -2))
    return strain, np.trace(strain, axis1=-2, axis2=-1)


def _elastic_grad(grid: GridSpec, strain: np.ndarray, tr: np.ndarray, mu: float, lam: float,
                  alpha: float, out=None) -> np.ndarray:
    sens = 2.0 * mu * strain
    sens[..., 0, 0] += lam * tr
    sens[..., 1, 1] += lam * tr
    sens *= alpha * grid.cell_area
    h1, h2 = grid.spacing
    return np.add(grad_axis_adjoint(sens[..., 0], h1, -3),
                  grad_axis_adjoint(sens[..., 1], h2, -2), out=out)


def _elastic_value(grid: GridSpec, u: np.ndarray, mu: float, lam: float, alpha: float):
    strain, tr = _elastic_strain(grid, u)
    density = mu * np.sum(strain**2, axis=(-2, -1)) + 0.5 * lam * tr**2
    value = alpha * grid.cell_area * _field_sums(density, 2)
    return value, _once(lambda: _elastic_grad(grid, strain, tr, mu, lam, alpha))


def _stack_value_deferred(kind: RegKind, grid: GridSpec, u: np.ndarray):
    """Per-field values (shape ``u.shape[:-3]``) and a zero-argument callable
    for the gradients of ``u``, which reuses the differences of the value."""
    if isinstance(kind, Diffusion):
        return _diffusion_value(grid, u, kind.alpha)
    if isinstance(kind, Elastic):
        return _elastic_value(grid, u, kind.mu, kind.lam, kind.alpha)
    raise RegularizerError(f"unknown regularizer kind {kind!r}")


def reg_eval(kind: RegKind, field: DisplacementField, deferred: bool = False):
    """Value and gradient of a regularizer on one displacement field.

    With ``deferred=True`` the gradient comes as a zero-argument callable
    that computes it on its first call.
    """
    value, grad = _stack_value_deferred(kind, field.grid, field.u)
    return float(value), grad if deferred else grad()


def reg_glo(fields, kind: RegKind, deferred: bool = False):
    """Sum of the regularizer over all fields of a stack.

    Returns ``(value, grads)`` with ``grads`` stacked along axis 0, or with
    a zero-argument callable for them when ``deferred`` is true.  The value
    is accumulated order-canonically, so it is exactly invariant under
    permutations of the stack.
    """
    fields = list(fields)
    grid = fields[0].grid
    if any(f.grid != grid for f in fields):
        raise RegularizerError("all fields of a stack must share one grid")
    values, grads = _stack_value_deferred(kind, grid, np.stack([f.u for f in fields]))
    return sorted_sum(values), grads if deferred else grads()


def _flat(a: np.ndarray, shape: tuple, name: str) -> np.ndarray:
    """A flat view of the caller's buffer ``a``; a plan reads or writes it in
    place, so it must have ``shape`` and be C-contiguous (no copy is made)."""
    if a.shape != shape:
        raise RegularizerError(f"{name} has shape {a.shape}, expected {shape}")
    if not a.flags.c_contiguous:
        raise RegularizerError(f"{name} must be C-contiguous")
    return a.reshape(-1)


def hessian_plan(kind: RegKind, grid: GridSpec, u: np.ndarray, out: np.ndarray,
                 work=None):
    """The Hessian action ``out = H u``, bound once to the caller's buffers.

    ``u`` is one field (m1, m2, 2) or a stack of them (K, m1, m2, 2) on
    ``grid``; ``out`` has its shape.  Returns a zero-argument callable that
    writes ``H u`` into ``out`` from ``u``'s current entries, so an iterative
    solver that updates ``u`` in place binds the action once and calls it
    on every iteration.  For ``Diffusion`` every flat view, boundary slice,
    step and scratch array of the stencil is bound here, and a call runs the
    fixed list of ufunc calls that the value and gradient run, in the same
    order; ``work`` may give the two scratch arrays, shaped like ``u``, which
    are allocated otherwise.  ``Elastic`` binds its gradient kernel and
    ignores ``work``.  ``u``, ``out`` and ``work`` are read and written in
    place, so they must have ``u``'s shape and be C-contiguous.
    """
    shape = u.shape
    if shape[-3:] != (*grid.dims, 2):
        raise RegularizerError(f"u has shape {shape}, expected (..., {grid.dims[0]}, "
                               f"{grid.dims[1]}, 2)")
    uf, flat_out = _flat(u, shape, "u"), _flat(out, shape, "out")
    if isinstance(kind, Diffusion):
        if work is None:
            work = (np.empty(shape), np.empty(shape))
        d1, d2 = (_flat(w, shape, f"work[{i}]") for i, w in enumerate(work))
        ops = (_diff_ops(grid, shape, uf, d1, d2)
               + _grad_ops(grid, shape, d1, d2, kind.alpha, flat_out, part=d1))
        return partial(_run, ops)
    if isinstance(kind, Elastic):
        return lambda: _elastic_grad(grid, *_elastic_strain(grid, u), kind.mu, kind.lam,
                                     kind.alpha, out)
    raise RegularizerError(f"unknown regularizer kind {kind!r}")


def reg_hessian_apply(kind: RegKind, grid: GridSpec, u: np.ndarray) -> np.ndarray:
    """Apply the (constant) regularizer Hessian to a raw displacement array.

    ``u`` is one field (m1, m2, 2) or a stack of them (K, m1, m2, 2); a
    non-contiguous ``u`` is copied once.  Both regularizers are quadratic,
    so the Hessian action equals the gradient evaluated at ``u``; the energy
    value is not computed.  This is ``hessian_plan`` bound once and run once
    into a new array; the metric solve binds its own plan instead.
    """
    u = np.ascontiguousarray(u)
    out = np.empty_like(u)
    hessian_plan(kind, grid, u, out)()
    return out
