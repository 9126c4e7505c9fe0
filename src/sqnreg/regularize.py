"""Deformation regularizers: diffusion and linear-elastic potentials.

Both act on displacement fields (not transforms), are quadratic with
symmetric positive semidefinite Hessians, and vanish on rigid shifts; the
elastic potential additionally ignores linearized rotations because it is
built from the symmetrized displacement gradient.

The groupwise regularizer is the plain sum over the per-image fields.  The
kernels slice the last three axes ``(m1, m2, 2)`` directly and accept any
leading axes, so one call serves a single field or a whole stack
``(K, m1, m2, 2)``.  Every entry sees exactly the operations of the
single-field computation, and per-field energies are summed field by field,
so stack results are bit-identical to per-field results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .accum import sorted_sum
from .errors import RegularizerError
from .grids import DisplacementField, GridSpec


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


def _divide(a: np.ndarray, h: float):
    """``a /= h`` in place; nothing is done for ``h = 1``, where division is
    the identity."""
    if h != 1.0:
        a /= h


def _diffusion_diffs(grid: GridSpec, u: np.ndarray, d1=None, d2=None):
    """Forward differences along both grid axes, divided by the spacing.

    ``d1`` and ``d2`` may give the output arrays, shaped like ``u`` with one
    entry fewer along grid axis 0 and 1 respectively.
    """
    h1, h2 = grid.spacing
    d1 = np.subtract(u[..., 1:, :, :], u[..., :-1, :, :], out=d1)
    _divide(d1, h1)
    d2 = np.subtract(u[..., :, 1:, :], u[..., :, :-1, :], out=d2)
    _divide(d2, h2)
    return d1, d2


# (first, last, all but last, all but first, inner) entries along grid axis
# 0 and 1, as used by ``_diff_adjoint``
_ADJOINT_SLICES = tuple(
    tuple(_along(axis, i) for i in (0, -1, slice(None, -1), slice(1, None), slice(1, -1)))
    for axis in (0, 1)
)


def _diff_adjoint(d: np.ndarray, axis: int, out: np.ndarray):
    """``out = D^T d`` for the forward difference ``D`` along grid ``axis``.

    Written slice by slice: ``0 - d[0]`` at the first entry, ``d[i-1] - d[i]``
    inside and ``d[-1] + 0`` at the last.  Each entry has the value, up to
    the sign of a zero, that accumulating ``-d`` and then ``+d`` into zeros
    gives, without the zero fill and the two read-modify-write passes.
    """
    first, last, head, tail, inner = _ADJOINT_SLICES[axis]
    np.subtract(0.0, d[first], out=out[first])
    np.subtract(d[head], d[tail], out=out[inner])
    np.add(d[last], 0.0, out=out[last])


def _diffusion_grad(grid: GridSpec, d1: np.ndarray, d2: np.ndarray, alpha: float,
                    out: np.ndarray, part: np.ndarray) -> np.ndarray:
    """``alpha * w`` times the adjoint differences of ``(d1, d2)``, into ``out``.

    Divides ``d1`` and ``d2`` by the spacing once more, in place.  The axis-1
    part goes through ``part`` so that each entry is rounded as
    ``part0 + part1``; ``d1`` is consumed before ``part`` is written, so the
    two may share memory.
    """
    h1, h2 = grid.spacing
    _divide(d1, h1)
    _diff_adjoint(d1, 0, out)
    _divide(d2, h2)
    _diff_adjoint(d2, 1, part)
    out += part
    out *= alpha * grid.cell_area
    return out


def _diffusion_value(grid: GridSpec, u: np.ndarray, alpha: float):
    d1, d2 = _diffusion_diffs(grid, u)
    value = _field_sums(d1**2, 3) + _field_sums(d2**2, 3)

    shape = u.shape

    def grad():
        return _diffusion_grad(grid, d1, d2, alpha, np.empty(shape), np.empty(shape))

    return 0.5 * alpha * grid.cell_area * value, _once(grad)


def _central_diff(u: np.ndarray, h: float, axis: int) -> np.ndarray:
    """Derivative along one grid axis, with the operations of ``np.gradient``:
    central differences inside, one-sided at the boundary."""
    out = np.empty_like(u)
    inner = u[_along(axis, slice(2, None))] - u[_along(axis, slice(None, -2))]
    out[_along(axis, slice(1, -1))] = inner / (2.0 * h)
    out[_along(axis, 0)] = (u[_along(axis, 1)] - u[_along(axis, 0)]) / h
    out[_along(axis, -1)] = (u[_along(axis, -1)] - u[_along(axis, -2)]) / h
    return out


def _central_diff_adjoint(v: np.ndarray, h: float, axis: int, out=None) -> np.ndarray:
    """Adjoint of ``_central_diff``, in the operation order of
    ``grids.gradient_central_adjoint``; accumulated into ``out`` (zeroed
    first) when it is given."""
    if out is None:
        out = np.zeros_like(v)
    else:
        out.fill(0.0)
    if v.shape[axis - 3] > 2:
        e = v[_along(axis, slice(1, -1))] / (2.0 * h)
        out[_along(axis, slice(2, None))] += e
        out[_along(axis, slice(None, -2))] -= e
    e = v[_along(axis, 0)] / h
    out[_along(axis, 0)] -= e
    out[_along(axis, 1)] += e
    e = v[_along(axis, -1)] / h
    out[_along(axis, -1)] += e
    out[_along(axis, -2)] -= e
    return out


def _elastic_strain(grid: GridSpec, u: np.ndarray):
    """Symmetrized displacement gradient (..., m1, m2, 2, 2) and its trace."""
    h1, h2 = grid.spacing
    # g[..., c, a] = d u_c / d x_a at cell centers
    g = np.stack([_central_diff(u, h1, 0), _central_diff(u, h2, 1)], axis=-1)
    strain = 0.5 * (g + np.swapaxes(g, -1, -2))
    return strain, np.trace(strain, axis1=-2, axis2=-1)


def _elastic_grad(grid: GridSpec, strain: np.ndarray, tr: np.ndarray, mu: float, lam: float,
                  alpha: float, out=None) -> np.ndarray:
    sens = 2.0 * mu * strain
    sens[..., 0, 0] += lam * tr
    sens[..., 1, 1] += lam * tr
    sens *= alpha * grid.cell_area
    h1, h2 = grid.spacing
    grad = _central_diff_adjoint(sens[..., 0], h1, 0, out)
    grad += _central_diff_adjoint(sens[..., 1], h2, 1)
    return grad


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


def _stack_value_grad(kind: RegKind, grid: GridSpec, u: np.ndarray):
    """Per-field values (shape ``u.shape[:-3]``) and gradients of ``u``."""
    values, grad = _stack_value_deferred(kind, grid, u)
    return values, grad()


def reg_eval(kind: RegKind, field: DisplacementField, deferred: bool = False):
    """Value and gradient of a regularizer on one displacement field.

    With ``deferred=True`` the gradient comes as a zero-argument callable
    that computes it on its first call.
    """
    value, grad = _stack_value_deferred(kind, field.grid, field.u)
    return float(value), grad if deferred else grad()


def diffusion(field: DisplacementField, alpha: float):
    return reg_eval(Diffusion(alpha=alpha), field)


def elastic(field: DisplacementField, mu: float, lam: float, alpha: float):
    return reg_eval(Elastic(mu=mu, lam=lam, alpha=alpha), field)


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


def reg_hessian_apply(kind: RegKind, grid: GridSpec, u: np.ndarray, out=None,
                      work=None) -> np.ndarray:
    """Apply the (constant) regularizer Hessian to a raw displacement array.

    ``u`` is one field (m1, m2, 2) or a stack of them (K, m1, m2, 2).  Both
    regularizers are quadratic, so the Hessian action equals the gradient
    evaluated at ``u``; the energy value is not computed.  The result goes
    to ``out`` when it is given.  For ``Diffusion``, ``work`` may give two
    scratch arrays shaped like ``u``; with ``out`` and ``work`` the action
    allocates nothing, which is what an iterative metric solve wants.
    """
    if isinstance(kind, Diffusion):
        a, b = work if work is not None else (np.empty_like(u), np.empty_like(u))
        out = np.empty_like(u) if out is None else out
        d1, d2 = _diffusion_diffs(grid, u, a[..., :-1, :, :], b[..., :, :-1, :])
        return _diffusion_grad(grid, d1, d2, kind.alpha, out, part=a)
    if isinstance(kind, Elastic):
        strain, tr = _elastic_strain(grid, u)
        return _elastic_grad(grid, strain, tr, kind.mu, kind.lam, kind.alpha, out)
    raise RegularizerError(f"unknown regularizer kind {kind!r}")
