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

The diffusion value divides the forward differences along each grid axis
(``np.diff``) by the spacing.  Its deferred gradient divides them once more
and applies the adjoint difference with three slices per axis
(``_diff_adjoint``).
The elastic kernels take their central differences with ``np.gradient``,
as ``grids.gradient_central`` does, and the adjoint with
``grids.grad_axis_adjoint``; the field axes are batch axes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .accum import field_sums
from .errors import RegularizerError, check_real
from .grids import GridSpec, grad_axis_adjoint


@dataclass(frozen=True)
class Diffusion:
    """Dirichlet energy of the displacement, weight ``alpha``."""

    alpha: float = 1e-2

    def __post_init__(self):
        check_real(self.alpha, RegularizerError, "alpha must be positive")


@dataclass(frozen=True)
class Elastic:
    """Linear-elastic potential of the symmetrized displacement gradient."""

    mu: float = 1.0
    lam: float = 0.0
    alpha: float = 1e-2

    def __post_init__(self):
        check_real(self.mu, RegularizerError, "mu must be positive")
        check_real(self.lam, RegularizerError, "lam must be nonnegative", closed=True)
        check_real(self.alpha, RegularizerError, "alpha must be positive")


RegKind = Diffusion | Elastic


def once(fn):
    """A zero-argument callable that runs ``fn`` on its first call, returns
    that result on every call and then lets go of ``fn``'s state: the one
    guard of every deferred gradient in the package."""
    result = None

    def call():
        nonlocal fn, result
        if fn is not None:
            result, fn = fn(), None
        return result

    return call


def _diff_adjoint(d: np.ndarray, axis: int, out: np.ndarray) -> np.ndarray:
    """``out = D^T d`` for the forward difference ``D`` along ``axis``.

    Inside ``d[i-1] - d[i]``, at the ends ``0 - d[0]`` and ``d[-1] + 0``:
    each entry has the value, up to the sign of a zero, that accumulating
    ``-d`` and then ``+d`` into zeros gives.
    """
    d, o = np.moveaxis(d, axis, 0), np.moveaxis(out, axis, 0)
    np.subtract(d[:-1], d[1:], out=o[1:-1])
    np.subtract(0.0, d[0], out=o[0])
    np.add(d[-1], 0.0, out=o[-1])
    return out


def _diffusion_value(grid: GridSpec, u: np.ndarray, alpha: float):
    shape, (h1, h2) = u.shape, grid.spacing
    d1, d2 = np.diff(u, axis=-3), np.diff(u, axis=-2)
    d1 /= h1
    d2 /= h2
    value = field_sums(d1**2, 3) + field_sums(d2**2, 3)

    def grad():
        # not ``empty_like(u)``: the closure would keep ``u`` alive with the
        # differences of every trial the line search holds
        out, part = np.empty(shape), np.empty(shape)
        np.divide(d1, h1, out=d1)
        np.divide(d2, h2, out=d2)
        np.add(_diff_adjoint(d1, -3, out), _diff_adjoint(d2, -2, part), out=out)
        return np.multiply(out, alpha * grid.cell_area, out=out)

    return 0.5 * alpha * grid.cell_area * value, once(grad)


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
    value = alpha * grid.cell_area * field_sums(density, 2)
    return value, once(lambda: _elastic_grad(grid, strain, tr, mu, lam, alpha))


def _check_shape(grid: GridSpec, u: np.ndarray):
    if u.shape[-3:] != (*grid.dims, 2):
        raise RegularizerError(f"u has shape {u.shape}, expected (..., {grid.dims[0]}, "
                               f"{grid.dims[1]}, 2)")


def _stack_value_deferred(kind: RegKind, grid: GridSpec, u: np.ndarray):
    """Per-field values (shape ``u.shape[:-3]``) and a zero-argument callable
    for the gradients of ``u``, which reuses the differences of the value."""
    _check_shape(grid, u)
    if isinstance(kind, Diffusion):
        return _diffusion_value(grid, u, kind.alpha)
    if isinstance(kind, Elastic):
        return _elastic_value(grid, u, kind.mu, kind.lam, kind.alpha)
    raise RegularizerError(f"unknown regularizer kind {kind!r}")


def reg_eval(kind: RegKind, grid: GridSpec, u: np.ndarray):
    """Value and gradient of a regularizer on one field ``u`` (m1, m2, 2).

    Returns ``(value, gradient)``, where ``gradient`` is a zero-argument
    callable that computes the gradient on its first call.
    """
    value, grad = _stack_value_deferred(kind, grid, u)
    return float(value), grad


def reg_glo(kind: RegKind, grid: GridSpec, u: np.ndarray):
    """Sum of the regularizer over the fields of a stack ``u`` (K, m1, m2, 2).

    Returns ``(value, gradient)``, where ``gradient`` is a zero-argument
    callable that computes the (K, m1, m2, 2) gradients on its first call.
    """
    values, grads = _stack_value_deferred(kind, grid, u)
    return float(np.sum(values)), grads


def reg_hessian_apply(kind: RegKind, grid: GridSpec, u: np.ndarray, out=None) -> np.ndarray:
    """Apply the (constant) regularizer Hessian to a raw displacement array.

    ``u`` is one field (m1, m2, 2) or a stack of them (K, m1, m2, 2);
    ``H u`` is written into ``out`` if it is given, an array of ``u``'s
    shape.  Both regularizers are quadratic, so the Hessian action is the
    gradient evaluated at ``u``.  For ``Elastic`` it is the gradient kernel
    on the strain of ``u`` alone, with no energy: the elastic metric solve
    calls it on every CG iteration.
    """
    _check_shape(grid, u)
    if out is not None and out.shape != u.shape:
        raise RegularizerError(f"out has shape {out.shape}, expected {u.shape}")
    if isinstance(kind, Elastic):
        return _elastic_grad(grid, *_elastic_strain(grid, u), kind.mu, kind.lam, kind.alpha, out)
    hu = _stack_value_deferred(kind, grid, u)[1]()
    if out is None:
        return hu
    np.copyto(out, hu)
    return out
