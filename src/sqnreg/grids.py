"""Cell-centered 2-d grids, images, displacement fields, and resampling.

Conventions used throughout the package:

* A grid with ``dims = (m1, m2)``, ``origin = (x0, y0)`` and
  ``spacing = (h1, h2)`` has cell centers at ``x0 + (i + 1/2) * h1`` along
  axis 0 and ``y0 + (j + 1/2) * h2`` along axis 1.
* ``Image.data`` has shape ``(m1, m2)``; axis 0 is the first physical axis.
* ``DisplacementField.u`` has shape ``(m1, m2, 2)`` and stores displacements
  in physical units; a transform acts as ``y(x) = x + u(x)``.  Inside the
  package images and displacements are plain arrays, ``(m1, m2)`` or ``(K,
  m1, m2)`` and ``(m1, m2, 2)`` or ``(K, m1, m2, 2)``; ``Image``,
  ``ImageStack`` and ``DisplacementField`` are the I/O and report types.
* Bilinear interpolation extends images outside the hull of cell centers by
  clamping the sample coordinate (nearest boundary value).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import GridError


@dataclass(frozen=True)
class GridSpec:
    """Geometry of a cell-centered rectangular grid."""

    dims: tuple[int, int]
    origin: tuple[float, float] = (0.0, 0.0)
    spacing: tuple[float, float] = (1.0, 1.0)

    def __post_init__(self):
        if any(isinstance(d, bool) or not isinstance(d, numbers.Integral) for d in self.dims):
            raise GridError(f"grid dims must be integers, got {self.dims!r}")
        dims = tuple(int(d) for d in self.dims)
        origin = tuple(float(v) for v in self.origin)
        spacing = tuple(float(v) for v in self.spacing)
        if len(dims) != 2 or len(origin) != 2 or len(spacing) != 2:
            raise GridError("grids are two-dimensional")
        if any(d < 2 for d in dims):
            raise GridError(f"grid dims must be >= 2 per axis, got {dims}")
        if any(not np.isfinite(h) or h <= 0 for h in spacing):
            raise GridError(f"grid spacing must be positive and finite, got {spacing}")
        if any(not np.isfinite(v) for v in origin):
            raise GridError(f"grid origin must be finite, got {origin}")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "spacing", spacing)

    @property
    def n_cells(self) -> int:
        return self.dims[0] * self.dims[1]

    @property
    def cell_area(self) -> float:
        return self.spacing[0] * self.spacing[1]

    @property
    def domain_area(self) -> float:
        return self.n_cells * self.cell_area

    def axis_centers(self, axis: int) -> np.ndarray:
        m = self.dims[axis]
        return self.origin[axis] + (np.arange(m) + 0.5) * self.spacing[axis]

    def cell_centers(self) -> np.ndarray:
        """Physical cell-center coordinates, shape (m1, m2, 2)."""
        c1, c2 = np.meshgrid(self.axis_centers(0), self.axis_centers(1), indexing="ij")
        return np.stack([c1, c2], axis=-1)

    def coarsened(self) -> "GridSpec":
        """Grid produced by one 2x2 restriction step (dims halved, floor)."""
        if self.dims[0] < 4 or self.dims[1] < 4:
            raise GridError("coarsest level reached")
        return GridSpec(
            dims=(self.dims[0] // 2, self.dims[1] // 2),
            origin=self.origin,
            spacing=(2.0 * self.spacing[0], 2.0 * self.spacing[1]),
        )


def _check_finite(arr: np.ndarray, what: str):
    if not np.all(np.isfinite(arr)):
        raise GridError(f"{what} contains non-finite values")


@dataclass(frozen=True)
class Image:
    """Scalar intensities at the cell centers of a grid."""

    grid: GridSpec
    data: np.ndarray

    def __post_init__(self):
        data = np.asarray(self.data, dtype=float)
        if data.shape != self.grid.dims:
            raise GridError(
                f"image data shape {data.shape} does not match grid dims {self.grid.dims}"
            )
        _check_finite(data, "image data")
        object.__setattr__(self, "data", data)


@dataclass(frozen=True)
class DisplacementField:
    """Per-cell displacement vectors in physical units, shape (m1, m2, 2)."""

    grid: GridSpec
    u: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float)
        if u.shape != (*self.grid.dims, 2):
            raise GridError(
                f"field shape {u.shape} does not match grid dims {self.grid.dims}"
            )
        _check_finite(u, "displacement field")
        object.__setattr__(self, "u", u)


def zero_field(grid: GridSpec) -> DisplacementField:
    return DisplacementField(grid, np.zeros((*grid.dims, 2)))


@dataclass(frozen=True)
class ImageStack:
    """An ordered stack of K >= 2 images sharing one grid."""

    images: tuple[Image, ...]

    def __post_init__(self):
        images = tuple(self.images)
        if len(images) < 2:
            raise GridError(f"a stack needs at least two images, got {len(images)}")
        grid = images[0].grid
        for idx, img in enumerate(images):
            if img.grid != grid:
                raise GridError(f"image {idx} is on a different grid than image 0")
        object.__setattr__(self, "images", images)

    @property
    def k(self) -> int:
        return len(self.images)

    @property
    def grid(self) -> GridSpec:
        return self.images[0].grid

    def __iter__(self):
        return iter(self.images)

    def __getitem__(self, idx) -> Image:
        return self.images[idx]

    def permuted(self, order) -> "ImageStack":
        return ImageStack(tuple(self.images[i] for i in order))


def displacement_array(stack: ImageStack, fields) -> np.ndarray:
    """``fields`` as one float array (K, m1, m2, 2): that array itself, or a
    list of K ``DisplacementField`` stacked.  The one check of field count,
    grid and shape; the kernels behind it take the array."""
    if not isinstance(fields, np.ndarray):
        fields = list(fields)
        if any(f.grid != stack.grid for f in fields):
            raise GridError("a field is on a different grid than the stack")
        fields = [f.u for f in fields]
    u = np.asarray(fields, dtype=float)
    if u.shape != (stack.k, *stack.grid.dims, 2):
        raise GridError(f"displacements have shape {u.shape}, expected "
                        f"{(stack.k, *stack.grid.dims, 2)} for {stack.k} images")
    return u


# ---------------------------------------------------------------------------
# sampling


def _sample_core(data: np.ndarray, q1: np.ndarray, q2: np.ndarray, want_jac: bool):
    """Bilinear sample at fractional index coordinates with clamp extension.

    ``data`` is (..., m1, m2); leading axes are sampled at the same points.
    Returns the sampled values and, if requested, the derivatives of the
    sample with respect to (q1, q2).  The derivative is set to zero wherever
    the unclamped coordinate lies outside the open interval (0, m-1); at the
    clamp boundary this picks one valid subgradient.  The four corners are
    gathered from the raveled image at the flat index of the lower one.
    """
    m1, m2 = data.shape[-2:]
    qc1 = np.minimum(np.maximum(0.0, q1), m1 - 1.0)
    qc2 = np.minimum(np.maximum(0.0, q2), m2 - 1.0)
    i0 = np.minimum(np.floor(qc1).astype(np.intp), m1 - 2)
    j0 = np.minimum(np.floor(qc2).astype(np.intp), m2 - 2)
    t1 = qc1 - i0
    t2 = qc2 - j0
    s1 = 1.0 - t1
    s2 = 1.0 - t2
    flat = data.reshape(*data.shape[:-2], m1 * m2)
    lin = i0 * m2 + j0
    f00 = flat.take(lin, axis=-1)
    f10 = flat.take(lin + m2, axis=-1)
    f01 = flat.take(lin + 1, axis=-1)
    f11 = flat.take(lin + (m2 + 1), axis=-1)
    # w00 f00 + w10 f10 + w01 f01 + w11 f11, summed in that order
    val = (s1 * s2) * f00
    val += (t1 * s2) * f10
    val += (s1 * t2) * f01
    val += (t1 * t2) * f11
    if not want_jac:
        return val, None, None
    in1 = (q1 > 0.0) & (q1 < m1 - 1.0)
    in2 = (q2 > 0.0) & (q2 < m2 - 1.0)
    d1 = (s2 * (f10 - f00) + t2 * (f11 - f01)) * in1
    d2 = (s1 * (f01 - f00) + t1 * (f11 - f10)) * in2
    return val, d1, d2


def warp_with_jacobian(img: Image, u: np.ndarray, want_jac: bool = True):
    """Resample ``img`` at ``x + u(x)`` for every cell center x.

    ``u`` (m1, m2, 2) is one field, e.g. a slice of a stack array; a
    non-finite ``u`` raises ``GridError``.  Returns ``(values, jac)``: the
    warped intensities as a plain (m1, m2) array, finite since ``img`` and
    ``u`` are, and ``jac[i, j, a] = d values[i, j] / d u[i, j, a]`` (``None``
    unless ``want_jac``).  ``q = index + u / h`` keeps the warp at u = 0 bit-exact.
    """
    if u.shape != (*img.grid.dims, 2):
        raise GridError(f"field shape {u.shape} does not match grid dims {img.grid.dims}")
    if not np.all(np.isfinite(u)):
        raise GridError("invalid sample point")
    m1, m2 = img.grid.dims
    h1, h2 = img.grid.spacing
    idx1 = np.arange(m1, dtype=float)[:, None]
    idx2 = np.arange(m2, dtype=float)[None, :]
    q1 = idx1 + u[..., 0] / h1
    q2 = idx2 + u[..., 1] / h2
    val, d1, d2 = _sample_core(img.data, q1, q2, want_jac=want_jac)
    if not want_jac:
        return val, None
    jac = np.empty((m1, m2, 2))
    np.divide(d1, h1, out=jac[..., 0])
    np.divide(d2, h2, out=jac[..., 1])
    return val, jac


# ---------------------------------------------------------------------------
# derivatives


def _central_differences(f: np.ndarray, h: float, out: np.ndarray):
    """``np.gradient(f, h, axis=0)`` written into ``out``: central
    differences inside, one-sided at the two ends."""
    np.subtract(f[2:], f[:-2], out=out[1:-1])
    out[1:-1] /= 2.0 * h
    np.subtract(f[1], f[0], out=out[0])
    out[0] /= h
    np.subtract(f[-1], f[-2], out=out[-1])
    out[-1] /= h


def gradient_central(data: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Per-axis derivatives (..., m1, m2, 2) of intensities (..., m1, m2).

    Central differences in the interior, one-sided at the boundary, scaled
    by the grid spacing; each image of the leading axes on its own.  These
    are ``np.gradient``'s expressions, written straight into the result.
    """
    if data.shape[-2:] != grid.dims:
        raise GridError(f"expected shape (..., {grid.dims[0]}, {grid.dims[1]}), "
                        f"got {data.shape}")
    h1, h2 = grid.spacing
    out = np.empty((*data.shape, 2))
    # ``swapaxes`` is a plain view, without ``moveaxis``'s Python-level checks
    _central_differences(data.swapaxes(-2, 0), h1, out[..., 0].swapaxes(-2, 0))
    _central_differences(data.swapaxes(-1, 0), h2, out[..., 1].swapaxes(-1, 0))
    return out


def grad_axis_adjoint(v: np.ndarray, h: float, axis: int) -> np.ndarray:
    """Adjoint of ``np.gradient(u, h, axis=axis)``: central differences
    inside, one-sided at the two ends; any other axes are batch axes."""
    v = v.swapaxes(axis, 0)
    m = v.shape[0]
    out = np.zeros_like(v)
    if m > 2:
        mid = v[1:-1] / (2.0 * h)
        out[2:] += mid
        out[:-2] -= mid
    out[0] -= v[0] / h
    out[1] += v[0] / h
    out[-1] += v[-1] / h
    out[-2] -= v[-1] / h
    return out.swapaxes(0, axis)


def gradient_central_adjoint(v: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Adjoint of ``gradient_central`` as a map intensities -> (m1, m2, 2).

    Satisfies ``<gradient_central(T, grid), v> = <T, gradient_central_adjoint(v, grid)>``
    in the plain Euclidean inner products.  ``v`` may have leading axes,
    ``(..., m1, m2, 2)``; each of its images is pulled back on its own.
    """
    v = np.asarray(v, dtype=float)
    if v.shape[-3:] != (*grid.dims, 2):
        raise GridError(f"expected shape (..., {grid.dims[0]}, {grid.dims[1]}, 2), "
                        f"got {v.shape}")
    out = grad_axis_adjoint(v[..., 0], grid.spacing[0], axis=-2)
    out += grad_axis_adjoint(v[..., 1], grid.spacing[1], axis=-1)
    return out


# ---------------------------------------------------------------------------
# multilevel transfer


def _smooth_axis_121(data: np.ndarray, axis: int) -> np.ndarray:
    """Binomial [1 2 1]/4 smoothing along one axis.

    Boundary cells are padded by linear extrapolation, which makes the
    boundary stencil the identity and keeps affine data exactly affine.
    """
    f = np.moveaxis(data, axis, 0)
    s = f.copy()
    if f.shape[0] > 2:
        s[1:-1] = 0.25 * (f[:-2] + 2.0 * f[1:-1] + f[2:])
    return np.moveaxis(s, 0, axis)


def smooth_binomial(img: Image) -> Image:
    data = _smooth_axis_121(img.data, 0)
    data = _smooth_axis_121(data, 1)
    return Image(img.grid, data)


def restrict(img: Image) -> Image:
    """One coarsening step: binomial smoothing, then 2x2 cell averaging.

    Dimensions are halved (floor); an odd trailing row/column is dropped.
    Raises when either dimension is already below 4.
    """
    coarse = img.grid.coarsened()
    s = smooth_binomial(img).data
    n1, n2 = coarse.dims
    s = s[: 2 * n1, : 2 * n2]
    c = 0.25 * (s[0::2, 0::2] + s[1::2, 0::2] + s[0::2, 1::2] + s[1::2, 1::2])
    return Image(coarse, c)


def restrict_stack(stack: ImageStack) -> ImageStack:
    return ImageStack(tuple(restrict(img) for img in stack))


def prolong(u: np.ndarray, coarse: GridSpec, fine: GridSpec) -> np.ndarray:
    """Bilinearly resample displacements ``u`` (..., m1, m2, 2) on ``coarse``
    at the cell centers of ``fine``, all fields and components in one call.

    Displacement values are physical and carried over unchanged; only the
    sampling locations change.
    """
    if u.shape[-3:] != (*coarse.dims, 2):
        raise GridError(f"field shape {u.shape} does not match grid dims {coarse.dims}")
    pts = fine.cell_centers()
    q1 = (pts[..., 0] - coarse.origin[0]) / coarse.spacing[0] - 0.5
    q2 = (pts[..., 1] - coarse.origin[1]) / coarse.spacing[1] - 0.5
    val, _, _ = _sample_core(np.moveaxis(u, -1, -3), q1, q2, want_jac=False)
    return np.ascontiguousarray(np.moveaxis(val, -3, -1))
