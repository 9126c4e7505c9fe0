"""Feature maps lifting images into a common inner-product space.

Two maps are provided:

* ``IntensityFeature``: the image divided by its L2 norm over the domain.
* ``NgfFeature``: the stacked central-difference gradient components divided
  by a stabilized global gradient norm ``sqrt(sum |grad T|^2 h1 h2 + eta)``.
  The stabilizer acts on the whole-image norm, not per pixel, so the feature
  stays well defined on locally flat regions and exactly zero images.

Feature columns of all images in a stack form the feature matrix F (one
column per image) whose Gram matrix drives the groupwise distance measures.
``feature_columns`` and ``feature_adjoint`` act on the warped intensities of
the whole stack, a (K, m1, m2) array, in one pass each.  Every image's norm
and dot product is a reduction over its own block, so each column and each
adjoint image has the bits of the one-image computation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .accum import field_sums
from .errors import FeatureError, check_real
from .grids import (GridSpec, ImageStack, displacement_array, gradient_central,
                    gradient_central_adjoint, warp_with_jacobian)


@dataclass(frozen=True)
class IntensityFeature:
    """Intensity-normalized feature map T -> T / ||T||."""


@dataclass(frozen=True)
class NgfFeature:
    """Globally normalized gradient feature map.

    ``eta`` is the stabilizer added under the square root of the global
    gradient norm.  With ``relative=True`` (the default) the effective value
    is ``eta`` times the mean gradient magnitude of the stack being
    assembled, recomputed per resolution level; ``resolve`` turns it into an
    absolute value.
    """

    eta: float = 1e-2
    relative: bool = True

    def __post_init__(self):
        check_real(self.eta, FeatureError, "stabilizer eta must be positive")


FeatureMap = IntensityFeature | NgfFeature


@dataclass(frozen=True)
class FeatureMatrix:
    """Feature columns of a stack, one per image, with quadrature weight."""

    entries: np.ndarray
    quad_weight: float = 1.0

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=float)
        if entries.ndim != 2:
            raise FeatureError(f"feature matrix must be 2-d, got shape {entries.shape}")
        if not np.all(np.isfinite(entries)):
            raise FeatureError("feature matrix contains non-finite entries")
        if not np.isfinite(self.quad_weight) or self.quad_weight <= 0:
            raise FeatureError(f"quad_weight must be positive, got {self.quad_weight}")
        object.__setattr__(self, "entries", entries)

    @property
    def k(self) -> int:
        return self.entries.shape[1]


def stack_gradient_scale(stack: ImageStack) -> float:
    """Mean gradient magnitude over all images and cells of a stack."""
    data = np.stack([img.data for img in stack])
    parts = field_sums(np.linalg.norm(gradient_central(data, stack.grid), axis=-1), 2)
    return float(np.sum(parts)) / (stack.k * stack.grid.n_cells)


def resolve_feature(kind: FeatureMap, stack: ImageStack) -> FeatureMap:
    """Replace a relative NGF stabilizer by its absolute value for ``stack``.

    The scale is taken from the unwarped stack, so it is constant across all
    evaluations at one resolution level.  A featureless (all-constant) stack
    has zero gradient scale; the relative value itself is used as a floor.
    """
    if isinstance(kind, NgfFeature) and kind.relative:
        scale = stack_gradient_scale(stack)
        eta_abs = kind.eta * scale if scale > 0 else kind.eta
        return replace(kind, eta=eta_abs, relative=False)
    return kind


def _raw_rows(kind: FeatureMap, grid: GridSpec, data: np.ndarray):
    """The unnormalized feature of each image as a row, and its norm.

    ``data`` holds K intensity images (K, m1, m2).  Returns the rows (K, n):
    the raveled image, or its two gradient planes one after the other; and
    the K norms ``sqrt(w * sum + eta)`` (``eta = 0`` for intensities), each
    image's sum taken on its own block.  The intensity norm of a zero image
    is refused.
    """
    if isinstance(kind, NgfFeature) and kind.relative:
        raise FeatureError(
            "NGF stabilizer is stack-relative; resolve it against a stack first"
        )
    w = grid.cell_area
    if isinstance(kind, IntensityFeature):
        nrm = np.sqrt(w * field_sums(data**2, 2))
        zero = np.flatnonzero(nrm < 1e-12 * np.sqrt(grid.domain_area))
        if zero.size:
            raise FeatureError(f"image {zero[0]}: degenerate feature: zero image")
        return data.reshape(len(data), -1), nrm
    g = gradient_central(data, grid)
    rows = np.moveaxis(g, -1, 1).copy().reshape(len(data), -1)
    nrm = np.sqrt(w * field_sums(np.square(g, out=g), 3) + kind.eta)
    return rows, nrm


def feature_columns(kind: FeatureMap, grid: GridSpec, data: np.ndarray) -> np.ndarray:
    """Feature matrix entries (n, K) of the images ``data`` (K, m1, m2).

    Column k is the feature of image k: ``T / ||T||`` for intensities, the
    stacked gradient components over the stabilized global gradient norm for
    NGF.
    """
    rows, nrm = _raw_rows(kind, grid, data)
    return (rows / nrm[:, None]).T


def _normalization_adjoint(kind: FeatureMap, grid: GridSpec, data: np.ndarray,
                           cotangent: np.ndarray) -> np.ndarray:
    """Pull cotangents on the feature columns (n, K) back to the rows of
    ``_raw_rows`` (K, n).

    Each image's factor ``w * s / ||.||**3`` is formed in Python floats, from
    its own dot ``s`` of raw row and cotangent.
    """
    rows, nrm = _raw_rows(kind, grid, data)
    cot = np.asarray(cotangent, dtype=float)
    if cot.shape != rows.shape[::-1]:
        raise FeatureError(
            f"cotangent shape {cot.shape} does not match the features {rows.shape[::-1]}"
        )
    # one C-ordered row per image, a copy that takes the result in place
    sens = cot.T.copy()
    w = grid.cell_area
    for row, c, n in zip(rows, sens, nrm):
        factor = w * float(np.dot(row, c)) / float(n) ** 3
        c /= n
        c -= row * factor
    return sens


def feature_adjoint(kind: FeatureMap, grid: GridSpec, data: np.ndarray,
                    cotangent: np.ndarray) -> np.ndarray:
    """Pull cotangents on the feature columns back to image intensities.

    ``cotangent`` (n, K) pairs with ``feature_columns(kind, grid, data)``.
    Returns ``g`` (K, m1, m2) with ``<g, dT> = <cotangent, dF[dT]>`` (plain
    Euclidean pairings) for every intensity perturbation ``dT``.
    """
    sens = _normalization_adjoint(kind, grid, data, cotangent)
    if isinstance(kind, IntensityFeature):
        return sens.reshape(data.shape)
    planes = sens.reshape(len(data), 2, *grid.dims)
    return gradient_central_adjoint(np.moveaxis(planes, 1, -1), grid)


def assemble(stack: ImageStack, fields, kind: FeatureMap) -> FeatureMatrix:
    """Feature matrix of the warped stack; ``fields`` as in ``displacement_array``."""
    u = displacement_array(stack, fields)
    fm, _, _ = assemble_with_chain(stack, u, resolve_feature(kind, stack))
    return fm


def assemble_with_chain(stack: ImageStack, u: np.ndarray, kind: FeatureMap):
    """Like ``assemble`` on the array ``u`` (K, m1, m2, 2), but also returns
    the warped intensities and Jacobians.

    ``kind`` must be resolved (see ``resolve_feature``).  Image k is warped
    by ``u[k]`` straight into row k of the intensities (K, m1, m2) and the
    Jacobians (K, m1, m2, 2), which feed the groupwise chain rule.
    """
    grid = stack.grid
    data = np.empty((stack.k, *grid.dims))
    jacs = np.empty((stack.k, *grid.dims, 2))
    for idx, img in enumerate(stack):
        data[idx], jacs[idx] = warp_with_jacobian(img, u[idx])
    entries = feature_columns(kind, grid, data)
    return FeatureMatrix(entries, quad_weight=grid.cell_area), data, jacs
