"""Feature maps lifting images into a common inner-product space.

Two maps are provided:

* ``IntensityFeature``: the image divided by its L2 norm over the domain.
* ``NgfFeature``: the stacked central-difference gradient components divided
  by a stabilized global gradient norm ``sqrt(sum |grad T|^2 h1 h2 + eta)``.
  The stabilizer acts on the whole-image norm, not per pixel, so the feature
  stays well defined on locally flat regions and exactly zero images.

Feature columns of all images in a stack form the feature matrix F (one
column per image) whose Gram matrix drives the groupwise distance measures.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .accum import sorted_sum
from .errors import FeatureError
from .grids import (
    GridSpec,
    Image,
    ImageStack,
    gradient_central,
    gradient_central_adjoint,
    warp_with_jacobian,
)


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
        if not np.isfinite(self.eta) or self.eta <= 0:
            raise FeatureError(f"stabilizer eta must be positive, got {self.eta}")


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
    parts = []
    for img in stack:
        g = gradient_central(img)
        parts.append(float(np.linalg.norm(g, axis=-1).sum()))
    total = sorted_sum(parts)
    return total / (stack.k * stack.grid.n_cells)


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


def _require_resolved(kind: FeatureMap):
    if isinstance(kind, NgfFeature) and kind.relative:
        raise FeatureError(
            "NGF stabilizer is stack-relative; resolve it against a stack first"
        )


def feature_dim(kind: FeatureMap, grid: GridSpec) -> int:
    if isinstance(kind, NgfFeature):
        return 2 * grid.n_cells
    return grid.n_cells


def feature_intensity_normalized(img: Image) -> np.ndarray:
    """Column T / ||T|| with unit quadrature-weighted norm."""
    w = img.grid.cell_area
    nrm = float(np.sqrt(w * np.sum(img.data**2)))
    if nrm < 1e-12 * np.sqrt(img.grid.domain_area):
        raise FeatureError("degenerate feature: zero image")
    return img.data.ravel() / nrm


def feature_ngf(img: Image, eta: float) -> np.ndarray:
    """Stacked gradient components over the stabilized global gradient norm."""
    if not np.isfinite(eta) or eta <= 0:
        raise FeatureError(f"stabilizer eta must be positive, got {eta}")
    w = img.grid.cell_area
    g = gradient_central(img)
    nrm = float(np.sqrt(w * np.sum(g**2) + eta))
    return np.concatenate([g[..., 0].ravel(), g[..., 1].ravel()]) / nrm


def feature_column(img: Image, kind: FeatureMap) -> np.ndarray:
    _require_resolved(kind)
    if isinstance(kind, IntensityFeature):
        return feature_intensity_normalized(img)
    return feature_ngf(img, kind.eta)


def feature_adjoint(kind: FeatureMap, img: Image, cotangent: np.ndarray) -> np.ndarray:
    """Pull a cotangent on the feature column back to image intensities.

    Returns ``g`` with ``<g, dT> = <cotangent, dF[dT]>`` (plain Euclidean
    pairings) for every intensity perturbation ``dT``; shape (m1, m2).
    """
    _require_resolved(kind)
    cot = np.asarray(cotangent, dtype=float).ravel()
    n = feature_dim(kind, img.grid)
    if cot.size != n:
        raise FeatureError(f"cotangent length {cot.size} does not match feature dim {n}")
    w = img.grid.cell_area
    if isinstance(kind, IntensityFeature):
        t = img.data.ravel()
        nrm = float(np.sqrt(w * np.sum(t**2)))
        if nrm < 1e-12 * np.sqrt(img.grid.domain_area):
            raise FeatureError("degenerate feature: zero image")
        s = float(np.dot(t, cot))
        g = cot / nrm - t * (w * s / nrm**3)
        return g.reshape(img.grid.dims)
    g = gradient_central(img)
    gvec = np.concatenate([g[..., 0].ravel(), g[..., 1].ravel()])
    nrm = float(np.sqrt(w * np.sum(g**2) + kind.eta))
    s = float(np.dot(gvec, cot))
    cot_g = cot / nrm - gvec * (w * s / nrm**3)
    m1, m2 = img.grid.dims
    vfield = np.stack(
        [cot_g[: m1 * m2].reshape(m1, m2), cot_g[m1 * m2 :].reshape(m1, m2)], axis=-1
    )
    return gradient_central_adjoint(vfield, img.grid)


def assemble(stack: ImageStack, fields, kind: FeatureMap) -> FeatureMatrix:
    """Feature matrix of the warped stack (column k = feature of image k warped)."""
    fm, _, _ = assemble_with_chain(stack, fields, kind)
    return fm


def assemble_with_chain(stack: ImageStack, fields, kind: FeatureMap):
    """Like ``assemble`` but also returns warped images and warp Jacobians.

    The extras feed the chain rule of the groupwise measures; one warp pass
    serves both the feature columns and their displacement derivatives.
    """
    fields = list(fields)
    if len(fields) != stack.k:
        raise FeatureError(
            f"stack has {stack.k} images but {len(fields)} fields were given"
        )
    kind = resolve_feature(kind, stack)
    grid = stack.grid
    n = feature_dim(kind, grid)
    entries = np.empty((n, stack.k))
    warped_images = []
    jacobians = []
    for idx, (img, field) in enumerate(zip(stack, fields)):
        try:
            warped, jac = warp_with_jacobian(img, field)
            entries[:, idx] = feature_column(warped, kind)
        except FeatureError as exc:
            raise FeatureError(f"image {idx}: {exc}") from exc
        warped_images.append(warped)
        jacobians.append(jac)
    return FeatureMatrix(entries, quad_weight=grid.cell_area), warped_images, jacobians
