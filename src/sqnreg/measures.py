"""Distance measures on image stacks with analytic displacement gradients.

Pairwise measures (for the sequential baseline):

* ``SsdPair``: sum of squared intensity differences.
* ``NgfPair``: normalized-gradient-field distance with a pointwise
  stabilizer ``eta_pt``.

The sequential data term ``sum_i D(T_{i-1}, T_i)`` is one chain,
``pair_chain``, over the ``pair_state`` of each warped image.  The stack
objective runs it on the whole warped stack; the sequential solver's
one-field objective (``optimize._component_objective``) runs it on the
image and its frozen neighbors, whose states it computes once.

Groupwise measures (functions of the feature-matrix spectrum):

* ``SchattenQ(q)``: ``K - sum sigma_k^q`` for finite q, ``-sigma_1`` for
  q = inf.  Smaller is better; aligned stacks drive the spectrum towards
  rank one.
* ``CorrDev``: squared Schatten-2 deviation of the correlation matrix
  from the identity.  This one is maximized by alignment, so it enters the
  minimization objective negated.
* ``LogDet``: ``sum log(lambda_k + jitter)``, the log-determinant of the
  jittered correlation matrix.  Minimized by alignment, but degenerates when
  any image loses overlap; kept as a documented competitor.

All gradients are taken through the actual discrete computation: bilinear
warp, central-difference image gradients, global or pointwise
normalizations, and the Gram-based SVD.  A groupwise evaluation warps image
by image into one intensity array and one Jacobian array; its backward pass
is one ``feature_adjoint`` call on the whole stack and one multiply by the
Jacobians.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import MeasureError, check_real
from .features import (
    FeatureMap,
    NgfFeature,
    assemble_with_chain,
    feature_adjoint,
    resolve_feature,
)
from .grids import (
    ImageStack,
    displacement_array,
    gradient_central,
    gradient_central_adjoint,
    warp_with_jacobian,
)
from .regularize import once
from .spectral import ThinSvd, sigma_gradient, thin_svd


@dataclass(frozen=True)
class SsdPair:
    """Sum-of-squared-differences pairwise measure."""


@dataclass(frozen=True)
class NgfPair:
    """Pointwise normalized-gradient-field pairwise measure."""

    eta_pt: float = 1e-2

    def __post_init__(self):
        check_real(self.eta_pt, MeasureError, "eta_pt must be positive")


@dataclass(frozen=True)
class SchattenQ:
    """Groupwise measure K - sum sigma^q (q finite) or -sigma_1 (q = inf)."""

    q: float = 4.0
    feature: FeatureMap = NgfFeature()

    def __post_init__(self):
        if self.q != math.inf:
            check_real(self.q, MeasureError, "Schatten exponent must be >= 1 or inf", 1.0,
                       closed=True)


@dataclass(frozen=True)
class CorrDev:
    """Squared Schatten-2 deviation of the correlation matrix from the identity.

    Maximized by alignment.
    """

    feature: FeatureMap = NgfFeature()


@dataclass(frozen=True)
class LogDet:
    """Log-determinant of the jittered correlation matrix (minimized).

    ``jitter`` is a number >= 0 or ``"auto"``, which ``resolve_measure``
    replaces by 1e-8 times the mean eigenvalue at the zero fields."""

    jitter: float | str = 0.0
    feature: FeatureMap = NgfFeature()

    def __post_init__(self):
        if self.jitter != "auto":
            check_real(self.jitter, MeasureError, "jitter must be nonnegative or 'auto'",
                       closed=True)


MeasureKind = SsdPair | NgfPair | SchattenQ | CorrDev | LogDet

PAIRWISE_KINDS = (SsdPair, NgfPair)
GROUPWISE_KINDS = (SchattenQ, CorrDev, LogDet)


class MeasureEval(NamedTuple):
    """Value and deferred per-field displacement gradients of a measure.

    ``gradient`` is a zero-argument callable behind ``regularize.once``: its
    first call returns the (K, m1, m2, 2) gradients and every later call the
    same array.  For a groupwise kind that first call runs the backward pass
    from what the forward pass kept (warped intensities, warp Jacobians, the
    spectrum), so an evaluation whose gradient is never read never pays for
    it.  A pairwise kind runs its backward pass with the forward pass (see
    ``_eval_pairwise``).
    """

    value: float
    gradient: Callable[[], np.ndarray]


# ---------------------------------------------------------------------------
# feature-matrix level measures
#
# Every groupwise measure is a function of the spectrum; its gradient with
# respect to F is ``spectral.sigma_gradient`` of a coefficient vector c on the
# singular values.  The ``_*_coeffs`` functions return the value and c, and
# the gradient is assembled only when it is needed.


def _sqn_coeffs(svd: ThinSvd, q):
    k = svd.k
    sigma = svd.sigma
    if q == math.inf:
        # at sigma_1 = 0 (all columns vanish, e.g. everything warped into a
        # constant region) the value 0 is the measure's supremum; the mode
        # is not ``u_valid``, so ``sigma_gradient`` gives the zero matrix
        value = -float(sigma[0])
        coeffs = np.zeros(k)
        coeffs[0] = -1.0
        return value, coeffs
    value = float(k) - float(np.sum(sigma**q))
    # at q = 1 a vanishing singular value keeps unit weight; it is not
    # ``u_valid``, so ``sigma_gradient`` drops its mode
    coeffs = -q * sigma ** (q - 1.0)
    return value, coeffs


def _corr_dev2_coeffs(svd: ThinSvd):
    dev = svd.eigenvalues - 1.0
    value = float(np.sum(dev**2))
    coeffs = 4.0 * svd.sigma * dev
    return value, coeffs


def _logdet_coeffs(svd: ThinSvd, jitter: float):
    lam = svd.eigenvalues
    rank_tol = svd.k * np.finfo(float).eps * max(float(lam[0]), 0.0)
    shifted = lam + jitter
    if np.any(shifted <= rank_tol):
        raise MeasureError("rank-deficient correlation: log-det undefined")
    value = float(np.sum(np.log(shifted)))
    coeffs = 2.0 * svd.sigma / shifted
    return value, coeffs


# ---------------------------------------------------------------------------
# pairwise cores (cotangents with respect to warped intensities)


def _ssd_forward(grid, a: np.ndarray, b: np.ndarray):
    w = grid.cell_area
    diff = b - a
    value = 0.5 * w * float(np.sum(diff**2))
    return value, lambda side: w * diff if side else -w * diff


def _ngf_gradient(grid, data: np.ndarray, eta_pt: float):
    """An image's NGF state: its gradient and the stabilized pointwise norm."""
    g = gradient_central(data, grid)
    return g, np.sqrt(np.sum(g**2, axis=-1) + eta_pt)


def _ngf_forward(grid, a, b):
    """NGF pair term from the ``_ngf_gradient`` states ``a`` and ``b``."""
    w = grid.cell_area
    (ga, na), (gb, nb) = a, b
    s = np.sum(ga * gb, axis=-1)
    r = s / (na * nb)
    value = 0.5 * w * float(np.sum(1.0 - r**2))

    def backward(side):
        own, n_own, other = (gb, nb, ga) if side else (ga, na, gb)
        shared = w * r[..., None]
        d = -shared * (other / (na * nb)[..., None] - (r / n_own**2)[..., None] * own)
        return gradient_central_adjoint(d, grid)

    return value, backward


def pair_state(kind, grid, data: np.ndarray):
    """One image's input to ``pair_chain``, from its intensities (m1, m2).

    ``data`` itself for SSD; its ``_ngf_gradient`` (gradient and stabilized
    pointwise norm) for NGF.
    """
    if isinstance(kind, SsdPair):
        return data
    return _ngf_gradient(grid, data, kind.eta_pt)


def pair_chain(kind, grid, states):
    """The sequential data term ``sum_i D(images[i-1], images[i])`` of a chain.

    ``states`` holds the ``pair_state`` of each image, so an image's NGF
    gradient and pointwise norm are taken once, shared by its two pairs.
    Returns ``(value, cotangents)``.  The value is summed in chain order,
    starting from 0.0.  ``cotangents()`` returns one (m1, m2) array per image,
    the derivative with respect to its intensities, accumulated from zeros
    with the earlier pair first; ``cotangents(pos)`` returns the array of
    image ``pos`` alone, and pulls back only the sides of its own pairs, so
    a one-field gradient takes no adjoint of its neighbors.  Every pair
    keeps its forward state until ``cotangents`` runs.
    """
    forward = _ssd_forward if isinstance(kind, SsdPair) else _ngf_forward
    # a pair's backward(side) is the cotangent of its first (0) or second (1) image
    backwards = []
    value = 0.0
    for a, b in zip(states, states[1:]):
        v, backward = forward(grid, a, b)
        value += v
        backwards.append(backward)

    def cotangent(pos: int) -> np.ndarray:
        cot = np.zeros(grid.dims)
        if pos > 0:
            cot += backwards[pos - 1](1)
        if pos < len(backwards):
            cot += backwards[pos](0)
        return cot

    def cotangents(pos: int | None = None):
        if pos is not None:
            return cotangent(pos)
        return [cotangent(i) for i in range(len(states))]

    return value, cotangents


# ---------------------------------------------------------------------------
# stack-level evaluation


def resolve_measure(kind: MeasureKind, stack: ImageStack) -> MeasureKind:
    """Materialize stack-dependent parameters (relative eta, auto jitter).

    The solver calls this once per resolution level so that the objective
    stays fixed during the level's iterations.
    """
    if isinstance(kind, GROUPWISE_KINDS):
        feature = resolve_feature(kind.feature, stack)
        kind = replace(kind, feature=feature)
    if isinstance(kind, LogDet) and kind.jitter == "auto":
        zero = np.zeros((stack.k, *stack.grid.dims, 2))
        fm, _, _ = assemble_with_chain(stack, zero, kind.feature)
        trace = float(np.sum(thin_svd(fm).eigenvalues))
        kind = replace(kind, jitter=1e-8 * trace / stack.k)
    return kind


def measure_eval(stack: ImageStack, fields, kind: MeasureKind) -> MeasureEval:
    """Evaluate a measure on a warped stack with gradients for every field.

    ``fields`` as in ``grids.displacement_array``.  Pairwise kinds run
    ``pair_chain`` over the warped stack (the sequential data term); groupwise
    kinds go through the feature matrix.  ``CorrDev``'s value and spectral
    coefficients are negated so that smaller is always better.
    """
    u = displacement_array(stack, fields)
    if isinstance(kind, PAIRWISE_KINDS):
        return _eval_pairwise(stack, u, kind)
    if isinstance(kind, GROUPWISE_KINDS):
        return _eval_groupwise(stack, u, kind)
    raise MeasureError(f"unknown measure kind {kind!r}")


def _eval_pairwise(stack: ImageStack, u: np.ndarray, kind) -> MeasureEval:
    jacs = np.empty((stack.k, *stack.grid.dims, 2))
    states = []
    for idx, img in enumerate(stack):
        # an NGF state replaces its warped image, which is let go here
        warped, jacs[idx] = warp_with_jacobian(img, u[idx])
        states.append(pair_state(kind, stack.grid, warped))
    value, cotangents = pair_chain(kind, stack.grid, states)
    # eager: a deferred backward would keep every pair's forward state alive
    # next to the regularizer's in ``optimize.objective``, and that raises
    # the memory peak of ``objective`` above the solve's own.  The
    # Jacobians are read once, so they take the gradients in place.
    for jac, cot in zip(jacs, cotangents()):
        jac *= cot[..., None]
    return MeasureEval(float(value), once(lambda: jacs))


def _eval_groupwise(stack: ImageStack, u: np.ndarray, kind) -> MeasureEval:
    kind = resolve_measure(kind, stack)
    fm, data, jacs = assemble_with_chain(stack, u, kind.feature)
    svd = thin_svd(fm)
    if isinstance(kind, SchattenQ):
        value, coeffs = _sqn_coeffs(svd, kind.q)
    elif isinstance(kind, CorrDev):
        value, coeffs = _corr_dev2_coeffs(svd)
        value, coeffs = -value, -coeffs
    else:
        value, coeffs = _logdet_coeffs(svd, kind.jitter)

    def backward():
        grad_f = sigma_gradient(fm, svd, coeffs)
        sens = feature_adjoint(kind.feature, stack.grid, data, grad_f)
        # the Jacobians are read once, so they take the gradients in place
        return np.multiply(sens[..., None], jacs, out=jacs)

    return MeasureEval(float(value), once(backward))
