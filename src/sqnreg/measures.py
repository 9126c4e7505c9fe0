"""Distance measures on image stacks with analytic displacement gradients.

Pairwise measures (for the sequential baseline):

* ``SsdPair``: sum of squared intensity differences.
* ``NgfPair``: normalized-gradient-field distance with a pointwise
  stabilizer ``eta_pt``.

The sequential data term ``sum_i D(T_{i-1}, T_i)`` is one chain,
``pair_chain``, over warped images.  The stack objective runs it on the
whole warped stack; the sequential solver's one-field objective
(``optimize._component_objective``) runs it on the image and its frozen
neighbors.

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
normalizations, and the Gram-based SVD.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import MeasureError
from .features import (
    FeatureMap,
    NgfFeature,
    assemble_with_chain,
    feature_adjoint,
    resolve_feature,
)
from .grids import (
    Image,
    ImageStack,
    gradient_central,
    gradient_central_adjoint,
    warp_with_jacobian,
)
from .spectral import ThinSvd, sigma_gradient, thin_svd


@dataclass(frozen=True)
class SsdPair:
    """Sum-of-squared-differences pairwise measure."""


@dataclass(frozen=True)
class NgfPair:
    """Pointwise normalized-gradient-field pairwise measure."""

    eta_pt: float = 1e-2

    def __post_init__(self):
        if not np.isfinite(self.eta_pt) or self.eta_pt <= 0:
            raise MeasureError(f"eta_pt must be positive, got {self.eta_pt}")


@dataclass(frozen=True)
class SchattenQ:
    """Groupwise measure K - sum sigma^q (q finite) or -sigma_1 (q = inf)."""

    q: float = 4.0
    feature: FeatureMap = NgfFeature()

    def __post_init__(self):
        if not (self.q == math.inf or (np.isfinite(self.q) and self.q >= 1.0)):
            raise MeasureError(f"Schatten exponent must be >= 1 or inf, got {self.q}")


@dataclass(frozen=True)
class CorrDev:
    """Squared Schatten-2 deviation of the correlation matrix from the identity.

    Maximized by alignment.  ``corr_dev`` gives its value at other exponents;
    only q = 2 has a gradient path.
    """

    feature: FeatureMap = NgfFeature()


@dataclass(frozen=True)
class LogDet:
    """Log-determinant of the jittered correlation matrix (minimized)."""

    jitter: float = 0.0
    auto_jitter: bool = False
    feature: FeatureMap = NgfFeature()

    def __post_init__(self):
        if not np.isfinite(self.jitter) or self.jitter < 0:
            raise MeasureError(f"jitter must be nonnegative, got {self.jitter}")


MeasureKind = SsdPair | NgfPair | SchattenQ | CorrDev | LogDet

PAIRWISE_KINDS = (SsdPair, NgfPair)
GROUPWISE_KINDS = (SchattenQ, CorrDev, LogDet)


class MeasureEval:
    """Value and per-field displacement gradients of a measure on a stack.

    The value and the subgradient flag come from the forward pass.  The
    gradients (K, m1, m2, 2) come from the backward pass, which runs on the
    first access of ``grads`` and reuses what the forward pass kept (warped
    images, warp Jacobians, the spectrum); that state is dropped once the
    gradients exist.  An evaluation whose gradients are never read never
    pays for them.
    """

    def __init__(self, value: float, backward, subgradient: bool = False):
        self.value = value
        self.subgradient = subgradient
        self._backward = backward
        self._grads = None

    @property
    def grads(self) -> np.ndarray:
        if self._grads is None:
            self._grads = self._backward()
            self._backward = None
        return self._grads


# ---------------------------------------------------------------------------
# feature-matrix level measures
#
# Every groupwise measure is a function of the spectrum; its gradient with
# respect to F is ``spectral.sigma_gradient`` of a coefficient vector c on the
# singular values.  The ``_*_coeffs`` functions return the value and c, and
# the gradient is assembled only when it is needed.


def sqn(fm, q):
    """Schatten-q alignment measure of a feature matrix.

    Returns ``(value, grad_entries, subgradient_flag)``.  For finite q the
    value is ``K - sum sigma^q``; for q = inf it is ``-sigma_1`` and the flag
    reports a near-degenerate top gap.
    """
    svd = thin_svd(fm)
    value, coeffs, flagged = _sqn_coeffs(svd, q)
    return value, sigma_gradient(svd, coeffs), flagged


def _sqn_coeffs(svd: ThinSvd, q):
    k = svd.k
    sigma = svd.sigma
    if q == math.inf:
        value = -float(sigma[0])
        coeffs = np.zeros(k)
        coeffs[0] = -1.0
        # at sigma_1 = 0 (all columns vanish, e.g. everything warped into a
        # constant region) the value 0 is the measure's supremum and the zero
        # matrix is a valid subgradient; flag it so solvers can reject the
        # point instead of crashing
        flagged = bool(svd.gap_flags[0]) or not bool(svd.u_valid[0])
        return value, coeffs, flagged
    value = float(k) - float(np.sum(sigma**q))
    coeffs = -q * sigma ** (q - 1.0)
    flagged = False
    if q == 1.0:
        # sigma -> sigma^0 keeps unit weight at vanishing singular values,
        # where the derivative is only a subgradient; drop those modes
        dropped = ~svd.u_valid
        flagged = bool(dropped.any())
    return value, coeffs, flagged


def corr_dev(fm, q) -> float:
    """Schatten-q deviation of the correlation matrix from the identity.

    q = 2 returns the squared Schatten-2 norm; q = inf the largest absolute
    eigenvalue of C - I; other finite q the plain Schatten-q norm.
    """
    svd = thin_svd(fm)
    dev = svd.eigenvalues - 1.0
    if q == math.inf:
        return float(np.max(np.abs(dev)))
    if q == 2.0:
        return float(np.sum(dev**2))
    return float(np.sum(np.abs(dev) ** q) ** (1.0 / q))


def _corr_dev2_coeffs(svd: ThinSvd):
    dev = svd.eigenvalues - 1.0
    value = float(np.sum(dev**2))
    coeffs = 4.0 * svd.sigma * dev
    return value, coeffs


def logdet_total_correlation(fm, jitter: float = 0.0):
    """Log-determinant measure with analytic feature-matrix gradient.

    Returns ``(value, grad_entries)``; raises when the jittered correlation
    matrix is numerically rank deficient.
    """
    svd = thin_svd(fm)
    value, coeffs = _logdet_coeffs(svd, jitter)
    return value, sigma_gradient(svd, coeffs)


def _logdet_coeffs(svd: ThinSvd, jitter: float):
    if not np.isfinite(jitter) or jitter < 0:
        raise MeasureError(f"jitter must be nonnegative, got {jitter}")
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


def _ssd_forward(a: Image, b: Image):
    w = a.grid.cell_area
    diff = b.data - a.data
    value = 0.5 * w * float(np.sum(diff**2))
    return value, lambda: (-w * diff, w * diff)


def _ngf_forward(a: Image, b: Image, eta_pt: float):
    w = a.grid.cell_area
    ga = gradient_central(a)
    gb = gradient_central(b)
    na = np.sqrt(np.sum(ga**2, axis=-1) + eta_pt)
    nb = np.sqrt(np.sum(gb**2, axis=-1) + eta_pt)
    s = np.sum(ga * gb, axis=-1)
    r = s / (na * nb)
    value = 0.5 * w * float(np.sum(1.0 - r**2))

    def backward():
        shared = w * r[..., None]
        dga = -shared * (gb / (na * nb)[..., None] - (r / na**2)[..., None] * ga)
        dgb = -shared * (ga / (na * nb)[..., None] - (r / nb**2)[..., None] * gb)
        da = gradient_central_adjoint(dga, a.grid)
        db = gradient_central_adjoint(dgb, b.grid)
        return da, db

    return value, backward


def _pair_forward(kind, a: Image, b: Image):
    """Value of a pair term and a callable for its cotangents ``(da, db)``."""
    if isinstance(kind, SsdPair):
        return _ssd_forward(a, b)
    return _ngf_forward(a, b, kind.eta_pt)


def pair_chain(kind, images):
    """The sequential data term ``sum_i D(images[i-1], images[i])`` of a chain.

    Returns ``(value, cotangents)``.  The value is summed in chain order,
    starting from 0.0.  ``cotangents()`` returns one (m1, m2) array per image,
    the derivative with respect to its intensities, accumulated from zeros
    with the earlier pair first.  Every pair keeps its forward state until
    ``cotangents`` runs.
    """
    value = 0.0
    backwards = []
    for a, b in zip(images, images[1:]):
        v, backward = _pair_forward(kind, a, b)
        value += v
        backwards.append(backward)

    def cotangents():
        cots = [np.zeros(img.grid.dims) for img in images]
        for idx, backward in enumerate(backwards, start=1):
            da, db = backward()
            cots[idx - 1] += da
            cots[idx] += db
        return cots

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
    if isinstance(kind, LogDet) and kind.auto_jitter:
        from .features import assemble
        from .grids import zero_field

        fields = [zero_field(stack.grid) for _ in range(stack.k)]
        fm = assemble(stack, fields, kind.feature)
        trace = float(np.sum(thin_svd(fm).eigenvalues))
        kind = replace(kind, jitter=1e-8 * trace / stack.k, auto_jitter=False)
    return kind


def measure_eval(stack: ImageStack, fields, kind: MeasureKind) -> MeasureEval:
    """Evaluate a measure on a warped stack with gradients for every field.

    Pairwise kinds run ``pair_chain`` over the warped stack (the sequential
    data term); groupwise kinds go through the feature matrix.
    ``CorrDev`` is negated here so that smaller is always better.
    """
    fields = list(fields)
    if len(fields) != stack.k:
        raise MeasureError(f"stack has {stack.k} images but {len(fields)} fields")
    if isinstance(kind, PAIRWISE_KINDS):
        return _eval_pairwise(stack, fields, kind)
    if isinstance(kind, GROUPWISE_KINDS):
        return _eval_groupwise(stack, fields, kind)
    raise MeasureError(f"unknown measure kind {kind!r}")


def _eval_pairwise(stack: ImageStack, fields, kind) -> MeasureEval:
    warped = []
    jacs = []
    for img, field in zip(stack, fields):
        wimg, jac = warp_with_jacobian(img, field)
        warped.append(wimg)
        jacs.append(jac)
    value, cotangents = pair_chain(kind, warped)
    # eager: the solver's sequential chain is ``optimize._component_objective``,
    # so nothing defers this stack-wide evaluation
    grads = np.stack([cot[..., None] * jac for cot, jac in zip(cotangents(), jacs)])
    return MeasureEval(float(value), lambda: grads)


def _eval_groupwise(stack: ImageStack, fields, kind) -> MeasureEval:
    kind = resolve_measure(kind, stack)
    fm, warped, jacs = assemble_with_chain(stack, fields, kind.feature)
    svd = thin_svd(fm)
    negate = False
    flagged = False
    if isinstance(kind, SchattenQ):
        value, coeffs, flagged = _sqn_coeffs(svd, kind.q)
    elif isinstance(kind, CorrDev):
        value, coeffs = _corr_dev2_coeffs(svd)
        value, negate = -value, True
    else:
        value, coeffs = _logdet_coeffs(svd, kind.jitter)

    def backward():
        grad_f = sigma_gradient(svd, coeffs)
        if negate:
            grad_f = -grad_f
        grads = np.empty((stack.k, *stack.grid.dims, 2))
        for idx in range(stack.k):
            sens = feature_adjoint(kind.feature, warped[idx], grad_f[:, idx])
            grads[idx] = sens[..., None] * jacs[idx]
        return grads

    return MeasureEval(float(value), backward, flagged)
