"""Synthetic test stacks with known ground truth, and stack cut views.

Scenes are smooth analytic functions evaluated at cell centers, so a
translated or rotated copy of an image is exact (not resampled).  All
randomness flows from one seed split by a purpose string, which makes
every generated stack bit-reproducible.
"""

from __future__ import annotations

import zlib

import numpy as np

from .errors import ConfigError, FormatError, GridError
from .grids import DisplacementField, GridSpec, Image, ImageStack, zero_field

KINDS = ("shifted_disks", "rotated_shepp_like", "intensity_perturbed")


def rng_for_purpose(seed: int, purpose: str) -> np.random.Generator:
    """One master seed, split per purpose string."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), zlib.crc32(purpose.encode())]))


def _smoothstep(t: np.ndarray) -> np.ndarray:
    t = np.clip(t, 0.0, 1.0)
    return t * t * (3.0 - 2.0 * t)


def _disk(p1, p2, center, radius, edge):
    r = np.hypot(p1 - center[0], p2 - center[1])
    return _smoothstep((radius - r) / edge + 0.5)


def _ellipse(p1, p2, center, axes, angle, edge):
    c, s = np.cos(angle), np.sin(angle)
    d1 = p1 - center[0]
    d2 = p2 - center[1]
    e1 = (c * d1 + s * d2) / axes[0]
    e2 = (-s * d1 + c * d2) / axes[1]
    r = np.sqrt(e1**2 + e2**2)
    scale = min(axes)
    return _smoothstep((1.0 - r) * scale / edge + 0.5)


def _disk_scene(dims, rng):
    """Three soft disks of distinct intensity on a dim ramp background."""
    m1, m2 = dims
    centers = np.stack(
        [
            rng.uniform(0.3 * m1, 0.7 * m1, size=3),
            rng.uniform(0.3 * m2, 0.7 * m2, size=3),
        ],
        axis=1,
    )
    radii = rng.uniform(0.08, 0.16, size=3) * min(dims)
    values = np.array([0.85, 0.55, 0.35])
    edge = 1.5

    def scene(p1, p2):
        out = 0.06 + 0.04 * (p1 / m1 + p2 / m2)
        for c, r, v in zip(centers, radii, values):
            out = out + v * _disk(p1, p2, c, r, edge)
        return np.clip(out, 0.0, 1.0)

    return scene


def _shepp_like_scene(dims, rng):
    """Nested soft ellipses, loosely shaped like a head phantom."""
    m1, m2 = dims
    c0 = (0.5 * m1, 0.5 * m2)
    edge = 1.5
    tilt = rng.uniform(-0.3, 0.3)

    def scene(p1, p2):
        out = 0.05 * np.ones_like(p1)
        out = out + 0.45 * _ellipse(p1, p2, c0, (0.42 * m1, 0.34 * m2), tilt, edge)
        out = out - 0.18 * _ellipse(p1, p2, c0, (0.36 * m1, 0.28 * m2), tilt, edge)
        out = out + 0.30 * _ellipse(
            p1, p2, (0.38 * m1, 0.42 * m2), (0.10 * m1, 0.06 * m2), tilt + 0.4, edge
        )
        out = out + 0.22 * _ellipse(
            p1, p2, (0.40 * m1, 0.60 * m2), (0.07 * m1, 0.11 * m2), tilt - 0.5, edge
        )
        out = out + 0.15 * _disk(p1, p2, (0.65 * m1, 0.5 * m2), 0.06 * min(dims), edge)
        return np.clip(out, 0.0, 1.0)

    return scene


def _gain_field(grid, rng, amplitude):
    """Smooth multiplicative gain 1 + amplitude * (low-order cosine mix)."""
    pts = grid.cell_centers()
    m1, m2 = grid.dims
    t1 = pts[..., 0] / (m1 * grid.spacing[0])
    t2 = pts[..., 1] / (m2 * grid.spacing[1])
    coef = rng.uniform(-1.0, 1.0, size=4)
    phase = rng.uniform(0.0, 2.0 * np.pi, size=4)
    mix = (
        coef[0] * np.cos(np.pi * t1 + phase[0])
        + coef[1] * np.cos(np.pi * t2 + phase[1])
        + coef[2] * np.cos(2.0 * np.pi * t1 + phase[2])
        + coef[3] * np.cos(2.0 * np.pi * t2 + phase[3])
    )
    mix = mix / max(np.abs(mix).max(), 1e-12)
    return 1.0 + amplitude * mix


def _shifts(kind_rng, k, magnitude):
    """Per-image pixel shifts: a pair gives a linear progression, a scalar
    gives random shifts within +/- magnitude (first image unshifted)."""
    if isinstance(magnitude, (tuple, list)):
        if len(magnitude) != 2:
            raise ConfigError(f"a shift progression takes two numbers, got {magnitude!r}")
        d1, d2 = float(magnitude[0]), float(magnitude[1])
        return [(i * d1, i * d2) for i in range(k)]
    mag = float(magnitude)
    shifts = [(0.0, 0.0)]
    for _ in range(k - 1):
        shifts.append(tuple(kind_rng.uniform(-mag, mag, size=2)))
    return shifts


def synth_stack(seed: int, k: int, kind: str, magnitude, dims=(64, 64)):
    """Build a K-image stack plus the ground-truth aligning fields.

    The truth field for image i satisfies ``T_i(x + u_i(x)) = scene(x)``
    wherever the motion stays inside the domain.  ``magnitude`` is in
    pixels for shifts, radians for rotations, and relative amplitude for
    intensity perturbations; only shifts also take a pair (see ``_shifts``).
    """
    if k < 2:
        raise GridError(f"a stack needs at least two images, got {k}")
    if kind not in KINDS:
        raise ConfigError(f"unknown synthetic kind {kind!r} (expected one of {KINDS})")
    if kind != "shifted_disks" and isinstance(magnitude, (tuple, list)):
        raise ConfigError(f"synthetic kind {kind!r} takes one number, got {magnitude!r}")
    grid = GridSpec(dims=tuple(dims))
    rng = rng_for_purpose(seed, f"synth:{kind}")
    pts = grid.cell_centers()
    p1, p2 = pts[..., 0], pts[..., 1]

    if kind == "shifted_disks":
        scene = _disk_scene(grid.dims, rng)
        shifts = _shifts(rng, k, magnitude)
        images = []
        truths = []
        for s1, s2 in shifts:
            images.append(Image(grid, scene(p1 - s1, p2 - s2)))
            u = np.zeros((*grid.dims, 2))
            u[..., 0] = s1
            u[..., 1] = s2
            truths.append(DisplacementField(grid, u))
        return ImageStack(tuple(images)), truths

    if kind == "rotated_shepp_like":
        scene = _shepp_like_scene(grid.dims, rng)
        mag = float(magnitude)
        angles = [i * mag for i in range(k)]
        c1, c2 = 0.5 * grid.dims[0], 0.5 * grid.dims[1]
        images = []
        truths = []
        for theta in angles:
            co, si = np.cos(theta), np.sin(theta)
            # image = scene rotated by +theta about the center
            q1 = co * (p1 - c1) + si * (p2 - c2) + c1
            q2 = -si * (p1 - c1) + co * (p2 - c2) + c2
            images.append(Image(grid, scene(q1, q2)))
            u = np.zeros((*grid.dims, 2))
            u[..., 0] = co * (p1 - c1) - si * (p2 - c2) + c1 - p1
            u[..., 1] = si * (p1 - c1) + co * (p2 - c2) + c2 - p2
            truths.append(DisplacementField(grid, u))
        return ImageStack(tuple(images)), truths

    scene = _disk_scene(grid.dims, rng)
    base = scene(p1, p2)
    amp = float(magnitude)
    images = []
    truths = []
    for i in range(k):
        gain = 1.0 if i == 0 else _gain_field(grid, rng, amp)
        images.append(Image(grid, np.clip(base * gain, 0.0, 1.0)))
        truths.append(zero_field(grid))
    return ImageStack(tuple(images)), truths


def cut_view(images, axis: int, position: int) -> Image:
    """Cross-section through a stack: one row per image.

    ``axis`` (1 or 2) picks which image axis is held at ``position``; the
    result stacks the extracted lines, so a well-aligned stack yields a
    cut with little row-to-row variation.
    """
    images = list(images)
    if not images:
        raise FormatError("cut_view needs at least one image")
    grid = images[0].grid
    if axis not in (1, 2):
        raise FormatError(f"cut axis must be 1 or 2, got {axis}")
    extent = grid.dims[axis - 1]
    if not 0 <= position < extent:
        raise FormatError(
            f"cut position {position} out of range for axis {axis} with {extent} cells"
        )
    if axis == 1:
        rows = [img.data[position, :] for img in images]
        kept = grid.spacing[1]
    else:
        rows = [img.data[:, position] for img in images]
        kept = grid.spacing[0]
    data = np.stack(rows)
    return Image(GridSpec(dims=data.shape, spacing=(1.0, kept)), data)
