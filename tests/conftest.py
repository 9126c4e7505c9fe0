import numpy as np
import pytest

from sqnreg.grids import DisplacementField, GridSpec, Image, ImageStack


def rng_for(seed):
    return np.random.default_rng(seed)


def relative_error(a, b):
    """Norm of the difference relative to the larger of the two norms."""
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    denom = max(np.linalg.norm(a), np.linalg.norm(b), 1e-300)
    return float(np.linalg.norm(a - b) / denom)


def gram_matrix(fm):
    """Reference correlation matrix ``w * F^T F`` of a feature matrix, symmetrized."""
    raw = fm.quad_weight * (fm.entries.T @ fm.entries)
    return 0.5 * (raw + raw.T)


def random_image(grid, rng, lo=0.1, hi=1.0):
    data = rng.uniform(lo, hi, size=grid.dims)
    return Image(grid, data)


def smooth_random_field(grid, rng, amplitude, bias=0.0):
    """Random displacement field smoothed enough to be registration-like.

    ``bias`` adds a constant offset (in units of the grid spacing) per axis;
    FD gradient instances use it to keep sample points away from the bilinear
    kinks at cell centers, where one-sided and central derivatives disagree.
    """
    u = rng.standard_normal((*grid.dims, 2))
    for _ in range(3):
        u[1:-1] = 0.25 * (u[:-2] + 2.0 * u[1:-1] + u[2:])
        u[:, 1:-1] = 0.25 * (u[:, :-2] + 2.0 * u[:, 1:-1] + u[:, 2:])
    peak = np.abs(u).max()
    if peak > 0:
        u *= amplitude / peak
    if bias:
        u[..., 0] += bias * grid.spacing[0] * rng.choice([-1.0, 1.0])
        u[..., 1] += bias * grid.spacing[1] * rng.choice([-1.0, 1.0])
    return DisplacementField(grid, u)


def fd_instance(seed, k=3, dims=(8, 8), amp_cells=0.04):
    """Stack + nonzero fields suitable for finite-difference gradient checks."""
    rng = rng_for(seed)
    g = GridSpec(dims, spacing=(1.0 / dims[0], 1.0 / dims[1]))
    stack = stack_of(g, [rng.uniform(0.2, 1.2, size=g.dims) for _ in range(k)])
    h = min(g.spacing)
    fields = [smooth_random_field(g, rng, amp_cells * h, bias=0.4) for _ in range(k)]
    return stack, fields


def fd_safe_instance(stack, fields, step=1e-5, guard=20.0):
    """True when no perturbed sample point sits near a bilinear cell edge.

    The bilinear interpolant has kinks at integer index coordinates; a
    central difference straddling one does not match the one-sided analytic
    derivative.  Fixed test seeds are chosen so instances pass this check.
    """
    for img, field in zip(stack, fields):
        m1, m2 = img.grid.dims
        h1, h2 = img.grid.spacing
        q1 = np.arange(m1)[:, None] + field.u[..., 0] / h1
        q2 = np.arange(m2)[None, :] + field.u[..., 1] / h2
        for q, h in ((q1, h1), (q2, h2)):
            frac = np.abs(q - np.round(q))
            if np.any(frac < guard * step / h):
                return False
    return True


def stack_of(grid, datas):
    return ImageStack(tuple(Image(grid, d) for d in datas))


@pytest.fixture
def unit_grid8():
    return GridSpec((8, 8), origin=(0.0, 0.0), spacing=(1.0 / 8, 1.0 / 8))
