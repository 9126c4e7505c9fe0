import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqnreg.accum import sorted_sum
from sqnreg.errors import RegularizerError
from sqnreg.grids import GridSpec, gradient_central_adjoint
from sqnreg.oracles import fd_gradient
from sqnreg.regularize import (
    Diffusion,
    Elastic,
    _stack_value_deferred,
    reg_eval,
    reg_glo,
    reg_hessian_apply,
)

from conftest import relative_error, rng_for, smooth_random_field


def grid16():
    return GridSpec((16, 16), spacing=(1.0 / 16, 1.0 / 16))


def test_zero_field_has_zero_energy_and_gradient():
    g = grid16()
    for kind in (Diffusion(alpha=0.1), Elastic(mu=1.0, lam=0.5, alpha=0.1)):
        v, grad = reg_eval(kind, g, np.zeros((*g.dims, 2)))
        assert v == 0.0
        assert np.all(grad() == 0.0)


def test_rigid_shift_costs_nothing():
    g = grid16()
    u = np.empty((*g.dims, 2))
    u[..., 0] = 0.3
    u[..., 1] = -0.1
    assert reg_eval(Diffusion(alpha=0.5), g, u)[0] == 0.0
    assert reg_eval(Elastic(mu=1.0, lam=0.7, alpha=0.5), g, u)[0] == 0.0


def test_diffusion_value_against_handwritten_sum():
    # independent oracle: explicit loops over forward differences
    rng = rng_for(1)
    g = GridSpec((5, 4), spacing=(0.5, 0.25))
    u = rng.standard_normal((5, 4, 2))
    alpha = 0.7
    total = 0.0
    for c in range(2):
        for i in range(4):
            for j in range(4):
                total += ((u[i + 1, j, c] - u[i, j, c]) / 0.5) ** 2
        for i in range(5):
            for j in range(3):
                total += ((u[i, j + 1, c] - u[i, j, c]) / 0.25) ** 2
    expected = 0.5 * alpha * g.cell_area * total
    value, _ = reg_eval(Diffusion(alpha=alpha), g, u)
    assert value == pytest.approx(expected, rel=1e-12)


def test_elastic_dilation_frozen_formula():
    g = grid16()
    c = g.cell_centers()
    eps, mu, lam, alpha = 0.01, 1.3, 0.6, 0.25
    u = eps * c  # uniform dilation about the origin
    value, _ = reg_eval(Elastic(mu=mu, lam=lam, alpha=alpha), g, u)
    expected = alpha * (2.0 * mu * eps**2 + 2.0 * lam * eps**2) * g.domain_area
    assert value == pytest.approx(expected, rel=1e-10)


def test_elastic_ignores_linearized_rotation():
    g = grid16()
    c = g.cell_centers()
    u = np.stack([-0.01 * c[..., 1], 0.01 * c[..., 0]], axis=-1)
    value, grad = reg_eval(Elastic(mu=1.0, lam=0.8, alpha=1.0), g, u)
    assert abs(value) <= 1e-14
    assert np.abs(grad()).max() <= 1e-12


@pytest.mark.parametrize(
    "kind", [Diffusion(alpha=0.3), Elastic(mu=1.1, lam=0.4, alpha=0.2)]
)
def test_gradients_match_fd(kind):
    rng = rng_for(2)
    g = GridSpec((7, 6), spacing=(1.0 / 7, 1.0 / 6))
    field = smooth_random_field(g, rng, 0.05)
    grad = reg_eval(kind, g, field.u)[1]()

    def value_of(u):
        return reg_eval(kind, g, u)[0]

    fd = fd_gradient(value_of, field.u.copy(), step=1e-6)
    assert relative_error(grad, fd) <= 1e-8


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_energy_is_quadratic_and_gradient_symmetric(seed):
    rng = rng_for(seed)
    g = GridSpec((6, 5), spacing=(0.4, 0.3))
    a = rng.standard_normal((6, 5, 2))
    b = rng.standard_normal((6, 5, 2))
    t = float(rng.uniform(0.5, 3.0))
    for kind in (Diffusion(alpha=0.5), Elastic(mu=0.9, lam=0.2, alpha=0.5)):
        va, ga = reg_eval(kind, g, a)
        ga = ga()
        vt, _ = reg_eval(kind, g, t * a)
        assert vt == pytest.approx(t**2 * va, rel=1e-10, abs=1e-14)
        gb = reg_eval(kind, g, b)[1]()
        # symmetry of the underlying operator: <H a, b> == <a, H b>
        assert np.sum(ga * b) == pytest.approx(np.sum(a * gb), rel=1e-10, abs=1e-12)
        # positive semidefinite: <a, H a> = 2 value >= 0
        assert np.sum(ga * a) == pytest.approx(2.0 * va, rel=1e-10)
        assert va >= 0.0


def test_hessian_apply_equals_gradient():
    rng = rng_for(3)
    g = grid16()
    u = rng.standard_normal((*g.dims, 2))
    for kind in (Diffusion(alpha=0.2), Elastic(mu=1.0, lam=0.3, alpha=0.2)):
        _, grad = reg_eval(kind, g, u)
        assert np.array_equal(reg_hessian_apply(kind, g, u), grad())


def test_reg_glo_sums_fields_and_is_permutation_invariant():
    rng = rng_for(4)
    g = grid16()
    fields = [smooth_random_field(g, rng, 0.1) for _ in range(5)]
    kind = Diffusion(alpha=0.15)
    u = np.stack([f.u for f in fields])
    value, gradient = reg_glo(kind, g, u)
    grads = gradient()
    singles = [reg_eval(kind, g, uk)[0] for uk in u]
    assert value == pytest.approx(sum(singles), rel=1e-12)
    assert grads.shape == (5, 16, 16, 2)
    perm = [4, 2, 0, 3, 1]
    value_p, gradient_p = reg_glo(kind, g, u[perm])
    assert value_p == value  # exactly, thanks to canonical accumulation
    assert np.array_equal(gradient_p(), grads[perm])


def test_reg_glo_and_reg_eval_reject_fields_off_the_grid():
    g = grid16()
    kind = Diffusion(alpha=0.1)
    for shape in ((2, 16, 8, 2), (2, 8, 16, 2), (2, 16, 16), (2, 16, 16, 3)):
        with pytest.raises(RegularizerError, match="u has shape"):
            reg_glo(kind, g, np.zeros(shape))
        with pytest.raises(RegularizerError, match="u has shape"):
            reg_eval(kind, g, np.zeros(shape[1:]))


def test_parameter_validation():
    with pytest.raises(RegularizerError):
        Diffusion(alpha=0.0)
    with pytest.raises(RegularizerError):
        Elastic(mu=0.0)
    with pytest.raises(RegularizerError):
        Elastic(mu=1.0, lam=-0.1)
    # ``bool``, strings and None are refused with the kind's own error
    for bad in (True, "0.1", None):
        for kind, name in [(Diffusion, "alpha"), (Elastic, "mu"), (Elastic, "lam"),
                           (Elastic, "alpha")]:
            with pytest.raises(RegularizerError, match=f"{name} must be"):
                kind(**{name: bad})


# ---------------------------------------------------------------------------
# stack kernels against the per-field reference


def _reference_value_grad(kind, grid, u):
    """Single-field reference, one grid axis at a time through
    ``np.moveaxis`` and ``np.gradient``.  The stack kernels must reproduce
    it bit for bit."""
    w = grid.cell_area
    if isinstance(kind, Diffusion):
        value = 0.0
        grad = np.zeros_like(u)
        for axis in range(2):
            h = grid.spacing[axis]
            f = np.moveaxis(u, axis, 0)
            d = np.moveaxis((f[1:] - f[:-1]) / h, 0, axis)
            value += float(np.sum(d**2))
            e = np.moveaxis(d, axis, 0)
            adj = np.zeros((grid.dims[axis], *e.shape[1:]))
            adj[:-1] -= e / h
            adj[1:] += e / h
            grad += np.moveaxis(adj, 0, axis)
        return 0.5 * kind.alpha * w * value, kind.alpha * w * grad
    g = np.empty((*grid.dims, 2, 2))
    for c in range(2):
        g[..., c, 0], g[..., c, 1] = np.gradient(u[..., c], *grid.spacing)
    strain = 0.5 * (g + np.swapaxes(g, -1, -2))
    tr = np.trace(strain, axis1=-2, axis2=-1)
    density = kind.mu * np.sum(strain**2, axis=(-2, -1)) + 0.5 * kind.lam * tr**2
    sens = 2.0 * kind.mu * strain
    sens[..., 0, 0] += kind.lam * tr
    sens[..., 1, 1] += kind.lam * tr
    sens *= kind.alpha * w
    grad = np.empty_like(u)
    for c in range(2):
        grad[..., c] = gradient_central_adjoint(sens[..., c, :], grid)
    return kind.alpha * w * float(np.sum(density)), grad


STACK_KINDS = [Diffusion(alpha=0.37), Elastic(mu=1.3, lam=0.6, alpha=0.21)]


def stack_value_grad(kind, grid, u):
    """Per-field values and gradients of the stack kernel, gradient forced."""
    values, grad = _stack_value_deferred(kind, grid, u)
    return values, grad()


def odd_grid():
    return GridSpec((9, 7), origin=(0.2, -0.1), spacing=(0.45, 0.7))


def random_stack(seed, grid, k=5):
    rng = rng_for(seed)
    scales = 10.0 ** rng.uniform(-3.0, 1.0, size=(k, 1, 1, 1))
    return scales * rng.standard_normal((k, *grid.dims, 2))


# the stencils' edge cases: two cells along an axis, where every entry along
# it is a boundary entry, and 8x8 grids at the pyramid's spacings
EDGE_GRIDS = [
    GridSpec((2, 7), spacing=(0.45, 0.7)),
    GridSpec((9, 2), spacing=(0.45, 0.7)),
    GridSpec((2, 2), spacing=(0.5, 0.25)),
    *(GridSpec((8, 8), spacing=(h, h)) for h in (1.0, 2.0, 4.0)),
]


def grid_id(g):
    return f"{g.dims[0]}x{g.dims[1]}-h{g.spacing[0]:g}x{g.spacing[1]:g}"


@pytest.mark.parametrize("g", [odd_grid(), *EDGE_GRIDS], ids=grid_id)
@pytest.mark.parametrize("kind", STACK_KINDS)
def test_stack_kernel_matches_per_field_reference_bitexact(kind, g):
    u = random_stack(5, g)
    values, grads = stack_value_grad(kind, g, u)
    assert values.shape == (u.shape[0],)
    hess = reg_hessian_apply(kind, g, u)
    for k in range(u.shape[0]):
        v_ref, g_ref = _reference_value_grad(kind, g, u[k])
        assert values[k] == v_ref
        assert np.array_equal(grads[k], g_ref)
        assert np.array_equal(hess[k], g_ref)
        v_one, g_one = reg_eval(kind, g, u[k])
        assert v_one == v_ref
        assert np.array_equal(g_one(), g_ref)
    value, grads_glo = reg_glo(kind, g, u)
    assert np.array_equal(grads_glo(), grads)
    assert value == reg_glo(kind, g, u[::-1])[0]
    # a non-contiguous stack (reversed along grid axis 1, or in Fortran
    # order) gives the bits of the reference on its fields
    for v in (u[:, :, ::-1], np.asfortranarray(u)):
        assert not v.flags.c_contiguous
        values_v, grads_v = stack_value_grad(kind, g, v)
        hess_v = reg_hessian_apply(kind, g, v)
        for k in range(v.shape[0]):
            v_ref, g_ref = _reference_value_grad(kind, g, np.ascontiguousarray(v[k]))
            assert values_v[k] == v_ref
            assert np.array_equal(grads_v[k], g_ref)
            assert np.array_equal(hess_v[k], g_ref)


@pytest.mark.parametrize("kind", STACK_KINDS)
def test_hessian_apply_single_field_equals_stack(kind):
    g = odd_grid()
    u = random_stack(6, g, k=3)
    stacked = reg_hessian_apply(kind, g, u)
    assert stacked.shape == u.shape
    for k in range(u.shape[0]):
        single = reg_hessian_apply(kind, g, u[k])
        assert single.shape == (*g.dims, 2)
        assert np.array_equal(single, stacked[k])
    # any number of leading axes
    nested = reg_hessian_apply(kind, g, u.reshape(3, 1, *g.dims, 2))
    assert np.array_equal(nested.reshape(u.shape), stacked)


@pytest.mark.parametrize("kind", STACK_KINDS)
def test_stack_kernel_permutation_equivariant_bitexact(kind):
    g = odd_grid()
    u = random_stack(7, g)
    perm = [3, 0, 4, 2, 1]
    values, grads = stack_value_grad(kind, g, u)
    values_p, grads_p = stack_value_grad(kind, g, u[perm])
    assert np.array_equal(values_p, values[perm])
    assert np.array_equal(grads_p, grads[perm])
    assert np.array_equal(reg_hessian_apply(kind, g, u[perm]), reg_hessian_apply(kind, g, u)[perm])


@pytest.mark.parametrize(
    "g",
    [*(GridSpec((9, 7), spacing=h) for h in [(1.0, 2.0), (0.5, 0.25), (0.45, 0.7)]), *EDGE_GRIDS],
    ids=grid_id,
)
@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("kind", STACK_KINDS)
def test_hessian_apply_into_out_matches_per_field_reference_bitexact(kind, k, g):
    u = random_stack(8, g, k=k)
    # a NaN-filled buffer: every entry of the result must be written
    out = np.full_like(u, np.nan)
    assert reg_hessian_apply(kind, g, u, out) is out
    for i in range(k):
        assert np.array_equal(out[i], _reference_value_grad(kind, g, u[i])[1])


@pytest.mark.parametrize("kind", STACK_KINDS)
def test_hessian_apply_rejects_wrong_shapes(kind):
    # ``Elastic`` runs its kernel directly, not through the value and
    # gradient of the stack, so it needs the shape checks of its own
    g = odd_grid()
    u = random_stack(11, g, k=2)
    out = np.zeros_like(u)
    with pytest.raises(RegularizerError, match="u has shape"):
        reg_hessian_apply(kind, g, np.zeros((2, 9, 6, 2)))
    with pytest.raises(RegularizerError, match="out has shape"):
        reg_hessian_apply(kind, g, u[0], out)
    with pytest.raises(RegularizerError, match="out has shape"):
        reg_hessian_apply(kind, g, u, out[0])
    assert np.all(out == 0.0)


@pytest.mark.parametrize("kind", STACK_KINDS)
def test_gradient_callable_runs_once_bitexact(kind):
    g = odd_grid()
    u = random_stack(10, g, k=4)
    values, grads = stack_value_grad(kind, g, u)
    value, gradient = reg_glo(kind, g, u)
    assert value == sorted_sum(values)
    first = gradient()
    assert np.array_equal(first, grads)
    # a second call returns the same gradients, not a recomputation from
    # state the first call consumed
    assert gradient() is first
    v_one, g_one = reg_eval(kind, g, u[2])
    assert v_one == values[2]
    assert np.array_equal(g_one(), grads[2])


@pytest.mark.parametrize("kind", STACK_KINDS)
def test_deferred_gradient_does_not_keep_the_input_alive(kind):
    # the line search holds the deferred state of two trials; it must not
    # hold their displacement stacks too
    g = odd_grid()
    u = random_stack(12, g, k=3)
    _, gradient = _stack_value_deferred(kind, g, u)
    ref = weakref.ref(u)
    del u
    assert ref() is None
    assert gradient().shape == (3, *g.dims, 2)
