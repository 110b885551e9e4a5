import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spde_ch.basis import (
    NEUMANN, DIRICHLET, Basis, SpectralField, GridField, apply_operator,
)


def brute_force_coeff(basis, values, k):
    """Quadrature oracle: <e_k, f> summed point by point, no FFT."""
    grid = basis.grid()
    ek = basis.eigenfunction(k, grid)
    return np.sum(ek * values) * basis.quad_weight()


def test_eigenvalue_examples():
    b = Basis(NEUMANN, 2, 8)
    assert b.eigenvalue((1, 2)) == 5.0         # 1 + 4
    b5 = Basis(NEUMANN, 5, 3)
    assert b5.eigenvalue((1, 1, 1, 1, 1)) == 5.0
    assert b5.biharmonic_eigenvalues[(1,) * 5] == 25.0
    d = Basis(DIRICHLET, 1, 4)
    assert d.eigenvalue((3,)) == 9.0


def test_eigenfunction_values():
    b = Basis(NEUMANN, 1, 8)
    # constant mode
    assert b.eigenfunction((0,), 1.234) == pytest.approx(1 / math.sqrt(math.pi))
    # cos(1 * pi) = -1
    assert b.eigenfunction((1,), math.pi) == pytest.approx(-math.sqrt(2 / math.pi))
    d = Basis(DIRICHLET, 1, 8)
    assert d.eigenfunction((2,), math.pi / 4) == pytest.approx(math.sqrt(2 / math.pi))
    # Dirichlet functions vanish on the boundary
    assert d.eigenfunction((3,), 0.0) == pytest.approx(0.0, abs=1e-14)
    assert d.eigenfunction((3,), math.pi) == pytest.approx(0.0, abs=1e-14)


def test_eigenfunction_tensor_product():
    b = Basis(NEUMANN, 2, 6)
    pt = np.array([0.3, 1.1])
    v = b.eigenfunction((2, 0), pt)
    expected = math.sqrt(2 / math.pi) * math.cos(2 * 0.3) / math.sqrt(math.pi)
    assert v == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize("bc", [NEUMANN, DIRICHLET])
@pytest.mark.parametrize("dim,M", [(1, 16), (2, 8), (3, 5)])
def test_orthonormality_on_grid(bc, dim, M):
    """Quadrature of <e_k, e_l> equals delta_kl for every retained pair."""
    b = Basis(bc, dim, M)
    grid = b.grid()
    modes = [tuple(b.axis_modes[i] for i in idx) for idx in np.ndindex(*b.shape)]
    # evaluate all eigenfunctions on the grid once
    evals = np.stack([b.eigenfunction(k, grid) for k in modes])
    gram = np.tensordot(evals, evals, axes=(tuple(range(1, dim + 1)),) * 2)
    gram *= b.quad_weight()
    assert np.max(np.abs(gram - np.eye(len(modes)))) < 1e-10


@pytest.mark.parametrize("bc", [NEUMANN, DIRICHLET])
def test_transform_matches_quadrature_oracle(bc):
    rng = np.random.default_rng(7)
    b = Basis(bc, 2, 6)
    vals = rng.standard_normal(b.shape)
    coeffs = b.transform(vals)
    for k_idx in [(0, 0), (1, 3), (5, 5), (2, 0)]:
        k = tuple(b.axis_modes[i] for i in k_idx)
        assert coeffs[k_idx] == pytest.approx(brute_force_coeff(b, vals, k), rel=1e-11, abs=1e-12)


@pytest.mark.parametrize("bc", [NEUMANN, DIRICHLET])
@pytest.mark.parametrize("dim,M", [(1, 32), (2, 12), (4, 4)])
def test_round_trip(bc, dim, M):
    rng = np.random.default_rng(11)
    b = Basis(bc, dim, M)
    vals = rng.standard_normal(b.shape)
    back = b.inverse_transform(b.transform(vals))
    assert np.max(np.abs(back - vals)) <= 1e-12 * max(1.0, np.max(np.abs(vals)))


@given(seed=st.integers(0, 2**32 - 1),
       bc=st.sampled_from([NEUMANN, DIRICHLET]),
       M=st.integers(1, 24))
@settings(max_examples=40, deadline=None)
def test_round_trip_and_parseval_property(seed, bc, M):
    rng = np.random.default_rng(seed)
    b = Basis(bc, 1, M)
    vals = rng.standard_normal(b.shape) * 10.0
    c = b.transform(vals)
    back = b.inverse_transform(c)
    scale = max(1.0, float(np.max(np.abs(vals))))
    assert np.max(np.abs(back - vals)) <= 1e-12 * scale
    # Parseval: grid L2 norm == coefficient l2 norm
    grid_norm = b.lq_norm(vals, 2)
    coeff_norm = math.sqrt(float(np.sum(c * c)))
    assert abs(grid_norm - coeff_norm) <= 1e-10 * max(1.0, grid_norm)


def test_transform_stacked_leading_axes():
    rng = np.random.default_rng(3)
    b = Basis(NEUMANN, 2, 5)
    batch = rng.standard_normal((4, 3) + b.shape)
    c = b.transform(batch)
    for i in range(4):
        for j in range(3):
            assert np.allclose(c[i, j], b.transform(batch[i, j]), atol=1e-14)


@pytest.mark.parametrize("bc", [NEUMANN, DIRICHLET])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_stacked_transforms_equal_per_field_bit_for_bit(bc, dim):
    # chunked tangent propagation relies on results not depending on how
    # many fields share one call
    rng = np.random.default_rng(dim)
    b = Basis(bc, dim, 5)
    batch = rng.standard_normal((7,) + b.shape)
    fine = rng.standard_normal((7,) + (10,) * dim)
    for fn, stack in ((b.transform, batch), (b.inverse_transform, batch),
                      (b.values_on_refined_grid, batch),
                      (b.coeffs_from_refined_grid, fine)):
        whole = fn(stack)
        for i in range(len(stack)):
            assert np.array_equal(whole[i], fn(stack[i])), (fn.__name__, i)
        assert np.array_equal(whole[2:5], fn(stack[2:5])), fn.__name__


def test_laplacian_example_and_biharmonic_consistency():
    b = Basis(NEUMANN, 2, 4)
    coeffs = np.zeros(b.shape)
    coeffs[1, 2] = 1.0
    lap = b.laplacian(coeffs)
    assert lap[1, 2] == -5.0                    # -(1+4)
    twice = b.laplacian(b.laplacian(coeffs))
    bih = b.biharmonic(coeffs)
    assert np.array_equal(twice, bih)           # exact in floating point


def test_derivative_operator():
    b = Basis(DIRICHLET, 2, 4)
    coeffs = np.zeros(b.shape)
    coeffs[1, 0] = 2.0                          # mode (2, 1)
    out = b.derivative(coeffs, (2, 0))
    assert out[1, 0] == pytest.approx(2.0 * (-4.0))   # (-k^2) with k=2
    with pytest.raises(ValueError):
        b.derivative(coeffs, (1, 0))            # odd order leaves the basis
    with pytest.raises(ValueError):
        b.derivative(coeffs, (2,))


@pytest.mark.parametrize("bc", [NEUMANN, DIRICHLET])
def test_dealiased_cubic_exact(bc):
    """Pointwise cube of a low-mode field, projected without aliasing.

    Oracle: dense quadrature of <e_k, u^3> at 4x resolution.
    """
    rng = np.random.default_rng(5)
    b = Basis(bc, 1, 8)
    coeffs = np.zeros(b.shape)
    coeffs[:3] = rng.standard_normal(3)
    cube = b.dealiased_apply(lambda v: v**3, coeffs)

    fine = Basis(bc, 1, 64)
    xs = fine.grid()[..., 0]
    u = np.zeros_like(xs)
    for i in range(8):
        k = int(b.axis_modes[i])
        u += coeffs[i] * b.axis_function(k, xs)
    for i in range(8):
        k = int(b.axis_modes[i])
        oracle = np.sum(u**3 * b.axis_function(k, xs)) * fine.quad_weight()
        assert cube[i] == pytest.approx(oracle, rel=1e-10, abs=1e-12)


def test_dealiasing_matters_for_cubes():
    """Without padding the cube of the top mode aliases; with padding it
    agrees with dense quadrature (regression guard for the factor)."""
    b = Basis(NEUMANN, 1, 8)
    coeffs = np.zeros(b.shape)
    coeffs[7] = 1.0
    naive = b.transform(b.inverse_transform(coeffs) ** 3)
    clean = b.dealiased_apply(lambda v: v**3, coeffs)
    assert np.max(np.abs(naive - clean)) > 1e-3


def test_lq_norms():
    b = Basis(NEUMANN, 1, 16)
    vals = np.ones(b.shape) * 2.0
    assert b.lq_norm(vals, 2) == pytest.approx(2.0 * math.sqrt(math.pi))
    assert b.lq_norm(vals, math.inf) == pytest.approx(2.0)
    assert b.integrate(vals) == pytest.approx(2.0 * math.pi)
    with pytest.raises(ValueError):
        b.lq_norm(vals, 0.5)


def test_field_wrappers_and_validation():
    b = Basis(NEUMANN, 1, 8)
    f = SpectralField(b, np.zeros(8))
    g = f.to_grid()
    assert isinstance(g, GridField)
    assert np.all(g.values == 0)
    with pytest.raises(ValueError):
        SpectralField(b, np.zeros(7))
    bad = np.zeros(8)
    bad[0] = np.nan
    with pytest.raises(ValueError):
        GridField(b, bad)
    h = apply_operator(SpectralField(b, np.ones(8)), "laplacian")
    assert h.coeffs[2] == -4.0
    with pytest.raises(ValueError):
        apply_operator(f, "gradient")


def test_constructor_validation():
    with pytest.raises(ValueError):
        Basis("periodic", 1, 8)
    with pytest.raises(ValueError):
        Basis(NEUMANN, 0, 8)
    with pytest.raises(ValueError):
        Basis(NEUMANN, 6, 8)
    with pytest.raises(ValueError):
        Basis(NEUMANN, 5, 64)   # 64^5 modes over the cap
    with pytest.raises(ValueError):
        Basis(NEUMANN, 1, 8).eigenvalue((9,))
