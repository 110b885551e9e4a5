import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import fft as sfft

from spde_ch import basis as basis_module
from spde_ch.basis import (
    NEUMANN, DIRICHLET, Basis, SpectralField, GridField, apply_operator,
    axis_cell_means, axis_eigenfunctions, axis_integrals, axis_norms,
    axis_overlap, axis_product,
)
from spde_ch.covariance import CovarianceSpec, gram_operator
from spde_ch.greens import chapman_kolmogorov_check, green_function
from spde_ch.malliavin import _mode_values_at
from spde_ch.noise import make_backend
from spde_ch.regularity import LinearOracle


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


# ----------------------------------------------------------------------
# pruned refined-grid route: bitwise equal to one padded transform

# Neumann shapes whose padded scale 1/sqrt((2 factor M)^d) is a power of two,
# {d: {factor: M values <= 16}}
ROUTED = {3: {2: (1, 4, 16), 4: (2, 8)},
          4: {2: (1, 2, 4, 8, 16), 4: (1, 2, 4, 8, 16)},
          5: {2: (1, 4, 16), 4: (2, 8)}}
# Refined grids above 2^20 points (d=4 x4 M=16, d=5 x2 M=16, d=5 x4 M=8) need
# several hundred MB per call, so the sweep stops at the quench-4d size.
ROUTED_CASES = [(d, f, M) for d, by_f in ROUTED.items()
                for f, ms in by_f.items() for M in ms
                if (f * M) ** d <= 2**20]


def _public_pair(b):
    """The basis's orthonormal pair as scipy.fft's public d-axis calls."""
    axes = tuple(range(-b.dim, 0))
    if b.bc == NEUMANN:
        fwd, inv, kind = sfft.dctn, sfft.idctn, 2
    else:
        fwd, inv, kind = sfft.dstn, sfft.idstn, 1
    return (lambda x: fwd(x, type=kind, norm="ortho", axes=axes),
            lambda x: inv(x, type=kind, norm="ortho", axes=axes,
                          overwrite_x=True))


def _padded_synthesis(b, coeffs, factor):
    d, M = b.dim, b.modes_per_axis
    h = b._fine_spacing(factor)
    padded = np.zeros(coeffs.shape[:-d] + (factor * M,) * d)
    padded[(...,) + (slice(0, M),) * d] = coeffs / h ** (d / 2.0)
    return _public_pair(b)[1](padded)


def _padded_projection(b, values, factor):
    d, M = b.dim, b.modes_per_axis
    full = _public_pair(b)[0](values)
    return full[(...,) + (slice(0, M),) * d] * b._fine_spacing(factor) ** (d / 2.0)


def _states(shape, lead, seed):
    """Random states with exact zeros: a zero first plane, and under a lead
    axis one all-zero state."""
    c = np.random.default_rng(seed).standard_normal(lead + shape)
    c[..., 0] = 0.0
    if lead:
        c[0] = 0.0
    return c


@pytest.mark.parametrize("d, factor, M", ROUTED_CASES)
def test_pruned_route_is_bitwise_the_padded_transform(d, factor, M):
    b = Basis(NEUMANN, d, M)
    leads = [()] + ([(2,)] if 2 * (factor * M) ** d <= 2**20 else [])
    for lead in leads:
        c = _states(b.shape, lead, 0)
        assert (b.values_on_refined_grid(c, factor).tobytes()
                == _padded_synthesis(b, c, factor).tobytes())
        v = _states((factor * M,) * d, lead, 1)
        assert (b.coeffs_from_refined_grid(v, factor).tobytes()
                == _padded_projection(b, v, factor).tobytes())


def _count_axis_calls(monkeypatch):
    """Names the one-axis passes among the pocketfft kernel calls of bases
    built after the patch: a pass is unscaled (inorm 0) and runs on a single
    axis, DCT type 3 back ("idct") and type 2 forward ("dct")."""
    calls = []
    for name in ("dct", "dst"):
        def kernel(x, type, axes, inorm, *rest,
                   _fn=getattr(basis_module.pypocketfft, name), _name=name):
            if inorm == 0 and len(axes) == 1:
                calls.append(("i" if type == 3 else "") + _name)
            return _fn(x, type, axes, inorm, *rest)
        monkeypatch.setattr(basis_module.pypocketfft, name, kernel)
    return calls


@pytest.mark.parametrize("bc, d, M, factor, passes", [
    (NEUMANN, 3, 4, 2, 3), (NEUMANN, 4, 8, 4, 4), (NEUMANN, 5, 2, 4, 5),
    (NEUMANN, 2, 16, 2, 0), (NEUMANN, 2, 12, 2, 0), (NEUMANN, 2, 16, 4, 0),
    (NEUMANN, 3, 10, 2, 0), (NEUMANN, 3, 4, 4, 0), (NEUMANN, 1, 8, 4, 0),
] + [(DIRICHLET, d, M, f, 0) for d in (1, 2, 3, 4, 5) for M in (1, 2, 4, 8)
     for f in (2, 4) if (f * M) ** d <= 2**20])
def test_only_power_of_four_neumann_shapes_in_d3_up_take_the_route(
        monkeypatch, bc, d, M, factor, passes):
    calls = _count_axis_calls(monkeypatch)
    b = Basis(bc, d, M)
    b.values_on_refined_grid(_states(b.shape, (), 2), factor)
    assert calls == ["idct"] * passes
    b.coeffs_from_refined_grid(_states((factor * M,) * d, (), 3), factor)
    assert calls == ["idct"] * passes + ["dct"] * passes


@pytest.mark.parametrize("factor", [0, -1, 1.5, "2", None])
def test_refined_grid_factor_must_be_a_positive_integer(factor):
    b = Basis(NEUMANN, 2, 4)
    with pytest.raises(ValueError, match=f"factor.*{factor!r}"):
        b.values_on_refined_grid(np.zeros(b.shape), factor)
    with pytest.raises(ValueError, match=f"factor.*{factor!r}"):
        b.coeffs_from_refined_grid(np.zeros((8, 8)), factor)
    assert b.values_on_refined_grid(np.zeros(b.shape), np.int64(3)).shape == (12, 12)


@pytest.mark.parametrize("d, M", [(2, 4), (3, 4)])
@pytest.mark.parametrize("bc", [NEUMANN, DIRICHLET])
def test_transforms_leave_their_inputs_untouched(bc, d, M):
    # the transforms scale their own outputs in place, never the input
    b = Basis(bc, d, M)
    rng = np.random.default_rng(d)
    coeffs = rng.standard_normal((2,) + b.shape)
    fine = rng.standard_normal((2,) + (2 * M,) * d)
    kept = coeffs.tobytes(), fine.tobytes()
    b.transform(coeffs)
    b.inverse_transform(coeffs)
    b.values_on_refined_grid(coeffs)
    b.coeffs_from_refined_grid(fine)
    b.dealiased_apply(lambda v: v**3, coeffs)
    b.lq_norm(coeffs, 3.0)
    assert (coeffs.tobytes(), fine.tobytes()) == kept


# ----------------------------------------------------------------------
# the kernel calls are bitwise the public scipy.fft calls

def _public(b, name, x, factor):
    """Each transform written with scipy.fft's public functions: the pair,
    the padded refined-grid calls, or the one-axis passes of the pruned
    route."""
    d, M = b.dim, b.modes_per_axis
    fwd, inv = _public_pair(b)
    x = np.asarray(x, dtype=float)
    if name == "transform":
        return fwd(x) * b.spacing ** (d / 2.0)
    if name == "inverse_transform":
        return inv(x / b.spacing ** (d / 2.0))
    scale = b._pruned_scale(factor)
    if name == "values_on_refined_grid":
        if scale is None:
            return _padded_synthesis(b, x, factor)
        cur = x / b._fine_spacing(factor) ** (d / 2.0) * scale
        for ax in range(-d, 0):
            cur = sfft.idct(cur, type=2, n=factor * M, axis=ax, norm="forward",
                            orthogonalize=True, overwrite_x=True)
        return cur
    if scale is None:
        return _padded_projection(b, x, factor)
    cur = x
    for ax in range(-d, 0):
        keep = (..., slice(0, M)) + (slice(None),) * (-ax - 1)
        cur = sfft.dct(cur, type=2, axis=ax, norm="backward",
                       orthogonalize=True)[keep]
    return (cur * scale) * b._fine_spacing(factor) ** (d / 2.0)


def _layouts(shape, seed):
    """One field and stacked fields of the given trailing shape: contiguous,
    a strided slice, a transpose (Fortran order) and an unaligned buffer."""
    rng = np.random.default_rng(seed)
    stacked = (2,) + shape
    n = math.prod(stacked)
    unaligned = np.frombuffer(bytearray(8 * n + 1), dtype=float, offset=1,
                              count=n).reshape(stacked)
    unaligned[...] = rng.standard_normal(stacked)
    assert not unaligned.flags.aligned
    strided = rng.standard_normal((2,) + tuple(2 * s for s in shape))
    return {
        "single": rng.standard_normal(shape),
        "stacked": rng.standard_normal(stacked),
        "sliced": strided[(...,) + (slice(None, None, 2),) * len(shape)],
        "transposed": rng.standard_normal(stacked[::-1]).T,
        "unaligned": unaligned,
    }


# (d, M, factor): Neumann takes the pruned route at d=3 M=4, d=4 M=2 and
# d=5 M=2 x4, the padded call elsewhere; Dirichlet always pads
KERNEL_CASES = [(1, 5, 2), (2, 4, 2), (3, 3, 2), (3, 4, 2), (4, 2, 2), (5, 2, 4)]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("d, M, factor", KERNEL_CASES)
@pytest.mark.parametrize("bc", [NEUMANN, DIRICHLET])
def test_kernel_calls_are_bitwise_the_public_scipy_fft_calls(bc, d, M, factor,
                                                             workers):
    b = Basis(bc, d, M)
    fine = (factor * M,) * d
    inputs = {"transform": b.shape, "inverse_transform": b.shape,
              "values_on_refined_grid": b.shape,
              "coeffs_from_refined_grid": fine}
    with sfft.set_workers(workers):
        for i, (name, shape) in enumerate(inputs.items()):
            for layout, x in _layouts(shape, i).items():
                args = (x,) if name.endswith("transform") else (x, factor)
                got = getattr(b, name)(*args)
                want = _public(b, name, x, factor)
                assert got.shape == want.shape, (name, layout)
                assert got.tobytes() == want.tobytes(), (name, layout)


def test_kernel_runs_single_threaded_on_aligned_input(monkeypatch):
    seen = []
    kernel = basis_module.pypocketfft.dct

    def recording(x, type, axes, inorm, out, nthreads, *rest):
        seen.append((nthreads, x.flags.aligned))
        return kernel(x, type, axes, inorm, out, nthreads, *rest)

    def unaligned(arr):
        buf = np.frombuffer(bytearray(arr.nbytes + 1), dtype=float, offset=1,
                            count=arr.size).reshape(arr.shape)
        buf[...] = arr
        return buf

    monkeypatch.setattr(basis_module.pypocketfft, "dct", recording)
    pruned, padded = Basis(NEUMANN, 3, 4), Basis(NEUMANN, 2, 4)
    for workers in (1, 2, 3):
        seen.clear()
        with sfft.set_workers(workers):
            for b in (pruned, padded):
                c = b.transform(unaligned(b.inverse_transform(np.ones(b.shape))))
                v = unaligned(b.values_on_refined_grid(c, 2))
                b.coeffs_from_refined_grid(v, 2)
        # pruned: 1 + 1 + 3 + 3 calls, padded: 4
        assert seen == [(1, True)] * 12


def test_kernel_loader_needs_exactly_one_file(tmp_path):
    with pytest.raises(ImportError, match=r"pypocketfft\{.*found 0"):
        basis_module._load_kernel(str(tmp_path))
    (tmp_path / "pypocketfft.so").write_bytes(b"")
    (tmp_path / "pypocketfft.abi3.so").write_bytes(b"")
    with pytest.raises(ImportError, match="found 2") as err:
        basis_module._load_kernel(str(tmp_path))
    assert str(tmp_path) in str(err.value)


def test_refined_grid_memory_guard_raises_before_allocating(monkeypatch):
    b = Basis(NEUMANN, 4, 8)
    c = np.ones((3,) + b.shape)
    need = 3 * 32**4 * 8
    monkeypatch.setattr(basis_module, "MAX_REFINED_BYTES", need - 1)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=rf"{need} bytes"):
            b.values_on_refined_grid(c, 4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    monkeypatch.setattr(basis_module, "MAX_REFINED_BYTES", need)
    assert b.values_on_refined_grid(c, 4).nbytes == need


# ----------------------------------------------------------------------
# the shared eigenbasis helpers


def test_axis_norms_are_the_two_constants():
    np.testing.assert_array_equal(
        axis_norms(NEUMANN, [0, 1, 5]),
        [1.0 / math.sqrt(math.pi), math.sqrt(2.0 / math.pi), math.sqrt(2.0 / math.pi)])
    np.testing.assert_array_equal(axis_norms(DIRICHLET, [1, 2, 7]),
                                  [math.sqrt(2.0 / math.pi)] * 3)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_axis_product_equals_outer_chain_bitwise(d):
    rng = np.random.default_rng(d)
    factors = [rng.standard_normal(m) for m in (3, 4, 5, 2)[:d]]
    chain = factors[0]
    for f in factors[1:]:
        chain = np.multiply.outer(chain, f)
    out = axis_product(factors)
    assert out.shape == chain.shape
    assert out.tobytes() == chain.tobytes()
    lead = rng.standard_normal(chain.shape)
    want = lead
    for i, f in enumerate(factors):
        want = want * f.reshape((1,) * i + (-1,) + (1,) * (d - i - 1))
    assert axis_product(factors, lead=lead).tobytes() == want.tobytes()


@pytest.mark.parametrize("deriv", [1, 2, 3])
def test_neumann_constant_mode_derivative_is_positive_zero(deriv):
    x = np.linspace(0.0, math.pi, 9)
    rows = axis_eigenfunctions(NEUMANN, np.arange(4), x, deriv=deriv)
    assert np.all(rows[0] == 0.0)
    assert not np.any(np.signbit(rows[0]))


@pytest.mark.parametrize("bc", [NEUMANN, DIRICHLET])
def test_axis_overlap_float_and_array_give_the_same_bits(bc):
    # the d=1 direct Gram evaluates it at floats, the mixture table at arrays
    u = np.concatenate([[0.0, 0.3, 1.7, math.pi],
                        np.linspace(0.0, math.pi, 37)[1:-1]])
    modes = Basis(bc, 1, 6).axis_modes
    for k in modes:
        for l in modes:
            g = axis_overlap(bc, k, l)
            at_floats = np.array([g(float(v)) for v in u])
            assert at_floats.tobytes() == g(u).tobytes(), (k, l)


# ----------------------------------------------------------------------
# golden bits: sha256 of every route through the eigenbasis, under both
# boundary conditions, recorded before the basis helpers were shared.
# Compared exactly; a changed digest means a changed floating-point value.

GOLDEN_M = {1: 6, 2: 5, 3: 4}


def _field(shape, seed):
    return np.random.default_rng(seed).standard_normal(shape)


def _basis_cases(bc, d):
    b = Basis(bc, d, GOLDEN_M[d])
    c = _field(b.shape, 1)
    x = np.linspace(0.4, 2.6, d)
    y = x[::-1] + 0.1
    probes = [(x, y), (x + 0.2, x)]
    fine = lambda f: _field((f * b.modes_per_axis,) * d, 2 + f)
    return {
        "transform": lambda: b.transform(_field(b.shape, 0)),
        "inverse": lambda: b.inverse_transform(c),
        "refined2": lambda: b.values_on_refined_grid(c, 2),
        "refined4": lambda: b.values_on_refined_grid(c, 4),
        "project2": lambda: b.coeffs_from_refined_grid(fine(2), 2),
        "project4": lambda: b.coeffs_from_refined_grid(fine(4), 4),
        "dealiased": lambda: b.dealiased_apply(lambda v: v**3 - v, c),
        "deriv-first": lambda: b.derivative(c, (2,) + (0,) * (d - 1)),
        "deriv-all": lambda: b.derivative(c, tuple(2 * (i + 1) for i in range(d))),
        "green": lambda: green_function(bc, d, 0.05, [x, x + 0.2], [y, x],
                                        modes_per_axis=6),
        "green-deriv": lambda: green_function(
            bc, d, [0.05, 0.1], [x, x + 0.2], [y, x],
            space_derivs=(1,) + (2,) * (d - 1), time_deriv=1, modes_per_axis=6),
        "chapman-kolmogorov": lambda: chapman_kolmogorov_check(
            bc, d, 0.3, 0.2, 0.1, probes, modes_per_axis=6),
        "mode-values": lambda: _mode_values_at(b, x),
        "oracle-point": lambda: LinearOracle(b, x=x).point_weight,
        "oracle-space": lambda: LinearOracle(b, q_diag=_field(b.shape, 5) ** 2)
        .space_increment(b.spacing, axis=d - 1, t=0.5),
        "gram-constant": lambda: gram_operator(
            CovarianceSpec.constant(d, 0.7), b).dense(),
    }


def _bc_cases(bc):
    b1 = Basis(bc, 1, 5)
    x = np.linspace(0.0, math.pi, 7)
    u = np.array([0.0, 0.3, 1.7, math.pi])
    riesz1 = CovarianceSpec.riesz(1, 0.5)
    cases = {f"axis-eig-{m}": (lambda m=m: axis_eigenfunctions(
        bc, b1.axis_modes, x, deriv=m)) for m in range(4)}
    cases.update({
        "gram-riesz-d1": lambda: gram_operator(riesz1, b1).dense(),
        "gram-riesz-d2": lambda: gram_operator(
            CovarianceSpec.riesz(2, 1.0), Basis(bc, 2, 4)).dense(),
        "cell-projection": lambda: axis_cell_means(bc, b1.axis_modes, 16),
        "projected-gram": lambda: make_backend(
            riesz1, b1, seed=0, kind="grid-cell",
            n_cells=16).sampled_gram.dense(),
        "pair-overlap": lambda: np.array([
            axis_overlap(bc, k, l)(v)
            for k in b1.axis_modes for l in b1.axis_modes for v in u]),
        "axis-overlap": lambda: np.array([
            [axis_overlap(bc, k, l)(u) for l in b1.axis_modes]
            for k in b1.axis_modes]),
        "constant-axis": lambda: axis_integrals(bc, b1.axis_modes),
    })
    return cases


def _golden_case(key):
    parts = key.split("/")
    if len(parts) == 3:
        bc, d, name = parts
        return _basis_cases(bc, int(d[1:]))[name]
    bc, name = parts
    return _bc_cases(bc)[name]


def _digest(arr):
    arr = np.ascontiguousarray(arr, dtype=float)
    return hashlib.sha256(repr(arr.shape).encode() + arr.tobytes()).hexdigest()


GOLDEN = {
    "dirichlet/axis-eig-0":
        "73907a9181f245cb1cd7493c8b1d13fc0c5d55f71c02d472652f6b807c079292",
    "dirichlet/axis-eig-1":
        "8700cccd575ebd6887a7f08439473692638b7c58e1f46ef99bc19ec18328b840",
    "dirichlet/axis-eig-2":
        "935a4bce8c23ec48986c2fe64308d04878b024ed79e5aa1312478361ece8ef66",
    "dirichlet/axis-eig-3":
        "140b5b815e453355f3132ef7a697ac809cad47236158b6844f3ca1fa3ec3fa89",
    "dirichlet/axis-overlap":
        "2aa1cdd4e619c6b987a073e195dba5432238683ee17f67462aea4cf5cae7fbe0",
    "dirichlet/cell-projection":
        "edf8119ff08c5c0e4ce8711dd862db660685b1f3d303b61f6df045664a5a22ce",
    "dirichlet/constant-axis":
        "9513349d19fe4e833f01740a94f2619fccdd55ce275aa7f2939a198ed246d483",
    "dirichlet/d1/chapman-kolmogorov":
        "47802c026e0be1656e9b0049f1b4dc36d308f1493f6aaa4689ceeb48cc7f2d71",
    "dirichlet/d1/dealiased":
        "3522bcb709f96b3c73f21410c8841f006f56f9c8c3043857ee19a507cbe94dca",
    "dirichlet/d1/deriv-all":
        "cd2f89ddec426bdb8be0d11b623dcaf82d5ac29e24d2a929890d0872430af92d",
    "dirichlet/d1/deriv-first":
        "cd2f89ddec426bdb8be0d11b623dcaf82d5ac29e24d2a929890d0872430af92d",
    "dirichlet/d1/gram-constant":
        "498870e3f3cbe352ee3c4a30e6a813c75dd186d8aef1716595f94f394fa837f2",
    "dirichlet/d1/green":
        "44b245ddefbb9dbf90645a1b1dae7840a0af2a8c567750262e2b98e4fffd6ee6",
    "dirichlet/d1/green-deriv":
        "b04a8e0d0c694327ea4e195fb0a4d634dd08d6ee86fa15765afda9ce221e3867",
    "dirichlet/d1/inverse":
        "a59f6ddfd14dcd6a951315f3cac8ce912b0f4543942dba9906d3ae9092169c64",
    "dirichlet/d1/mode-values":
        "67eab3a5ed6c9c2b416d69adb10ee861a78935133c1881c3d6c564cf74fae39d",
    "dirichlet/d1/oracle-point":
        "0b680f5ff5f8a7c17acecd50d267d3e7b5112ed5e22d18dbe8df474dbdaf8631",
    "dirichlet/d1/oracle-space":
        "98c088b8cf62e41c8400566cdfcd49b702399a09b4dea10aa1adc7c8fecb2bfc",
    "dirichlet/d1/project2":
        "6f6c8042e5de040648d211e29a6f8ec5a98c49e9975e33f6fafb88dccbf5b033",
    "dirichlet/d1/project4":
        "d970345674303918562edf40242908f4a6b06631b229328410b4f46f1afbdfc1",
    "dirichlet/d1/refined2":
        "9d7df4030f95b65bc1b5e5276f372bb0aadb844b5335a57dc46067aa7cd6ced3",
    "dirichlet/d1/refined4":
        "c6b3d329db31138815ebf7eab671bc676c1cf00d828d232d2cebb157f60a6f40",
    "dirichlet/d1/transform":
        "1ec1844381fc5930ea58e12050e586792633c1ad3c49a63dc926b7223139cdaa",
    "dirichlet/d2/chapman-kolmogorov":
        "d6f61d504b19ce87964ed42c9cb6679ad18b94969e6dd56805184ebb4407da88",
    "dirichlet/d2/dealiased":
        "0388f00512d90859953ceaf999f2330d1495409de38c6c11275422c60ac3cec1",
    "dirichlet/d2/deriv-all":
        "68a89043d9530eb421ec3a9850ac938f844a56df630447bea07b7b2185636dd9",
    "dirichlet/d2/deriv-first":
        "48aa49bc070e872612ba495eef7a80a9dda7c71bd6fb696146c1b1a94da69149",
    "dirichlet/d2/gram-constant":
        "2b43bfe0ebc413ce3900e0bbdfa6d07c834072f02a4dcf89c1e0ee5a3287e811",
    "dirichlet/d2/green":
        "cbf7d0b6dbf8a0e4d5b346afe0cb22ef7ff2a2a596d46c160cad73edb1c626fc",
    "dirichlet/d2/green-deriv":
        "a97afbb8fea2979366e408cfb9eb8dd9ed731f0ce70c0e046edbd40297b11004",
    "dirichlet/d2/inverse":
        "c78230f84f784e1fea8e291dac22ad48e3e31ceca1cbeab792c55dac76e742ad",
    "dirichlet/d2/mode-values":
        "9cb53cdf08ac5093c9c229f881d02b013d07ab17ea83548576b005a1555a89c8",
    "dirichlet/d2/oracle-point":
        "0aaf3064fabbeeb2d25edd33a755968535002c63bc340e6a62d0b584109f9c3a",
    "dirichlet/d2/oracle-space":
        "1c63cd007c2803929f4f39f51aef25dc5882d2d62aa700c262b9aa53761e6bdd",
    "dirichlet/d2/project2":
        "54d2b7c5f263d3146322d5f267b43c5b7ebc677d70e922a62799c3dc8477aaf0",
    "dirichlet/d2/project4":
        "ca4df61ef149f93ce0438723e2b3d33aa270ef297ecec01abfacef65e8802399",
    "dirichlet/d2/refined2":
        "5665c0151aa3619a12ec257150a0b85fa4e2a69bf2f269249f1097a63f275212",
    "dirichlet/d2/refined4":
        "9b9ce7b9bc18b68d0c4cea1eadb7c3d10ccc46a348be71feef66a0ca7c149a0e",
    "dirichlet/d2/transform":
        "49656eae34b3cf352e845be2af78adcb17915781a82f99acf47c83f5782acf9b",
    "dirichlet/d3/chapman-kolmogorov":
        "89a229ee0f5bdc2c70b2efd3a668ce6818b7a130269ae9920c9382bac7392ada",
    "dirichlet/d3/dealiased":
        "5b374be841468ceae352142e7134f0002be4bb6f18c9a3dc8b567c288f4c3046",
    "dirichlet/d3/deriv-all":
        "1197bfb5c51b22e7baddd0f25e9ce36a4066ca7a041b65a91134c8e449e582ba",
    "dirichlet/d3/deriv-first":
        "c47a81dbd854668bbc5a8cab359b04b666886d5d3c16a4ace8e9982e76b66a0a",
    "dirichlet/d3/gram-constant":
        "ee05d9c045ee7ddde042d7cda0adaa8db889ee8072eab67a914b83abbaac11b4",
    "dirichlet/d3/green":
        "68f6814a7a9a63da7a917920395fa11ea9d1ad0857216b30aac39ff6f72c9f6c",
    "dirichlet/d3/green-deriv":
        "880cf767b8aefa923e1a5e4b293c02e72ef0289a1acbf8e2522cfd9432194194",
    "dirichlet/d3/inverse":
        "a243985b5b00c95ad228f0223656f0340a9af36d0f95b0e609ebb98dbd62107a",
    "dirichlet/d3/mode-values":
        "21d4c8b4424600223a03082c8b8a76d1389ebe6a65b7f051805da7aa93c0b618",
    "dirichlet/d3/oracle-point":
        "edb13473803797937117aa82c616513be0e5a56791205a3f4d7169fa4dc76894",
    "dirichlet/d3/oracle-space":
        "4ff4fff64d38b3c031cecd757188e8a0ced824131bcdacb76fcf163e1abc5a29",
    "dirichlet/d3/project2":
        "35ed5019807824f8231de290e85436156ae9f193018e03248a3ecc4393bdb935",
    "dirichlet/d3/project4":
        "cbfdb3739e43ee1dcfdfcc96061aad1c4c21d7960e82304d07180f9f626df5b6",
    "dirichlet/d3/refined2":
        "d0d1752ff442cc086fc8209b92f68b7893b1a2acad3dba3fa9b7496fb9815388",
    "dirichlet/d3/refined4":
        "cc01bed643bc820312fe5fa77df3183b50e3b5de199d883911c0b642d676ec98",
    "dirichlet/d3/transform":
        "27bd4cd64d6be7b013077689dde4cb00b54865485e7940ff252ea85216fecbbc",
    "dirichlet/gram-riesz-d1":
        "b401817dc084a4f728570a96c55cc9e1ead020e4d7c66093e992598a67a44cfc",
    "dirichlet/gram-riesz-d2":
        "15169fe41f61b7c0edce299888cf3c69058979379f3bb0a8d5885a5dff76f330",
    "dirichlet/pair-overlap":
        "72c2cba935d30ff1ec800254456b98561838654a00f8a06cc2b6195d33f0df1a",
    "dirichlet/projected-gram":
        "b208934a9bc325e8c4a6418edb9418b91d82b36e04e2fd260694eba505328ff1",
    "neumann/axis-eig-0":
        "d0bd57e966437dc8b74780950977febc57274956a364f0e2a129c3a1adb6fc29",
    "neumann/axis-eig-1":
        "5ea690eadd1b59f6dbc69d09d247f33d3868b02985d80d9023f63dcf028c36d4",
    "neumann/axis-eig-2":
        "bd0d889bc63e4c25732299df2777a744c956199735935a9fc1df4b45feed5b9a",
    "neumann/axis-eig-3":
        "f5cb4215b9365e8a73ddcfdbd6d21e4581f7f7397b7480a30b33a3cf7f3f0eaf",
    "neumann/axis-overlap":
        "efc63260234a5310aacabeacc90c6eb86467b2d91268f16cf1c6ab8b528ef5b6",
    "neumann/cell-projection":
        "79214274bdac8f6aa5be12010b6c73376b906b01e44bf4cabcce0669ee187cba",
    "neumann/constant-axis":
        "157c9d00bb71b9a86fbd2c7ea98284f6bf77d1d1ac6994dd56f08f177f95039a",
    "neumann/d1/chapman-kolmogorov":
        "47802c026e0be1656e9b0049f1b4dc36d308f1493f6aaa4689ceeb48cc7f2d71",
    "neumann/d1/dealiased":
        "50225f97fa9fdc717f0367e8c20a1a51328cc705551f95c64f1b8ab0e034ce43",
    "neumann/d1/deriv-all":
        "4df9de8033bc8edc095c4182e45cde43506acf2b36759cd520ad0481edf47b1b",
    "neumann/d1/deriv-first":
        "4df9de8033bc8edc095c4182e45cde43506acf2b36759cd520ad0481edf47b1b",
    "neumann/d1/gram-constant":
        "8edfd6536e9623e370e5f0589dd3919dec452a20056385dbf3fff0f4aa3cc2ea",
    "neumann/d1/green":
        "033d2c4224cf5fbbe151ffac30d8935bd2f773649355aef5bf201031ea9833fb",
    "neumann/d1/green-deriv":
        "925f710cda12981d0d3e6bf93f8550d692ca55fa23e601f518cd0e96b89b2c13",
    "neumann/d1/inverse":
        "948ede94516e9f0d5a0a00d29f0bc3395b00f610aed01591d3e13c269ea33d6b",
    "neumann/d1/mode-values":
        "997586b39b142f34750937d4e229de7df51de58d9b3e5b18d99591bea02575d4",
    "neumann/d1/oracle-point":
        "ba4a401ffd05b7272edd1a4a56f040d256851de23c487a82a5d9fb260e27d856",
    "neumann/d1/oracle-space":
        "917cf7e12106371731cc59f37490f69f01b7f624a7adb8c8550fcfa25fbac488",
    "neumann/d1/project2":
        "d9f5c5afe12d54178b3209d2626c1dee654484d31f8de5dbc01a93637b6ad715",
    "neumann/d1/project4":
        "3afb4a6992bf15541cbe54ab028fcc9af6ecbeefcb432aac5e2a8f4d69d8c231",
    "neumann/d1/refined2":
        "bb044024effb56b5d3b1895ad9e8d216f1420643494211a52b6af64873cfa88b",
    "neumann/d1/refined4":
        "4659b0f72e8e9b0ef71b489de882207282dfaf0cd81e05cc812d15d49777a5a2",
    "neumann/d1/transform":
        "648971b4b28bbeb896467bfcb179f4da06c8cbbbaa05f31dd59f5afac4175ba2",
    "neumann/d2/chapman-kolmogorov":
        "47802c026e0be1656e9b0049f1b4dc36d308f1493f6aaa4689ceeb48cc7f2d71",
    "neumann/d2/dealiased":
        "8f886bcfdb7c6240145b024f717b8de8de4f649de2ffc6f4a9d27a934e432911",
    "neumann/d2/deriv-all":
        "98e7722418399e774e105fa5263d7d1eafd1a7925497daad0baa5c06ed389a84",
    "neumann/d2/deriv-first":
        "3efb64e1b073b505b31c6df5ab78d819cb380cddee0666ef515f4ecc509bcf38",
    "neumann/d2/gram-constant":
        "b705fda1e42eeb0555c76a4a8e0125c2517c073e6656b94ed8dd62e32d970b6f",
    "neumann/d2/green":
        "1ce7fbb0aee93af243aa5cdefa3fb9be8f3c7025caf6c7309546b082940dbd8d",
    "neumann/d2/green-deriv":
        "89adc4236a564d79955deec19bdd871590f118e4dba662489823b6ffa97fab45",
    "neumann/d2/inverse":
        "7e30337210314db718ef3e3be852a4c09e20b4ea9f38b0792ed153a5477ebb89",
    "neumann/d2/mode-values":
        "0e03b9f9f0177efd7712878784869e5047f8fc4acb167c5eb72230062a495226",
    "neumann/d2/oracle-point":
        "fa9b0b2dfa68f9d862c4f433a593470a33e5b336c0030b075f75453b525ffcc7",
    "neumann/d2/oracle-space":
        "0eb8bbbc2854fdcff216386aefbb7d360d28d655c1bdb3964ca842392f55fbdb",
    "neumann/d2/project2":
        "7fe4855719d9154ff1d99ca67e22a02a7d565e02715df19f10f3c41042aed562",
    "neumann/d2/project4":
        "13cda18ac5b9fddfe5b20192ab4f7bcd68ce3798301cba18f168960816aa1f6b",
    "neumann/d2/refined2":
        "8c29b7032bb275aa678964d18b82dbde297b78e118ff8af13c6f3fce269f3c64",
    "neumann/d2/refined4":
        "de2e7dc3a35fb6d56c174822abe43e516d37f72cdb8753dc64f2266fd1b116a3",
    "neumann/d2/transform":
        "58cd758419a31a2044579758aa058d797a7c6e45616361ebe6075b1343b1eb5d",
    "neumann/d3/chapman-kolmogorov":
        "47802c026e0be1656e9b0049f1b4dc36d308f1493f6aaa4689ceeb48cc7f2d71",
    "neumann/d3/dealiased":
        "df5c1164832e88ceac072ab1d1a5fdf4e42389fe2ff9e1bc649295a61ecb96c6",
    "neumann/d3/deriv-all":
        "54354ed627c154b283d6cd905a2f5852c0b8d16c42c248d36aa46112f95d90e0",
    "neumann/d3/deriv-first":
        "b45924b3ff6264cf8b72e9e4c91b9bcb9703b9540611c4332c6dac742175acba",
    "neumann/d3/gram-constant":
        "6df6f45f16f7b1848ad1cbd5933a657ed0be4bdb9337453258d990a675949145",
    "neumann/d3/green":
        "5a5db6b65f7a44fb2ace5fb2af15a3e953ed50ccb2e9433982b9f78654cd803e",
    "neumann/d3/green-deriv":
        "374033bfe6cceb3419564179e9a2341fd3b6f5cd18bb84d7c9f787ae2a47660a",
    "neumann/d3/inverse":
        "a9c54a2c317fa707e5ab1ac47fdd691d73ffb10198e67a42c23cbee3ace8f467",
    "neumann/d3/mode-values":
        "c3dd845af6b2b42feb21634a2316bdd753d39191ac8c23c6432fef3156d60bd7",
    "neumann/d3/oracle-point":
        "683ee8462a72be406ae809ff537592a5d0ae35d7f00c0dac674b46a9a6eee7cb",
    "neumann/d3/oracle-space":
        "5d26ae5eb5c3fb71e1a906cbec609e3955b2d7da1879fb629173941cc80b4642",
    "neumann/d3/project2":
        "4f4f09bfac55112f2bce0ee727759b87f0d0be80624f37b559ccec02643df9a5",
    "neumann/d3/project4":
        "c9ab25b74ac0a9bc0f626f32e73deba92df89478f801be9d201e9681ff402c5d",
    "neumann/d3/refined2":
        "b7a8dc873b4408d92e199af7d7232382e2751cb820cc297a67f996eaaec93bfa",
    "neumann/d3/refined4":
        "270f8ac0a0e1b101f238c25be22284fcff407347ee3d44b0c9e904ef9ebbc7bf",
    "neumann/d3/transform":
        "7b7d4c282b0e7d32ff24bca93adf86158eaf52f080123c2fb86b686736c30f47",
    "neumann/gram-riesz-d1":
        "a27aba57e3f3a803e74dde38579ed596665235b60b2dce69020da8a8c997392a",
    "neumann/gram-riesz-d2":
        "d8b68a8f3998d61c76e230c8f4f6e71fef8c2505d3aabd51b83fbcfec5affd9f",
    "neumann/pair-overlap":
        "e4e1baeadbe63fea31ffbb890ded4b987eee735402f9f3da0de93bca2bd60d37",
    "neumann/projected-gram":
        "6a7cf2e7fb0b6859960b3590ffe766beb7373279dc0fdeec2f4ef92bfbcd8427",
}


class TestBasisGoldenBits:
    def test_sweep_covers_every_case(self):
        keys = {f"{bc}/d{d}/{name}" for bc in (NEUMANN, DIRICHLET)
                for d in GOLDEN_M for name in _basis_cases(bc, d)}
        keys |= {f"{bc}/{name}" for bc in (NEUMANN, DIRICHLET)
                 for name in _bc_cases(bc)}
        assert keys == set(GOLDEN)

    @pytest.mark.parametrize("key", sorted(GOLDEN))
    def test_bits(self, key):
        assert _digest(_golden_case(key)()) == GOLDEN[key]
