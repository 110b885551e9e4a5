"""Tangent propagation, Malliavin matrices and the density criterion."""

import dataclasses
import functools
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from spde_ch.basis import DIRICHLET, NEUMANN, Basis, axis_eigenfunctions
from spde_ch.covariance import CovarianceSpec, gram_operator
from spde_ch import malliavin
from spde_ch.malliavin import (ABSOLUTELY_CONTINUOUS, DEGENERATE,
                               INCONCLUSIVE, MalliavinMatrix,
                               decomposition_terms, density_criterion,
                               malliavin_matrix, tangent_propagate,
                               thinning_check)
from spde_ch.noise import BACKEND_KINDS, GRID_CELL, WHITE, make_backend
from spde_ch.solver import (EXPONENTIAL_EULER, SEMI_IMPLICIT, ModelSpec,
                            SolverConfig, _propagators, simulate)


def neumann_basis(M=32):
    return Basis(NEUMANN, dim=1, modes_per_axis=M)


def ou_variances(basis, t0):
    lam2 = basis.biharmonic_eigenvalues
    out = np.full(basis.shape, float(t0))
    pos = lam2 > 0
    out[pos] = (1.0 - np.exp(-2.0 * lam2[pos] * t0)) / (2.0 * lam2[pos])
    return out


def point_modes(basis, pts):
    """e_k(x) over every multi-index k, one flattened row per point."""
    rows = []
    for p in np.atleast_2d(pts):
        e = np.ones(())
        for xa in p:
            e = np.multiply.outer(
                e, axis_eigenfunctions(basis.bc, basis.axis_modes, xa))
        rows.append(e.reshape(-1))
    return np.stack(rows)


class Nudged:
    """Adds shift to the increment of one (step, path) of a backend."""

    def __init__(self, base, step, path, shift):
        self.base, self.key, self.shift = base, (step, path), shift

    def sample_coefficients(self, dt, step, path=0):
        inc = self.base.sample_coefficients(dt, step=step, path=path)
        return inc + self.shift if (step, path) == self.key else inc


GAMMA_SCRIPT = r"""
import numpy as np
from spde_ch.basis import NEUMANN, Basis
from spde_ch.malliavin import TangentState, malliavin_matrix
basis = Basis(NEUMANN, 1, 8)
D = np.random.default_rng(0).standard_normal((80, 144, 8))
tang = TangentState(basis=basis, r_indices=np.arange(80),
                    r_times=1e-3 * np.arange(80), derivatives=D, t0=0.08,
                    dt=1e-3, thin=1, trajectory=None, model=None, config=None,
                    backend=None)
print(malliavin_matrix(tang, [[0.7], [1.3], [2.1]]).gamma.tobytes().hex())
"""


@functools.cache
def _additive_run(scheme):
    basis = neumann_basis(32)
    backend = make_backend(CovarianceSpec.white(1), basis, seed=3)
    model = ModelSpec(bc=NEUMANN, sigma=1.3)
    config = SolverConfig(dt=0.0025, t_final=0.1, scheme=scheme)
    traj = simulate(model, config, basis, backend=backend)
    tang = tangent_propagate(traj, model, config, basis, backend)
    return basis, backend, model, config, traj, tang


@functools.cache
def _window_run(kind, scheme):
    """A linear run on each backend kind: white noise is _additive_run; the
    others sample a Riesz kernel, which the diagonal (d=2) and grid-cell
    (d=1) backends approximate."""
    if kind == WHITE:
        return _additive_run(scheme)
    dim, M = (1, 12) if kind == GRID_CELL else (2, 6)
    basis = Basis(NEUMANN, dim, M)
    backend = make_backend(CovarianceSpec.riesz(dim, 0.5), basis, seed=3,
                           kind=kind)
    model = ModelSpec(bc=NEUMANN, sigma=0.5)
    config = SolverConfig(dt=2e-3, t_final=0.08, scheme=scheme)
    traj = simulate(model, config, basis, backend=backend)
    tang = tangent_propagate(traj, model, config, basis, backend)
    return basis, backend, model, config, traj, tang


@pytest.fixture(scope="module")
def additive_run():
    return _additive_run(EXPONENTIAL_EULER)


@pytest.fixture(scope="module")
def multiplicative_run():
    basis = neumann_basis(16)
    backend = make_backend(CovarianceSpec.white(1), basis, seed=9)
    model = ModelSpec(bc=NEUMANN, reaction=(1.0, 0.0, -1.0, 0.0),
                      sigma=lambda t, x, u: 0.4 + 0.1 * np.sin(u))
    jac = {"sigma": lambda t, x, u: 0.1 * np.cos(u)}
    config = SolverConfig(dt=1e-3, t_final=0.08, truncation=4.0)
    u0 = basis.transform(0.3 * np.cos(basis.grid()[..., 0]))
    traj = simulate(model, config, basis, backend=backend, u0=u0)
    tang = tangent_propagate(traj, model, config, basis, backend, jacobians=jac)
    return basis, backend, model, config, jac, traj, tang


@functools.cache
def _riesz_run(scheme, sigma, path=0, thin=1, t_final=0.08):
    """d=1 Neumann Cahn-Hilliard path on a Riesz kernel with its tangent at
    t0 = 0.08; sigma is "scalar" (0.5) or "callable" (0.5 + 0.3 sin u)."""
    basis = neumann_basis(16)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        backend = make_backend(CovarianceSpec.riesz(1, B=0.5), basis, seed=4)
    jac = None
    if sigma == "scalar":
        model = ModelSpec(bc=NEUMANN, reaction=(1.0, 0.0, -1.0, 0.0),
                          sigma=0.5)
    else:
        model = ModelSpec(bc=NEUMANN, reaction=(1.0, 0.0, -1.0, 0.0),
                          sigma=lambda t, x, u: 0.5 + 0.3 * np.sin(u))
        jac = {"sigma": lambda t, x, u: 0.3 * np.cos(u)}
    config = SolverConfig(dt=2e-3, t_final=t_final, scheme=scheme)
    u0 = basis.transform(0.8 * np.cos(basis.grid()[..., 0]))
    traj = simulate(model, config, basis, backend=backend, u0=u0, path=path)
    tang = tangent_propagate(traj, model, config, basis, backend, t0=0.08,
                             thin=thin, jacobians=jac)
    return basis, backend, model, traj, tang


class TestTangentPropagate:
    def test_zero_sigma_tangent_vanishes(self):
        basis = neumann_basis(16)
        backend = make_backend(CovarianceSpec.white(1), basis, seed=1)
        model = ModelSpec(bc=NEUMANN, sigma=0.0)
        config = SolverConfig(dt=0.01, t_final=0.1)
        traj = simulate(model, config, basis, backend=backend)
        tang = tangent_propagate(traj, model, config, basis, backend)
        assert np.all(tang.derivatives == 0.0)
        gamma = malliavin_matrix(tang, np.array([[1.0], [2.0]])).gamma
        assert np.all(gamma == 0.0)

    def test_additive_rows_match_semigroup_columns(self, additive_run):
        basis, backend, model, config, traj, tang = additive_run
        lam2 = basis.biharmonic_eigenvalues
        _, _, noise_w = _propagators(basis, config.dt)
        cols = np.stack([backend.direction_coefficients(j)
                         for j in range(backend.n_directions)])
        for r in (0, 10, 39):
            age = tang.t0 - traj.times[r + 1]
            expect = 1.3 * noise_w * np.exp(-lam2 * age) * cols
            got = tang.derivatives[r]
            assert np.abs(got - expect).max() <= 1e-12 * np.abs(expect).max()

    def test_rows_after_t0_are_exactly_zero(self, additive_run):
        basis, backend, model, config, traj, _ = additive_run
        tang = tangent_propagate(traj, model, config, basis, backend, t0=0.05)
        late = tang.derivatives[tang.r_times >= 0.05 - 1e-12]
        assert late.size > 0 and np.all(late == 0.0)
        early = tang.derivatives[tang.r_times < 0.05 - 1e-12]
        assert np.any(early != 0.0)

    def test_semi_implicit_scheme(self):
        basis = neumann_basis(12)
        backend = make_backend(CovarianceSpec.white(1), basis, seed=2)
        model = ModelSpec(bc=NEUMANN, sigma=0.7)
        config = SolverConfig(dt=0.01, t_final=0.05, scheme="semi-implicit")
        traj = simulate(model, config, basis, backend=backend)
        tang = tangent_propagate(traj, model, config, basis, backend)
        lam2 = basis.biharmonic_eigenvalues
        _, _, noise_w = _propagators(basis, config.dt)
        cols = np.stack([backend.direction_coefficients(j)
                         for j in range(backend.n_directions)])
        expect = 0.7 * noise_w * cols / (1.0 + lam2 * config.dt) ** 2
        got = tang.derivatives[2]
        assert np.abs(got - expect).max() <= 1e-12 * np.abs(expect).max()

    def test_scheme_or_step_unlike_the_trajectory_refused(self, additive_run):
        # the tangent linearises the scheme that produced the states
        basis, backend, model, config, traj, _ = additive_run
        for other in (SolverConfig(dt=config.dt, t_final=config.t_final,
                                   scheme=SEMI_IMPLICIT),
                      SolverConfig(dt=config.dt / 2, t_final=config.t_final)):
            with pytest.raises(ValueError, match="does not match the trajectory"):
                tangent_propagate(traj, model, other, basis, backend)

    def test_thinning_keeps_every_kth_row(self, additive_run):
        basis, backend, model, config, traj, tang = additive_run
        thinned = tangent_propagate(traj, model, config, basis, backend, thin=4)
        assert np.array_equal(thinned.r_indices, np.arange(0, 40, 4))
        # retained rows agree with the unthinned tangent
        assert np.allclose(thinned.derivatives, tang.derivatives[::4],
                           rtol=0, atol=1e-15)

    def test_thinning_doubling_check_is_small(self, multiplicative_run):
        basis, backend, model, config, jac, traj, _ = multiplicative_run
        pts = np.array([[1.1], [2.0]])
        chk = thinning_check(traj, model, config, basis, backend, pts,
                             thin=2, jacobians=jac)
        assert chk["relative_difference"] < 0.1
        assert chk["gamma"].shape == (2, 2)

    def test_callable_sigma_needs_jacobian(self, multiplicative_run):
        basis, backend, model, config, _, traj, _ = multiplicative_run
        with pytest.raises(ValueError, match="u-derivative"):
            tangent_propagate(traj, model, config, basis, backend)

    def test_callable_forcing_needs_jacobian(self):
        basis = neumann_basis(12)
        backend = make_backend(CovarianceSpec.white(1), basis, seed=4)
        model = ModelSpec(bc=NEUMANN, sigma=0.5, forcing=lambda t, x, u: u)
        config = SolverConfig(dt=0.01, t_final=0.05)
        traj = simulate(model, config, basis, backend=backend)
        with pytest.raises(ValueError, match="forcing"):
            tangent_propagate(traj, model, config, basis, backend)
        tang = tangent_propagate(traj, model, config, basis, backend,
                                 jacobians={"forcing": lambda t, x, u: 1.0})
        assert np.all(np.isfinite(tang.derivatives))

    def test_zero_forcing_derivative_transforms_nothing_per_slice(
            self, monkeypatch):
        # A constant forcing differentiates to 0.0, so its tangent term
        # g'(u) T would only add signed zeros: neither T nor g'(u) T is
        # transformed, and u is synthesised once per step to evaluate g'.
        basis = neumann_basis(12)
        backend = make_backend(CovarianceSpec.white(1), basis, seed=4)
        model = ModelSpec(bc=NEUMANN, reaction=(1.0, 0.0, -1.0, 0.0),
                          sigma=0.5, forcing=lambda t, x, u: 0.1)
        config = SolverConfig(dt=0.01, t_final=0.05)
        traj = simulate(model, config, basis, backend=backend)
        calls = {"transform": 0, "inverse_transform": 0}
        for name in calls:
            def counted(arr, _fn=getattr(basis, name), _name=name):
                calls[_name] += 1
                return _fn(arr)
            monkeypatch.setattr(basis, name, counted)
        tang = tangent_propagate(traj, model, config, basis, backend,
                                 jacobians={"forcing": lambda t, x, u: 0.0})
        assert calls == {"transform": 0, "inverse_transform": 5}
        assert np.all(np.isfinite(tang.derivatives))

    def test_drift_needs_jacobian(self):
        basis = neumann_basis(12)
        backend = make_backend(CovarianceSpec.white(1), basis, seed=4)
        model = ModelSpec(bc=NEUMANN, sigma=0.5,
                          drifts=(((0,), lambda u: 0.5 * u),))
        config = SolverConfig(dt=0.01, t_final=0.05)
        traj = simulate(model, config, basis, backend=backend)
        with pytest.raises(ValueError, match="drift"):
            tangent_propagate(traj, model, config, basis, backend)
        tang = tangent_propagate(traj, model, config, basis, backend,
                                 jacobians={"drifts": (lambda u: 0.5,)})
        assert np.all(np.isfinite(tang.derivatives))

    def test_linear_drift_tangent_closed_form(self):
        # du = (-Lap^2 + 1) u dt + sigma dW: tangent rows decay by e^{(-lam^2+1) age}
        basis = neumann_basis(12)
        backend = make_backend(CovarianceSpec.white(1), basis, seed=6)
        model = ModelSpec(bc=NEUMANN, sigma=1.0,
                          drifts=(((0,), lambda u: u),))
        config = SolverConfig(dt=1e-4, t_final=0.02)
        traj = simulate(model, config, basis, backend=backend)
        tang = tangent_propagate(traj, model, config, basis, backend,
                                 jacobians={"drifts": (lambda u: 1.0,)})
        lam2 = basis.biharmonic_eigenvalues
        _, _, noise_w = _propagators(basis, config.dt)
        cols = np.stack([backend.direction_coefficients(j)
                         for j in range(backend.n_directions)])
        age = tang.t0 - traj.times[1]
        expect = noise_w * np.exp((-lam2 + 1.0) * age) * cols
        got = tang.derivatives[0]
        assert np.abs(got - expect).max() <= 2e-3 * np.abs(expect).max()

    def test_exploded_trajectory_refused(self):
        basis = neumann_basis(8)
        model = ModelSpec(bc=NEUMANN, drifts=(((0,), lambda u: u**3),))
        config = SolverConfig(dt=1e-3, t_final=0.3)
        u0 = basis.transform(2.0 * np.ones((8,)))
        traj = simulate(model, config, basis, u0=u0)
        assert traj.exploded
        backend = make_backend(CovarianceSpec.white(1), basis, seed=0)
        with pytest.raises(ValueError, match="exploded"):
            tangent_propagate(traj, model, config, basis, backend,
                              jacobians={"drifts": (lambda u: 3 * u**2,)})

    def test_cutoff_before_t0_refused(self):
        basis = neumann_basis(8)
        model = ModelSpec(bc=NEUMANN, reaction=(1.0, 0.0, 0.0, 0.0),
                          sigma=0.0, forcing=lambda t, x, u: 1.0)
        config = SolverConfig(dt=0.01, t_final=0.4, truncation=1.0)
        u0 = basis.transform(0.5 * np.ones((8,)))
        traj = simulate(model, config, basis, u0=u0)
        assert traj.stop_time is not None and traj.stop_time < 0.4
        backend = make_backend(CovarianceSpec.white(1), basis, seed=0)
        jac = {"forcing": lambda t, x, u: 0.0}
        with pytest.raises(ValueError, match="cutoff"):
            tangent_propagate(traj, model, config, basis, backend,
                              jacobians=jac)
        tang = tangent_propagate(traj, model, config, basis, backend,
                                 t0=config.dt, jacobians=jac)
        assert tang.t0 == pytest.approx(config.dt)

    def test_thinned_record_refused(self):
        basis = neumann_basis(8)
        backend = make_backend(CovarianceSpec.white(1), basis, seed=0)
        model = ModelSpec(bc=NEUMANN, sigma=1.0)
        config = SolverConfig(dt=0.01, t_final=0.1, store_every=2)
        traj = simulate(model, config, basis, backend=backend)
        with pytest.raises(ValueError, match="store_every"):
            tangent_propagate(traj, model, config, basis, backend)

    def test_invalid_thin_and_missing_backend(self, additive_run):
        basis, backend, model, config, traj, _ = additive_run
        with pytest.raises(ValueError, match="thin"):
            tangent_propagate(traj, model, config, basis, backend, thin=0)
        with pytest.raises(ValueError, match="backend"):
            tangent_propagate(traj, model, config, basis, None)


    def test_memory_guard_raises_before_allocating(self, additive_run,
                                                   monkeypatch):
        basis, backend, model, config, traj, tang = additive_run
        need = tang.derivatives.nbytes
        monkeypatch.setattr(malliavin, "MAX_TANGENT_BYTES", need - 1)
        with pytest.raises(ValueError, match=rf"{need} bytes.*thin"):
            tangent_propagate(traj, model, config, basis, backend)
        thinned = tangent_propagate(traj, model, config, basis, backend,
                                    thin=2)
        assert thinned.derivatives.nbytes == need // 2

    def test_working_set_stays_near_the_returned_arrays(self):
        # 20 steps x 144 white-noise directions: the stacked block would
        # need several refined-grid temporaries of 13 MB each per step
        basis = Basis(NEUMANN, dim=2, modes_per_axis=12)
        backend = make_backend(CovarianceSpec.white(2), basis, seed=1)
        model = ModelSpec(bc=NEUMANN, reaction=(1.0, 0.0, -1.0, 0.0),
                          sigma=0.2)
        config = SolverConfig(dt=1e-4, t_final=0.002)
        traj = simulate(model, config, basis, backend=backend)
        tracemalloc.start()
        try:
            tang = tangent_propagate(traj, model, config, basis, backend)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert tang.derivatives.shape == (20, 144, 12, 12)
        assert peak < tang.derivatives.nbytes + 8 * 2**20

    def test_decomposition_working_set_stays_below_the_window_rows(self):
        # at tau = t0/2 the window holds 20 rows of 144 x 144 coefficients
        # (3.3 MB); the I4 remainder is formed in slabs of about 1 MiB
        basis = Basis(NEUMANN, dim=2, modes_per_axis=12)
        backend = make_backend(CovarianceSpec.white(2), basis, seed=1)
        model = ModelSpec(bc=NEUMANN, reaction=(1.0, 0.0, -1.0, 0.0),
                          sigma=0.2)
        config = SolverConfig(dt=1e-4, t_final=0.004)
        traj = simulate(model, config, basis, backend=backend)
        tang = tangent_propagate(traj, model, config, basis, backend)
        pts = np.array([[math.pi / 2, math.pi / 3], [1.0, 2.0]])
        tracemalloc.start()
        try:
            dec = decomposition_terms(traj, model, basis, backend.gram, pts,
                                      tau=tang.t0 / 2, tangent=tang)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        window = tang.derivatives[tang.r_times >= tang.t0 / 2 - 1e-12]
        assert len(window) == 20
        assert np.all(dec.i4 > 0.0)
        assert peak < window.nbytes

    def test_multiplicative_tangent_matches_finite_difference(self):
        # The sigma' term redraws each step's increment from the backend;
        # on path 3 a redraw keyed by the wrong (step, path) is off by
        # several percent.
        basis = neumann_basis(16)
        backend = make_backend(CovarianceSpec.white(1), basis, seed=9)
        model = ModelSpec(bc=NEUMANN, reaction=(1.0, 0.0, -1.0, 0.0),
                          sigma=lambda t, x, u: 0.5 + 0.3 * np.sin(u))
        jac = {"sigma": lambda t, x, u: 0.3 * np.cos(u)}
        config = SolverConfig(dt=2e-3, t_final=0.08)
        u0 = basis.transform(0.8 * np.cos(basis.grid()[..., 0]))
        path, r, j, eps = 3, 5, 3, 1e-6
        traj = simulate(model, config, basis, backend=backend, u0=u0,
                        path=path)
        tang = tangent_propagate(traj, model, config, basis, backend,
                                 jacobians=jac)
        col = backend.direction_coefficients(j)
        ends = [simulate(model, config, basis, u0=u0, path=path,
                         backend=Nudged(backend, r, path, s * eps * col)).final
                for s in (1.0, -1.0)]
        fd = (ends[0] - ends[1]) / (2 * eps)
        err = np.abs(tang.derivatives[r, j] - fd).max()
        assert err <= 1e-6 * np.abs(fd).max()

    def test_forcing_and_drift_tangent_matches_finite_difference(self):
        # Without a cutoff (K = 1) the tangent is the exact linearisation
        # of the scheme, so every term of the drift shows: R', g' and b'.
        basis = neumann_basis(16)
        backend = make_backend(CovarianceSpec.white(1), basis, seed=9)
        model = ModelSpec(
            bc=NEUMANN, reaction=(1.0, 0.0, -1.0, 0.0), sigma=0.5,
            forcing=lambda t, x, u: 0.2 * np.cos(x[..., 0]) + 0.5 * np.sin(u),
            drifts=(((2,), lambda u: 0.3 * u * u),))
        jac = {"forcing": lambda t, x, u: 0.5 * np.cos(u),
               "drifts": (lambda u: 0.6 * u,)}
        config = SolverConfig(dt=2e-3, t_final=0.08)
        u0 = basis.transform(0.8 * np.cos(basis.grid()[..., 0]))
        path, r, j, eps = 2, 5, 3, 1e-6
        traj = simulate(model, config, basis, backend=backend, u0=u0,
                        path=path)
        tang = tangent_propagate(traj, model, config, basis, backend,
                                 jacobians=jac)
        col = backend.direction_coefficients(j)
        ends = [simulate(model, config, basis, u0=u0, path=path,
                         backend=Nudged(backend, r, path, s * eps * col)).final
                for s in (1.0, -1.0)]
        fd = (ends[0] - ends[1]) / (2 * eps)
        err = np.abs(tang.derivatives[r, j] - fd).max()
        assert err <= 1e-6 * np.abs(fd).max()


class TestMalliavinMatrix:
    def test_white_noise_closed_form(self, additive_run):
        basis, backend, model, config, traj, tang = additive_run
        pts = np.array([[0.8], [1.9], [math.pi / 2]])
        gamma = malliavin_matrix(tang, pts).gamma
        E = point_modes(basis, pts)
        var = ou_variances(basis, tang.t0)
        closed = 1.3**2 * np.einsum("k,ik,jk->ij", var, E, E)
        assert np.abs(gamma - closed).max() <= 1e-12 * np.abs(closed).max()

    def test_correlated_diagonal_closed_form(self):
        basis = neumann_basis(24)
        f = CovarianceSpec.riesz(1, B=0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            backend = make_backend(f, basis, seed=11, kind="spectral-diagonal")
        model = ModelSpec(bc=NEUMANN, sigma=0.9)
        config = SolverConfig(dt=0.002, t_final=0.08)
        traj = simulate(model, config, basis, backend=backend)
        tang = tangent_propagate(traj, model, config, basis, backend)
        pts = np.array([[1.2], [2.4]])
        gamma = malliavin_matrix(tang, pts).gamma
        q = backend.gram.diagonal()
        E = point_modes(basis, pts)
        var = ou_variances(basis, tang.t0) * q
        closed = 0.9**2 * np.einsum("k,ik,jk->ij", var, E, E)
        assert np.abs(gamma - closed).max() <= 1e-12 * np.abs(closed).max()

    def test_bits_do_not_depend_on_the_blas_thread_count(self):
        # 80 rows x 144 directions are 11 520 products per entry, past the
        # 10 000 that OpenBLAS reduces on one thread
        src = os.path.dirname(os.path.dirname(os.path.abspath(
            malliavin.__file__)))
        out = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in (src, env.get("PYTHONPATH")) if p)
            proc = subprocess.run([sys.executable, "-c", GAMMA_SCRIPT],
                                  env=env, capture_output=True, text=True,
                                  timeout=120)
            assert proc.returncode == 0, proc.stderr
            out.append(proc.stdout)
        assert out[0] == out[1]

    def test_symmetry_is_bit_exact(self, multiplicative_run):
        *_, tang = multiplicative_run
        gamma = malliavin_matrix(tang, np.array([[0.7], [1.5], [2.6]])).gamma
        assert np.array_equal(gamma, gamma.T)

    def test_eigenvalues_nonnegative_across_paths(self):
        basis = neumann_basis(16)
        backend = make_backend(CovarianceSpec.white(1), basis, seed=21)
        model = ModelSpec(bc=NEUMANN, reaction=(1.0, 0.0, -1.0, 0.0),
                          sigma=lambda t, x, u: 0.3 + 0.05 * np.cos(u))
        jac = {"sigma": lambda t, x, u: -0.05 * np.sin(u)}
        config = SolverConfig(dt=1e-3, t_final=0.05, truncation=4.0)
        pts = np.array([[1.0], [1.8], [2.5]])
        for path in range(5):
            traj = simulate(model, config, basis, backend=backend, path=path)
            tang = tangent_propagate(traj, model, config, basis, backend,
                                     jacobians=jac)
            eigs = malliavin_matrix(tang, pts).eigenvalues()
            assert eigs.min() >= -1e-10

    def test_boundary_and_coincident_points(self, additive_run):
        *_, tang = additive_run
        with pytest.raises(ValueError, match="strictly inside"):
            malliavin_matrix(tang, np.array([[0.0], [1.0]]))
        with pytest.raises(ValueError, match="strictly inside"):
            malliavin_matrix(tang, np.array([[math.pi], [1.0]]))
        with pytest.warns(UserWarning, match="coincide"):
            mm = malliavin_matrix(tang, np.array([[1.3], [1.3]]))
        assert mm.min_eigenvalue() == pytest.approx(0.0, abs=1e-12)

    def test_point_shape_validation(self, additive_run):
        *_, tang = additive_run
        with pytest.raises(ValueError, match="shape"):
            malliavin_matrix(tang, np.ones((2, 3)))
        with pytest.raises(ValueError, match="at least one"):
            malliavin_matrix(tang, np.empty((0, 1)))


class TestDecompositionTerms:
    @pytest.mark.filterwarnings("ignore:diagonal noise backend")
    @pytest.mark.parametrize("kind,scheme", [
        pytest.param(kind, scheme,
                     id=scheme if kind == WHITE else f"{kind}-{scheme}")
        for kind in BACKEND_KINDS
        for scheme in (EXPONENTIAL_EULER, SEMI_IMPLICIT)])
    def test_additive_window_identity(self, kind, scheme):
        # over [t0 - tau, t0) the kernel rows, carried by the trajectory's
        # own scheme and weighed by the covariance the backend sampled,
        # give the exact tangent quadrature: i1 + i2 equals
        # <Gamma_window v, v>
        basis, backend, model, config, traj, tang = _window_run(kind, scheme)
        pts = np.array([[0.8, 1.9], [1.9, 1.2],
                        [math.pi / 2] * 2])[:, :basis.dim]
        tau = config.t_final / 2
        dec = decomposition_terms(traj, model, basis, backend.sampled_gram,
                                  pts, tau=tau, tangent=tang)
        sel = tang.r_times >= tang.t0 - tau - 1e-12
        rows = tang.derivatives[sel]
        E = point_modes(basis, pts)
        vals = rows.reshape(rows.shape[0], rows.shape[1], -1) @ E.T
        gamma_w = config.dt * np.einsum("rdi,rdj->ij", vals, vals)
        quad = float(dec.v @ gamma_w @ dec.v)
        assert abs(dec.i1 + dec.i2 - quad) <= 1e-12 * abs(quad)
        assert dec.lower_bound <= quad + 1e-15

    @pytest.mark.parametrize("slab_rows", [None, 3])
    @pytest.mark.parametrize("thin", [1, 2])
    @pytest.mark.parametrize("sigma", ["scalar", "callable"])
    @pytest.mark.parametrize("scheme", [EXPONENTIAL_EULER, SEMI_IMPLICIT])
    def test_i4_is_bitwise_the_whole_window_remainder(
            self, scheme, sigma, thin, slab_rows, monkeypatch):
        # slab by slab, with rebuilt leads, I4 keeps the bits of evaluating
        # D - leads over the whole window at once
        basis, backend, model, traj, tang = _riesz_run(scheme, sigma,
                                                       thin=thin)
        if slab_rows is not None:
            monkeypatch.setattr(malliavin, "TANGENT_SLICE_BYTES",
                                slab_rows * tang.derivatives[0].nbytes)
        pts = np.array([[1.1], [2.0]])
        dec = decomposition_terms(traj, model, basis, backend.gram, pts,
                                  tau=0.04, tangent=tang)
        sel = tang.r_times >= tang.t0 - 0.04 - 1e-12
        vals = malliavin._evaluate_at_points(
            basis, tang.derivatives[sel] - tang.leads[sel], pts)
        want = thin * tang.dt * np.sum(vals**2, axis=(0, 1))
        assert np.array_equal(dec.i4, want)
        assert np.all(dec.i4 > 0.0)

    def test_lead_rows_are_rows_of_the_leads(self):
        # t0 = 0.08 on a path to 0.1: rows 40..49 start after t0
        *_, tang = _riesz_run(EXPONENTIAL_EULER, "callable", t_final=0.1)
        leads = tang.leads
        assert leads.shape == tang.derivatives.shape
        assert np.array_equal(tang.lead_rows([3, 17, 39]), leads[[3, 17, 39]])
        out = np.full((4,) + leads.shape[1:], np.nan)
        assert tang.lead_rows(slice(38, 42), out=out) is out
        assert np.array_equal(out, leads[38:42])
        assert np.all(leads[:40].any(axis=(1, 2))) and not leads[40:].any()

    @pytest.mark.parametrize("foreign", [
        (SEMI_IMPLICIT, 1, 0.08), (EXPONENTIAL_EULER, 1, 0.08),
        (SEMI_IMPLICIT, 0, 0.08), (EXPONENTIAL_EULER, 0, 0.1)])
    def test_tangent_of_another_trajectory_raises(self, foreign):
        # the tangent must be propagated along traj: its path, scheme and
        # recorded times
        basis, backend, model, traj, _ = _riesz_run(EXPONENTIAL_EULER,
                                                    "scalar")
        scheme, path, t_final = foreign
        *_, tang = _riesz_run(scheme, "scalar", path=path, t_final=t_final)
        with pytest.raises(ValueError, match="another trajectory"):
            decomposition_terms(traj, model, basis, backend.gram,
                                np.array([[1.1], [2.0]]), tau=0.04,
                                tangent=tang)

    def test_tangent_of_an_equal_trajectory_is_accepted(self):
        basis, backend, model, traj, tang = _riesz_run(EXPONENTIAL_EULER,
                                                       "scalar")
        twin = dataclasses.replace(traj, coeffs=traj.coeffs.copy(),
                                   times=traj.times.copy())
        pts = np.array([[1.1], [2.0]])
        dec = decomposition_terms(traj, model, basis, backend.gram, pts,
                                  tau=0.04, tangent=tang)
        same = decomposition_terms(twin, model, basis, backend.gram, pts,
                                   tau=0.04, tangent=tang)
        assert np.array_equal(same.i4, dec.i4)
        assert same.lower_bound == dec.lower_bound

    def test_constant_sigma_increment_term_vanishes(self, additive_run):
        basis, backend, model, config, traj, tang = additive_run
        dec = decomposition_terms(traj, model, basis, backend.gram,
                                  np.array([[1.0], [2.0]]), tau=0.04,
                                  tangent=tang)
        assert np.all(dec.i3 == 0.0)
        assert dec.i4.max() < 1e-24

    def test_single_point_has_no_cross_term(self, additive_run):
        basis, backend, model, config, traj, tang = additive_run
        dec = decomposition_terms(traj, model, basis, backend.gram,
                                  np.array([[1.5]]), tau=0.04, tangent=tang)
        assert dec.i2 == 0.0
        assert dec.i1 > 0.0

    def test_multiplicative_lower_bound_holds(self, multiplicative_run):
        basis, backend, model, config, jac, traj, tang = multiplicative_run
        pts = np.array([[1.1], [2.0]])
        dec = decomposition_terms(traj, model, basis, backend.gram, pts,
                                  tau=0.04, tangent=tang)
        gamma = malliavin_matrix(tang, pts).gamma
        assert np.all(dec.i3 > 0.0)
        assert np.all(dec.i4 >= 0.0)
        assert float(dec.v @ gamma @ dec.v) >= dec.lower_bound

    def test_i1_monotone_in_tau(self, multiplicative_run):
        basis, backend, model, config, jac, traj, tang = multiplicative_run
        i1s = [decomposition_terms(traj, model, basis, backend.gram,
                                   np.array([[1.1], [2.0]]), tau=tau,
                                   tangent=tang).i1
               for tau in (0.005, 0.01, 0.02, 0.04)]
        assert np.all(np.diff(i1s) > 0)

    def test_without_tangent_i4_is_none(self, additive_run):
        basis, backend, model, config, traj, _ = additive_run
        dec = decomposition_terms(traj, model, basis, backend.gram,
                                  np.array([[1.5]]), tau=0.04)
        assert dec.i4 is None and dec.lower_bound is None
        assert dec.i1 > 0.0

    def test_margin_precondition(self, additive_run):
        basis, backend, model, config, traj, _ = additive_run
        with pytest.raises(ValueError, match="margin"):
            decomposition_terms(traj, model, basis, backend.gram,
                                np.array([[0.05]]), tau=0.04)
        # shrinking tau admits the same point again
        dec = decomposition_terms(traj, model, basis, backend.gram,
                                  np.array([[0.3]]), tau=0.0025)
        assert dec.margin == pytest.approx(0.3)

    def test_tau_range_validation(self, additive_run):
        basis, backend, model, config, traj, tang = additive_run
        gram = backend.gram
        pts = np.array([[1.5]])
        with pytest.raises(ValueError, match="tau"):
            decomposition_terms(traj, model, basis, gram, pts, tau=0.06)
        with pytest.raises(ValueError, match="tau"):
            decomposition_terms(traj, model, basis, gram, pts, tau=0.0)
        with pytest.raises(ValueError, match="no steps"):
            decomposition_terms(traj, model, basis, gram, pts, tau=1e-5)
        with pytest.raises(ValueError, match="disagrees"):
            decomposition_terms(traj, model, basis, gram, pts, tau=0.02,
                                t0=0.05, tangent=tang)
        with pytest.raises(ValueError, match=r"v must have shape"):
            decomposition_terms(traj, model, basis, gram, pts, tau=0.02,
                                v=np.ones(3))

    def test_boundary_condition_mismatch_raises(self, additive_run):
        basis, backend, model, config, traj, tang = additive_run
        dirichlet = ModelSpec(bc=DIRICHLET, sigma=model.sigma)
        with pytest.raises(ValueError, match="does not match basis bc"):
            decomposition_terms(traj, dirichlet, basis, backend.gram,
                                np.array([[1.5]]), tau=0.02)

    def test_kernel_mass_scales_with_riesz_exponent(self):
        # d=2 Riesz kernel: log I1 vs log tau matches the small-ball rate
        basis = Basis(NEUMANN, dim=2, modes_per_axis=12)
        f = CovarianceSpec.riesz(2, B=1.0)
        gram = gram_operator(f, basis)
        model = ModelSpec(bc=NEUMANN, sigma=1.0)
        config = SolverConfig(dt=2e-4, t_final=0.0512)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            backend = make_backend(f, basis, seed=5,
                                   kind="spectral-diagonal")
        traj = simulate(model, config, basis, backend=backend)
        pt = np.full((1, 2), math.pi / 2)
        taus = np.array([8e-4, 3.2e-3, 1.28e-2])
        i1s = [decomposition_terms(traj, model, basis, gram, pt, tau=tau).i1
               for tau in taus]
        slope = np.polyfit(np.log(taus), np.log(i1s), 1)[0]
        nu = 1.0 / 32.0
        assert abs(slope - (0.25 + nu) * (4.0 - 1.0)) < 0.15
        assert np.all(np.diff(i1s) > 0)


class TestDensityCriterion:
    def test_riesz_exponent_window(self):
        # nu below (B ^ 1)/16 satisfies both limit exponents for any B
        for B in (0.5, 1.0, 2.0, 3.5):
            f = CovarianceSpec.riesz(1 if B < 1 else 4, B=B)
            nu = min(B, 1.0) / 16.0 * 0.9
            rep = density_criterion(np.eye(2), f, nu=nu)
            assert rep.analytic_ok
            assert rep.exponent_primary < 1.0
            assert rep.exponent_cross < 0.5
            assert rep.verdict == ABSOLUTELY_CONTINUOUS

    def test_nu_too_large_fails_analytic_check(self):
        f = CovarianceSpec.riesz(1, B=0.5)
        rep = density_criterion(np.eye(2), f, nu=0.24)
        assert not rep.analytic_ok
        assert rep.verdict == INCONCLUSIVE

    def test_white_noise_effective_power(self):
        rep1 = density_criterion(np.eye(2), CovarianceSpec.white(1), nu=1 / 32)
        assert rep1.b_effective == 1.0 and rep1.analytic_ok
        rep3 = density_criterion(np.eye(2), CovarianceSpec.white(3), nu=1 / 32)
        assert rep3.b_effective == 3.0 and rep3.analytic_ok
        assert any("white" in n for n in rep3.notes)

    def test_zero_matrix_is_degenerate(self):
        rep = density_criterion(np.zeros((3, 3)), CovarianceSpec.riesz(1, B=0.5),
                                nu=1 / 32)
        assert rep.verdict == DEGENERATE
        assert rep.positive_fraction == 0.0

    def test_mixed_paths_are_inconclusive(self):
        mats = [np.eye(2), np.zeros((2, 2))]
        rep = density_criterion(mats, CovarianceSpec.riesz(1, B=0.5), nu=1 / 32)
        assert rep.verdict == INCONCLUSIVE
        assert rep.positive_fraction == pytest.approx(0.5)
        assert rep.smallest_eigenvalue == pytest.approx(0.0)

    def test_divergent_small_ball_flagged(self):
        rep = density_criterion(np.eye(2), CovarianceSpec.riesz(5, B=4.5),
                                nu=1 / 32)
        assert not rep.analytic_ok
        assert any("diverges" in n for n in rep.notes)

    def test_accepts_matrix_objects(self, additive_run):
        *_, tang = additive_run
        mm = malliavin_matrix(tang, np.array([[1.0], [2.0]]))
        rep = density_criterion(mm, CovarianceSpec.white(1), nu=1 / 32)
        assert rep.verdict == ABSOLUTELY_CONTINUOUS
        rep_list = density_criterion([mm, mm.gamma], CovarianceSpec.white(1),
                                     nu=1 / 32)
        assert rep_list.positive_fraction == 1.0

    def test_parameter_validation(self):
        f = CovarianceSpec.white(1)
        with pytest.raises(ValueError, match="nu"):
            density_criterion(np.eye(2), f, nu=0.3)
        with pytest.raises(ValueError, match="sigma_floor"):
            density_criterion(np.eye(2), f, nu=1 / 32, sigma_floor=-1.0)
        with pytest.raises(ValueError, match="at least one"):
            density_criterion([], f, nu=1 / 32)
        rep = density_criterion(np.eye(2), f, nu=1 / 32, sigma_floor=0.1)
        assert any("ellipticity" in n for n in rep.notes)


def test_result_records_compared_by_identity_and_held_by_weak_sets(
        additive_run):
    basis, backend, model, config, traj, tang = additive_run
    pts = np.array([[1.0], [2.0]])
    mm = malliavin_matrix(tang, pts)
    records = (tang, mm,
               decomposition_terms(traj, model, basis, backend.gram, pts,
                                   tau=0.02, tangent=tang),
               density_criterion(mm, CovarianceSpec.white(1), nu=1 / 32))
    for record in records:
        twin = dataclasses.replace(record)
        assert record == record and not record == twin
        assert len(weakref.WeakSet([record, twin])) == 2
