"""Tests for noise backends: streams, factors, and covariance fidelity."""

import math
import re
import sys
import threading
import warnings

import numpy as np
import pytest

from spde_ch.basis import DIRICHLET, NEUMANN, Basis
from spde_ch.covariance import CovarianceSpec, DenseGram, gram_matrix
from spde_ch.noise import (BACKEND_KINDS, GRID_CELL, SPECTRAL_CHOLESKY,
                           SPECTRAL_DIAGONAL, WHITE, GridCellBackend,
                           NoiseStream, SpectralCholeskyBackend,
                           SpectralDiagonalBackend, empirical_covariance_test,
                           make_backend)


class TestNoiseStream:
    def test_deterministic_across_instances(self):
        a = NoiseStream(42).gaussians(3, 1, 8)
        b = NoiseStream(42).gaussians(3, 1, 8)
        assert np.array_equal(a, b)

    def test_out_of_order_replay(self):
        s = NoiseStream(7)
        forward = [s.gaussians(step, 0, 4) for step in range(5)]
        backward = [NoiseStream(7).gaussians(step, 0, 4)
                    for step in reversed(range(5))]
        for step in range(5):
            assert np.array_equal(forward[step], backward[4 - step])

    def test_streams_distinct(self):
        s = NoiseStream(1)
        assert not np.allclose(s.gaussians(0, 0, 6), s.gaussians(1, 0, 6))
        assert not np.allclose(s.gaussians(0, 0, 6), s.gaussians(0, 1, 6))
        assert not np.allclose(s.gaussians(0, 0, 6), NoiseStream(2).gaussians(0, 0, 6))

    def test_validation(self):
        with pytest.raises(ValueError):
            NoiseStream(0).gaussians(-1, 0, 3)

    @staticmethod
    def _fresh(seed, step, path, n):
        bitgen = np.random.Philox(key=seed, counter=[0, 0, step, path])
        return np.random.Generator(bitgen).standard_normal(n)

    def test_bitwise_a_fresh_philox_per_draw(self):
        """One reused stream, drawn in an interleaved order with odd and even
        lengths, equals a fresh Philox(key=seed, counter=[0, 0, step, path])
        per draw."""
        for seed in (0, 1, 12, 2**40 + 3, 2**63 - 1):
            s = NoiseStream(seed)
            for step in (0, 1, 7, 199, 2**33):
                for path in (0, 1, 99, 2**32 + 5, 2**63):
                    n = 1 + (step + path) % 9
                    assert (s.gaussians(step, path, n).tobytes()
                            == self._fresh(seed, step, path, n).tobytes())

    def test_bad_seed_fails_on_every_draw(self):
        s = NoiseStream(-1)
        for _ in range(2):
            with pytest.raises(ValueError, match="key"):
                s.gaussians(0, 0, 3)

    def test_threads_share_one_stream(self):
        """Threads drawing from one stream (more threads than cores, frequent
        switches) each get the draws of their own counters."""
        s = NoiseStream(5)
        n_threads, n_steps = 4, 500
        draws = {p: [] for p in range(n_threads)}
        start = threading.Barrier(n_threads)

        def work(path):
            start.wait()
            for step in range(n_steps):
                draws[path].append(s.gaussians(step, path, 8))

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(p,)) for p in draws]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(old)
        for path, got in draws.items():
            assert len(got) == n_steps
            for step, x in enumerate(got):
                assert x.tobytes() == self._fresh(5, step, path, 8).tobytes()


class TestBackendDispatch:
    def test_auto_white(self):
        basis = Basis(NEUMANN, 2, 4)
        bk = make_backend(CovarianceSpec.white(2), basis, seed=0)
        assert isinstance(bk, SpectralDiagonalBackend)
        assert bk.kind == WHITE

    def test_auto_low_dim_cholesky(self):
        basis = Basis(NEUMANN, 2, 4)
        bk = make_backend(CovarianceSpec.riesz(2, 1.0), basis, seed=0)
        assert isinstance(bk, SpectralCholeskyBackend)

    def test_auto_high_dim_diagonal(self):
        basis = Basis(NEUMANN, 4, 4)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            bk = make_backend(CovarianceSpec.riesz(4, 2.0), basis, seed=0)
        assert isinstance(bk, SpectralDiagonalBackend)

    def test_errors(self):
        basis = Basis(NEUMANN, 2, 4)
        with pytest.raises(ValueError, match="dim"):
            make_backend(CovarianceSpec.riesz(3, 1.0), basis, seed=0)
        with pytest.raises(ValueError, match="kind"):
            make_backend(CovarianceSpec.white(2), basis, seed=0, kind="magic")
        with pytest.raises(ValueError, match="white"):
            make_backend(CovarianceSpec.riesz(2, 1.0), basis, seed=0, kind=WHITE)
        with pytest.raises(ValueError, match="d=1"):
            make_backend(CovarianceSpec.riesz(2, 1.0), basis, seed=0,
                         kind=GRID_CELL)


class TestSampledGram:
    """Every backend kind states the covariance it samples."""

    @pytest.mark.filterwarnings("ignore:diagonal noise backend")
    @pytest.mark.parametrize("kind", BACKEND_KINDS)
    def test_sampled_gram_is_f_ft_and_dropped_mass_its_distance(self, kind):
        # sampled_gram is F F^T for the map F of map_gaussians, and
        # dropped_mass is ||Q - Q_s||_F / ||Q||_F, on every kernel the
        # backend accepts; a kind missing from the refusals below must
        # accept all three kernels
        refused = {WHITE: {"riesz", "constant"}, GRID_CELL: {"white"}}
        accepted = set()
        for bc in (NEUMANN, DIRICHLET):
            for dim, M in ((1, 8), (2, 6)):
                basis = Basis(bc, dim, M)
                for f in (CovarianceSpec.riesz(dim, 0.5),
                          CovarianceSpec.constant(dim, 0.7),
                          CovarianceSpec.white(dim)):
                    try:
                        bk = make_backend(f, basis, seed=0, kind=kind)
                    except ValueError as err:
                        assert re.search("white|d=1|density", str(err))
                        continue
                    accepted.add(f.kind)
                    n = bk.n_directions
                    F = np.stack([bk.map_gaussians(e).reshape(-1)
                                  for e in np.eye(n)], axis=1)
                    FFt = F @ F.T
                    Qs = bk.sampled_gram.dense()
                    assert (np.linalg.norm(Qs - FFt)
                            <= 1e-13 * np.linalg.norm(FFt))
                    Q = bk.gram.dense()
                    want = np.linalg.norm(Q - Qs) / np.linalg.norm(Q)
                    assert abs(bk.dropped_mass - want) <= 1e-12
        assert accepted == {"riesz", "constant", "white"} - refused.get(
            kind, set())


class TestSamplingLaws:
    def test_sqrt_dt_scaling_exact(self):
        # the same (step, path) reuses the same Gaussians, so scaling is exact
        basis = Basis(NEUMANN, 1, 6)
        bk = make_backend(CovarianceSpec.riesz(1, 0.5), basis, seed=9)
        x1 = bk.sample_coefficients(0.25, step=3)
        x2 = bk.sample_coefficients(1.0, step=3)
        assert np.allclose(2.0 * x1, x2, rtol=1e-14)

    def test_cholesky_factor_reproduces_gram(self):
        basis = Basis(NEUMANN, 1, 10)
        f = CovarianceSpec.riesz(1, 0.5)
        bk = make_backend(f, basis, seed=0)
        Q = gram_matrix(f, basis)
        assert bk.factor @ bk.factor.T == pytest.approx(Q, abs=1e-12)

    @staticmethod
    def _held_square_arrays(gram, n):
        """Names of gram attributes holding an n x n array, tuples included."""
        held = []
        for name, value in vars(gram).items():
            for v in value if isinstance(value, tuple) else (value,):
                if isinstance(v, np.ndarray) and v.shape == (n, n):
                    held.append(name)
        return held

    @pytest.mark.parametrize("dim,M", [(2, 6), (3, 4)])
    def test_mixture_factor_from_one_eigh(self, monkeypatch, dim, M):
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh",
                            lambda a: calls.append(a.shape) or eigh(a))
        basis = Basis(NEUMANN, dim, M)
        bk = make_backend(CovarianceSpec.riesz(dim, 1.0), basis, seed=0)
        assert isinstance(bk, SpectralCholeskyBackend)
        assert len(calls) == 1
        w, V = eigh(bk.gram.matrix)
        assert np.array_equal(bk.factor, V * np.sqrt(np.clip(w, 0.0, None)))
        assert self._held_square_arrays(bk.gram, basis.n_modes) == ["matrix"]

    def test_clipped_gram_factor_from_repaired_matrix(self, monkeypatch):
        basis = Basis(NEUMANN, 1, 4)
        rng = np.random.default_rng(5)
        V0, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        Q = (V0 * [2.0, 1.0, 0.5, -1e-6]) @ V0.T
        with pytest.warns(UserWarning, match="clip"):
            gram = DenseGram(basis, 0.5 * (Q + Q.T))
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh",
                            lambda a: calls.append(a.shape) or eigh(a))
        bk = SpectralCholeskyBackend(basis, gram, seed=0)
        assert len(calls) == 1
        w, V = eigh(gram.matrix)
        assert np.array_equal(bk.factor, V * np.sqrt(np.clip(w, 0.0, None)))
        assert self._held_square_arrays(gram, 4) == ["matrix"]

    def test_direction_coefficients_match_factor(self):
        basis = Basis(NEUMANN, 1, 6)
        bk = make_backend(CovarianceSpec.riesz(1, 0.5), basis, seed=0)
        col = bk.direction_coefficients(2)
        assert np.allclose(col.reshape(-1), bk.factor[:, 2])

    def test_white_map_is_identity(self):
        basis = Basis(NEUMANN, 2, 3)
        bk = make_backend(CovarianceSpec.white(2), basis, seed=0)
        xi = np.arange(9.0)
        assert np.array_equal(bk.map_gaussians(xi), xi.reshape(3, 3))
        assert bk.n_directions == 9

    def test_constant_kernel_single_direction(self):
        basis = Basis(NEUMANN, 2, 4)
        bk = make_backend(CovarianceSpec.constant(2, 3.0), basis, seed=0)
        assert bk.n_directions == 1
        x = bk.sample_coefficients(1.0, 0)
        # rank-1: only the zero mode is hit
        assert x[0, 0] != 0.0
        flat = x.copy()
        flat[0, 0] = 0.0
        assert np.abs(flat).max() == 0.0

    @pytest.mark.filterwarnings("ignore:diagonal noise backend")
    def test_diagonal_scale_matches_gram_diagonal(self):
        basis = Basis(NEUMANN, 2, 5)
        f = CovarianceSpec.riesz(2, 1.0)
        bk = make_backend(f, basis, seed=0, kind=SPECTRAL_DIAGONAL)
        Q = gram_matrix(f, basis)
        assert bk.scale.reshape(-1) ** 2 == pytest.approx(np.diag(Q), rel=1e-10)
        assert 0.0 < bk.dropped_mass < 1.0

    def test_diagonal_on_white_drops_nothing(self):
        basis = Basis(NEUMANN, 2, 4)
        bk = make_backend(CovarianceSpec.white(2), basis, seed=0,
                          kind=SPECTRAL_DIAGONAL)
        assert bk.dropped_mass == 0.0

    def test_dt_validation(self):
        basis = Basis(NEUMANN, 1, 4)
        bk = make_backend(CovarianceSpec.white(1), basis, seed=0)
        with pytest.raises(ValueError):
            bk.sample_coefficients(0.0, 0)


class TestGridCellBackend:
    def test_cell_covariance_closed_forms(self):
        # C_0 = 2 int_0^h u^{-B}(h-u) du ; C_1 = int_0^h u^{1-B} du + smooth
        f = CovarianceSpec.riesz(1, 0.5)
        B, n = 0.5, 16
        h = math.pi / n
        bk = GridCellBackend(Basis(NEUMANN, 1, 4), None, 0, f, n_cells=n)
        c0 = 2 * h ** (2 - B) * (1 / (1 - B) - 1 / (2 - B))
        assert bk.cell_cov[0, 0] == pytest.approx(c0, rel=1e-10)
        c1 = h ** (2 - B) / (2 - B)
        c1 += (2 * h * ((2 * h) ** (1 - B) - h ** (1 - B)) / (1 - B)
               - ((2 * h) ** (2 - B) - h ** (2 - B)) / (2 - B))
        assert bk.cell_cov[0, 1] == pytest.approx(c1, rel=1e-10)

    def test_toeplitz_structure(self):
        f = CovarianceSpec.riesz(1, 0.3)
        bk = GridCellBackend(Basis(NEUMANN, 1, 4), None, 0, f, n_cells=12)
        C = bk.cell_cov
        for off in range(12):
            diag = np.diagonal(C, offset=off)
            assert np.allclose(diag, diag[0], rtol=1e-12)
        from scipy.linalg import toeplitz
        assert np.array_equal(C, toeplitz(C[0]))

    def test_constant_kernel_cells(self):
        f = CovarianceSpec.constant(1, 2.0)
        n = 8
        bk = GridCellBackend(Basis(NEUMANN, 1, 4), None, 0, f, n_cells=n)
        assert bk.cell_cov == pytest.approx(
            np.full((n, n), 2.0 * (math.pi / n) ** 2), rel=1e-14)

    @pytest.mark.parametrize("bc", [NEUMANN, DIRICHLET])
    def test_projected_gram_converges_to_spectral(self, bc):
        basis = Basis(bc, 1, 8)
        f = CovarianceSpec.riesz(1, 0.5)
        Q = gram_matrix(f, basis)
        coarse = make_backend(f, basis, 0, kind=GRID_CELL, n_cells=64)
        fine = make_backend(f, basis, 0, kind=GRID_CELL, n_cells=256)
        err_c = (np.linalg.norm(coarse.sampled_gram.dense() - Q)
                 / np.linalg.norm(Q))
        err_f = np.linalg.norm(fine.sampled_gram.dense() - Q) / np.linalg.norm(Q)
        assert err_c < 0.02
        assert err_f < err_c / 4  # second-order in the cell width

    def test_backend_equivalence_monte_carlo(self):
        # spectral and cell routes estimate the same functional covariance
        basis = Basis(NEUMANN, 1, 8)
        f = CovarianceSpec.riesz(1, 0.5)
        phi = basis.transform(np.cos(basis.axis_points) + 1.0)
        spec = make_backend(f, basis, seed=11)
        cell = make_backend(f, basis, seed=12, kind=GRID_CELL, n_cells=128)
        r1 = empirical_covariance_test(spec, phi, phi, n_samples=4000)
        r2 = empirical_covariance_test(cell, phi, phi, n_samples=4000)
        assert r1.passed and r2.passed
        assert r2.target == pytest.approx(r1.target, rel=2e-3)


class TestEmpiricalCovariance:
    def test_white_l2_norm(self):
        basis = Basis(NEUMANN, 1, 8)
        phi = basis.transform(np.ones(basis.shape))
        bk = make_backend(CovarianceSpec.white(1), basis, seed=1)
        r = empirical_covariance_test(bk, phi, phi, n_samples=3000)
        assert r.target == pytest.approx(math.pi, rel=1e-12)
        assert r.passed

    def test_constant_kernel_full_mass(self):
        # E[F(1)^2] = c * (int 1)^2 = pi^2 in d=1 with c=1, t=1
        basis = Basis(NEUMANN, 1, 8)
        phi = basis.transform(np.ones(basis.shape))
        bk = make_backend(CovarianceSpec.constant(1, 1.0), basis, seed=2)
        r = empirical_covariance_test(bk, phi, phi, n_samples=3000)
        assert r.target == pytest.approx(math.pi**2, rel=1e-12)
        assert r.passed

    def test_riesz_cross_functional(self):
        basis = Basis(NEUMANN, 1, 8)
        x = basis.axis_points
        phi = basis.transform(np.sin(x))
        psi = basis.transform(np.cos(2 * x) + 0.5)
        bk = make_backend(CovarianceSpec.riesz(1, 0.5), basis, seed=3)
        r = empirical_covariance_test(bk, phi, psi, n_samples=6000)
        assert r.passed, (r.estimate, r.target, r.zscore)

    @pytest.mark.filterwarnings("ignore:diagonal noise backend")
    def test_d2_diagonal_self_functional(self):
        # diagonal backend is exact for the variance of single-mode functionals
        basis = Basis(NEUMANN, 2, 4)
        f = CovarianceSpec.riesz(2, 1.0)
        bk = make_backend(f, basis, seed=4, kind=SPECTRAL_DIAGONAL)
        phi = np.zeros(basis.shape)
        phi[1, 1] = 1.0
        r = empirical_covariance_test(bk, phi, phi, n_samples=4000)
        Q = gram_matrix(f, basis)
        k = np.ravel_multi_index((1, 1), basis.shape)
        assert r.target == pytest.approx(Q[k, k], rel=1e-9)
        assert r.passed

    def test_total_time_scales_target(self):
        basis = Basis(NEUMANN, 1, 4)
        phi = basis.transform(np.ones(basis.shape))
        bk = make_backend(CovarianceSpec.white(1), basis, seed=5)
        r1 = empirical_covariance_test(bk, phi, phi, n_samples=10, total_time=1.0)
        r2 = empirical_covariance_test(bk, phi, phi, n_samples=10, total_time=3.0)
        assert r2.target == pytest.approx(3.0 * r1.target, rel=1e-12)

    def test_validation(self):
        basis = Basis(NEUMANN, 1, 4)
        bk = make_backend(CovarianceSpec.white(1), basis, seed=0)
        phi = np.ones(basis.shape)
        with pytest.raises(ValueError):
            empirical_covariance_test(bk, phi, phi, n_samples=1)
