"""Tests for the spectral time stepper and its convolution helpers."""

import dataclasses
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import fft as sfft

from spde_ch.basis import DIRICHLET, NEUMANN, Basis
from spde_ch.covariance import CovarianceSpec
from spde_ch.greens import KernelExponents
from spde_ch.noise import make_backend
from spde_ch.solver import (
    BLOWUP_THRESHOLD,
    EXPONENTIAL_EULER,
    ModelSpec,
    PicardResult,
    SEMI_IMPLICIT,
    SolverConfig,
    Trajectory,
    _propagators,
    _scheme_update,
    convolution_bound_check,
    deterministic_convolution,
    energy_diagnostics,
    picard_solve,
    simulate,
    truncation_weight,
)


def neumann_basis(M=16):
    return Basis(NEUMANN, 1, M)


def cahn_hilliard():
    return ModelSpec(bc=NEUMANN, reaction=(1.0, 0.0, -1.0, 0.0))


def low_mode_state(basis, mean=0.4, amp=0.2, mode=1):
    """Coefficients of mean + amp*e_mode-shaped bump, exact at every M."""
    c = np.zeros(basis.shape)
    if basis.bc == NEUMANN:
        c[(0,) * basis.dim] = mean * math.pi ** (basis.dim / 2.0)
    idx = [0] * basis.dim
    idx[0] = mode if basis.bc == NEUMANN else mode - 1
    c[tuple(idx)] = amp
    return c


class TestTruncationWeight:
    def test_below_cutoff_is_one(self):
        assert truncation_weight(2.9, 3) == 1.0
        assert truncation_weight(0.0, 1) == 1.0
        assert truncation_weight(3.0, 3) == 1.0

    def test_above_cutoff_plus_one_is_zero(self):
        assert truncation_weight(4.0, 3) == 0.0
        assert truncation_weight(5.0, 3) == 0.0

    def test_midpoint_is_half(self):
        assert truncation_weight(3.5, 3) == pytest.approx(0.5, abs=1e-15)

    def test_hermite_shape_inside_band(self):
        s = 0.25
        assert truncation_weight(2 + s, 2) == pytest.approx(1 - 3 * s**2 + 2 * s**3)

    def test_slope_vanishes_at_both_ends(self):
        h = 1e-6
        for r in (3.0, 4.0):
            slope = (truncation_weight(r + h, 3) - truncation_weight(r - h, 3)) / (2 * h)
            assert abs(slope) < 1e-5

    def test_vectorized(self):
        out = truncation_weight(np.array([1.0, 3.5, 9.0]), 3)
        assert out.shape == (3,)
        assert out[0] == 1.0 and out[2] == 0.0

    def test_level_below_one_rejected(self):
        with pytest.raises(ValueError):
            truncation_weight(1.0, 0.5)

    @given(st.floats(0, 20), st.floats(0, 20))
    @settings(max_examples=60, deadline=None)
    def test_monotone_and_bounded(self, a, b):
        lo, hi = sorted((a, b))
        ka, kb = truncation_weight(lo, 4), truncation_weight(hi, 4)
        assert 0.0 <= kb <= ka <= 1.0


class TestSchemeUpdate:
    @pytest.mark.parametrize("scheme", [EXPONENTIAL_EULER, SEMI_IMPLICIT])
    def test_out_form_is_bitwise_and_never_writes_the_drift(self, scheme):
        basis = Basis(NEUMANN, 2, 8)
        rng = np.random.default_rng(3)
        u = rng.standard_normal((3,) + basis.shape)
        drift = rng.standard_normal((3,) + basis.shape) * 1e3
        kept_u, kept_drift = u.tobytes(), drift.tobytes()
        update, _ = _scheme_update(basis, 3e-3, scheme)
        want = update(u, drift)
        assert u.tobytes() == kept_u
        out = np.empty_like(u)
        assert update(u, drift, out=out) is out
        assert out.tobytes() == want.tobytes()
        assert update(u, drift, out=u) is u
        assert u.tobytes() == want.tobytes()
        assert drift.tobytes() == kept_drift

    def test_entry_points_leave_caller_arrays_untouched(self):
        basis = neumann_basis(8)
        backend = make_backend(CovarianceSpec.white(1), basis, seed=2)
        model = ModelSpec(bc=NEUMANN, reaction=(1.0, 0.0, -1.0, 0.0),
                          sigma=lambda t, x, u: 0.2 + 0.1 * u)
        cfg = SolverConfig(dt=1e-3, t_final=0.005)
        u0 = low_mode_state(basis)
        field = basis.inverse_transform(u0)
        kept = u0.tobytes(), field.tobytes()
        simulate(model, cfg, basis, backend=backend, u0=u0)
        picard_solve(model, cfg, basis, backend=backend, u0=u0)
        deterministic_convolution(basis, field, t=0.1, n_steps=4)
        assert (u0.tobytes(), field.tobytes()) == kept


class TestResultRecords:
    def test_compared_by_identity_and_held_by_weak_sets(self):
        basis = neumann_basis(8)
        model = ModelSpec(bc=NEUMANN, reaction=(1.0, 0.0, -1.0, 0.0))
        cfg = SolverConfig(dt=1e-3, t_final=0.003)
        traj = simulate(model, cfg, basis, u0=low_mode_state(basis))
        result = picard_solve(model, cfg, basis, u0=low_mode_state(basis))
        for record in (traj, result):
            twin = dataclasses.replace(record)
            assert record == record and not record == twin
            assert len(weakref.WeakSet([record, twin])) == 2
        assert isinstance(result, PicardResult)

    @pytest.mark.parametrize("scheme", [EXPONENTIAL_EULER, SEMI_IMPLICIT])
    def test_runs_record_their_scheme(self, scheme):
        basis = neumann_basis(8)
        cfg = SolverConfig(dt=1e-3, t_final=0.003, scheme=scheme)
        u0 = low_mode_state(basis)
        assert simulate(cahn_hilliard(), cfg, basis, u0=u0).scheme == scheme
        result = picard_solve(cahn_hilliard(), cfg, basis, u0=u0)
        assert result.trajectory.scheme == scheme


class Shifted:
    """A backend whose step m draws step m + offset of the base backend."""

    def __init__(self, base, offset):
        self.base, self.offset = base, offset

    def sample_coefficients(self, dt, step, path=0):
        return self.base.sample_coefficients(dt, step=step + self.offset,
                                             path=path)


class TestStepBasics:
    """One scheme step, as simulate runs it with t_final = dt."""

    def test_pure_decay_single_step(self):
        basis = neumann_basis()
        model = ModelSpec(bc=NEUMANN)
        cfg = SolverConfig(dt=0.02, t_final=0.02)
        u0 = np.arange(1.0, 17.0)
        traj = simulate(model, cfg, basis, u0=u0)
        assert traj.weights.tolist() == [1.0]
        np.testing.assert_array_equal(
            traj.final, np.exp(-basis.biharmonic_eigenvalues * 0.02) * u0)
        assert traj.norms[0] == pytest.approx(
            basis.lq_norm(basis.inverse_transform(u0), 2.0))

    def test_reaction_keeps_mode_zero_fixed(self):
        basis = neumann_basis()
        cfg = SolverConfig(dt=1e-3, t_final=1e-3)
        rng = np.random.default_rng(0)
        u0 = rng.standard_normal(16) / (1 + np.arange(16.0)) ** 2
        traj = simulate(cahn_hilliard(), cfg, basis, u0=u0)
        assert traj.final[0] == u0[0]  # bit-exact: Laplace kills the mean mode

    def test_boundary_condition_mismatch_raises(self):
        # r0 = 0.5 is a valid Neumann model but has no Dirichlet meaning
        model = ModelSpec(bc=NEUMANN, reaction=(1.0, 0.0, -1.0, 0.5))
        cfg = SolverConfig(dt=1e-3, t_final=1e-3)
        with pytest.raises(ValueError, match="does not match basis bc"):
            simulate(model, cfg, Basis(DIRICHLET, 1, 8), u0=np.zeros(8))

    def test_semi_implicit_step_formula(self):
        basis = neumann_basis()
        cfg = SolverConfig(dt=0.05, t_final=0.05, scheme=SEMI_IMPLICIT)
        u0 = np.ones(16)
        traj = simulate(ModelSpec(bc=NEUMANN), cfg, basis, u0=u0)
        np.testing.assert_allclose(
            traj.final, u0 / (1 + basis.biharmonic_eigenvalues * 0.05),
            rtol=1e-15)

    def test_exponential_euler_update_bitwise_on_stacked_states(self):
        basis = Basis(DIRICHLET, 2, 8)
        dt = 3e-3
        rng = np.random.default_rng(11)
        u = rng.standard_normal((3,) + basis.shape)
        drift = rng.standard_normal((3,) + basis.shape) * 1e3
        update, noise_w = _scheme_update(basis, dt)
        decay, phi1, want_w = _propagators(basis, dt)
        assert np.array_equal(update(u, drift), decay * u + dt * phi1 * drift)
        assert np.array_equal(noise_w, want_w)

    @pytest.mark.parametrize("scheme", ["exponential-euler", SEMI_IMPLICIT])
    def test_repeated_steps_reproduce_simulate_bit_for_bit(self, scheme):
        # the model does not read t, so step j is a one-step run from the
        # state at t_j that draws increment j
        basis = neumann_basis()
        backend = make_backend(CovarianceSpec.riesz(1, B=0.5), basis, seed=5)
        model = ModelSpec(bc=NEUMANN, reaction=(1.0, 0.0, -1.0, 0.0), sigma=0.3)
        cfg = SolverConfig(dt=1e-3, t_final=0.02, scheme=scheme, truncation=4.0)
        one = SolverConfig(dt=1e-3, t_final=1e-3, scheme=scheme, truncation=4.0)
        traj = simulate(model, cfg, basis, backend=backend,
                        u0=low_mode_state(basis), path=2)
        for j in range(cfg.n_steps):
            step = simulate(model, one, basis, backend=Shifted(backend, j),
                            u0=traj.coeffs[j], path=2)
            assert step.weights[0] == traj.weights[j]
            assert step.final.tobytes() == traj.coeffs[j + 1].tobytes()

    def test_callable_coefficients_build_the_grid_once(self, monkeypatch):
        basis = Basis(NEUMANN, 2, 8)
        backend = make_backend(CovarianceSpec.riesz(2, B=1.0), basis, seed=3)
        model = ModelSpec(
            bc=NEUMANN, reaction=(1.0, 0.0, -1.0, 0.0),
            forcing=lambda t, x, u: 0.1 * np.cos(x[..., 0]) * (1.0 + t),
            sigma=lambda t, x, u: 0.2 + 0.05 * np.sin(x[..., 1]) * u)
        cfg = SolverConfig(dt=1e-4, t_final=0.02, truncation=4.0)
        assert cfg.n_steps == 200
        u0 = low_mode_state(basis)
        calls = []
        grid = Basis.grid

        def counted(self):
            calls.append(self)
            return grid(self)

        monkeypatch.setattr(Basis, "grid", counted)
        simulate(model, cfg, basis, backend=backend, u0=u0, path=1)
        assert len(calls) == 1


class TestLinearAdditiveVariance:
    """Ornstein-Uhlenbeck laws reproduced per mode by the noise weighting."""

    def test_white_noise_variance_within_three_se(self):
        basis = neumann_basis(16)
        backend = make_backend(CovarianceSpec.white(1), basis, seed=7)
        model = ModelSpec(bc=NEUMANN, sigma=1.0)
        cfg = SolverConfig(dt=0.01, t_final=0.2)
        P = 400
        finals = np.empty((P, 16))
        for p in range(P):
            finals[p] = simulate(model, cfg, basis, backend, path=p).final
        lam2 = basis.biharmonic_eigenvalues
        safe = np.where(lam2 > 0, lam2, 1.0)
        target = np.where(lam2 > 0, (1 - np.exp(-2 * lam2 * 0.2)) / (2 * safe), 0.2)
        sample = finals.var(axis=0, ddof=1)
        se = target * math.sqrt(2.0 / (P - 1))
        assert np.all(np.abs(sample - target) <= 3 * se)
        assert np.abs(finals.mean(axis=0)).max() < 4 * np.sqrt(target.max() / P)

    def test_correlated_noise_variance_within_three_se(self):
        basis = neumann_basis(8)
        f = CovarianceSpec.riesz(1, 0.5)
        backend = make_backend(f, basis, seed=21)
        q_diag = backend.gram.diagonal()
        model = ModelSpec(bc=NEUMANN, sigma=1.0)
        cfg = SolverConfig(dt=0.02, t_final=0.2)
        P = 300
        finals = np.empty((P, 8))
        for p in range(P):
            finals[p] = simulate(model, cfg, basis, backend, path=p).final
        lam2 = basis.biharmonic_eigenvalues
        safe = np.where(lam2 > 0, lam2, 1.0)
        target = q_diag * np.where(lam2 > 0, (1 - np.exp(-2 * lam2 * 0.2)) / (2 * safe), 0.2)
        se = target * math.sqrt(2.0 / (P - 1))
        assert np.all(np.abs(finals.var(axis=0, ddof=1) - target) <= 3 * se)

    def test_mode_zero_variance_grows_linearly(self):
        basis = neumann_basis(4)
        backend = make_backend(CovarianceSpec.white(1), basis, seed=3)
        model = ModelSpec(bc=NEUMANN, sigma=2.0)
        cfg = SolverConfig(dt=0.05, t_final=0.5)
        P = 500
        m0 = np.array([simulate(model, cfg, basis, backend, path=p).final[0]
                       for p in range(P)])
        target = 4.0 * 0.5  # sigma^2 q_0 t
        se = target * math.sqrt(2.0 / (P - 1))
        assert abs(m0.var(ddof=1) - target) <= 3 * se

    def test_deterministic_decay_matches_semigroup(self):
        basis = neumann_basis()
        u0 = np.arange(1.0, 17.0) / 16.0
        cfg = SolverConfig(dt=0.01, t_final=0.3)
        traj = simulate(ModelSpec(bc=NEUMANN), cfg, basis, u0=u0)
        np.testing.assert_allclose(
            traj.final, np.exp(-basis.biharmonic_eigenvalues * 0.3) * u0,
            rtol=1e-12, atol=1e-300)

    def test_zero_initial_state_is_fixed_point(self):
        basis = neumann_basis()
        cfg = SolverConfig(dt=1e-3, t_final=0.02)
        traj = simulate(cahn_hilliard(), cfg, basis)
        assert np.all(traj.coeffs == 0.0)


class TestMassConservation:
    def test_mode_zero_constant_bit_exactly(self):
        basis = neumann_basis()
        u0 = low_mode_state(basis, mean=0.5, amp=0.3)
        cfg = SolverConfig(dt=1e-4, t_final=0.05)
        traj = simulate(cahn_hilliard(), cfg, basis, u0=u0)
        assert np.all(traj.coeffs[:, 0] == traj.coeffs[0, 0])

    def test_mode_zero_constant_across_schemes(self):
        basis = neumann_basis()
        u0 = low_mode_state(basis)
        cfg = SolverConfig(dt=1e-4, t_final=0.01, scheme=SEMI_IMPLICIT)
        traj = simulate(cahn_hilliard(), cfg, basis, u0=u0)
        assert np.all(traj.coeffs[:, 0] == traj.coeffs[0, 0])

    def test_drift_terms_can_move_the_mean(self):
        basis = neumann_basis()
        model = ModelSpec(bc=NEUMANN, drifts=(((0,), lambda u: np.ones_like(u)),),
                          lipschitz_only=True)
        cfg = SolverConfig(dt=0.01, t_final=0.1)
        traj = simulate(model, cfg, basis)
        assert traj.final[0] > 0.0


class TestStoppingAndBlowUp:
    def grow_model(self):
        return ModelSpec(bc=NEUMANN, drifts=(((0,), lambda u: u),),
                         lipschitz_only=True)

    def test_stop_time_detects_crossing(self):
        basis = neumann_basis()
        u0 = np.zeros(16)
        u0[0] = 1.0
        cfg = SolverConfig(dt=0.01, t_final=4.0, truncation=3.0)
        traj = simulate(self.grow_model(), cfg, basis, u0=u0)
        # mean mode grows like e^t, so the L^2 level 3 is hit near ln 3
        assert traj.stop_time == pytest.approx(math.log(3.0), abs=0.05)
        assert traj.times[-1] == pytest.approx(4.0)
        assert not traj.exploded

    def test_stop_time_monotone_in_level(self):
        basis = neumann_basis()
        u0 = np.zeros(16)
        u0[0] = 1.0
        taus = []
        for n in (2.0, 3.0, 5.0):
            cfg = SolverConfig(dt=0.01, t_final=4.0, truncation=n)
            taus.append(simulate(self.grow_model(), cfg, basis, u0=u0).stop_time)
        assert taus[0] < taus[1] < taus[2]

    def test_stop_time_none_when_never_crossing(self):
        basis = neumann_basis()
        cfg = SolverConfig(dt=0.01, t_final=0.5, truncation=5.0)
        traj = simulate(cahn_hilliard(), cfg, basis,
                        u0=low_mode_state(basis, mean=0.1, amp=0.05))
        assert traj.stop_time is None

    def test_truncated_run_matches_plain_run_before_crossing(self):
        basis = neumann_basis()
        # constant inflow g = 1 pushes the mean up linearly; K_n tames it
        model = ModelSpec(bc=NEUMANN, reaction=(1.0, 0.0, 0.0, 0.0),
                          forcing=lambda t, x, u: np.ones_like(u))
        u0 = low_mode_state(basis, mean=0.2, amp=0.1)
        tamed = simulate(model, SolverConfig(dt=0.01, t_final=6.0, truncation=2.0),
                         basis, u0=u0)
        plain = simulate(model, SolverConfig(dt=0.01, t_final=6.0), basis, u0=u0)
        assert tamed.stop_time is not None
        idx = int(np.searchsorted(tamed.times, tamed.stop_time))
        assert np.array_equal(tamed.coeffs[: idx + 1], plain.coeffs[: idx + 1])
        assert not np.allclose(tamed.final, plain.final)

    def test_blowup_marks_trajectory_and_stops(self):
        basis = neumann_basis()
        boom = ModelSpec(bc=NEUMANN, drifts=(((0,), lambda u: u**3),))
        u0 = np.zeros(16)
        u0[0] = 6.0
        traj = simulate(boom, SolverConfig(dt=0.05, t_final=3.0), basis, u0=u0)
        assert traj.exploded
        assert traj.stop_time is not None and traj.stop_time < 3.0
        assert traj.times[-1] == pytest.approx(traj.stop_time)
        assert traj.norms[-1] > BLOWUP_THRESHOLD or not np.isfinite(traj.norms[-1])

    def test_truncation_prevents_reaction_blowup(self):
        basis = neumann_basis()
        # unstable double-well state near the spinodal; cutoff keeps it finite
        model = cahn_hilliard()
        u0 = low_mode_state(basis, mean=0.0, amp=2.0)
        cfg = SolverConfig(dt=1e-3, t_final=0.5, truncation=4.0)
        traj = simulate(model, cfg, basis, u0=u0)
        assert not traj.exploded
        assert np.all(np.isfinite(traj.final))


class TestGalerkinConsistency:
    def test_refinement_errors_decrease(self):
        # deep quench: the cubic cascades energy into high modes, so each
        # refinement must pick up genuinely new content
        dt, T = 1e-5, 0.01
        ref_basis = Basis(NEUMANN, 1, 64)
        ref = simulate(cahn_hilliard(), SolverConfig(dt=dt, t_final=T),
                       ref_basis, u0=low_mode_state(ref_basis, mean=0.0, amp=1.8)).final
        errors = []
        for M in (8, 16, 32):
            basis = Basis(NEUMANN, 1, M)
            fin = simulate(cahn_hilliard(), SolverConfig(dt=dt, t_final=T),
                           basis, u0=low_mode_state(basis, mean=0.0, amp=1.8)).final
            padded = np.zeros(64)
            padded[:M] = fin
            errors.append(float(np.linalg.norm(padded - ref)))
        assert errors[0] > 10 * errors[1] > 100 * errors[2]
        assert errors[2] < 1e-12


class TestPicard:
    def test_additive_linear_model_converges_immediately(self):
        basis = neumann_basis()
        backend = make_backend(CovarianceSpec.white(1), basis, seed=5)
        model = ModelSpec(bc=NEUMANN, sigma=0.7, lipschitz_only=True)
        cfg = SolverConfig(dt=0.01, t_final=0.1)
        res = picard_solve(model, cfg, basis, backend, tol=1e-14)
        assert res.converged
        assert res.iterations <= 2
        assert res.deltas[-1] == 0.0

    def test_linear_drift_reaches_scalar_ode_solution(self):
        basis = neumann_basis()
        model = ModelSpec(bc=NEUMANN, drifts=(((0,), lambda u: u),),
                          lipschitz_only=True)
        u0 = np.zeros(16)
        u0[0], u0[2] = 1.0, 0.5
        cfg = SolverConfig(dt=1e-3, t_final=0.1)
        res = picard_solve(model, cfg, basis, u0=u0, tol=1e-12)
        lam = basis.laplace_eigenvalues
        expect = u0 * np.exp((-(lam**2) + 1.0) * 0.1)
        assert res.converged
        np.testing.assert_allclose(res.trajectory.final, expect, atol=5e-4)

    def test_fixed_point_equals_forward_run(self):
        basis = neumann_basis()
        backend = make_backend(CovarianceSpec.white(1), basis, seed=9)
        model = ModelSpec(bc=NEUMANN, sigma=0.3,
                          drifts=(((0,), np.sin),), lipschitz_only=True)
        cfg = SolverConfig(dt=5e-3, t_final=0.05)
        res = picard_solve(model, cfg, basis, backend, path=2, tol=1e-13)
        fwd = simulate(model, cfg, basis, backend, path=2)
        assert res.converged
        np.testing.assert_allclose(res.trajectory.final, fwd.final, atol=1e-11)

    def test_contraction_ratio_eventually_below_half(self):
        basis = neumann_basis()
        backend = make_backend(CovarianceSpec.white(1), basis, seed=13)
        model = ModelSpec(bc=NEUMANN, sigma=0.5,
                          drifts=(((0,), np.sin),), lipschitz_only=True)
        cfg = SolverConfig(dt=5e-3, t_final=0.1)
        res = picard_solve(model, cfg, basis, backend, tol=1e-13)
        d = res.deltas
        ratios = [d[i + 1] / d[i] for i in range(len(d) - 1) if d[i] > 1e-14]
        assert res.converged
        assert ratios[-1] <= 0.5

    def test_non_contracting_horizon_raises(self):
        basis = neumann_basis(8)
        model = ModelSpec(bc=NEUMANN, drifts=(((0,), lambda u: 5.0 * u),),
                          lipschitz_only=True)
        u0 = np.zeros(8)
        u0[0] = 1.0
        cfg = SolverConfig(dt=0.05, t_final=4.0)
        with pytest.raises(RuntimeError, match="not contracting"):
            picard_solve(model, cfg, basis, u0=u0, tol=1e-12)

    def test_same_noise_draws_as_simulate(self):
        basis = neumann_basis()
        backend = make_backend(CovarianceSpec.white(1), basis, seed=17)
        model = ModelSpec(bc=NEUMANN, sigma=1.0, lipschitz_only=True)
        cfg = SolverConfig(dt=0.02, t_final=0.1)
        res = picard_solve(model, cfg, basis, backend, path=4)
        fwd = simulate(model, cfg, basis, backend, path=4)
        # linear additive model: equal states need equal increments
        np.testing.assert_array_equal(res.trajectory.coeffs, fwd.coeffs)

    @pytest.mark.parametrize("u0", [np.full(4, 0.1), 0.1])
    def test_wrong_u0_shape_raises_like_simulate(self, u0):
        basis = Basis(NEUMANN, 2, 4)
        model = ModelSpec(bc=NEUMANN, drifts=(((0, 0), np.sin),),
                          lipschitz_only=True)
        cfg = SolverConfig(dt=1e-3, t_final=1e-2)
        for solve in (simulate, picard_solve):
            with pytest.raises(ValueError, match="u0 has shape"):
                solve(model, cfg, basis, u0=u0)


class TestDeterministicConvolution:
    def test_constant_field_integrates_time(self):
        basis = neumann_basis()
        out = deterministic_convolution(basis, np.ones(16), "G", 0.0, 0.7, n_steps=3)
        np.testing.assert_allclose(basis.inverse_transform(out), 0.7, rtol=1e-13)

    def test_single_mode_closed_form(self):
        basis = neumann_basis()
        coeffs = np.zeros(16)
        coeffs[3] = 1.0
        vals = basis.inverse_transform(coeffs)
        out = deterministic_convolution(basis, vals, "G", 0.2, 0.9, n_steps=4)
        lam = 9.0
        assert out[3] == pytest.approx((1 - math.exp(-(lam**2) * 0.7)) / lam**2, rel=1e-13)
        others = np.delete(out, 3)
        assert np.abs(others).max() < 1e-14

    def test_laplacian_kernel_kills_constants(self):
        basis = neumann_basis()
        out = deterministic_convolution(basis, np.ones(16), "laplacian-G", 0.0, 0.5)
        assert np.abs(out).max() == 0.0

    def test_derivative_orders_match_laplacian_in_1d(self):
        basis = neumann_basis()
        rng = np.random.default_rng(1)
        vals = basis.inverse_transform(rng.standard_normal(16) / (1 + np.arange(16.0)))
        a = deterministic_convolution(basis, vals, "laplacian-G", 0.0, 0.4)
        b = deterministic_convolution(basis, vals, (2,), 0.0, 0.4)
        np.testing.assert_allclose(a, b, rtol=1e-13, atol=1e-16)

    def test_time_dependent_integrand(self):
        basis = neumann_basis(8)
        out = deterministic_convolution(basis, lambda s: s * np.ones(8), "G",
                                        0.0, 1.0, n_steps=512)
        mean_val = basis.inverse_transform(out)[0]
        assert mean_val == pytest.approx(0.5, abs=2e-3)  # int_0^1 s ds

    def test_invalid_arguments(self):
        basis = neumann_basis()
        with pytest.raises(ValueError):
            deterministic_convolution(basis, np.ones(16), "G", 1.0, 0.5)
        with pytest.raises(ValueError):
            deterministic_convolution(basis, np.ones(16), (1,), 0.0, 0.5)
        with pytest.raises(ValueError):
            deterministic_convolution(basis, np.ones(16), "G", 0.0, 1.0, n_steps=0)


class TestConvolutionBound:
    def test_plain_kernel_sup_norm_constant_is_one(self):
        basis = neumann_basis()
        ex = KernelExponents.biharmonic(1)
        rep = convolution_bound_check(basis, ex, "G", q=math.inf, rho=math.inf,
                                      t=0.5, n_samples=8)
        assert rep.eta == pytest.approx(0.0, abs=1e-15)
        assert 1.0 - 1e-9 <= rep.c_fit <= 2.0

    def test_laplacian_kernel_exponent_in_2d(self):
        basis = Basis(NEUMANN, 2, 8)
        ex = KernelExponents.biharmonic(2)
        rep = convolution_bound_check(basis, ex, "laplacian-G", q=4.0, rho=4.0,
                                      t=0.3, n_samples=4)
        assert rep.eta == pytest.approx(0.5)
        assert rep.c_fit > 0.0

    def test_exponent_shift_from_norm_gap(self):
        basis = neumann_basis()
        ex = KernelExponents.biharmonic(1)
        rep = convolution_bound_check(basis, ex, "G", q=math.inf, rho=2.0, t=0.4)
        assert rep.r == pytest.approx(2.0)
        assert rep.eta == pytest.approx(0.125)

    def test_violation_counting(self):
        basis = neumann_basis()
        ex = KernelExponents.biharmonic(1)
        rep = convolution_bound_check(basis, ex, "G", q=math.inf, rho=math.inf,
                                      n_samples=6, c_ref=1e-6)
        assert rep.violations == 6
        rep2 = convolution_bound_check(basis, ex, "G", q=math.inf, rho=math.inf,
                                       n_samples=6, c_ref=1e6)
        assert rep2.violations == 0

    def test_dirichlet_ensemble_runs(self):
        basis = Basis(DIRICHLET, 1, 16)
        ex = KernelExponents.biharmonic(1)
        rep = convolution_bound_check(basis, ex, "G", q=2.0, rho=2.0, t=0.3,
                                      n_samples=5)
        assert rep.c_fit > 0.0 and np.all(np.isfinite(rep.ratios))

    def test_incompatible_norm_pairing_rejected(self):
        basis = neumann_basis()
        ex = KernelExponents.biharmonic(1)
        with pytest.raises(ValueError, match="incompatible"):
            convolution_bound_check(basis, ex, "G", q=2.0, rho=4.0)

    def test_non_integrable_singularity_rejected(self):
        basis = neumann_basis()
        ex = KernelExponents.biharmonic(1)
        with pytest.raises(ValueError, match="not integrable"):
            convolution_bound_check(basis, ex, (4,), q=2.0, rho=2.0)


class TestEnergyDiagnostics:
    def test_l2_series_matches_parseval(self):
        basis = neumann_basis()
        u0 = low_mode_state(basis)
        traj = simulate(cahn_hilliard(), SolverConfig(dt=1e-4, t_final=0.01),
                        basis, u0=u0)
        en = energy_diagnostics(traj, basis)
        direct = [basis.integrate(basis.inverse_transform(c) ** 2)
                  for c in traj.coeffs]
        np.testing.assert_allclose(en["l2_sq"], direct, rtol=1e-12)

    def test_free_energy_non_increasing_deterministically(self):
        basis = neumann_basis()
        model = cahn_hilliard()
        u0 = low_mode_state(basis, mean=0.3, amp=0.4)
        traj = simulate(model, SolverConfig(dt=1e-4, t_final=0.05), basis, u0=u0)
        en = energy_diagnostics(traj, basis, model)
        assert np.all(np.diff(en["free_energy"]) <= 1e-12)

    def test_mean_mode_square_of_constant_field(self):
        basis = neumann_basis()
        c = 0.7
        u0 = low_mode_state(basis, mean=c, amp=0.0)
        traj = simulate(ModelSpec(bc=NEUMANN), SolverConfig(dt=0.01, t_final=0.02),
                        basis, u0=u0)
        en = energy_diagnostics(traj, basis)
        np.testing.assert_allclose(en["mean_mode_sq"], c**2 * math.pi, rtol=1e-13)
        # the zero-mean part of a constant vanishes
        np.testing.assert_allclose(en["hminus1_sq"], 0.0, atol=1e-28)

    def test_hminus1_of_decaying_mode(self):
        basis = neumann_basis()
        u0 = np.zeros(16)
        u0[2] = 1.0
        traj = simulate(ModelSpec(bc=NEUMANN), SolverConfig(dt=0.01, t_final=0.1),
                        basis, u0=u0)
        en = energy_diagnostics(traj, basis)
        lam = 4.0
        expect = np.exp(-2 * lam**2 * traj.times) / lam
        np.testing.assert_allclose(en["hminus1_sq"], expect, rtol=1e-10)

    def test_cumulative_dissipation_increases(self):
        basis = neumann_basis()
        traj = simulate(cahn_hilliard(), SolverConfig(dt=1e-4, t_final=0.01),
                        basis, u0=low_mode_state(basis))
        en = energy_diagnostics(traj, basis)
        assert en["cum_dissipation"][0] == 0.0
        assert np.all(np.diff(en["cum_dissipation"]) >= 0.0)

    @pytest.mark.parametrize("bc, d, M, reaction", [
        (NEUMANN, 4, 8, (1.0, 0.3, -1.0, 0.2)),
        (DIRICHLET, 3, 6, (1.0, 0.7, -1.0, 0.0)),
        (NEUMANN, 2, 16, (1.0, 0.0, -1.0, 0.0)),
    ])
    def test_free_energy_bitwise_equals_padded_unslabbed_sum(self, bc, d, M,
                                                             reaction):
        # reference: one padded idctn/idstn on the 4x grid, W in a single
        # pass over the whole grid, one np.sum
        basis = Basis(bc, d, M)
        rng = np.random.default_rng(d)
        # an all-zero state (signed zeros), then states whose potential
        # outweighs the gradient term, so a last-bit change in the sum shows
        coeffs = rng.standard_normal((3,) + basis.shape)
        coeffs *= np.array([0.0, 0.1, 0.3]).reshape((3,) + (1,) * d)
        coeffs /= 1.0 + basis.laplace_eigenvalues
        coeffs[(slice(1, None),) + (0,) * d] += 3.0
        traj = Trajectory(times=np.arange(3.0), coeffs=coeffs,
                          norms=np.ones(3), weights=np.ones(2))
        model = ModelSpec(bc=bc, reaction=reaction)
        got = energy_diagnostics(traj, basis, model)["free_energy"]

        r3, r2, r1, r0 = reaction
        h = basis._fine_spacing(4)
        inverse = sfft.idctn if bc == NEUMANN else sfft.idstn
        flat = coeffs.reshape(3, -1)
        grad_sq = np.sum(flat**2 * basis.laplace_eigenvalues.reshape(-1), axis=1)
        potential = np.empty(3)
        for i in range(3):
            padded = np.zeros((4 * M,) * d)
            padded[(slice(0, M),) * d] = coeffs[i] / h ** (d / 2.0)
            u = inverse(padded, type=2 if bc == NEUMANN else 1, norm="ortho",
                        axes=tuple(range(-d, 0)), overwrite_x=True)
            w = (r3 / 4) * u
            w += r2 / 3
            w *= u
            w += r1 / 2
            w *= u
            w *= u
            u *= r0
            w += u
            potential[i] = np.sum(w) * h ** d
        assert got.tobytes() == (0.5 * grad_sq + potential).tobytes()

    def test_dirichlet_has_no_mean_mode_series(self):
        basis = Basis(DIRICHLET, 1, 8)
        model = ModelSpec(bc=DIRICHLET)
        u0 = np.zeros(8)
        u0[0] = 1.0
        traj = simulate(model, SolverConfig(dt=0.01, t_final=0.05), basis, u0=u0)
        en = energy_diagnostics(traj, basis)
        assert "mean_mode_sq" not in en
        assert np.all(en["hminus1_sq"] > 0.0)


class TestModelValidation:
    def test_dirichlet_rejects_constant_reaction_term(self):
        with pytest.raises(ValueError, match="R\\(0\\)"):
            ModelSpec(bc=DIRICHLET, reaction=(1, 0, 0, 0.5)).validate(1)

    def test_leading_coefficient_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            ModelSpec(bc=NEUMANN, reaction=(-1, 0, 0, 0)).validate(1)
        with pytest.raises(ValueError, match="positive"):
            ModelSpec(bc=NEUMANN, reaction=(0, 0, 1, 0)).validate(1)

    def test_odd_drift_orders_rejected(self):
        with pytest.raises(ValueError, match="even"):
            ModelSpec(bc=NEUMANN, drifts=(((1,), lambda u: u),)).validate(1)

    def test_lipschitz_flag_incompatible_with_cubic(self):
        with pytest.raises(ValueError, match="Lipschitz"):
            ModelSpec(bc=NEUMANN, reaction=(1, 0, -1, 0),
                      lipschitz_only=True).validate(1)

    def test_reaction_needs_four_coefficients(self):
        with pytest.raises(ValueError, match="four"):
            ModelSpec(bc=NEUMANN, reaction=(1, 0, -1)).validate(1)

    def test_bad_bc_and_callables(self):
        with pytest.raises(ValueError, match="boundary"):
            ModelSpec(bc="periodic").validate(1)
        with pytest.raises(ValueError, match="callable"):
            ModelSpec(bc=NEUMANN, drifts=(((0,), 3.0),)).validate(1)
        with pytest.raises(ValueError, match="forcing"):
            ModelSpec(bc=NEUMANN, forcing=1.0).validate(1)
        with pytest.raises(ValueError, match="sigma"):
            ModelSpec(bc=NEUMANN, sigma="big").validate(1)


class TestSimulateInterface:
    def test_bc_mismatch_rejected(self):
        basis = Basis(DIRICHLET, 1, 8)
        with pytest.raises(ValueError, match="does not match"):
            simulate(cahn_hilliard(), SolverConfig(dt=0.01, t_final=0.01), basis)

    def test_noise_requires_backend(self):
        basis = neumann_basis()
        model = ModelSpec(bc=NEUMANN, sigma=1.0)
        with pytest.raises(ValueError, match="backend"):
            simulate(model, SolverConfig(dt=0.01, t_final=0.01), basis)

    def test_u0_shape_checked(self):
        basis = neumann_basis()
        with pytest.raises(ValueError, match="shape"):
            simulate(cahn_hilliard(), SolverConfig(dt=0.01, t_final=0.01),
                     basis, u0=np.zeros(8))

    def test_inadmissible_covariance_gated(self):
        basis = Basis(NEUMANN, 5, 3)
        f = CovarianceSpec.white(5)
        backend = make_backend(f, basis, seed=1, kind="white")
        model = ModelSpec(bc=NEUMANN, sigma=1.0)
        cfg = SolverConfig(dt=0.01, t_final=0.01)
        with pytest.raises(ValueError, match="not admissible"):
            simulate(model, cfg, basis, backend, covariance=f)
        traj = simulate(model, cfg, basis, backend, covariance=f, force=True)
        assert traj.coeffs.shape[0] == 2

    def test_drift_writing_into_its_argument_raises(self):
        # The reaction and every drift read one refined-grid synthesis of u;
        # a coefficient that wrote into it would corrupt the next term.
        def doubling(u):
            u *= 2.0
            return u

        model = ModelSpec(bc=NEUMANN, reaction=(1.0, 0.0, -1.0, 0.0),
                          drifts=(((2,), doubling), ((0,), lambda u: u)))
        with pytest.raises(ValueError, match="read-only"):
            simulate(model, SolverConfig(dt=1e-3, t_final=2e-3),
                     neumann_basis(), u0=low_mode_state(neumann_basis()))

    def test_admissible_covariance_passes_gate(self):
        basis = neumann_basis(8)
        f = CovarianceSpec.riesz(1, 0.5)
        backend = make_backend(f, basis, seed=1)
        model = ModelSpec(bc=NEUMANN, sigma=1.0)
        traj = simulate(model, SolverConfig(dt=0.01, t_final=0.02), basis,
                        backend, covariance=f)
        assert np.all(np.isfinite(traj.final))

    def test_store_every_thins_recording(self):
        basis = neumann_basis(8)
        cfg = SolverConfig(dt=0.01, t_final=0.1, store_every=5)
        traj = simulate(ModelSpec(bc=NEUMANN), cfg, basis,
                        u0=np.ones(8))
        np.testing.assert_allclose(traj.times, [0.0, 0.05, 0.1])

    def test_reproducible_paths(self):
        basis = neumann_basis(8)
        backend = make_backend(CovarianceSpec.white(1), basis, seed=5)
        model = ModelSpec(bc=NEUMANN, sigma=1.0)
        cfg = SolverConfig(dt=0.01, t_final=0.05)
        a = simulate(model, cfg, basis, backend, path=3)
        b = simulate(model, cfg, basis, backend, path=3)
        np.testing.assert_array_equal(a.coeffs, b.coeffs)
        c = simulate(model, cfg, basis, backend, path=4)
        assert not np.allclose(a.final, c.final)

    @pytest.mark.parametrize("bc, d, M", [(NEUMANN, 2, 8), (NEUMANN, 3, 4),
                                          (DIRICHLET, 2, 6)])
    def test_never_enters_scipy_fft_dispatch(self, monkeypatch, bc, d, M):
        """Every transform of a run is a direct pocketfft kernel call; the
        d = 3 Neumann run takes the pruned one-axis route."""
        def dispatch(*args, **kwargs):
            raise AssertionError("scipy.fft dispatch entered")
        for name in ("dctn", "idctn", "dct", "idct",
                     "dstn", "idstn", "dst", "idst"):
            monkeypatch.setattr(sfft, name, dispatch)
        basis = Basis(bc, d, M)
        backend = make_backend(CovarianceSpec.riesz(d, B=1.0), basis, seed=3)
        model = ModelSpec(bc=bc, reaction=(1.0, 0.0, -1.0, 0.0), sigma=0.1)
        cfg = SolverConfig(dt=1e-3, t_final=0.005, truncation=8.0, q=4.0)
        traj = simulate(model, cfg, basis, backend=backend, path=1)
        en = energy_diagnostics(traj, basis, model)
        assert np.all(np.isfinite(traj.final))
        assert np.all(np.isfinite(en["l2_sq"]))

    def test_state_at_lookup(self):
        basis = neumann_basis(8)
        cfg = SolverConfig(dt=0.01, t_final=0.05)
        traj = simulate(ModelSpec(bc=NEUMANN), cfg, basis, u0=np.ones(8))
        np.testing.assert_array_equal(traj.state_at(0.0), np.ones(8))
        with pytest.raises(ValueError, match="not recorded"):
            traj.state_at(0.017)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(dt=0.0, t_final=1.0)
        with pytest.raises(ValueError):
            SolverConfig(dt=0.1, t_final=0.05)
        with pytest.raises(ValueError):
            SolverConfig(dt=0.01, t_final=1.0, scheme="euler")
        with pytest.raises(ValueError):
            SolverConfig(dt=0.01, t_final=1.0, truncation=0.5)
        with pytest.raises(ValueError):
            SolverConfig(dt=0.01, t_final=1.0, q=0.5)
        with pytest.raises(ValueError):
            SolverConfig(dt=0.01, t_final=0.015)
        cfg = SolverConfig(dt=0.01, t_final=1.0, q=math.inf)
        assert cfg.n_steps == 100
