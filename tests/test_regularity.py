"""Tests for structure functions, exponent fits and moment tracking."""

import math

import numpy as np
import pytest

from spde_ch.basis import DIRICHLET, NEUMANN, Basis
from spde_ch.covariance import CovarianceSpec
from spde_ch.greens import KernelExponents
from spde_ch.noise import make_backend
from spde_ch.regularity import (
    BOUNDARY_SPACE_HOLDER,
    Ensemble,
    INTERIOR_HOLDER,
    LQ_CONTINUITY,
    LinearOracle,
    MomentTrack,
    StructureFunction,
    TIME,
    holder_exponent,
    increment_moment_scaling,
    moment_track,
    structure_function,
    u0_regularity_check,
)
from spde_ch.solver import ModelSpec, SolverConfig, Trajectory, simulate


def make_trajectory(basis, times, coeffs, exploded=False):
    n = len(times) - 1
    return Trajectory(times=np.asarray(times, dtype=float),
                      coeffs=np.asarray(coeffs, dtype=float),
                      norms=np.zeros(len(times)),
                      weights=np.ones(n), exploded=exploded)


class TestLinearOracle:
    def test_mode_variance_matches_ou_law(self):
        basis = Basis(NEUMANN, 1, 8)
        oracle = LinearOracle(basis, sigma=2.0)
        v = oracle.mode_variance(0.3)
        lam2 = basis.biharmonic_eigenvalues
        assert v[0] == pytest.approx(4.0 * 0.3)
        assert v[2] == pytest.approx(4.0 * (1 - math.exp(-2 * lam2[2] * 0.3)) / (2 * lam2[2]))

    def test_mean_mode_increment_is_linear_in_lag(self):
        basis = Basis(NEUMANN, 1, 8)
        q = np.zeros(8)
        q[0] = 2.5
        oracle = LinearOracle(basis, q_diag=q, sigma=1.0, t_ref=0.7)
        # Brownian mode: E|u(t+h) - u(t)|^2 = q0 h x (mean of e_0^2 = 1/pi)
        for h in (0.01, 0.05):
            assert oracle.time_increment(h) == pytest.approx(2.5 * h / math.pi, rel=1e-12)

    def test_point_weight_kills_odd_modes_at_center(self):
        basis = Basis(NEUMANN, 1, 8)
        q = np.zeros(8)
        q[3] = 1.0  # e_3(pi/2) = 0
        oracle = LinearOracle(basis, q_diag=q, x=[math.pi / 2])
        assert oracle.time_increment(0.01) == pytest.approx(0.0, abs=1e-20)

    def test_single_mode_space_increment_closed_form(self):
        basis = Basis(DIRICHLET, 1, 16)
        q = np.zeros(16)
        q[1] = 1.0  # axis mode 2: e(x) = sqrt(2/pi) sin(2x)
        oracle = LinearOracle(basis, q_diag=q, t_ref=5.0)
        h = 2 * basis.spacing
        pts = basis.axis_points
        base = pts[pts + h <= math.pi + 1e-12]
        e = lambda x: math.sqrt(2 / math.pi) * np.sin(2 * x)
        inc = np.mean((e(base + h) - e(base)) ** 2)
        var = (1 - math.exp(-2 * 16 * 5.0)) / (2 * 16.0)
        assert oracle.space_increment(h) == pytest.approx(var * inc, rel=1e-12)

    def test_stationary_variance_limit(self):
        basis = Basis(NEUMANN, 1, 8)
        oracle = LinearOracle(basis)
        v = oracle.mode_variance(50.0)
        lam2 = basis.biharmonic_eigenvalues
        np.testing.assert_allclose(v[1:], 1.0 / (2 * lam2[1:]), rtol=1e-10)

    def test_validation(self):
        basis = Basis(NEUMANN, 1, 8)
        with pytest.raises(ValueError, match="shape"):
            LinearOracle(basis, q_diag=np.ones(4))
        with pytest.raises(ValueError, match="non-negative"):
            LinearOracle(basis, q_diag=-np.ones(8))
        with pytest.raises(ValueError, match="t_ref"):
            LinearOracle(basis, t_ref=0.0)
        with pytest.raises(ValueError, match="components"):
            LinearOracle(basis, x=[0.1, 0.2])
        oracle = LinearOracle(basis)
        with pytest.raises(ValueError, match="positive"):
            oracle.time_increment(0.0)
        with pytest.raises(ValueError, match="axis"):
            oracle.space_increment(0.1, axis=3)
        with pytest.raises(ValueError, match="domain"):
            oracle.space_increment(4.0, axis=0)


class TestStructureFunctionOracle:
    def test_time_slope_near_three_quarters(self):
        basis = Basis(DIRICHLET, 1, 64)
        oracle = LinearOracle(basis, t_ref=1.0)
        lags = np.geomspace(1e-5, 1e-3, 9)
        fit = holder_exponent(structure_function(oracle, TIME, lags))
        assert fit.exponent == pytest.approx(0.375, abs=0.01)
        assert not fit.saturated

    def test_oracle_fit_is_deterministic(self):
        basis = Basis(DIRICHLET, 1, 64)
        lags = np.geomspace(1e-5, 1e-3, 7)
        a = holder_exponent(structure_function(LinearOracle(basis), TIME, lags))
        b = holder_exponent(structure_function(LinearOracle(basis), TIME, lags))
        assert abs(a.exponent - b.exponent) < 1e-12

    def test_values_vanish_with_lag(self):
        basis = Basis(NEUMANN, 1, 32)
        oracle = LinearOracle(basis)
        lags = np.geomspace(1e-7, 1e-3, 6)
        sf = structure_function(oracle, TIME, lags)
        assert np.all(np.diff(sf.values) > 0)
        assert sf.values[0] < 1e-4
        assert np.all(sf.errors == 0.0)

    def test_space_slope_below_first_difference_cap(self):
        basis = Basis(DIRICHLET, 1, 64)
        oracle = LinearOracle(basis, t_ref=1.0)
        lags = np.array([2, 3, 4, 5, 6]) * basis.spacing
        fit = holder_exponent(structure_function(oracle, 0, lags))
        # the field is C^1 in space, so the squared first difference
        # scales like h^2 up to finite-lag bias
        assert 1.7 <= fit.slope <= 2.0

    def test_unknown_source_rejected(self):
        with pytest.raises(ValueError, match="source"):
            structure_function(object(), TIME, [0.1])


@pytest.fixture(scope="module")
def white_ensemble():
    basis = Basis(NEUMANN, 1, 64)
    backend = make_backend(CovarianceSpec.white(1), basis, seed=42)
    model = ModelSpec(bc=NEUMANN, sigma=1.0)
    cfg = SolverConfig(dt=1e-3, t_final=0.02)
    return Ensemble.generate(model, cfg, basis, backend, n_paths=400)


@pytest.fixture(scope="module")
def conv_ensemble():
    basis = Basis(NEUMANN, 1, 32)
    backend = make_backend(CovarianceSpec.white(1), basis, seed=11)
    model = ModelSpec(bc=NEUMANN, sigma=1.0)
    cfg = SolverConfig(dt=1e-3, t_final=0.02)
    return Ensemble.generate(model, cfg, basis, backend, n_paths=300)


class TestStructureFunctionEnsemble:

    def test_matches_oracle_within_three_se(self, white_ensemble):
        ens = white_ensemble
        lags = np.array([2e-3, 3e-3, 4e-3, 5e-3])
        sfe = structure_function(ens, TIME, lags, t_base=0.015)
        sfo = structure_function(LinearOracle(ens.basis), TIME, lags, t_base=0.015)
        z = np.abs(sfe.values - sfo.values) / sfe.errors
        assert np.all(z <= 3.0)

    def test_space_increments_match_oracle(self, white_ensemble):
        ens = white_ensemble
        lags = np.array([2, 3, 4]) * ens.basis.spacing
        sfe = structure_function(ens, 0, lags, t_base=0.015)
        sfo = structure_function(LinearOracle(ens.basis), 0, lags, t_base=0.015)
        z = np.abs(sfe.values - sfo.values) / sfe.errors
        assert np.all(z <= 3.0)

    def test_zero_noise_gives_zero_structure(self):
        basis = Basis(NEUMANN, 1, 16)
        ens = Ensemble.generate(ModelSpec(bc=NEUMANN),
                                SolverConfig(dt=1e-3, t_final=0.02), basis)
        sf = structure_function(ens, TIME, [2e-3, 4e-3])
        assert np.all(sf.values == 0.0)

    def test_smooth_deterministic_path_saturates(self):
        basis = Basis(NEUMANN, 1, 32)
        u0 = np.zeros(32)
        u0[1], u0[3] = 1.0, 0.4
        ens = Ensemble.generate(ModelSpec(bc=NEUMANN),
                                SolverConfig(dt=1e-4, t_final=0.02), basis, u0=u0)
        lags = np.array([2, 3, 4, 6, 8, 10]) * 1e-4
        fit = holder_exponent(structure_function(ens, TIME, lags))
        assert fit.saturated
        assert fit.exponent > 0.9

    def test_lag_window_enforced(self, white_ensemble):
        ens = white_ensemble
        with pytest.raises(ValueError, match="resolved range"):
            structure_function(ens, TIME, [1e-3])  # below 2 dt
        with pytest.raises(ValueError, match="resolved range"):
            structure_function(ens, TIME, [0.01])  # above T/4
        with pytest.raises(ValueError, match="resolved range"):
            structure_function(ens, 0, [0.5 * ens.basis.spacing])
        with pytest.raises(ValueError, match="resolved range"):
            structure_function(ens, 0, [1.0])  # above pi/4

    def test_lags_snap_to_grid(self, white_ensemble):
        sf = structure_function(white_ensemble, TIME, [2.4e-3], t_base=0.015)
        assert sf.lags[0] == pytest.approx(2e-3)

    def test_base_time_must_be_recorded(self, white_ensemble):
        with pytest.raises(ValueError, match="not recorded"):
            structure_function(white_ensemble, TIME, [2e-3], t_base=0.0123)
        with pytest.raises(ValueError, match="no base times"):
            structure_function(white_ensemble, TIME, [5e-3], t_base=0.019)

    def test_bad_axis(self, white_ensemble):
        with pytest.raises(ValueError, match="axis"):
            structure_function(white_ensemble, 2, [2e-3])

    def test_ensemble_validation(self):
        basis = Basis(NEUMANN, 1, 8)
        with pytest.raises(ValueError, match="at least one"):
            Ensemble(basis, [])
        t1 = make_trajectory(basis, [0.0, 0.1], np.zeros((2, 8)))
        t2 = make_trajectory(basis, [0.0, 0.2], np.zeros((2, 8)))
        with pytest.raises(ValueError, match="time grid"):
            Ensemble(basis, [t1, t2])
        t3 = make_trajectory(basis, [0.0, 0.1], np.zeros((2, 8)), exploded=True)
        with pytest.raises(ValueError, match="exploded"):
            Ensemble(basis, [t3])
        ens = Ensemble(basis, [t1, t3])
        assert ens.exploded_count == 1
        assert len(ens.trajectories) == 1


class TestHolderExponent:
    def synthetic(self, slope, n=8, moment=2.0):
        lags = np.geomspace(1e-4, 1e-2, n)
        return StructureFunction(axis=TIME, lags=lags, values=lags**slope,
                                 errors=np.zeros(n), moment=moment)

    def test_recovers_exact_power_law(self):
        fit = holder_exponent(self.synthetic(1.5))
        assert fit.exponent == pytest.approx(0.75, abs=1e-12)
        assert fit.stderr < 1e-10
        assert not fit.saturated

    def test_weighted_fit_matches_on_exact_data(self):
        sf = self.synthetic(0.8)
        sf.errors = 0.01 * sf.values
        fit = holder_exponent(sf)
        assert fit.exponent == pytest.approx(0.4, abs=1e-10)

    def test_ci_covers_true_exponent(self):
        rng = np.random.default_rng(0)
        lags = np.geomspace(1e-4, 1e-2, 12)
        values = lags ** 1.0 * np.exp(rng.normal(0, 0.02, 12))
        sf = StructureFunction(axis=TIME, lags=lags, values=values,
                               errors=0.02 * values)
        fit = holder_exponent(sf)
        assert fit.ci[0] <= 0.5 <= fit.ci[1]

    def test_saturation_cap_scales_with_moment(self):
        assert holder_exponent(self.synthetic(2.0)).saturated
        assert not holder_exponent(self.synthetic(1.8)).saturated
        assert holder_exponent(self.synthetic(4.0, moment=4.0)).saturated
        assert not holder_exponent(self.synthetic(3.0, moment=4.0)).saturated

    def test_window_filters_lags(self):
        sf = self.synthetic(1.0, n=10)
        fit = holder_exponent(sf, window=(1e-4, 1e-2))
        assert fit.n_lags == 10
        with pytest.raises(ValueError, match="at least 5"):
            holder_exponent(sf, window=(1e-4, 2e-4))

    def test_needs_five_lags_and_positive_values(self):
        with pytest.raises(ValueError, match="at least 5"):
            holder_exponent(self.synthetic(1.0, n=4))
        sf = self.synthetic(1.0)
        sf.values[3] = 0.0
        with pytest.raises(ValueError, match="positive"):
            holder_exponent(sf)

    def test_structure_function_validation(self):
        with pytest.raises(ValueError, match="matching"):
            StructureFunction(TIME, [0.1, 0.2], [1.0], [0.0])
        with pytest.raises(ValueError, match="positive"):
            StructureFunction(TIME, [0.0], [1.0], [0.0])
        with pytest.raises(ValueError, match="non-negative"):
            StructureFunction(TIME, [0.1], [-1.0], [0.0])
        with pytest.raises(ValueError, match="errors"):
            StructureFunction(TIME, [0.1], [1.0], [-0.5])


class TestIncrementMomentScaling:
    def test_first_moment_reduces_to_structure_function(self, conv_ensemble):
        ex = KernelExponents.biharmonic(1)
        lags = np.geomspace(2e-3, 5e-3, 5)
        rep = increment_moment_scaling(conv_ensemble, CovarianceSpec.white(1), ex,
                                       TIME, lags, p=1, t_base=0.015)
        sf = structure_function(conv_ensemble, TIME, lags, t_base=0.015)
        np.testing.assert_array_equal(rep.structure.values, sf.values)
        assert rep.moment == 2.0

    def test_admissible_exponent_from_kernel(self, conv_ensemble):
        ex = KernelExponents.biharmonic(1)
        lags = np.geomspace(2e-3, 5e-3, 5)
        rep = increment_moment_scaling(conv_ensemble, CovarianceSpec.white(1), ex,
                                       TIME, lags, p=1, t_base=0.015)
        # largest admissible time Hölder order for white noise in d=1 is 3/8
        assert rep.holder_order == pytest.approx(0.375, abs=1e-4)
        assert rep.admissible_exponent == pytest.approx(0.75, abs=2e-4)
        assert rep.passed

    def test_fourth_moment_scaling(self, conv_ensemble):
        ex = KernelExponents.biharmonic(1)
        lags = np.geomspace(2e-3, 5e-3, 5)
        rep = increment_moment_scaling(conv_ensemble, CovarianceSpec.white(1), ex,
                                       TIME, lags, p=2, t_base=0.015)
        assert rep.moment == 4.0
        assert rep.admissible_exponent == pytest.approx(1.5, abs=4e-4)
        assert rep.fitted_exponent >= rep.admissible_exponent - rep.slack
        assert rep.passed

    def test_flat_field_from_constant_kernel_passes(self):
        basis = Basis(NEUMANN, 1, 16)
        f = CovarianceSpec.constant(1, 1.0)
        backend = make_backend(f, basis, seed=3)
        model = ModelSpec(bc=NEUMANN, sigma=1.0)
        cfg = SolverConfig(dt=1e-3, t_final=0.02)
        ens = Ensemble.generate(model, cfg, basis, backend, n_paths=20)
        ex = KernelExponents.biharmonic(1)
        rep = increment_moment_scaling(ens, f, ex, 0,
                                       np.array([2, 3]) * basis.spacing, p=1)
        assert rep.fitted_exponent == math.inf
        assert rep.passed

    def test_inadmissible_kernel_refused(self, conv_ensemble):
        ex = KernelExponents.biharmonic(5)
        with pytest.raises(ValueError, match="no positive"):
            increment_moment_scaling(conv_ensemble, CovarianceSpec.white(5), ex,
                                     TIME, [2e-3, 3e-3], p=1)

    def test_p_must_be_positive_integer(self, conv_ensemble):
        ex = KernelExponents.biharmonic(1)
        with pytest.raises(ValueError, match="positive integer"):
            increment_moment_scaling(conv_ensemble, CovarianceSpec.white(1), ex,
                                     TIME, [2e-3], p=0)


class TestMomentTrack:
    def test_zero_model_matches_semigroup_decay(self):
        basis = Basis(NEUMANN, 1, 64)
        u0 = np.zeros(64)
        u0[1] = 1.0
        ens = Ensemble.generate(ModelSpec(bc=NEUMANN),
                                SolverConfig(dt=0.01, t_final=0.1), basis, u0=u0)
        mt = moment_track(ens, q=2.0, p=2.0)
        np.testing.assert_allclose(mt.values, np.exp(-2.0 * mt.times), rtol=1e-10)
        assert mt.sup_value == pytest.approx(1.0)
        assert not mt.growing
        assert mt.exploded_count == 0

    def test_linear_additive_matches_spectral_sum(self):
        basis = Basis(NEUMANN, 1, 16)
        backend = make_backend(CovarianceSpec.white(1), basis, seed=29)
        model = ModelSpec(bc=NEUMANN, sigma=1.0)
        cfg = SolverConfig(dt=0.01, t_final=0.2)
        P = 300
        ens = Ensemble.generate(model, cfg, basis, backend, n_paths=P)
        mt = moment_track(ens, q=2.0, p=2.0)
        target = LinearOracle(basis).mode_variance(0.2).sum()
        se = math.sqrt(2.0 * np.sum(LinearOracle(basis).mode_variance(0.2) ** 2) / P)
        assert abs(mt.values[-1] - target) <= 3 * se

    def test_growth_flag(self):
        basis = Basis(NEUMANN, 1, 8)
        model = ModelSpec(bc=NEUMANN, drifts=(((0,), lambda u: u),),
                          lipschitz_only=True)
        u0 = np.zeros(8)
        u0[0] = 1.0
        ens = Ensemble.generate(model, SolverConfig(dt=0.01, t_final=2.0),
                                basis, u0=u0)
        assert moment_track(ens, q=2.0, p=2.0).growing

    def test_sup_norm_track(self):
        basis = Basis(NEUMANN, 1, 8)
        u0 = np.zeros(8)
        u0[0] = math.sqrt(math.pi)  # the constant field 1
        ens = Ensemble.generate(ModelSpec(bc=NEUMANN),
                                SolverConfig(dt=0.01, t_final=0.05), basis, u0=u0)
        mt = moment_track(ens, q=math.inf, p=1.0)
        np.testing.assert_allclose(mt.values, 1.0, rtol=1e-12)

    def test_validation(self):
        basis = Basis(NEUMANN, 1, 8)
        t1 = make_trajectory(basis, [0.0, 0.1], np.zeros((2, 8)))
        ens = Ensemble(basis, [t1])
        with pytest.raises(ValueError):
            moment_track(ens, q=0.5)
        with pytest.raises(ValueError):
            moment_track(ens, p=0.0)


class TestU0RegularityCheck:
    def test_single_mode_lq_modulus_exact(self):
        basis = Basis(NEUMANN, 1, 64)
        u1 = np.zeros(64)
        u1[1] = 1.0
        vals = basis.inverse_transform(u1)
        times = np.array([0.1, 0.2, 0.4])
        rep = u0_regularity_check(vals, basis, LQ_CONTINUITY, times=times)
        exact = [abs(math.exp(-0.2) - math.exp(-0.1)),
                 abs(math.exp(-0.4) - math.exp(-0.2))]
        np.testing.assert_allclose(rep.values, exact, rtol=1e-12)
        np.testing.assert_allclose(
            rep.initial_deltas, [1 - math.exp(-t) for t in times], rtol=1e-12)

    def test_single_mode_dirichlet_same_modulus(self):
        basis = Basis(DIRICHLET, 1, 32)
        u1 = np.zeros(32)
        u1[0] = 1.0  # axis mode 1, eigenvalue 1
        vals = basis.inverse_transform(u1)
        rep = u0_regularity_check(vals, basis, LQ_CONTINUITY,
                                  times=np.array([0.1, 0.3]))
        assert rep.values[0] == pytest.approx(math.exp(-0.1) - math.exp(-0.3), rel=1e-12)

    def test_continuous_u0_passes_lq_mode(self):
        basis = Basis(NEUMANN, 1, 32)
        x = basis.grid()[..., 0]
        rep = u0_regularity_check(np.cos(x), basis, LQ_CONTINUITY)
        assert rep.passed

    def test_interior_holder_constant_finite_and_vanishing(self):
        basis = Basis(NEUMANN, 1, 32)
        x = basis.grid()[..., 0]
        u0 = np.cos(x) + 0.3 * np.cos(2 * x)
        rep = u0_regularity_check(u0, basis, INTERIOR_HOLDER, holder_order=1.0)
        assert rep.passed
        assert math.isfinite(rep.fitted_c) and rep.fitted_c > 0
        assert rep.exponent == pytest.approx(0.25)
        # sup |G_t u0 - u0| shrinks as t -> 0
        assert rep.initial_deltas[0] < 0.1 * rep.initial_deltas[-1]

    def test_boundary_space_mode_fits_lipschitz_slope(self):
        basis = Basis(NEUMANN, 1, 64)
        x = basis.grid()[..., 0]
        rep = u0_regularity_check(np.cos(x), basis, BOUNDARY_SPACE_HOLDER,
                                  holder_order=1.0)
        assert rep.passed and rep.boundary_ok
        assert rep.exponent == pytest.approx(1.0, abs=0.1)
        assert math.isfinite(rep.fitted_c)

    def test_dirichlet_boundary_trace_checked(self):
        basis = Basis(DIRICHLET, 1, 32)
        x = basis.grid()[..., 0]
        ok = u0_regularity_check(np.sin(x), basis, BOUNDARY_SPACE_HOLDER)
        assert ok.boundary_ok and ok.passed
        bad = u0_regularity_check(np.ones(32), basis, BOUNDARY_SPACE_HOLDER)
        assert not bad.boundary_ok and not bad.passed

    def test_validation(self):
        basis = Basis(NEUMANN, 1, 8)
        vals = np.zeros(8)
        with pytest.raises(ValueError, match="mode"):
            u0_regularity_check(vals, basis, "smoothness")
        with pytest.raises(ValueError, match="holder_order"):
            u0_regularity_check(vals, basis, LQ_CONTINUITY, holder_order=1.5)
        with pytest.raises(ValueError, match="positive"):
            u0_regularity_check(vals, basis, LQ_CONTINUITY, times=[0.0, 0.1])
