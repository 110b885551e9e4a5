"""Tests for correlation-kernel conditions and Gram assembly.

Oracle policy: analytic values are re-derived here from first principles
(antiderivatives of rho^p log powers, sphere areas), and quadrature oracles
use scipy directly on independently written integrands, never the module's
own helpers.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate as sint

from spde_ch.basis import DIRICHLET, NEUMANN, Basis
from spde_ch.covariance import (ADMISSIBLE, BORDERLINE, INADMISSIBLE,
                                CovarianceSpec, DenseGram, IdentityGram,
                                KroneckerMixtureGram, Rank1Gram,
                                cahn_hilliard_integrability, gram_matrix,
                                gram_operator, holder_integrability,
                                moment_integrability, radial_integral,
                                scaling_bound_check, small_ball_integral,
                                sphere_area, stochastic_integrability,
                                variance_kernel_exponent,
                                variance_kernel_integral)
from spde_ch.greens import KernelExponents


def oracle_radial_riesz(d, B, e, kappa, r0):
    """Independent closed form: S_d * int_0^r0 rho^{d-1-B-e} ln(1/rho)^kappa."""
    p = d - 1.0 - B - e
    if p <= -1.0:
        return math.inf
    S = 2.0 * math.pi ** (d / 2) / math.gamma(d / 2)
    # integrate by parts once for the single log power
    if kappa == 0:
        return S * r0 ** (p + 1) / (p + 1)
    val = r0 ** (p + 1) * (math.log(1 / r0) / (p + 1) + 1.0 / (p + 1) ** 2)
    return S * val


class TestSphereArea:
    def test_known_values(self):
        assert sphere_area(1) == pytest.approx(2.0, rel=1e-14)
        assert sphere_area(2) == pytest.approx(2 * math.pi, rel=1e-14)
        assert sphere_area(3) == pytest.approx(4 * math.pi, rel=1e-14)
        assert sphere_area(4) == pytest.approx(2 * math.pi**2, rel=1e-14)
        assert sphere_area(5) == pytest.approx(8 * math.pi**2 / 3, rel=1e-14)


class TestRadialIntegral:
    def test_riesz_plain(self):
        f = CovarianceSpec.riesz(4, 1.5)
        assert radial_integral(f, 0.0, 0, 1.0) == pytest.approx(
            2 * math.pi**2 / 2.5, rel=1e-12)

    def test_riesz_divergent(self):
        f = CovarianceSpec.riesz(4, 4.0)
        assert math.isinf(radial_integral(f, 0.0, 0, 1.0))

    def test_riesz_log_weight(self):
        f = CovarianceSpec.riesz(4, 1.5)
        want = 2 * math.pi**2 * 0.1**2.5 * (0.4 * math.log(10.0) + 0.16)
        assert radial_integral(f, 0.0, 1, 0.1) == pytest.approx(want, rel=1e-12)
        assert want == pytest.approx(0.0675, abs=2e-4)

    @pytest.mark.parametrize("d,B,e,kappa,r0", [
        (3, 1.2, 0.5, 0, 0.7),
        (5, 2.0, 1.0, 1, 1.0),
        (2, 0.5, 0.0, 1, 0.3),
    ])
    def test_riesz_against_quad_oracle(self, d, B, e, kappa, r0):
        f = CovarianceSpec.riesz(d, B)
        got = radial_integral(f, e, kappa, r0)
        S = sphere_area(d)

        def integrand(rho):
            return rho ** (d - 1 - B - e) * math.log(1 / rho) ** kappa

        want, _ = sint.quad(integrand, 0, r0, limit=200)
        assert got == pytest.approx(S * want, rel=1e-9)

    def test_constant_kernel(self):
        f = CovarianceSpec.constant(3, 2.0)
        # 2 * S_3 * r0^3 / 3
        assert radial_integral(f, 0.0, 0, 0.5) == pytest.approx(
            2.0 * 4 * math.pi * 0.5**3 / 3, rel=1e-12)

    def test_tabulated_matches_riesz(self):
        rr = np.geomspace(1e-5, 3.5, 400)
        f = CovarianceSpec.tabulated(4, rr, rr**-1.5)
        want = oracle_radial_riesz(4, 1.5, 0.0, 0, 1.0)
        assert radial_integral(f, 0.0, 0, 1.0) == pytest.approx(want, rel=1e-6)

    def test_tabulated_short_samples_rejected(self):
        f = CovarianceSpec.tabulated(2, [0.01, 0.1], [1.0, 0.5])
        with pytest.raises(ValueError, match="reach"):
            radial_integral(f, 0.0, 0, 0.9)

    def test_white_rejected(self):
        with pytest.raises(ValueError, match="density"):
            radial_integral(CovarianceSpec.white(2), 0.0, 0, 1.0)

    def test_bad_arguments(self):
        f = CovarianceSpec.riesz(2, 1.0)
        with pytest.raises(ValueError, match="r0"):
            radial_integral(f, 0.0, 0, 1.5)
        with pytest.raises(ValueError, match="r0"):
            radial_integral(f, 0.0, 0, 0.0)
        with pytest.raises(ValueError, match="kappa"):
            radial_integral(f, 0.0, 2, 1.0)

    @given(B=st.floats(0.2, 4.5), e1=st.floats(0.0, 2.0),
           de=st.floats(0.0, 2.0))
    @settings(max_examples=60, deadline=None)
    def test_divergence_monotone(self, B, e1, de):
        # raising the weight exponent or the log power never restores finiteness
        f = CovarianceSpec.riesz(3, B)
        v_low = radial_integral(f, e1, 0, 1.0)
        v_high = radial_integral(f, e1 + de, 0, 1.0)
        v_log = radial_integral(f, e1, 1, 1.0)
        if math.isinf(v_low):
            assert math.isinf(v_high)
            assert math.isinf(v_log)
        else:
            assert v_high >= v_low * (1 - 1e-12) or math.isinf(v_high)


class TestStochasticIntegrability:
    def test_d5_threshold(self):
        ex = KernelExponents.biharmonic(5)
        assert stochastic_integrability(CovarianceSpec.riesz(5, 3.9), ex).admissible
        rep = stochastic_integrability(CovarianceSpec.riesz(5, 4.1), ex)
        assert rep.verdict == INADMISSIBLE
        assert math.isinf(rep.value)

    def test_d4_equality_log_case(self):
        ex = KernelExponents.biharmonic(4)
        for B, want in [(1.0, True), (3.9, True), (4.1, False)]:
            rep = stochastic_integrability(CovarianceSpec.riesz(4, B), ex)
            assert rep.admissible == want

    def test_d3_threshold(self):
        ex = KernelExponents.biharmonic(3)
        assert stochastic_integrability(CovarianceSpec.riesz(3, 2.9), ex).admissible
        assert not stochastic_integrability(CovarianceSpec.riesz(3, 3.1), ex).admissible

    def test_white_noise_by_dimension(self):
        # 2 alpha - gamma d / beta = d/4 < 1, borderline exactly at d=4
        verdicts = [stochastic_integrability(
            CovarianceSpec.white(d), KernelExponents.biharmonic(d)).verdict
            for d in range(1, 6)]
        assert verdicts == [ADMISSIBLE, ADMISSIBLE, ADMISSIBLE,
                            BORDERLINE, INADMISSIBLE]

    def test_constant_kernel_admissible(self):
        ex = KernelExponents.biharmonic(5)
        rep = stochastic_integrability(CovarianceSpec.constant(5, 7.0), ex)
        assert rep.admissible and math.isfinite(rep.value)

    def test_tabulated_verdicts(self):
        ex = KernelExponents.biharmonic(5)
        rr = np.geomspace(1e-6, 4.0, 500)
        good = CovarianceSpec.tabulated(5, rr, rr**-3.5)
        bad = CovarianceSpec.tabulated(5, rr, rr**-4.5)
        assert stochastic_integrability(good, ex).admissible
        assert not stochastic_integrability(bad, ex).admissible


class TestHolderIntegrability:
    def test_space_example(self):
        ex = KernelExponents.biharmonic(4)
        rep = holder_integrability(CovarianceSpec.riesz(4, 1.0), ex, "space", 0.5)
        assert rep.admissible
        assert rep.margin == pytest.approx(2.5, abs=1e-12)

    def test_space_threshold_d4(self):
        # theta = 4(2 + a/4 - 1) = 4 + a  =>  e = a, admissible iff B < 4 - a
        ex = KernelExponents.biharmonic(4)
        assert holder_integrability(CovarianceSpec.riesz(4, 3.4), ex, "space", 0.5).admissible
        assert not holder_integrability(CovarianceSpec.riesz(4, 3.6), ex, "space", 0.5).admissible

    def test_time_threshold_d4(self):
        # theta = 4(2 + b - 1) = 4 + 4b  =>  e = 4b, admissible iff B < 4 - 4b
        ex = KernelExponents.biharmonic(4)
        assert holder_integrability(CovarianceSpec.riesz(4, 1.9), ex, "time", 0.5).admissible
        assert not holder_integrability(CovarianceSpec.riesz(4, 2.1), ex, "time", 0.5).admissible

    def test_small_order_limit_matches_base_condition(self):
        ex = KernelExponents.biharmonic(4)
        for B in (1.0, 2.5, 3.9, 4.1):
            f = CovarianceSpec.riesz(4, B)
            a = holder_integrability(f, ex, "space", 1e-9).admissible
            b = stochastic_integrability(f, ex).admissible
            assert a == b

    def test_white_noise_criterion(self):
        # 2(alpha + order * fac) - gamma d/beta < 1 ; d=1: 0.5 + 2 a/4 < 1
        ex = KernelExponents.biharmonic(1)
        f = CovarianceSpec.white(1)
        assert holder_integrability(f, ex, "space", 0.9).admissible
        assert not holder_integrability(f, ex, "time", 0.9).admissible

    def test_validation(self):
        ex = KernelExponents.biharmonic(4)
        f = CovarianceSpec.riesz(4, 1.0)
        with pytest.raises(ValueError, match="order"):
            holder_integrability(f, ex, "time", 1.0)
        with pytest.raises(ValueError, match="which"):
            holder_integrability(f, ex, "both", 0.5)


class TestMomentIntegrability:
    def test_equals_base_condition_when_p_is_q(self):
        for d in (3, 4, 5):
            ex = KernelExponents.biharmonic(d)
            for B in (0.5, d - 1.1, d - 0.1):
                f = CovarianceSpec.riesz(d, B)
                assert (moment_integrability(f, ex, 2, 2).verdict
                        == stochastic_integrability(f, ex).verdict)
        exw = KernelExponents.biharmonic(4)
        assert (moment_integrability(CovarianceSpec.white(4), exw, 2, 2).verdict
                == stochastic_integrability(CovarianceSpec.white(4), exw).verdict)

    def test_d5_q6_p12_threshold(self):
        # e = (6 - 5*6/12)^+ = 3.5; local integrability needs B + 3.5 < 5
        ex = KernelExponents.biharmonic(5)
        assert moment_integrability(CovarianceSpec.riesz(5, 1.4), ex, 6, 12).admissible
        assert not moment_integrability(CovarianceSpec.riesz(5, 1.6), ex, 6, 12).admissible

    def test_monotone_in_p(self):
        ex = KernelExponents.biharmonic(5)
        f = CovarianceSpec.riesz(5, 3.5)
        admissible = [moment_integrability(f, ex, 2, p).admissible
                      for p in (2, 3, 6, 20, 200)]
        # once lost, admissibility never comes back as p grows
        assert admissible == sorted(admissible, reverse=True)

    def test_white_closed_form(self):
        # d=1: alpha=1/4, bound p < 2a/(2a/q - 1 + a); q=2: denom=-1/2 -> all p
        ex = KernelExponents.biharmonic(1)
        f = CovarianceSpec.white(1)
        assert moment_integrability(f, ex, 2, 1000).admissible
        # d=2: alpha=1/2, q=2 -> denom=0 -> all p admissible
        ex2 = KernelExponents.biharmonic(2)
        assert moment_integrability(CovarianceSpec.white(2), ex2, 2, 1000).admissible
        # d=3: alpha=3/4, q=2: denom=1/2, bound p<3
        ex3 = KernelExponents.biharmonic(3)
        assert moment_integrability(CovarianceSpec.white(3), ex3, 2, 2.9).admissible
        assert not moment_integrability(CovarianceSpec.white(3), ex3, 2, 3.1).admissible

    def test_validation(self):
        ex = KernelExponents.biharmonic(3)
        f = CovarianceSpec.riesz(3, 1.0)
        with pytest.raises(ValueError):
            moment_integrability(f, ex, 4, 3)
        with pytest.raises(ValueError):
            moment_integrability(f, ex, 1.5, 3)
        with pytest.raises(ValueError):
            moment_integrability(f, ex, 2, math.inf)


class TestCahnHilliardIntegrability:
    def test_examples(self):
        assert cahn_hilliard_integrability(CovarianceSpec.riesz(4, 1.5), 0.5).admissible
        assert not cahn_hilliard_integrability(CovarianceSpec.riesz(4, 2.5), 0.5).admissible
        assert cahn_hilliard_integrability(CovarianceSpec.riesz(5, 3.99), 1e-3).admissible

    def test_threshold_is_d_eps_plus_B(self):
        for d in (4, 5):
            for eps in (0.1, 0.5, 0.9):
                for B in (0.3, 1.0, 2.0, 3.0, 3.9):
                    rep = cahn_hilliard_integrability(CovarianceSpec.riesz(d, B), eps)
                    assert rep.admissible == (d * eps + B < 4), (d, eps, B)

    def test_low_dimensions_allowed(self):
        assert cahn_hilliard_integrability(CovarianceSpec.riesz(2, 1.0), 0.5).admissible

    def test_validation(self):
        f = CovarianceSpec.riesz(4, 1.0)
        with pytest.raises(ValueError, match="eps"):
            cahn_hilliard_integrability(f, 0.0)
        with pytest.raises(ValueError, match="eps"):
            cahn_hilliard_integrability(f, 1.0)
        with pytest.raises(ValueError):
            cahn_hilliard_integrability(CovarianceSpec.white(4), 0.5)


class TestSmallBallIntegral:
    def test_d4_example(self):
        got = small_ball_integral(CovarianceSpec.riesz(4, 1.5), 0.1)
        want = 2 * math.pi**2 * 0.1**2.5 * (0.4 * math.log(10.0) + 0.16)
        assert got == pytest.approx(want, rel=1e-12)

    def test_d5_no_log(self):
        got = small_ball_integral(CovarianceSpec.riesz(5, 1.0), 0.3)
        assert got == pytest.approx(sphere_area(5) * 0.3**3 / 3, rel=1e-12)

    def test_divergent_at_B4(self):
        assert math.isinf(small_ball_integral(CovarianceSpec.riesz(4, 4.0), 0.1))
        assert math.isinf(small_ball_integral(CovarianceSpec.riesz(5, 4.2), 0.1))

    def test_vanishes_with_radius(self):
        f = CovarianceSpec.riesz(4, 2.0)
        vals = [small_ball_integral(f, t) for t in (1e-1, 1e-2, 1e-3)]
        assert vals[0] > vals[1] > vals[2] > 0

    def test_d3_double_log_against_quad_oracle(self):
        # d=3: kappa = 2; radial integrand rho^{d-1} rho^{-B} rho^{4-d}
        # = rho^{3-B}, times ln(1/rho)^2 and the sphere area S_3
        B, tau = 2.0, 0.4
        got = small_ball_integral(CovarianceSpec.riesz(3, B), tau)

        def integrand(rho):
            return rho ** (3 - B) * math.log(1 / rho) ** 2

        want, _ = sint.quad(integrand, 0, tau, limit=200)
        assert got == pytest.approx(4 * math.pi * want, rel=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError, match="tau"):
            small_ball_integral(CovarianceSpec.riesz(4, 1.0), 1.0)


class TestVarianceKernelIntegral:
    def test_sqrt_T_scaling_for_B2_d4(self):
        f = CovarianceSpec.riesz(4, 2.0)
        ex = KernelExponents.biharmonic(4)
        v1 = variance_kernel_integral(f, ex, 1e-4)
        v2 = variance_kernel_integral(f, ex, 4e-4)
        assert v2 / v1 == pytest.approx(2.0, rel=1e-5)
        assert variance_kernel_exponent(f, ex) == pytest.approx(-0.5, abs=1e-14)

    def test_divergent_at_B4(self):
        ex = KernelExponents.biharmonic(4)
        assert math.isinf(variance_kernel_integral(
            CovarianceSpec.riesz(4, 4.0), ex, 0.1))

    def test_constant_kernel_linear_in_T(self):
        ex = KernelExponents.biharmonic(4)
        f = CovarianceSpec.constant(4, 2.0)
        v1 = variance_kernel_integral(f, ex, 1e-4)
        v2 = variance_kernel_integral(f, ex, 2e-4)
        assert v2 / v1 == pytest.approx(2.0, rel=1e-4)
        assert variance_kernel_exponent(f, ex) == pytest.approx(0.0, abs=1e-14)

    def test_exponent_grid(self):
        ex = KernelExponents.biharmonic(4)
        for B in (0.5, 1.0, 2.5, 3.5):
            got = variance_kernel_exponent(CovarianceSpec.riesz(4, B), ex)
            assert got == pytest.approx(-B / 4.0, abs=1e-13)

    def test_shift_pushes_to_divergence(self):
        # E = -1 - shift + (4 - B)/4; B=2, shift=0.5 sits exactly at -1
        ex = KernelExponents.biharmonic(4)
        f = CovarianceSpec.riesz(4, 2.0)
        assert math.isinf(variance_kernel_integral(f, ex, 0.1, shift=0.5))
        assert math.isfinite(variance_kernel_integral(f, ex, 0.1, shift=0.4))

    def test_moment_ratio_variant(self):
        ex = KernelExponents.biharmonic(4)
        f = CovarianceSpec.riesz(4, 2.0)
        assert math.isinf(variance_kernel_integral(f, ex, 0.1, moment_ratio=0.5))
        assert math.isfinite(variance_kernel_integral(f, ex, 0.1, moment_ratio=0.6))

    def test_tabulated_matches_riesz(self):
        ex = KernelExponents.biharmonic(4)
        rr = np.geomspace(1e-4, 2 * math.pi, 200)
        ftab = CovarianceSpec.tabulated(4, rr, rr**-2.0)
        a = variance_kernel_integral(CovarianceSpec.riesz(4, 2.0), ex, 1e-3)
        b = variance_kernel_integral(ftab, ex, 1e-3)
        assert b == pytest.approx(a, rel=1e-8)

    def test_validation(self):
        ex = KernelExponents.biharmonic(4)
        with pytest.raises(ValueError):
            variance_kernel_integral(CovarianceSpec.white(4), ex, 0.1)
        f = CovarianceSpec.riesz(4, 2.0)
        with pytest.raises(ValueError):
            variance_kernel_integral(f, ex, -1.0)
        with pytest.raises(ValueError):
            variance_kernel_integral(f, ex, 0.1, moment_ratio=1.5)
        with pytest.raises(ValueError):
            variance_kernel_integral(f, ex, 0.1, shift=-0.1)


class TestScalingBound:
    def test_riesz_passes_at_exact_constant(self):
        # f(u)/f(v) <= (c1)^B with equality at |v| = c1 |u|
        rep = scaling_bound_check(CovarianceSpec.riesz(3, 2.0), 0.25, 0.5)
        assert rep.passed
        assert rep.max_ratio == pytest.approx(0.25, rel=1e-12)

    def test_riesz_fails_below_exact_constant(self):
        rep = scaling_bound_check(CovarianceSpec.riesz(3, 2.0), 0.2499, 0.5)
        assert not rep.passed
        assert rep.witness is not None

    def test_constant_kernel(self):
        assert scaling_bound_check(CovarianceSpec.constant(2, 5.0), 1.0, 0.9).passed

    def test_piecewise_counterexample(self):
        # rises from |v|^{-2} to a large plateau: near pair violates domination
        radii = [0.01, 0.02, 0.05, 0.1, 0.11, 3.0]
        values = [1e4, 2.5e3, 4e2, 1e2, 1e6, 1e6]
        f = CovarianceSpec.tabulated(2, radii, values)
        rep = scaling_bound_check(f, 1.0, 0.5, pairs=[(0.2, 0.05)])
        assert not rep.passed
        assert rep.witness == (0.2, 0.05)
        assert rep.max_ratio == pytest.approx(1e6 / 400.0, rel=1e-9)

    def test_validation(self):
        f = CovarianceSpec.riesz(2, 1.0)
        with pytest.raises(ValueError, match="c1"):
            scaling_bound_check(f, 1.0, 1.5)
        with pytest.raises(ValueError):
            scaling_bound_check(f, 1.0, 0.5, pairs=[(0.1, 0.09)])
        with pytest.raises(ValueError):
            scaling_bound_check(CovarianceSpec.white(2), 1.0, 0.5)


class TestRieszVerdictStraddle:
    """Every verdict op agrees with its closed-form inequality across thresholds."""

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_base_condition(self, d):
        ex = KernelExponents.biharmonic(d)
        theta = ex.beta_over_gamma * (2 * ex.alpha - 1)
        e = max(theta - d, 0.0)
        thr = d - e
        for B in np.concatenate([np.arange(0.2, d - 0.05, 0.3),
                                 [thr - 0.1, thr + 0.1]]):
            if B <= 0:
                continue
            rep = stochastic_integrability(CovarianceSpec.riesz(d, B), ex)
            assert rep.admissible == (B < thr - 1e-12), (d, B)

    @pytest.mark.parametrize("d,q,p", [(4, 2, 4), (5, 6, 12), (3, 2, 8)])
    def test_moment_condition(self, d, q, p):
        ex = KernelExponents.biharmonic(d)
        theta = ex.beta_over_gamma * (2 * ex.alpha - 1)
        e = max(theta - d * q / p, 0.0)
        thr = d - e
        for B in [thr - 0.1, thr + 0.1]:
            if not 0 < B:
                continue
            rep = moment_integrability(CovarianceSpec.riesz(d, B), ex, q, p)
            assert rep.admissible == (B < thr - 1e-12), (d, q, p, B)

    def test_borderline_exactly_at_threshold(self):
        ex = KernelExponents.biharmonic(4)
        rep = stochastic_integrability(CovarianceSpec.riesz(4, 4.0), ex)
        assert rep.verdict == BORDERLINE


class TestGramMatrix:
    def test_white_identity(self):
        basis = Basis(NEUMANN, 2, 3)
        Q = gram_matrix(CovarianceSpec.white(2), basis)
        assert np.array_equal(Q, np.eye(9))

    def test_constant_rank_one(self):
        basis = Basis(NEUMANN, 2, 4)
        Q = gram_matrix(CovarianceSpec.constant(2, 3.0), basis)
        assert Q[0, 0] == pytest.approx(3.0 * math.pi**2, rel=1e-12)
        off = Q.copy()
        off[0, 0] = 0.0
        assert np.abs(off).max() < 1e-12

    def test_constant_dirichlet_against_quad(self):
        basis = Basis(DIRICHLET, 1, 4)
        Q = gram_matrix(CovarianceSpec.constant(1, 2.0), basis)

        def mode_integral(k):
            val, _ = sint.quad(
                lambda x: math.sqrt(2 / math.pi) * math.sin(k * x), 0, math.pi)
            return val

        ints = np.array([mode_integral(k) for k in (1, 2, 3, 4)])
        assert Q == pytest.approx(2.0 * np.outer(ints, ints), abs=1e-10)

    def test_direct_1d_zero_mode_closed_form(self):
        # Q00 = (2/pi) int_0^pi u^{-B} (pi - u) du, Neumann zero mode
        B = 0.5
        basis = Basis(NEUMANN, 1, 8)
        Q = gram_matrix(CovarianceSpec.riesz(1, B), basis)
        want = 2 * math.pi ** (1 - B) * (1 / (1 - B) - 1 / (2 - B))
        assert Q[0, 0] == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("bc", [NEUMANN, DIRICHLET])
    def test_parity_zeros(self, bc):
        # reflection x -> pi - x flips e_k by (-1)^k (Neumann) so entries
        # with odd k+l vanish exactly for any even kernel
        basis = Basis(bc, 1, 8)
        Q = gram_matrix(CovarianceSpec.riesz(1, 0.6), basis)
        k = basis.axis_modes
        odd = (k[:, None] + k[None, :]) % 2 == 1
        assert np.abs(Q[odd]).max() < 1e-10

    def test_symmetry_bit_exact(self):
        basis = Basis(NEUMANN, 1, 10)
        Q = gram_matrix(CovarianceSpec.riesz(1, 0.7), basis)
        assert np.array_equal(Q, Q.T)

    @pytest.mark.parametrize("bc", [NEUMANN, DIRICHLET])
    def test_mixture_agrees_with_direct_1d(self, bc):
        basis = Basis(bc, 1, 16)
        f = CovarianceSpec.riesz(1, 0.5)
        Q_direct = gram_operator(f, basis, method="direct").dense()
        Q_mix = gram_operator(f, basis, method="mixture").dense()
        assert np.abs(Q_direct - Q_mix).max() <= 1e-8 * np.abs(Q_direct).max()

    def test_axis_overlap_against_dblquad(self):
        # independent 2-d quadrature of int int e_k(x) e_l(y) exp(-s(x-y)^2)
        from spde_ch.covariance import _pair_overlap
        basis = Basis(NEUMANN, 1, 4)
        s = 2.0
        for k, l in [(0, 0), (1, 1), (0, 2), (2, 2), (1, 3)]:
            g = _pair_overlap(basis, k, l)
            got, _ = sint.quad(lambda u: g(u) * math.exp(-s * u * u), 0, math.pi,
                               limit=100)

            def ek(x, kk):
                if kk == 0:
                    return 1 / math.sqrt(math.pi)
                return math.sqrt(2 / math.pi) * math.cos(kk * x)

            want, _ = sint.dblquad(
                lambda y, x: ek(x, k) * ek(y, l) * math.exp(-s * (x - y) ** 2),
                0, math.pi, 0, math.pi, epsabs=1e-12)
            assert got == pytest.approx(want, abs=1e-9), (k, l)

    def test_d2_mixture_consistency(self):
        basis = Basis(NEUMANN, 2, 6)
        op = gram_operator(CovarianceSpec.riesz(2, 1.0), basis)
        assert isinstance(op, KroneckerMixtureGram)
        Q = op.dense()
        w = np.linalg.eigvalsh(0.5 * (Q + Q.T))
        assert w.min() > -1e-10
        rng = np.random.default_rng(7)
        a = rng.standard_normal(basis.shape)
        b = rng.standard_normal(basis.shape)
        assert op.bilinear(a, b) == pytest.approx(
            a.reshape(-1) @ Q @ b.reshape(-1), rel=1e-12)
        assert op.diagonal().reshape(-1) == pytest.approx(np.diag(Q), rel=1e-12)
        assert op.frobenius_norm() == pytest.approx(np.linalg.norm(Q), rel=1e-12)

    def test_d4_operator_paths(self):
        basis = Basis(NEUMANN, 4, 5)
        op = gram_operator(CovarianceSpec.riesz(4, 2.0), basis)
        rng = np.random.default_rng(3)
        a = rng.standard_normal(basis.shape)
        # quadratic form of a PSD operator
        assert op.bilinear(a, a) >= -1e-10 * float(np.sum(a * a))
        assert op.diagonal().min() > 0
        assert 0.0 < op.offdiagonal_mass() < 1.0

    @pytest.mark.parametrize("bc", [NEUMANN, DIRICHLET])
    @pytest.mark.parametrize("dim,M,B", [(1, 8, 0.5), (2, 5, 1.0),
                                         (3, 4, 1.0), (4, 3, 2.0)])
    def test_mixture_dense_matches_kron_loop_bitwise(self, bc, dim, M, B):
        op = gram_operator(CovarianceSpec.riesz(dim, B), Basis(bc, dim, M),
                           method="mixture")
        # reference: every term built by np.kron, scaled, summed in order
        ref = np.zeros((op.basis.n_modes,) * 2)
        for w, A in zip(op.weights, op.axis_mats):
            term = A
            for _ in range(dim - 1):
                term = np.kron(term, A)
            ref += w * term
        ref = 0.5 * (ref + ref.T)
        Q = op.dense()
        assert np.array_equal(Q, ref)
        assert np.array_equal(np.signbit(Q), np.signbit(ref))

    def test_mixture_dense_guard_allocates_nothing(self):
        import tracemalloc
        op = gram_operator(CovarianceSpec.riesz(3, 1.0), Basis(NEUMANN, 3, 10))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="dense"):
                op.dense(max_entries=999_999)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1000 * 1000 * 8 // 100

    def test_psd_clip_reported(self):
        basis = Basis(NEUMANN, 1, 3)
        M = np.eye(3)
        M[2, 2] = -1e-6
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            op = DenseGram(basis, M)
        assert any("clip" in str(w.message) for w in rec)
        assert np.linalg.eigvalsh(op.matrix).min() >= 0.0
        assert op.min_eigenvalue == pytest.approx(-1e-6)

    def test_pre_clip_eigenvalues_within_tolerance(self):
        for B in (0.3, 0.6, 0.9):
            basis = Basis(NEUMANN, 1, 12)
            op = gram_operator(CovarianceSpec.riesz(1, B), basis)
            assert op.min_eigenvalue >= -1e-10
            assert np.linalg.eigvalsh(op.matrix).min() >= 0.0

    def test_tabulated_1d_matches_riesz(self):
        rr = np.geomspace(1e-6, 3.5, 400)
        ftab = CovarianceSpec.tabulated(1, rr, rr**-0.5)
        basis = Basis(NEUMANN, 1, 6)
        Qt = gram_matrix(ftab, basis)
        Qr = gram_matrix(CovarianceSpec.riesz(1, 0.5), basis)
        assert np.abs(Qt - Qr).max() <= 1e-5 * np.abs(Qr).max()

    def test_rank1_and_identity_operators(self):
        basis = Basis(NEUMANN, 3, 3)
        opw = gram_operator(CovarianceSpec.white(3), basis)
        assert isinstance(opw, IdentityGram)
        assert opw.frobenius_norm() == pytest.approx(math.sqrt(27))
        opc = gram_operator(CovarianceSpec.constant(3, 2.0), basis)
        assert isinstance(opc, Rank1Gram)
        a = np.zeros(basis.shape)
        a[0, 0, 0] = 1.0
        assert opc.bilinear(a, a) == pytest.approx(2.0 * math.pi**3, rel=1e-12)

    def test_errors(self):
        basis = Basis(NEUMANN, 2, 4)
        with pytest.raises(ValueError, match="integrable"):
            gram_operator(CovarianceSpec.riesz(2, 2.5), basis)
        with pytest.raises(ValueError, match="dim"):
            gram_operator(CovarianceSpec.riesz(3, 1.0), basis)
        rr = np.geomspace(1e-4, 5.0, 50)
        with pytest.raises(ValueError, match="d=1"):
            gram_operator(CovarianceSpec.tabulated(2, rr, rr**-0.5), basis)
        big = Basis(NEUMANN, 5, 16)
        op = gram_operator(CovarianceSpec.white(5), big)
        with pytest.raises(ValueError, match="dense"):
            op.dense()

    @given(B=st.floats(0.2, 0.8), seed=st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_quadratic_form_nonnegative(self, B, seed):
        basis = Basis(NEUMANN, 1, 6)
        op = gram_operator(CovarianceSpec.riesz(1, B), basis)
        a = np.random.default_rng(seed).standard_normal(basis.shape)
        b = np.random.default_rng(seed + 1).standard_normal(basis.shape)
        assert op.bilinear(a, a) >= -1e-12 * float(np.sum(a * a))
        assert op.bilinear(a, b) == pytest.approx(op.bilinear(b, a), rel=1e-12)


class TestCovarianceSpecValidation:
    def test_riesz_needs_positive_B(self):
        with pytest.raises(ValueError):
            CovarianceSpec.riesz(3, 0.0)

    def test_constant_needs_positive_c(self):
        with pytest.raises(ValueError):
            CovarianceSpec.constant(3, -1.0)

    def test_dim_range(self):
        with pytest.raises(ValueError):
            CovarianceSpec.white(6)

    def test_tabulated_validation(self):
        with pytest.raises(ValueError):
            CovarianceSpec.tabulated(2, [0.1], [1.0])
        with pytest.raises(ValueError):
            CovarianceSpec.tabulated(2, [0.2, 0.1], [1.0, 1.0])
        with pytest.raises(ValueError):
            CovarianceSpec.tabulated(2, [0.1, 0.2], [1.0, -1.0])

    def test_local_integrability_flag(self):
        assert CovarianceSpec.riesz(3, 2.9).locally_integrable
        assert not CovarianceSpec.riesz(3, 3.1).locally_integrable
        assert not CovarianceSpec.white(3).locally_integrable
        assert CovarianceSpec.constant(3, 1.0).locally_integrable

    def test_evaluate_radial(self):
        f = CovarianceSpec.riesz(2, 1.5)
        assert f.evaluate_radial(2.0) == pytest.approx(2.0**-1.5)
        with pytest.raises(ValueError):
            f.evaluate_radial(0.0)
        with pytest.raises(ValueError):
            CovarianceSpec.white(2).evaluate_radial(1.0)
