"""Tests for correlation-kernel conditions and Gram assembly.

Oracle policy: analytic values are re-derived here from first principles
(antiderivatives of rho^p log powers, sphere areas), and quadrature oracles
use scipy directly on independently written integrands, never the module's
own helpers.
"""

import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate as sint
from scipy import special as ssp

from spde_ch import covariance
from spde_ch.basis import DIRICHLET, NEUMANN, Basis, axis_overlap
from spde_ch.covariance import (ADMISSIBLE, BORDERLINE, INADMISSIBLE,
                                CovarianceSpec, DenseGram, DiagonalGram,
                                KroneckerMixtureGram, Rank1Gram,
                                cahn_hilliard_integrability, gram_matrix,
                                gram_operator, holder_integrability,
                                moment_integrability, radial_integral,
                                small_ball_integral, sphere_area,
                                stochastic_integrability)
from spde_ch.greens import KernelExponents
from spde_ch.noise import SPECTRAL_DIAGONAL, make_backend


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
        s = 2.0
        for k, l in [(0, 0), (1, 1), (0, 2), (2, 2), (1, 3)]:
            g = axis_overlap(NEUMANN, k, l)
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
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            bk = make_backend(CovarianceSpec.riesz(4, 2.0), basis, seed=0,
                              kind=SPECTRAL_DIAGONAL)
        assert 0.0 < bk.dropped_mass < 1.0

    # (3, 10, 1.0) is regularity-3d's Gram; M = 1 packs one product per
    # head entry; m = 49 head rows split into blocks of uneven height.
    @pytest.mark.parametrize("bc", [NEUMANN, DIRICHLET])
    @pytest.mark.parametrize("dim,M,B", [(1, 8, 0.5), (2, 5, 1.0),
                                         (3, 4, 1.0), (4, 3, 2.0),
                                         (3, 10, 1.0), (2, 1, 1.0),
                                         (3, 7, 0.7)])
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
        assert np.array_equal(Q, Q.T)

    def test_mixture_dense_peak_memory(self):
        # Q itself plus the packed upper block triangle and one block of
        # scratch; a full (n, n) accumulator and product buffer would
        # peak near 3 n^2 doubles
        import tracemalloc
        op = gram_operator(CovarianceSpec.riesz(3, 1.0), Basis(NEUMANN, 3, 10))
        n = op.basis.n_modes
        tracemalloc.start()
        try:
            Q = op.dense()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert Q.shape == (n, n)
        assert peak <= 2 * n * n * 8

    @pytest.mark.parametrize("dim,M", [(2, 12), (3, 10), (4, 8), (5, 4)])
    def test_mixture_diagonal_matches_stacked_sum_bitwise(self, dim, M):
        op = gram_operator(CovarianceSpec.riesz(dim, 1.0),
                           Basis(NEUMANN, dim, M), method="mixture")
        # reference: every term stacked into one (J, M, .., M) array, then
        # summed over the term axis
        diags = np.einsum("jkk->jk", op.axis_mats)
        ref = op.weights.copy()
        for _ in range(dim):
            ref = ref[..., None] * diags.reshape(
                (len(op.weights),) + (1,) * (ref.ndim - 1) + (-1,))
        ref = np.sum(ref, axis=0)
        got = op.diagonal()
        assert got.shape == op.basis.shape
        assert np.array_equal(got, ref)

    def test_mixture_diagonal_peak_memory(self):
        # the accumulator, one term and its last factor; the stacked terms
        # would peak near J M^d doubles (J = 169 at d=5, M=8)
        import tracemalloc
        op = gram_operator(CovarianceSpec.riesz(5, 1.0), Basis(NEUMANN, 5, 8),
                           method="mixture")
        size = op.basis.n_modes * 8
        tracemalloc.start()
        try:
            diag = op.diagonal()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert diag.shape == op.basis.shape
        assert len(op.weights) > 10
        assert peak <= 3 * size

    def test_mixture_rejects_asymmetric_axis_matrices(self):
        # dense() forms each mirrored pair of entries once
        basis = Basis(NEUMANN, 2, 3)
        A = np.eye(3)[None] + np.triu(np.ones((3, 3)), 1)[None]
        with pytest.raises(ValueError, match="symmetric"):
            KroneckerMixtureGram(basis, [1.0], A)

    def test_mixture_dense_guard_allocates_nothing(self, monkeypatch):
        import tracemalloc
        op = gram_operator(CovarianceSpec.riesz(3, 1.0), Basis(NEUMANN, 3, 10))
        monkeypatch.setattr(covariance, "MAX_DENSE_ENTRIES", 999_999)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="dense"):
                op.dense()
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

    def test_non_symmetric_matrix_refused(self):
        basis = Basis(NEUMANN, 1, 3)
        M = np.eye(3)
        M[0, 2] = 1e-17
        with pytest.raises(ValueError, match="exactly symmetric"):
            DenseGram(basis, M)

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
        assert isinstance(opw, DiagonalGram)
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


# ----------------------------------------------------------------------
# golden bit patterns of the shared radial-kernel routes
#
# Riesz, constant and tabulated kernels go through one loop over power-law
# segments.  The Riesz and constant patterns were recorded (numpy 2.4,
# scipy 1.17, x86-64) from the code that still had a separate route per
# kernel kind, and the segment loop must reproduce them exactly.  The
# tabulated patterns were recorded from the segment code, whose closed forms
# agree with a knot-aware quadrature reference (TestTabulatedReference).
# Conditions are pinned as (verdict, float.hex(value), float.hex(margin));
# dense Gram matrices and grid-cell covariances as the sha256 of their
# bytes.  None of these routes may raise an IntegrationWarning.


def _golden_table(dim):
    r = np.geomspace(0.2, 5.0, 14)
    return CovarianceSpec.tabulated(dim, r, r ** -0.6 * (1.0 + 0.3 * r))


GOLDEN_KERNELS = {
    "riesz1": lambda: CovarianceSpec.riesz(1, 0.5),
    "riesz2": lambda: CovarianceSpec.riesz(2, 1.5),
    "riesz4": lambda: CovarianceSpec.riesz(4, 1.5),
    "const3": lambda: CovarianceSpec.constant(3, 0.7),
    "tab1": lambda: _golden_table(1),
    "tab2": lambda: _golden_table(2),
}

GOLDEN = {
    'riesz2/radial/0.0/0/0.1': '0x1.fca6a2a429f6dp+1',
    'riesz2/radial/0.0/0/1.0': '0x1.921fb54442d18p+3',
    'riesz2/radial/0.25/1/0.1': '0x1.644d60797e96ap+6',
    'riesz2/radial/0.25/1/1.0': '0x1.921fb54442d18p+6',
    'riesz2/stochastic': ('admissible', '0x1.921fb54442d18p+3', '0x1.0000000000000p-1'),
    'riesz2/holder-space': ('admissible', '0x1.921fb54442d18p+3', '0x1.0000000000000p-1'),
    'riesz2/holder-time': ('admissible', '0x1.921fb54442d18p+4', '0x1.0000000000000p-1'),
    'riesz2/moment': ('admissible', '0x1.921fb54442d18p+3', '0x1.0000000000000p-1'),
    'riesz2/cahn-hilliard': ('admissible', '0x1.7ef9a071c5bb5p+1', '0x1.0cccccccccccdp+1'),
    'riesz4/radial/0.0/0/0.1': '0x1.9914d2cf52d6bp-6',
    'riesz4/radial/0.0/0/1.0': '0x1.f952e0f96d630p+2',
    'riesz4/radial/0.25/1/0.1': '0x1.158cae5779c58p-3',
    'riesz4/radial/0.25/1/1.0': '0x1.f315ce64f7191p+1',
    'riesz4/stochastic': ('admissible', '0x1.94424d9457827p+1', '0x1.4000000000000p+1'),
    'riesz4/holder-space': ('admissible', '0x1.3bd3cc9be45dep+3', '0x1.0000000000000p+1'),
    'riesz4/holder-time': ('admissible', '0x1.3bd3cc9be45dep+5', '0x1.0000000000000p-1'),
    'riesz4/moment': ('admissible', '0x1.3bd3cc9be45dep+5', '0x1.0000000000000p-1'),
    'riesz4/cahn-hilliard': ('admissible', '0x1.738fc38a39d7dp+3', '0x1.b333333333333p+0'),
    'const3/radial/0.0/0/0.1': '0x1.8052bbb7114d9p-9',
    'const3/radial/0.0/0/1.0': '0x1.7750cb50c6e5ap+1',
    'const3/radial/0.25/1/0.1': '0x1.f0f5bd5411044p-7',
    'const3/radial/0.25/1/1.0': '0x1.29c563f3ec157p+0',
    'const3/stochastic': ('admissible', '0x1.7750cb50c6e5ap+1', '0x1.8000000000000p+1'),
    'const3/holder-space': ('admissible', '0x1.7750cb50c6e5ap+1', '0x1.8000000000000p+1'),
    'const3/holder-time': ('admissible', '0x1.197c987c952c4p+2', '0x1.0000000000000p+1'),
    'const3/moment': ('admissible', '0x1.c260f3fa8846dp+1', '0x1.4000000000000p+1'),
    'const3/cahn-hilliard': ('admissible', '0x1.4b292bdddcac8p+1', '0x1.b333333333333p+1'),
    'tab1/radial/0.0/0/0.1': '0x1.bdcba697cc1adp+0',
    'tab1/radial/0.0/0/1.0': '0x1.4a40f9329a920p+2',
    'tab1/radial/0.25/1/0.1': '0x1.7745a93e1a444p+5',
    'tab1/radial/0.25/1/1.0': '0x1.9babaa99612c3p+5',
    'tab1/stochastic': ('admissible', '0x1.4a40f9329a920p+2', '0x1.dad9fb93a6c7ep-2'),
    'tab1/holder-space': ('admissible', '0x1.4a40f9329a920p+2', '0x1.dad9fb93a6c7ep-2'),
    'tab1/holder-time': ('admissible', '0x1.4a40f9329a920p+2', '0x1.dad9fb93a6c7ep-2'),
    'tab1/moment': ('admissible', '0x1.4a40f9329a920p+2', '0x1.dad9fb93a6c7ep-2'),
    'tab1/cahn-hilliard': ('admissible', '0x1.896ff57a80aa4p-1', '0x1.a1c1a5d8db3f6p+1'),
    'tab2/radial/0.0/0/0.1': '0x1.62f4c8e538c3fp-3',
    'tab2/radial/0.0/0/1.0': '0x1.5111515e9bf58p+2',
    'tab2/radial/0.25/1/0.1': '0x1.297f26e5c1e47p+0',
    'tab2/radial/0.25/1/1.0': '0x1.44ad1eff8388ep+2',
    'riesz1/gram/neumann': '2bcb127860a5fa26e62c083859c8c2675486f1c55644b4e21344d554a04a5dbc',
    'riesz1/gram/dirichlet': '50d17ebc9ac7e2e1a0f3fde583d8a073ebaf915fc19481a103210136fc8a7916',
    'riesz1/cell_cov': '2313d5ac6b469960cdfa719974b661f5bd658fb5cc0524043aeb70f48fee1cbd',
    'tab1/gram/neumann': 'f875727aa280d1991a0e2c58b6856fee32b981a14eb147b49505b056f5c5de7f',
    'tab1/gram/dirichlet': 'b3746f7b583962cd766502b7abed106af7d8d5895a46f5430d170cea418038ef',
    'tab1/cell_cov': '924fdd4c73db4c0833c53d5e5c0fb86ecb27c452c20e1f415a925e6d1cc1e3dc',
}

def _golden_keys(section):
    return sorted(k for k in GOLDEN if k.split("/")[1] == section
                  or (section == "condition" and isinstance(GOLDEN[k], tuple)))


def _check_hex(key, value):
    assert float(value).hex() == GOLDEN[key], key


@pytest.mark.filterwarnings("error::scipy.integrate.IntegrationWarning")
class TestGoldenBits:
    @pytest.mark.parametrize("key", _golden_keys("radial"))
    def test_radial_integral(self, key):
        name, _, e, kappa, r0 = key.split("/")
        f = GOLDEN_KERNELS[name]()
        _check_hex(key, radial_integral(f, float(e), int(kappa), float(r0)))

    @pytest.mark.parametrize("key", _golden_keys("condition"))
    def test_condition_value_and_margin(self, key):
        name, cond = key.split("/")
        f = GOLDEN_KERNELS[name]()
        ex = KernelExponents.biharmonic(f.dim)
        rep = {"stochastic": lambda: stochastic_integrability(f, ex),
               "holder-space": lambda: holder_integrability(f, ex, "space", 0.5),
               "holder-time": lambda: holder_integrability(f, ex, "time", 0.5),
               "moment": lambda: moment_integrability(f, ex, 2.0, 4.0),
               "cahn-hilliard": lambda: cahn_hilliard_integrability(f, 0.2),
               }[cond]()
        assert (rep.verdict, float(rep.value).hex(),
                float(rep.margin).hex()) == GOLDEN[key]

    @pytest.mark.parametrize("key", _golden_keys("gram"))
    def test_direct_gram_1d_bytes(self, key):
        name, _, bc = key.split("/")
        dense = gram_operator(GOLDEN_KERNELS[name](), Basis(bc, 1, 4)).dense()
        assert hashlib.sha256(dense.tobytes()).hexdigest() == GOLDEN[key]

    @pytest.mark.parametrize("key", _golden_keys("cell_cov"))
    def test_grid_cell_covariance_bytes(self, key):
        f = GOLDEN_KERNELS[key.split("/")[0]]()
        bk = make_backend(f, Basis(NEUMANN, 1, 4), seed=0, kind="grid-cell")
        assert hashlib.sha256(bk.cell_cov.tobytes()).hexdigest() == GOLDEN[key]


class TestSegments:
    def test_riesz(self):
        assert CovarianceSpec.riesz(3, 1.25).segments == ((0.0, math.inf, 1.0, 1.25),)

    def test_constant(self):
        assert CovarianceSpec.constant(2, 1.7).segments == ((0.0, math.inf, 1.7, 0.0),)

    def test_tabulated_passes_through_every_sample(self):
        for r, v in ((GOLD_R, GOLD_V), (STEEP_R, STEEP_V)):
            f = CovarianceSpec.tabulated(2, r, v)
            np.testing.assert_allclose(f.evaluate_radial(r), v, rtol=1e-15, atol=0)
            for ri, vi in zip(r, v):
                assert f.evaluate_radial(ri) == pytest.approx(vi, rel=1e-15, abs=0)

    def test_segments_tile_the_half_line(self):
        f = CovarianceSpec.tabulated(2, GOLD_R, GOLD_V)
        edges = [lo for lo, _, _, _ in f.segments] + [f.segments[-1][1]]
        assert edges == [0.0] + list(GOLD_R) + [math.inf]
        assert f.segments[0][2:] == f.segments[1][2:]
        assert f.segments[-1][2:] == (GOLD_V[-1], 0.0)

    def test_first_segment_reproduces_the_fitted_power(self):
        r = np.array([0.2, 0.5, 1.0, 3.0])
        v = np.array([4.0, 2.5, 1.5, 1.0])
        f = CovarianceSpec.tabulated(2, r, v)
        _, hi, amp, B = f.segments[0]
        bhat = -math.log(v[1] / v[0]) / math.log(r[1] / r[0])
        assert B.hex() == bhat.hex() == f.fitted_origin_power().hex()
        assert hi == 0.2
        assert amp == v[0] * 0.2**bhat
        assert f.evaluate_radial(0.1) == pytest.approx(4.0 * 0.5**-bhat, rel=1e-15)

    def test_white_raises(self):
        f = CovarianceSpec.white(2)
        assert f.segments == ()
        with pytest.raises(ValueError):
            f.fitted_origin_power()
        with pytest.raises(ValueError):
            f.evaluate_radial(1.0)


# ----------------------------------------------------------------------
# tabulated kernels against a knot-aware quadrature reference
#
# The reference reads the table as written: log-log linear interpolation
# between samples, the power law through the first two samples below the
# first, flat past the last.  It integrates every interval between knots
# on its own with quad at epsabs=0, and the part below the first sample,
# where the integrand is singular, in closed form.

GOLD_R = np.geomspace(0.2, 5.0, 14)
GOLD_V = GOLD_R ** -0.6 * (1.0 + 0.3 * GOLD_R)
# steeper than r^{-5} between 0.4 and 0.8: nu = (d - B)/beta <= 0 there for
# d <= 4 under biharmonic exponents, and B = 4 exactly on [0.2, 0.4)
STEEP_R = np.array([0.1, 0.2, 0.4, 0.8, 1.6])
STEEP_V = np.array([1.0, 0.8, 0.05, 1e-3, 9e-4])
TABLES = {"golden": (GOLD_R, GOLD_V), "steep": (STEEP_R, STEEP_V)}


def _ref_quad(g, a, b, **kw):
    """quad at epsabs=0 whose own error estimate is below the 1e-13 tested."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", sint.IntegrationWarning)
        val, err = sint.quad(g, a, b, epsabs=0, epsrel=5e-14, limit=200, **kw)
    assert err < 1e-13 * abs(val)
    return val


def _ref_pieces(r, v, upper):
    """(bhat, first sample's law amplitude, knot intervals below upper, f)."""
    lr, lv = np.log(r), np.log(v)
    bhat = math.log(v[0] / v[1]) / math.log(r[1] / r[0])

    def f(rho):
        if rho >= r[-1]:
            return float(v[-1])
        i = int(np.searchsorted(r, rho, side="right")) - 1
        slope = (lv[i + 1] - lv[i]) / (lr[i + 1] - lr[i])
        return math.exp(lv[i] + slope * (math.log(rho) - lr[i]))

    edges = [x for x in r if x < upper] + [upper]
    return bhat, v[0] * r[0] ** bhat, list(zip(edges[:-1], edges[1:])), f


def ref_radial(r, v, d, e, kappa, r0):
    """S_d int_0^r0 f(rho) rho^{d-1-e} ln(1/rho)^kappa d rho."""
    bhat, amp, pieces, f = _ref_pieces(r, v, r0)
    # below r[0]: amp int_0^c rho^{q-1} ln(1/rho)^k = amp Gamma(k+1, qL)/q^{k+1}
    # with c = min(r[0], r0) and L = ln(1/c)
    q, L = d - e - bhat, math.log(1.0 / min(r[0], r0))
    total = (amp * ssp.gammaincc(kappa + 1, q * L) * math.gamma(kappa + 1)
             / q ** (kappa + 1))
    for a, b in pieces:
        total += _ref_quad(
            lambda x: f(x) * x ** (d - 1 - e) * math.log(1 / x) ** kappa, a, b)
    return sphere_area(d) * total


@pytest.mark.filterwarnings("error::scipy.integrate.IntegrationWarning")
class TestTabulatedReference:
    @pytest.mark.parametrize("table", sorted(TABLES))
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_radial_and_small_ball_integrals(self, table, d):
        r, v = TABLES[table]
        f = CovarianceSpec.tabulated(d, r, v)
        for e, kappa, r0 in [(0.0, 0, 1.0), (0.25, 1, 1.0), (0.3, 0, 0.5),
                             (0.25, 1, 0.33)]:
            assert radial_integral(f, e, kappa, r0) == pytest.approx(
                ref_radial(r, v, d, e, kappa, r0), rel=1e-13, abs=0)
        for tau in (0.15, 0.5, 0.9):
            want = ref_radial(r, v, d, d - 4.0, max(5 - d, 0), tau)
            assert small_ball_integral(f, tau) == pytest.approx(
                want, rel=1e-13, abs=0)

    @pytest.mark.parametrize("shift", [1e-2, 1e-4, 1e-6])
    @pytest.mark.parametrize("d", [1, 2])
    def test_segment_next_to_the_log_case(self, d, shift):
        # B = 4 - O(shift) on [0.2, 0.4): the small-ball integrand there is
        # rho^{-1 + O(shift)} ln(1/rho)^{5-d}, where a difference of
        # antiderivatives ~ 1/shift^{6-d} loses every digit
        v = STEEP_V.copy()
        v[2] *= 1.0 + shift
        f = CovarianceSpec.tabulated(d, STEEP_R, v)
        assert abs(f.segments[2][3] - 4.0) < 2 * shift
        assert small_ball_integral(f, 0.9) == pytest.approx(
            ref_radial(STEEP_R, v, d, d - 4.0, 5 - d, 0.9), rel=1e-13, abs=0)

    def test_steep_table_has_segments_past_the_origin_with_nu_at_most_zero(self):
        for d in (1, 2, 3, 4):
            f = CovarianceSpec.tabulated(d, STEEP_R, STEEP_V)
            beta = KernelExponents.biharmonic(d).beta
            assert min((d - B) / beta for _, _, _, B in f.segments[1:]) <= 0
        assert CovarianceSpec.tabulated(4, STEEP_R, STEEP_V).segments[2][3] == 4.0
