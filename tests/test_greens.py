import math

import numpy as np
import pytest

from spde_ch.basis import NEUMANN, DIRICHLET, Basis
from spde_ch.greens import (
    KernelExponents, apply_semigroup, chapman_kolmogorov_check,
    diagonal_scaling_check, fit_kernel_bound, green_function, mode_cutoff,
)


def test_biharmonic_exponents():
    e = KernelExponents.biharmonic(3)
    assert (e.alpha, e.beta, e.gamma, e.delta, e.eta) == \
        (0.75, 4.0 / 3.0, 1.0 / 3.0, 0.25, 1.0)
    assert e.beta_over_gamma == pytest.approx(4.0)
    with pytest.raises(ValueError):
        KernelExponents(alpha=0.0, beta=1, gamma=1, delta=1, eta=1)
    with pytest.raises(ValueError):
        KernelExponents.biharmonic(6)


def test_green_long_time_limit_neumann():
    # all oscillatory modes die; only e_0(x) e_0(y) = 1/pi survives
    v = green_function(NEUMANN, 1, 50.0, 0.4, 2.2)
    assert v == pytest.approx(1.0 / math.pi, rel=1e-12)
    # Dirichlet kernel decays to zero instead
    vd = green_function(DIRICHLET, 1, 50.0, 0.4, 2.2)
    assert abs(vd) < 1e-12


def test_green_symmetry_bit_exact():
    for tau in (1e-3, 1e-2, 0.3):
        a = green_function(NEUMANN, 2, tau, [0.5, 1.0], [2.0, 2.5])
        b = green_function(NEUMANN, 2, tau, [2.0, 2.5], [0.5, 1.0])
        assert a == b  # identical mode sums, commuted factors


def test_green_against_slow_oracle():
    """Independent oracle: explicit python loop over modes, no tensor tricks."""
    tau, x, y = 0.05, 0.7, 1.9
    cap = 12
    acc = 1.0 / math.pi  # k = 0 term
    for k in range(1, cap):
        acc += math.exp(-k**4 * tau) * (2 / math.pi) * math.cos(k * x) * math.cos(k * y)
    assert green_function(NEUMANN, 1, tau, x, y, modes_per_axis=cap) == \
        pytest.approx(acc, rel=1e-13)


def test_green_mass_conservation_neumann():
    b = Basis(NEUMANN, 1, 64)
    ys = b.grid()[..., 0]
    for tau in (1e-3, 0.1, 2.0):
        vals = green_function(NEUMANN, 1, tau, np.full((64, 1), 1.2), ys.reshape(-1, 1))
        assert b.integrate(vals) == pytest.approx(1.0, abs=1e-12)


def test_green_time_derivative_fd_oracle():
    tau = 0.02
    eps = 1e-6
    got = green_function(NEUMANN, 1, tau, 1.0, 1.3, time_deriv=1, modes_per_axis=40)
    fd = (green_function(NEUMANN, 1, tau + eps, 1.0, 1.3, modes_per_axis=40)
          - green_function(NEUMANN, 1, tau - eps, 1.0, 1.3, modes_per_axis=40)) / (2 * eps)
    assert got == pytest.approx(fd, rel=1e-5)


def test_green_space_derivative_fd_oracle():
    tau = 0.02
    eps = 1e-5
    got = green_function(DIRICHLET, 1, tau, 1.0, 1.3, space_derivs=(1,), modes_per_axis=40)
    fd = (green_function(DIRICHLET, 1, tau, 1.0 + eps, 1.3, modes_per_axis=40)
          - green_function(DIRICHLET, 1, tau, 1.0 - eps, 1.3, modes_per_axis=40)) / (2 * eps)
    assert got == pytest.approx(fd, rel=1e-6)


def test_green_input_validation():
    with pytest.raises(ValueError):
        green_function(NEUMANN, 1, 0.0, 0.5, 0.5)
    with pytest.raises(ValueError):
        green_function(NEUMANN, 1, -1.0, 0.5, 0.5)
    with pytest.raises(ValueError):
        green_function(NEUMANN, 2, 0.1, [0.5, 0.5], [0.5, 0.5], space_derivs=(1,))
    with pytest.raises(ValueError):
        green_function(NEUMANN, 5, 1e-6, [0.5] * 5, [0.5] * 5)  # tensor cap


@pytest.mark.parametrize("dim, x, many", [
    (1, 0.5, [0.1, 0.2, 1.4]),
    (1, [0.5], [[0.1], [0.2], [1.4]]),
    (2, [0.5, 0.5], [[0.1, 0.1], [0.2, 0.2], [1.4, 1.4]])])
def test_green_function_answers_every_probe(dim, x, many):
    """One value per probe when only x, or only y, lists several probes."""
    singles = [green_function(NEUMANN, dim, 0.1, x, p) for p in many]
    assert all(isinstance(v, float) for v in singles)
    by_y = green_function(NEUMANN, dim, 0.1, x, many)
    by_x = green_function(NEUMANN, dim, 0.1, many, x)
    assert by_y.shape == by_x.shape == (3,)
    assert by_y.tolist() == singles
    assert by_x.tolist() == singles          # the kernel is symmetric
    by_tau = green_function(NEUMANN, dim, [0.1, 0.2], x, many[1])
    assert by_tau[0] == singles[1]
    with pytest.raises(ValueError):
        green_function(NEUMANN, dim, [0.1, 0.2], many, x)


def test_mode_cutoff_monotone():
    assert mode_cutoff(1e-4) > mode_cutoff(1e-1)
    with pytest.raises(ValueError):
        mode_cutoff(0.0)


def test_apply_semigroup_example():
    b = Basis(NEUMANN, 2, 4)
    coeffs = np.zeros(b.shape)
    coeffs[1, 1] = 1.0                    # mode (1,1): lambda = 2, lambda^2 = 4
    out = apply_semigroup(b, coeffs, 0.1)
    assert out[1, 1] == pytest.approx(math.exp(-0.4), rel=1e-14)
    assert np.all(out[coeffs == 0] == 0)
    with pytest.raises(ValueError):
        apply_semigroup(b, coeffs, -0.1)


def test_apply_semigroup_array_of_times_stacks_scalar_calls():
    b = Basis(DIRICHLET, 2, 6)
    coeffs = np.random.default_rng(3).standard_normal(b.shape)
    times = np.array([0.0, 1e-4, 0.037, 0.5, 2.0])
    stacked = np.stack([apply_semigroup(b, coeffs, t) for t in times])
    got = apply_semigroup(b, coeffs, times)
    assert got.shape == (5,) + b.shape
    assert got.tobytes() == stacked.tobytes()
    with pytest.raises(ValueError, match=">= 0"):
        apply_semigroup(b, coeffs, np.array([0.1, -1e-3, 0.2]))


def test_semigroup_property_via_ck():
    probes = [(0.5, 2.0), (1.0, 1.0), (2.5, 0.3)]
    err = chapman_kolmogorov_check(NEUMANN, 1, t=0.2, r=0.12, s=0.05, probes=probes)
    assert err <= 1e-10
    err2 = chapman_kolmogorov_check(DIRICHLET, 1, t=0.2, r=0.08, s=0.05, probes=probes)
    assert err2 <= 1e-10
    with pytest.raises(ValueError):
        chapman_kolmogorov_check(NEUMANN, 1, t=0.1, r=0.2, s=0.05, probes=probes)


def test_ck_2d():
    probes = [([0.5, 1.0], [2.0, 2.5]), ([1.5, 1.5], [1.5, 1.5])]
    err = chapman_kolmogorov_check(NEUMANN, 2, t=0.3, r=0.2, s=0.1, probes=probes,
                                   modes_per_axis=12)
    assert err <= 1e-10


@pytest.mark.parametrize("bc,dim", [(NEUMANN, 1), (NEUMANN, 2), (DIRICHLET, 1)])
def test_diagonal_scaling(bc, dim):
    res = diagonal_scaling_check(bc, dim, tau_range=(1e-4, 1e-1),
                                 interior_margin=0.3)
    assert res.inf_constant > 0
    assert res.spread <= 10.0


def test_diagonal_positive_dirichlet_2d():
    # near the boundary the Dirichlet kernel is suppressed once the diffusion
    # length tau^{1/4} reaches the margin, so only positivity is asserted here
    res = diagonal_scaling_check(DIRICHLET, 2, tau_range=(1e-4, 1e-1),
                                 interior_margin=0.3)
    assert res.inf_constant > 0


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_diagonal_scaling_single_point(dim):
    res = diagonal_scaling_check(NEUMANN, dim, tau_range=(1e-3, 1e-1),
                                 n_tau=4, n_x=1)
    assert res.table.shape == (4, dim + 2)
    assert np.all(res.table[:, 1:-1] == 0.3)
    assert res.inf_constant > 0
    assert res.inf_constant == res.table[:, -1].min()


def test_probe_tables_match_one_call_per_probe():
    """The tables built from arrays hold the bits of one call per probe."""
    res = diagonal_scaling_check(NEUMANN, 2, tau_range=(1e-3, 1e-1), n_tau=3, n_x=2)
    assert res.table.shape == (12, 4)
    for tau, *p, v in res.table:
        assert v == tau ** 0.5 * green_function(NEUMANN, 2, tau, p, p)
    fit = fit_kernel_bound(DIRICHLET, 1, KernelExponents.biharmonic(1),
                           taus=[1e-3, 1e-2], offsets=[0.0, 0.5, 2.0])
    assert fit.table[:, :2].tolist() == [[1e-3, 0.0], [1e-3, 0.5],
                                         [1e-2, 0.0], [1e-2, 0.5]]
    for tau, r, K, _ in fit.table:
        assert K == abs(green_function(DIRICHLET, 1, tau, math.pi / 2, math.pi / 2 + r))


def test_diagonal_scaling_validation():
    with pytest.raises(ValueError):
        diagonal_scaling_check(NEUMANN, 1, tau_range=(0.1, 0.01))
    with pytest.raises(ValueError):
        diagonal_scaling_check(NEUMANN, 1, tau_range=(1e-8, 0.1))  # time floor
    with pytest.raises(ValueError):
        diagonal_scaling_check(NEUMANN, 1, interior_margin=2.0)


def test_fit_kernel_bound_time_floor():
    e = KernelExponents.biharmonic(1)
    with pytest.raises(ValueError):
        fit_kernel_bound(NEUMANN, 1, e, taus=[1e-8, 1e-4])
    with pytest.raises(ValueError):
        fit_kernel_bound(NEUMANN, 1, e, taus=[])


def test_fit_kernel_bound_plain():
    e = KernelExponents.biharmonic(1)
    fit = fit_kernel_bound(NEUMANN, 1, e)
    assert math.isfinite(fit.C) and fit.C > 0
    assert fit.c >= 0
    assert fit.max_violation <= 1e-12 * fit.C
    assert fit.exponent == pytest.approx(0.25)


def test_fit_kernel_bound_derivatives():
    e = KernelExponents.biharmonic(1)
    fit = fit_kernel_bound(DIRICHLET, 1, e, space_derivs=(2,), time_deriv=0,
                           taus=np.geomspace(1e-3, 1e-1, 8))
    assert fit.exponent == pytest.approx(0.25 + 2 * 0.25)
    assert math.isfinite(fit.C)
    assert fit.max_violation <= 1e-12 * fit.C


def test_fit_kernel_bound_audit_mode():
    """A deliberately small C must be flagged through max_violation."""
    e = KernelExponents.biharmonic(1)
    free = fit_kernel_bound(NEUMANN, 1, e)
    tight = fit_kernel_bound(NEUMANN, 1, e, c=free.c, C=free.C / 10.0)
    assert tight.max_violation > 0


def test_fitted_constant_scales_like_power_law():
    """tau^{1/4} G(tau,x,x) stays bounded above and below on the probe range."""
    res = diagonal_scaling_check(NEUMANN, 1, tau_range=(1e-5, 1e-2), n_tau=9)
    vals = res.table[:, -1]
    assert vals.max() / vals.min() < 5.0


@pytest.mark.parametrize("dim", [1, 2])
def test_green_function_result_follows_the_probe_shape(dim):
    """A float for one tau and one point each of x and y; an array of n
    values for (n, dim) point arrays or a sequence of taus, n = 1 too."""
    x, y = [0.5] * dim, [0.7] * dim
    value = green_function(NEUMANN, dim, 0.1, x, y)
    assert isinstance(value, float)
    assert green_function(NEUMANN, dim, 0.1, np.array(x), tuple(y)) == value
    if dim == 1:
        assert green_function(NEUMANN, 1, 0.1, 0.5, 0.7) == value
    for args in [(0.1, np.array([x]), np.array([y])), (0.1, np.array([x]), y),
                 (0.1, x, np.array([y])), ([0.1], x, y),
                 ([0.1], np.array([x]), np.array([y]))]:
        got = green_function(NEUMANN, dim, *args)
        assert isinstance(got, np.ndarray) and got.tolist() == [value]


def test_fit_kernel_bound_needs_an_offset_inside_the_domain():
    with pytest.raises(ValueError,
                       match=r"offsets \[2\.0, 3\.0\] leave no probe.*<= pi/2"):
        fit_kernel_bound(NEUMANN, 1, KernelExponents.biharmonic(1),
                         offsets=[2.0, 3.0])
