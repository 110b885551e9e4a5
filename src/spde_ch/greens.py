"""Biharmonic Green function on [0, pi]^d: evaluation, bounds, diagnostics.

The Green function of d/dt + Laplace^2 with Neumann or Dirichlet conditions is

    G(t, x; s, y) = sum_k exp(-lambda_k^2 (t-s)) e_k(x) e_k(y),   t > s,

summed over the eigenbasis of the box.  Space/time derivatives of G obey
Gaussian-type bounds

    |D_x^a d_t^b G| <= C (t-s)^{-(alpha + |a| delta + b eta)}
                       exp(-c |x-y|^beta / (t-s)^gamma)

with, for the biharmonic operator, alpha = d/4, beta = 4/3, gamma = 1/3,
delta = 1/4, eta = 1, and a matching diagonal lower bound
G(t, x; s, x) >= C (t-s)^{-d/4} at interior points.  This module evaluates
truncated kernel sums, fits the bound constants on probe grids, and checks
the semigroup identities used elsewhere in the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .basis import Basis, _check_bc, axis_eigenfunctions

#: drop modes whose semigroup weight is below this at the smallest time gap
MODE_WEIGHT_FLOOR = 1e-16

#: cap on the dense mode-tensor size used by pointwise kernel sums
MAX_KERNEL_TENSOR = 2**24

#: probe sweeps refuse time gaps below this (cost blows up, no new information)
TIME_FLOOR = 1e-6


@dataclass(frozen=True)
class KernelExponents:
    """Exponent tuple (alpha, beta, gamma, delta, eta) of a kernel bound."""

    alpha: float
    beta: float
    gamma: float
    delta: float
    eta: float

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma", "delta", "eta"):
            if getattr(self, name) <= 0:
                raise ValueError(f"exponent {name} must be positive")

    @classmethod
    def biharmonic(cls, dim: int) -> "KernelExponents":
        """Exponents of d/dt + Laplace^2 in dimension dim."""
        if not 1 <= dim <= 5:
            raise ValueError(f"dim must be in 1..5, got {dim}")
        return cls(alpha=dim / 4.0, beta=4.0 / 3.0, gamma=1.0 / 3.0,
                   delta=0.25, eta=1.0)

    @property
    def beta_over_gamma(self) -> float:
        return self.beta / self.gamma


def mode_cutoff(tau: float, tol: float = MODE_WEIGHT_FLOOR) -> int:
    """Smallest per-axis mode count so exp(-k^4 tau) < tol beyond it."""
    if tau <= 0:
        raise ValueError(f"time gap must be positive, got {tau}")
    lam_max = (math.log(1.0 / tol) / tau) ** 0.25
    return max(2, int(math.ceil(lam_max)) + 1)


def green_function(bc: str, dim: int, tau, x, y, space_derivs=None,
                   time_deriv: int = 0, modes_per_axis: int | None = None):
    """Evaluate D_x^a d_t^b G(t, x; t - tau, y) by truncated mode summation.

    tau, x, y may be a scalar/point or matching sequences of probes; x and y
    are points in [0, pi]^dim (scalars allowed when dim == 1).  The truncation
    is chosen adaptively from the smallest tau unless modes_per_axis is given.
    """
    _check_bc(bc)
    taus = np.atleast_1d(np.asarray(tau, dtype=float))
    scalar_input = taus.size == 1 and np.asarray(x).size == dim
    xs = np.asarray(x, dtype=float).reshape(-1, dim)
    ys = np.asarray(y, dtype=float).reshape(-1, dim)
    n = max(len(taus), len(xs), len(ys))
    if len(taus) == 1:
        taus = np.repeat(taus, n)
    if len(xs) == 1:
        xs = np.repeat(xs, n, axis=0)
    if len(ys) == 1:
        ys = np.repeat(ys, n, axis=0)
    if not (len(taus) == len(xs) == len(ys)):
        raise ValueError("tau, x, y probe lists must have matching lengths")
    if np.any(taus <= 0):
        raise ValueError("green_function requires t > s")
    if space_derivs is None:
        space_derivs = (0,) * dim
    space_derivs = tuple(int(a) for a in np.atleast_1d(space_derivs))
    if len(space_derivs) != dim:
        raise ValueError(f"need {dim} per-axis derivative orders")

    cap = modes_per_axis or mode_cutoff(float(taus.min()))
    if cap**dim > MAX_KERNEL_TENSOR:
        raise ValueError(
            f"pointwise kernel sum needs {cap}^{dim} modes; "
            "reduce dim, increase tau, or pass modes_per_axis")
    basis = Basis(bc, dim, cap)
    lam2 = basis.biharmonic_eigenvalues

    out = np.empty(n)
    for i in range(n):
        w = np.exp(-lam2 * taus[i])
        if time_deriv:
            w = w * (-lam2) ** time_deriv
        out[i] = _mode_sum(basis, w, xs[i], ys[i], space_derivs)
    return float(out[0]) if scalar_input else out


def _mode_sum(basis: Basis, w: np.ndarray, x, y, space_derivs):
    """sum_k w_k prod_ax D^{a_ax} e_k(x_ax) e_k(y_ax) over the modes of basis."""
    term = w
    for ax in range(basis.dim):
        ux = axis_eigenfunctions(basis.bc, basis.axis_modes, x[ax], space_derivs[ax])
        uy = axis_eigenfunctions(basis.bc, basis.axis_modes, y[ax])
        shape = [1] * basis.dim
        shape[ax] = basis.modes_per_axis
        term = term * (ux * uy).reshape(shape)
    return term.sum()


def apply_semigroup(basis: Basis, coeffs: np.ndarray, t: float) -> np.ndarray:
    """Propagate coefficients by exp(-t Laplace^2): mode k -> e^{-lambda_k^2 t}."""
    if t < 0:
        raise ValueError(f"semigroup time must be >= 0, got {t}")
    return np.asarray(coeffs) * np.exp(-basis.biharmonic_eigenvalues * t)


def chapman_kolmogorov_check(bc: str, dim: int, t: float, r: float, s: float,
                             probes, modes_per_axis: int = 16) -> float:
    """Max | int G(t,x;r,z) G(r,z;s,y) dz  -  G(t,x;s,y) | over probe pairs.

    The intermediate integral is done exactly in coefficient space
    (orthonormality collapses it to a product of semigroup weights).
    """
    if not t > r > s:
        raise ValueError("need t > r > s")
    basis = Basis(bc, dim, modes_per_axis)
    lam2 = basis.biharmonic_eigenvalues
    # composed weights: e^{-lam^2 (t-r)} * e^{-lam^2 (r-s)} per mode
    w = np.exp(-lam2 * (t - r)) * np.exp(-lam2 * (r - s))
    worst = 0.0
    for x, y in probes:
        direct = green_function(bc, dim, t - s, x, y, modes_per_axis=modes_per_axis)
        x = np.atleast_1d(np.asarray(x, dtype=float))
        y = np.atleast_1d(np.asarray(y, dtype=float))
        composed = float(_mode_sum(basis, w, x, y, (0,) * dim))
        worst = max(worst, abs(direct - composed))
    return worst


@dataclass
class DiagonalScaling:
    """Result of the interior diagonal lower-bound probe."""

    inf_constant: float        # inf over probes of tau^{d/4} G(t,x;t-tau,x)
    spread: float              # max/min of the same quantity
    table: np.ndarray = field(repr=False)   # columns: tau, x..., value


def diagonal_scaling_check(bc: str, dim: int, tau_range=(1e-4, 1e-1),
                           interior_margin: float = 0.3, n_tau: int = 12,
                           n_x: int = 5) -> DiagonalScaling:
    """Probe tau^{d/4} G(t, x; t-tau, x) at interior points.

    A strictly positive infimum with bounded spread is the numerical
    counterpart of the on-diagonal lower bound C (t-s)^{-d/4}.
    """
    lo, hi = tau_range
    if not TIME_FLOOR <= lo < hi <= 0.1:
        raise ValueError(
            f"tau_range must satisfy {TIME_FLOOR} <= lo < hi <= 0.1, got {tau_range}")
    if not 0 < interior_margin < math.pi / 2:
        raise ValueError("interior_margin must lie in (0, pi/2)")
    taus = np.geomspace(lo, hi, n_tau)
    axis = np.linspace(interior_margin, math.pi - interior_margin, n_x)
    pts = np.stack(np.meshgrid(*([axis] * dim), indexing="ij"), axis=-1).reshape(-1, dim)
    rows = []
    for tau in taus:
        vals = green_function(bc, dim, tau, pts, pts)
        q = tau ** (dim / 4.0) * np.asarray(vals)
        for p, v in zip(pts, q):
            rows.append((tau, *p, v))
    table = np.array(rows)
    qvals = table[:, -1]
    inf_c = float(qvals.min())
    spread = float(qvals.max() / qvals.min()) if inf_c > 0 else math.inf
    return DiagonalScaling(inf_constant=inf_c, spread=spread, table=table)


@dataclass
class KernelBoundFit:
    """Fitted constants of the Gaussian-type kernel bound on a probe grid."""

    C: float
    c: float
    max_violation: float
    exponent: float            # alpha + |a| delta + b eta actually used
    table: np.ndarray = field(repr=False)  # columns: tau, r, K, rhs


def fit_kernel_bound(bc: str, dim: int, exponents: KernelExponents,
                     space_derivs=None, time_deriv: int = 0,
                     taus=None, offsets=None, c: float | None = None,
                     C: float | None = None) -> KernelBoundFit:
    """Fit/check C (t-s)^{-(alpha+|a|delta+b eta)} exp(-c |x-y|^beta/(t-s)^gamma).

    Probes sit at x = center, y = x + r e_1.  When c is not given it defaults
    to half the tightest decay rate observed against the same-tau diagonal
    value (so the Gaussian factor never overstates the decay).  When C is not
    given it is fitted as the smallest constant covering every probe, making
    max_violation <= 0 by construction; pass C to audit a fixed constant.
    """
    if taus is None:
        taus = np.geomspace(1e-4, 1e-1, 10)
    taus = np.asarray(taus, dtype=float)
    if taus.size == 0:
        raise ValueError("empty probe set")
    if np.any(taus < TIME_FLOOR):
        raise ValueError(f"probe time gaps must be >= {TIME_FLOOR}")
    if offsets is None:
        offsets = np.linspace(0.0, 1.2, 7)
    offsets = np.asarray(offsets, dtype=float)
    if space_derivs is None:
        space_derivs = (0,) * dim
    a_total = int(np.sum(space_derivs))
    expo = exponents.alpha + a_total * exponents.delta + time_deriv * exponents.eta

    x0 = np.full(dim, math.pi / 2.0)
    rows = []
    diag = {}
    for tau in taus:
        for r in offsets:
            y = x0.copy()
            y[0] = x0[0] + r
            if y[0] > math.pi:
                continue
            K = abs(green_function(bc, dim, tau, x0, y,
                                   space_derivs=space_derivs, time_deriv=time_deriv))
            rows.append([tau, r, K])
            if r == 0.0:
                diag[tau] = K
    rows = np.array(rows)

    if c is None:
        cands = []
        for tau, r, K in rows:
            if r > 0 and K > 0 and tau in diag and diag[tau] > K:
                cands.append(math.log(diag[tau] / K) * tau**exponents.gamma
                             / r**exponents.beta)
        c = 0.5 * min(cands) if cands else 0.0

    gauss = np.exp(-c * rows[:, 1]**exponents.beta / rows[:, 0]**exponents.gamma)
    envelope = rows[:, 0] ** (-expo) * gauss
    ratios = rows[:, 2] / envelope
    fitted_C = float(ratios.max()) if C is None else float(C)
    rhs = fitted_C * envelope
    max_violation = float((rows[:, 2] - rhs).max())
    table = np.column_stack([rows, rhs])
    return KernelBoundFit(C=fitted_C, c=float(c), max_violation=max_violation,
                          exponent=expo, table=table)
