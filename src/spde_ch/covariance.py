"""Spatial correlation kernels and their admissibility conditions.

The driving noise F is white in time and correlated in space by a kernel f:

    E[F(phi) F(psi)] = int dt int dy int dz phi(t,y) f(y-z) psi(t,z).

Supported kernel families: white noise (delta correlation), constant kernels,
Riesz powers f(v) = |v|^{-B}, and tabulated radial profiles.  Everything the
existence / regularity / density theory asks of f reduces to radial integrals
with an origin singularity,

    int_{B_d(0,r0)} f(v) |v|^{-e} ln(1/|v|)^kappa dv,

possibly Gaussian-smoothed at scale t^{gamma/beta}.  This module decides those
conditions and assembles the noise Gram matrix Q_{kl} = <e_k, e_l>_H used for
sampling.  Each density kernel is read as a power law f(r) = amp r^{-B} below
r_cut (``CovarianceSpec._origin_law``): r_cut = inf for Riesz and constant
kernels, the first sample for a table, fitted to its two innermost samples.
Every radial quantity is one computation: the power-law head in closed form
(or by algebraic-weight quadrature, ``_singular_quad``), plus quadrature of
the table above r_cut when that lies in the range.

For Riesz powers in d >= 2 the Gram matrix uses the exact Gaussian-mixture
identity |u|^{-B} = Gamma(B/2)^{-1} int_0^inf s^{B/2-1} e^{-s|u|^2} ds, which
turns Q into a positive combination of Kronecker products of per-axis PSD
matrices; no dense d-dimensional singular quadrature is ever attempted.

scipy.integrate is imported inside the routes that integrate (table parts,
the direct d=1 Gram, the variance-kernel integral), so a run that only meets
Riesz or constant kernels in d >= 2 never loads it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import special as ssp

from .basis import NEUMANN, Basis
from .greens import KernelExponents

ADMISSIBLE = "admissible"
INADMISSIBLE = "inadmissible"
BORDERLINE = "borderline"

#: analytic exponents within this of the threshold are reported Borderline
EXPONENT_TOL = 1e-12

#: warn when a Gram matrix eigenvalue is below this before clipping
PSD_TOL = -1e-10


def sphere_area(d: int) -> float:
    """Surface area of the unit sphere in R^d (2 for d=1, 2*pi^2 for d=4)."""
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


def _power_log_primitive(p: float, kappa: int, tau: float) -> float:
    """int_0^tau rho^p ln(1/rho)^kappa d rho, closed form; inf when p <= -1."""
    if p <= -1.0:
        return math.inf
    L = math.log(1.0 / tau)
    acc = 0.0
    fact = 1.0
    for m in range(kappa + 1):
        if m > 0:
            fact *= (kappa - m + 1)
        acc += fact * L ** (kappa - m) / (p + 1.0) ** (m + 1)
    return tau ** (p + 1.0) * acc


# ----------------------------------------------------------------------
# kernel specifications


class CovarianceSpec:
    """A radial spatial-correlation kernel in dimension d.

    Use the constructors: ``white(d)``, ``constant(d, c)``, ``riesz(d, B)``,
    ``tabulated(d, radii, values)``.  Riesz powers may be built with any
    B > 0 so that admissibility sweeps can straddle thresholds; kernels with
    B >= d are not locally integrable and are rejected by the samplers.
    """

    WHITE = "white"
    CONSTANT = "constant"
    RIESZ = "riesz"
    TABULATED = "tabulated"

    def __init__(self, kind, dim, c=None, B=None, radii=None, values=None):
        if kind not in (self.WHITE, self.CONSTANT, self.RIESZ, self.TABULATED):
            raise ValueError(f"unknown covariance kind {kind!r}")
        if not 1 <= int(dim) <= 5:
            raise ValueError(f"dim must be in 1..5, got {dim}")
        self.kind = kind
        self.dim = int(dim)
        self.c = c
        self.B = B
        if kind == self.CONSTANT and (c is None or c <= 0):
            raise ValueError("constant kernel requires c > 0")
        if kind == self.RIESZ and (B is None or B <= 0):
            raise ValueError("Riesz kernel requires B > 0")
        if kind == self.TABULATED:
            radii = np.asarray(radii, dtype=float)
            values = np.asarray(values, dtype=float)
            if radii.ndim != 1 or radii.shape != values.shape or radii.size < 2:
                raise ValueError("tabulated kernel needs matching 1-d arrays, >= 2 samples")
            if np.any(np.diff(radii) <= 0) or radii[0] <= 0:
                raise ValueError("tabulated radii must be positive and increasing")
            if np.any(values <= 0):
                raise ValueError("tabulated kernel values must be positive")
        self.radii = radii
        self.values = values

    # constructors ------------------------------------------------------
    @classmethod
    def white(cls, dim):
        return cls(cls.WHITE, dim)

    @classmethod
    def constant(cls, dim, c=1.0):
        return cls(cls.CONSTANT, dim, c=float(c))

    @classmethod
    def riesz(cls, dim, B):
        return cls(cls.RIESZ, dim, B=float(B))

    @classmethod
    def tabulated(cls, dim, radii, values):
        return cls(cls.TABULATED, dim, radii=radii, values=values)

    # ------------------------------------------------------------------
    @property
    def has_density(self) -> bool:
        return self.kind != self.WHITE

    @property
    def locally_integrable(self) -> bool:
        """Whether int_{B(0,1)} f < infinity."""
        return self.kind != self.WHITE and self.fitted_origin_power() < self.dim

    @property
    def diameter(self) -> float:
        """Diameter of the difference set (Q - Q)."""
        return math.pi * math.sqrt(self.dim)

    def fitted_origin_power(self) -> float:
        """Power-law exponent B-hat fitted to the two innermost samples."""
        if self.kind == self.RIESZ:
            return self.B
        if self.kind == self.CONSTANT:
            return 0.0
        if self.kind != self.TABULATED:
            raise ValueError("no radial density for white noise")
        r0, r1 = self.radii[0], self.radii[1]
        f0, f1 = self.values[0], self.values[1]
        return -math.log(f1 / f0) / math.log(r1 / r0)

    def _origin_law(self):
        """(amp, B, r_cut) with f(r) = amp * r^{-B} for r < r_cut."""
        if self.kind == self.RIESZ:
            return 1.0, self.B, math.inf
        if self.kind == self.CONSTANT:
            return self.c, 0.0, math.inf
        bhat = self.fitted_origin_power()
        r0 = float(self.radii[0])
        return self.values[0] * r0**bhat, bhat, r0

    def evaluate_radial(self, r):
        """f evaluated at radius r (power-law extrapolation below the table)."""
        r = np.asarray(r, dtype=float)
        if np.any(r <= 0):
            raise ValueError("radius must be positive")
        if self.kind == self.WHITE:
            raise ValueError("white noise has no pointwise density")
        if self.kind != self.TABULATED:
            amp, B, _ = self._origin_law()
            return amp * r ** (-B)
        bhat = self.fitted_origin_power()
        out = np.empty_like(r)
        below = r < self.radii[0]
        out[below] = self.values[0] * (r[below] / self.radii[0]) ** (-bhat)
        inside = ~below
        # log-log linear interpolation, flat continuation past the table
        out[inside] = np.exp(np.interp(np.log(r[inside]), np.log(self.radii),
                                       np.log(self.values)))
        return out if out.ndim else float(out)

    def __repr__(self):  # pragma: no cover
        extra = {"constant": f", c={self.c}", "riesz": f", B={self.B}"}.get(self.kind, "")
        return f"CovarianceSpec({self.kind!r}, dim={self.dim}{extra})"


@dataclass
class ConditionReport:
    """Outcome of one admissibility condition on a kernel."""

    condition_id: str
    verdict: str
    value: float | None = None      # the integral, inf when divergent
    margin: float | None = None     # analytic distance to the threshold

    @property
    def admissible(self) -> bool:
        return self.verdict == ADMISSIBLE


def _verdict(margin: float) -> str:
    if abs(margin) <= EXPONENT_TOL:
        return BORDERLINE
    return ADMISSIBLE if margin > 0 else INADMISSIBLE


# ----------------------------------------------------------------------
# radial integrals


def radial_integral(f: CovarianceSpec, e: float, kappa: int, r0: float) -> float:
    """int_{B_d(0, r0)} f(v) |v|^{-e} ln(1/|v|)^kappa dv; inf when divergent."""
    if not 0 < r0 <= 1.0:
        raise ValueError(f"r0 must be in (0, 1], got {r0}")
    if kappa not in (0, 1):
        raise ValueError(f"kappa must be 0 or 1, got {kappa}")
    return _radial_integral_any_log(f, e, kappa, r0)


def _radial_integral_any_log(f: CovarianceSpec, e: float, kappa: int,
                             r0: float) -> float:
    d = f.dim
    S = sphere_area(d)
    if f.kind == CovarianceSpec.WHITE:
        raise ValueError("white noise has no density; radial conditions do not apply")
    amp, B, r_cut = f._origin_law()
    if r_cut < r0 and f.radii[-1] < r0:
        raise ValueError(
            f"tabulated samples reach only {f.radii[-1]:.3g} < r0={r0:.3g}")
    # power-law head in closed form, quadrature of the table above r_cut
    head = _power_log_primitive(d - 1.0 - B - e, kappa, min(r_cut, r0))
    if math.isinf(head):
        return math.inf
    head *= S * amp
    if r_cut >= r0:
        return head

    def integrand(rho):
        return (f.evaluate_radial(rho) * rho ** (d - 1.0 - e)
                * math.log(1.0 / rho) ** kappa)

    from scipy.integrate import quad
    outer, _ = quad(integrand, r_cut, r0, limit=200)
    return head + S * outer


# ----------------------------------------------------------------------
# condition checkers


def _excess(theta: float, target: float):
    """(e, kappa): the log condition at theta = target, else e = (theta - target)^+."""
    if abs(theta - target) <= EXPONENT_TOL:
        return 0.0, 1
    return max(theta - target, 0.0), 0


def _density_condition(f, cid, e, kappa, margin=None):
    """Evaluate the radial integral and attach a verdict on d - e - B.

    An exact kernel may pass its own closed form of that margin.
    """
    value = _radial_integral_any_log(f, e, kappa, 1.0)
    fitted = f.kind == CovarianceSpec.TABULATED
    if margin is None or fitted:
        margin = f.dim - e - f.fitted_origin_power()
    if not fitted:
        return ConditionReport(cid, _verdict(margin), value, margin)
    # fitted exponents get a looser borderline band than exact ones
    if abs(margin) <= 1e-9:
        verdict = BORDERLINE
    elif margin > 0 and math.isfinite(value):
        verdict = ADMISSIBLE
    else:
        verdict = INADMISSIBLE
    return ConditionReport(cid, verdict, value, margin)


def stochastic_integrability(f: CovarianceSpec,
                             exponents: KernelExponents) -> ConditionReport:
    """Necessary/sufficient condition for the kernel to be noise-integrable.

    With theta = (beta/gamma)(2 alpha - 1): when d = theta the kernel must
    satisfy the log condition int f(v) ln(1/|v|) dv < inf near 0; otherwise
    int f(v) |v|^{-e} dv < inf with e = (theta - d)^+.  White noise is
    admissible iff 2 alpha - gamma d / beta < 1.
    """
    d = f.dim
    cid = "stochastic-integrability"
    if f.kind == CovarianceSpec.WHITE:
        margin = 1.0 - (2.0 * exponents.alpha - exponents.gamma * d / exponents.beta)
        return ConditionReport(cid, _verdict(margin), None, margin)
    theta = exponents.beta_over_gamma * (2.0 * exponents.alpha - 1.0)
    return _density_condition(f, cid, *_excess(theta, d))


def holder_integrability(f: CovarianceSpec, exponents: KernelExponents,
                         which: str, order: float) -> ConditionReport:
    """Same machinery with 2 alpha -> 2 alpha + a delta (space) or + b eta (time).

    order is the Hölder order a (space) or b (time) and must lie in (0, 1).
    For white noise the kernel enters squared, so the criterion doubles the
    shift: 2(alpha + order * fac) - gamma d / beta < 1.
    """
    if which not in ("space", "time"):
        raise ValueError(f"which must be 'space' or 'time', got {which!r}")
    if not 0.0 < order < 1.0:
        raise ValueError(f"order must be in (0, 1), got {order}")
    fac = exponents.delta if which == "space" else exponents.eta
    d = f.dim
    cid = f"holder-{which}(order={order:g})"
    if f.kind == CovarianceSpec.WHITE:
        margin = 1.0 - (2.0 * (exponents.alpha + order * fac)
                        - exponents.gamma * d / exponents.beta)
        return ConditionReport(cid, _verdict(margin), None, margin)
    theta = exponents.beta_over_gamma * (2.0 * exponents.alpha + order * fac - 1.0)
    return _density_condition(f, cid, *_excess(theta, d))


def moment_integrability(f: CovarianceSpec, exponents: KernelExponents,
                         q: float, p: float) -> ConditionReport:
    """Kernel condition for p-th moments of L^q norms, 2 <= q <= p < inf.

    Equality case (beta/gamma)(2 alpha - 1) = d q/p takes the log condition;
    otherwise e = [(beta/gamma)(2 alpha - 1) - d q/p]^+.  With p = q this is
    exactly ``stochastic_integrability``.  For white noise the closed-form
    moment bound p < 2 alpha / (2 alpha / q - 1 + alpha)^+ applies.
    """
    if not 2 <= q <= p:
        raise ValueError(f"need 2 <= q <= p, got q={q}, p={p}")
    if math.isinf(p):
        raise ValueError("p must be finite")
    d = f.dim
    cid = f"moment(q={q:g},p={p:g})"
    if f.kind == CovarianceSpec.WHITE:
        a = exponents.alpha
        denom = 2.0 * a / q - 1.0 + a
        if denom <= 0:
            return ConditionReport(cid, ADMISSIBLE, None, math.inf)
        margin = 2.0 * a / denom - p
        return ConditionReport(cid, _verdict(margin), None, margin)
    theta = exponents.beta_over_gamma * (2.0 * exponents.alpha - 1.0)
    return _density_condition(f, cid, *_excess(theta, d * q / p))


def cahn_hilliard_integrability(f: CovarianceSpec, eps: float) -> ConditionReport:
    """Existence condition for the stochastic Cahn-Hilliard equation:

        int_{B(0,1)} f(v) |v|^{4 - d(1+eps)} dv < inf,   eps in (0, 1);

    for Riesz kernels this holds exactly when d*eps + B < 4.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    if f.kind == CovarianceSpec.WHITE:
        raise ValueError("white noise is not covered by the density condition; "
                         "use stochastic_integrability")
    d = f.dim
    cid = f"cahn-hilliard(eps={eps:g})"
    e = d * (1.0 + eps) - 4.0
    # 4 - B - d eps is the same margin as d - e - B, rounded as stated
    return _density_condition(f, cid, e, 0,
                              4.0 - f.fitted_origin_power() - d * eps)


def small_ball_integral(f: CovarianceSpec, tau: float) -> float:
    """int_{B(0,tau)} f(v) |v|^{4-d} ln(1/|v|)^{(5-d)^+} dv.

    The integrand exponent for a Riesz kernel is rho^{3-B} regardless of d, so
    the value scales like tau^{4-B} (log-corrected when d == 4); divergent for
    B >= 4.
    """
    if not 0.0 < tau < 1.0:
        raise ValueError(f"tau must be in (0, 1), got {tau}")
    kappa = max(5 - f.dim, 0)
    return _radial_integral_any_log(f, float(f.dim - 4), kappa, tau)


def variance_kernel_exponent(f: CovarianceSpec, exponents: KernelExponents,
                             shift: float = 0.0,
                             moment_ratio: float = 1.0) -> float:
    """Small-t power E of the variance integrand psi(t) ~ t^E."""
    if not f.has_density:
        raise ValueError("white noise has no variance kernel density")
    B = f.fitted_origin_power()
    P = exponents.alpha * (moment_ratio - 2.0) - shift
    return P + exponents.gamma * (f.dim - B) / exponents.beta


def variance_kernel_integral(f: CovarianceSpec, exponents: KernelExponents,
                             T: float, shift: float = 0.0,
                             moment_ratio: float = 1.0, c: float = 1.0,
                             R: float = 1.0) -> float:
    """int_0^T psi(t) dt with the Gaussian-smoothed kernel mass

        psi(t) = t^{alpha(moment_ratio - 2) - shift}
                 int_{B(0,R)} exp(-c |v|^beta / t^gamma) f(v) dv.

    moment_ratio is q/p (1 recovers the plain second-moment kernel); shift
    encodes the Hölder substitutions 2 alpha -> 2 alpha + a delta / + b eta.
    Returns inf when the small-t exponent is <= -1 (non-integrable).
    """
    if T <= 0 or c <= 0 or R <= 0:
        raise ValueError("T, c, R must be positive")
    if shift < 0 or not 0 < moment_ratio <= 1:
        raise ValueError("need shift >= 0 and moment_ratio in (0, 1]")
    if not f.has_density:
        raise ValueError("white noise has no variance kernel density")
    from scipy.integrate import quad
    d, S = f.dim, sphere_area(f.dim)
    beta, gamma = exponents.beta, exponents.gamma
    P = exponents.alpha * (moment_ratio - 2.0) - shift

    # the origin exponent drives the singular factor t^E
    amp, B, r_cut = f._origin_law()
    nu = (d - B) / beta
    if nu <= 0:
        return math.inf
    E = P + gamma * (d - B) / beta
    if E <= -1.0:
        return math.inf
    pref = amp * S * math.gamma(nu) / (beta * c**nu)

    # psi(t) = t^E * h(t) with h bounded near 0; quad handles the weight.
    # h is the power-law head in closed form plus the table above r_cut.
    def h(t):
        if t <= 0.0:
            return pref
        val = pref * ssp.gammainc(nu, c * min(r_cut, R) ** beta / t**gamma)
        if r_cut >= R:
            return val

        def gout(rho):
            return (f.evaluate_radial(rho) * rho ** (d - 1.0)
                    * math.exp(-c * rho**beta / t**gamma))

        outer, _ = quad(gout, r_cut, R, limit=100)
        return val + S * outer * t ** (P - E)

    val, _ = quad(h, 0.0, T, weight="alg", wvar=(E, 0.0), limit=200)
    return val


@dataclass
class ScalingBoundCheck:
    """Result of sampling the two-scale domination f(u) <= C1 f(v)."""

    passed: bool
    max_ratio: float                  # max over pairs of f(u) / f(v)
    witness: tuple | None             # (|u|, |v|) of the worst violation


def scaling_bound_check(f: CovarianceSpec, C1: float, c1: float,
                        pairs=None, n_samples: int = 64) -> ScalingBoundCheck:
    """Check f(u) <= C1 f(v) whenever |v| <= c1 |u| on sampled radius pairs."""
    if not 0 < c1 <= 1:
        raise ValueError(f"c1 must be in (0, 1], got {c1}")
    if C1 <= 0:
        raise ValueError("C1 must be positive")
    if not f.has_density:
        raise ValueError("white noise has no pointwise density")
    if pairs is None:
        us = np.geomspace(1e-6, f.diameter, n_samples)
        fracs = np.array([1.0, 0.5, 0.1])
        pairs = [(u, frac * c1 * u) for u in us for frac in fracs]
    worst = 0.0
    witness = None
    for u, v in pairs:
        if v > c1 * u + 1e-15:
            raise ValueError(f"pair ({u}, {v}) violates |v| <= c1 |u|")
        ratio = float(f.evaluate_radial(u) / f.evaluate_radial(v))
        if ratio > worst:
            worst, witness = ratio, (float(u), float(v))
    passed = worst <= C1 * (1.0 + 1e-12)
    return ScalingBoundCheck(passed=passed, max_ratio=worst,
                             witness=None if passed else witness)


# ----------------------------------------------------------------------
# Gram operators


class GramOperator:
    """Base for representations of Q_{kl} = <e_k, e_l>_H."""

    kind = "abstract"

    def __init__(self, basis: Basis):
        self.basis = basis

    def bilinear(self, a: np.ndarray, b: np.ndarray) -> float:
        """<a, b>_H for coefficient tensors a, b."""
        raise NotImplementedError

    def bilinear_many(self, A_stack, B_stack) -> np.ndarray:
        """<a_i, b_i>_H over coefficient tensors stacked along the first axis."""
        return np.array([self.bilinear(a, b) for a, b in zip(A_stack, B_stack)])

    def diagonal(self) -> np.ndarray:
        """Diagonal of Q as a coefficient-shaped tensor."""
        raise NotImplementedError

    def dense(self, max_entries: int = 2**24) -> np.ndarray:
        raise NotImplementedError

    def frobenius_norm(self) -> float:
        raise NotImplementedError

    def offdiagonal_mass(self) -> float:
        """Fraction of the Frobenius norm dropped by a diagonal approximation."""
        total = self.frobenius_norm()
        diag = float(np.sqrt(np.sum(self.diagonal() ** 2)))
        if total == 0:
            return 0.0
        return math.sqrt(max(total**2 - diag**2, 0.0)) / total


class IdentityGram(GramOperator):
    kind = "identity"

    def bilinear(self, a, b):
        return float(np.sum(np.asarray(a) * np.asarray(b)))

    def diagonal(self):
        return np.ones(self.basis.shape)

    def dense(self, max_entries: int = 2**24):
        n = self.basis.n_modes
        _guard_dense(n, max_entries)
        return np.eye(n)

    def frobenius_norm(self):
        return math.sqrt(self.basis.n_modes)


class Rank1Gram(GramOperator):
    """Q = scale * outer(v, v) (constant kernels: v_k = int e_k)."""

    kind = "rank1"

    def __init__(self, basis, vec, scale):
        super().__init__(basis)
        self.vec = np.asarray(vec, dtype=float)
        self.scale = float(scale)

    def bilinear(self, a, b):
        return self.scale * float(np.sum(self.vec * a)) * float(np.sum(self.vec * b))

    def diagonal(self):
        return self.scale * self.vec**2

    def dense(self, max_entries: int = 2**24):
        n = self.basis.n_modes
        _guard_dense(n, max_entries)
        v = self.vec.reshape(-1)
        return self.scale * np.outer(v, v)

    def frobenius_norm(self):
        return self.scale * float(np.sum(self.vec**2))


class DenseGram(GramOperator):
    """Explicit (n_modes x n_modes) matrix with PSD repair on construction."""

    kind = "dense"

    def __init__(self, basis, matrix):
        super().__init__(basis)
        Q = np.asarray(matrix, dtype=float)
        Q = 0.5 * (Q + Q.T)
        w, V = np.linalg.eigh(Q)
        scale = max(1.0, float(np.abs(w).max()))
        self.min_eigenvalue = float(w.min())
        if w.min() < PSD_TOL * scale:
            warnings.warn(
                f"Gram matrix eigenvalue {w.min():.3e} below tolerance; "
                "clipping to 0 (quadrature defect larger than expected)")
        if w.min() < 0:
            w = np.clip(w, 0.0, None)
            Q = (V * w) @ V.T
            Q = 0.5 * (Q + Q.T)
            V = None    # V belongs to the unrepaired matrix
        self.matrix = Q
        self._eigh = None if V is None else (w, V)

    def eigenpairs(self):
        """(w, V) with matrix = V diag(w) V^T, as np.linalg.eigh returns them.

        Hands over the decomposition made by the PSD check when no eigenvalue
        was clipped, and drops it, so it is paid for once and held only until
        the caller has used it; otherwise decomposes the repaired matrix.
        """
        eig, self._eigh = self._eigh, None
        return np.linalg.eigh(self.matrix) if eig is None else eig

    def bilinear(self, a, b):
        af = np.asarray(a, dtype=float).reshape(-1)
        bf = np.asarray(b, dtype=float).reshape(-1)
        return float(af @ self.matrix @ bf)

    def diagonal(self):
        return np.diag(self.matrix).reshape(self.basis.shape).copy()

    def dense(self, max_entries: int = 2**24):
        return self.matrix

    def frobenius_norm(self):
        return float(np.linalg.norm(self.matrix))


class KroneckerMixtureGram(GramOperator):
    """Q = sum_j w_j A_j^{(x) d} with per-axis PSD factors A_j.

    Exact Gaussian-mixture representation of Riesz kernels: positive weights,
    Gaussian per-axis correlation matrices, hence PSD by construction.
    """

    kind = "kronecker-mixture"

    def __init__(self, basis, weights, axis_mats):
        super().__init__(basis)
        self.weights = np.asarray(weights, dtype=float)
        self.axis_mats = np.asarray(axis_mats, dtype=float)   # (J, M, M)
        if self.axis_mats.shape[1:] != (basis.modes_per_axis,) * 2:
            raise ValueError("axis matrix shape mismatch")

    def _apply_term(self, j, tensors):
        """Apply A_j along every spatial axis of stacked tensors (..., M,..,M)."""
        d = self.basis.dim
        A = self.axis_mats[j]
        out = tensors
        for ax in range(out.ndim - d, out.ndim):
            out = np.moveaxis(np.tensordot(out, A, axes=([ax], [1])), -1, ax)
        return out

    def bilinear(self, a, b):
        return self.bilinear_many(np.asarray(a)[None, ...], np.asarray(b)[None, ...])[0]

    def bilinear_many(self, A_stack, B_stack):
        """Batched <a_i, b_i>_H over stacked coefficient tensors."""
        d = self.basis.dim
        A_stack = np.asarray(A_stack, dtype=float)
        B_stack = np.asarray(B_stack, dtype=float)
        out = np.zeros(A_stack.shape[: A_stack.ndim - d])
        sum_axes = tuple(range(A_stack.ndim - d, A_stack.ndim))
        for j in range(len(self.weights)):
            out += self.weights[j] * np.sum(
                A_stack * self._apply_term(j, B_stack), axis=sum_axes)
        return out

    def diagonal(self):
        d = self.basis.dim
        diags = np.einsum("jkk->jk", self.axis_mats)      # (J, M)
        out = self.weights.copy()
        for _ in range(d):
            out = out[..., None] * diags.reshape((len(self.weights),) + (1,) * (out.ndim - 1) + (-1,))
        return np.sum(out, axis=0)

    def dense(self, max_entries: int = 2**24):
        n = self.basis.n_modes
        _guard_dense(n, max_entries)
        d, M = self.basis.dim, self.basis.modes_per_axis
        m = M ** (d - 1)
        # Q[(p, i), (q, k)] = R[p, q, i, k] = sum_t w_t head_t[p, q] A_t[i, k]
        # with head_t = A_t^{(x)(d-1)} ([[1]] for d = 1): each term is one
        # outer product of contiguous arrays into a reused buffer.  The
        # products, the w_t scaling and the order of the sum over t are
        # those of a term-by-term np.kron build, so Q is bitwise the same.
        R = np.zeros((m, m, M, M))
        buf = np.empty_like(R)
        for w, A in zip(self.weights, self.axis_mats):
            head = np.ones((1, 1))
            for _ in range(d - 1):
                head = np.kron(head, A)
            np.multiply.outer(head, A, out=buf)
            buf *= w
            R += buf
        # 0.5 * (Q + Q^T), reading R in both layouts
        Q = np.empty((n, n))
        np.add(R.transpose(0, 2, 1, 3), R.transpose(1, 3, 0, 2),
               out=Q.reshape(m, M, m, M))
        Q *= 0.5
        return Q

    def frobenius_norm(self):
        G = np.einsum("jkl,mkl->jm", self.axis_mats, self.axis_mats)
        total = float(self.weights @ (G ** self.basis.dim) @ self.weights)
        return math.sqrt(max(total, 0.0))


def _guard_dense(n, max_entries):
    if n * n > max_entries:
        raise ValueError(
            f"dense Gram matrix would need {n}x{n} entries; "
            "use the mixture/diagonal representation instead")


# ----------------------------------------------------------------------
# Gram assembly


def _axis_overlap_integrals(basis: Basis, u: np.ndarray) -> np.ndarray:
    """c_{kl}(u) + c_{lk}(u) with c_{kl}(u) = int e_k(z+u) e_l(z) dz, u >= 0.

    The z-integral runs over [0, pi-u]; closed form via product-to-sum.
    Returns an array of shape (M, M, len(u)).
    """
    M = basis.modes_per_axis
    u = np.asarray(u, dtype=float)
    L = math.pi - u
    modes = basis.axis_modes
    if basis.bc == NEUMANN:
        norms = np.where(modes == 0, 1.0 / math.sqrt(math.pi),
                         math.sqrt(2.0 / math.pi))
    else:
        norms = np.full(M, math.sqrt(2.0 / math.pi))

    def J(a, b):
        # int_0^L cos(a z + b) dz
        if a == 0:
            return L * np.cos(b)
        return (np.sin(a * L + b) - np.sin(b)) / a

    out = np.empty((M, M, u.size))
    sign = 1.0 if basis.bc == NEUMANN else -1.0
    for i, k in enumerate(modes):
        for j, l in enumerate(modes):
            if j < i:
                continue
            ckl = 0.5 * (J(k - l, k * u) + sign * J(k + l, k * u))
            clk = 0.5 * (J(l - k, l * u) + sign * J(l + k, l * u))
            val = norms[i] * norms[j] * (ckl + clk)
            out[i, j] = val
            out[j, i] = val
    return out


def _graded_gauss_nodes(u_max: float, u_min: float, max_freq: float = 0.0,
                        order: int = 10):
    """Gauss-Legendre panels geometrically graded from u_max down to ~u_min.

    Each dyadic panel is split so that no sub-panel spans more than ~5 radians
    of the fastest integrand oscillation (max_freq, rad per unit length).
    """
    levels = max(4, int(math.ceil(math.log2(u_max / max(u_min, 1e-300)))) + 1)
    xg, wg = np.polynomial.legendre.leggauss(order)
    nodes, weights = [], []

    def add_panel(lo, hi):
        parts = max(1, int(math.ceil(max_freq * (hi - lo) / 5.0)))
        edges = np.linspace(lo, hi, parts + 1)
        for a, b in zip(edges[:-1], edges[1:]):
            mid, half = 0.5 * (a + b), 0.5 * (b - a)
            nodes.append(mid + half * xg)
            weights.append(half * wg)

    hi = u_max
    for _ in range(levels):
        add_panel(hi / 2.0, hi)
        hi /= 2.0
    add_panel(0.0, hi)
    return np.concatenate(nodes), np.concatenate(weights)


def gaussian_mixture_nodes(B: float, dim: int, tol: float = 1e-12,
                           step: float = 0.4, target_scale: float = 1e-10):
    """Log-trapezoid discretization of |u|^{-B} = c_B int s^{B/2-1} e^{-s u^2} ds.

    Truncation: the s -> 0 tail is cut so its constant contribution is below
    tol; the s -> inf tail is cut once the mollified scale eps = s^{-1/2}
    satisfies eps^{dim - B} <= target_scale (the induced Gram error bound).
    """
    if B <= 0:
        raise ValueError("B must be positive")
    if dim - B < 0.25:
        warnings.warn(f"B={B} within 0.25 of d={dim}: mixture truncation error "
                      "may be significant")
    x_lo = (2.0 / B) * math.log(tol * B * math.gamma(B / 2.0) / 2.0)
    x_hi = 2.0 * math.log(1.0 / target_scale) / max(dim - B, 0.25)
    x_hi = max(x_hi, 10.0)
    n = int(math.ceil((x_hi - x_lo) / step)) + 1
    x = np.linspace(x_lo, x_hi, n)
    h = x[1] - x[0]
    s = np.exp(x)
    w = h * np.exp(x * B / 2.0) / math.gamma(B / 2.0)
    return s, w


def _riesz_mixture_gram(f: CovarianceSpec, basis: Basis, tol=1e-12,
                        step=0.4) -> KroneckerMixtureGram:
    s, w = gaussian_mixture_nodes(f.B, f.dim, tol=tol, step=step)
    u_min = 0.05 / math.sqrt(s.max())
    max_freq = 2.0 * float(basis.axis_modes.max())
    nodes, wu = _graded_gauss_nodes(math.pi, u_min, max_freq=max_freq)
    csym = _axis_overlap_integrals(basis, nodes)          # (M, M, Nu)
    E = np.exp(-np.outer(s, nodes**2))                    # (J, Nu)
    A = np.einsum("klu,ju->jkl", csym * wu, E)
    return KroneckerMixtureGram(basis, w, A)


def _pair_overlap(basis: Basis, k: int, l: int) -> "callable":
    """Scalar-u evaluator of c_{kl}(u) + c_{lk}(u) for one mode pair."""
    if basis.bc == NEUMANN:
        nk = 1.0 / math.sqrt(math.pi) if k == 0 else math.sqrt(2.0 / math.pi)
        nl = 1.0 / math.sqrt(math.pi) if l == 0 else math.sqrt(2.0 / math.pi)
        sign = 1.0
    else:
        nk = nl = math.sqrt(2.0 / math.pi)
        sign = -1.0

    def J(a, b, L):
        if a == 0:
            return L * math.cos(b)
        return (math.sin(a * L + b) - math.sin(b)) / a

    def g(u):
        L = math.pi - u
        ckl = 0.5 * (J(k - l, k * u, L) + sign * J(k + l, k * u, L))
        clk = 0.5 * (J(l - k, l * u, L) + sign * J(l + k, l * u, L))
        return nk * nl * (ckl + clk)

    return g


def _singular_quad(f: CovarianceSpec, smooth, a: float, b: float) -> float:
    """int_0^b f(u) smooth(u) du: the power-law head of f as an algebraic
    endpoint weight below r_cut, plain quadrature of the table above it."""
    from scipy.integrate import quad
    amp, B, r_cut = f._origin_law()
    head_end = min(r_cut, b)
    val, _ = quad(smooth, a, head_end, weight="alg", wvar=(-B, 0.0), limit=200)
    val *= amp
    if head_end < b:
        val += quad(lambda u: float(f.evaluate_radial(u)) * smooth(u),
                    head_end, b, limit=200)[0]
    return val


def _direct_gram_1d(f: CovarianceSpec, basis: Basis) -> np.ndarray:
    """Dense Q in d=1 by weighted quadrature with the exact endpoint power."""
    M = basis.modes_per_axis
    modes = basis.axis_modes
    Q = np.zeros((M, M))
    for i in range(M):
        for j in range(i, M):
            g = _pair_overlap(basis, int(modes[i]), int(modes[j]))
            Q[i, j] = Q[j, i] = _singular_quad(f, g, 0.0, math.pi)
    return Q


def _constant_axis_integrals(basis: Basis) -> np.ndarray:
    """Per-axis integrals int_0^pi e_k(x) dx."""
    modes = basis.axis_modes
    if basis.bc == NEUMANN:
        out = np.zeros(basis.modes_per_axis)
        out[0] = math.pi / math.sqrt(math.pi)
        return out
    k = modes.astype(float)
    return math.sqrt(2.0 / math.pi) * (1.0 - np.cos(k * math.pi)) / k


def gram_operator(f: CovarianceSpec, basis: Basis, method: str = "auto",
                  mixture_tol: float = 1e-12,
                  mixture_step: float = 0.4) -> GramOperator:
    """Build a representation of the noise Gram matrix for a kernel.

    method: 'auto' (direct quadrature in d=1, Gaussian mixture in d>=2),
    'direct', or 'mixture' to force a route (cross-checks in the tests).
    """
    if f.dim != basis.dim:
        raise ValueError(f"kernel dim {f.dim} != basis dim {basis.dim}")
    if f.kind == CovarianceSpec.WHITE:
        return IdentityGram(basis)
    if not f.locally_integrable:
        raise ValueError("kernel is not locally integrable; no Gram matrix")
    if f.kind == CovarianceSpec.CONSTANT:
        axis = _constant_axis_integrals(basis)
        vec = axis
        for _ in range(basis.dim - 1):
            vec = np.multiply.outer(vec, axis)
        return Rank1Gram(basis, vec, f.c)
    direct = method == "direct" or (method == "auto" and f.dim == 1)
    if f.kind == CovarianceSpec.RIESZ and not direct:
        return _riesz_mixture_gram(f, basis, tol=mixture_tol, step=mixture_step)
    # Riesz by the direct route, or tabulated (which has no mixture form)
    if f.dim != 1:
        raise ValueError("direct quadrature route only supports d=1")
    return DenseGram(basis, _direct_gram_1d(f, basis))


def gram_matrix(f: CovarianceSpec, basis: Basis, method: str = "auto") -> np.ndarray:
    """Dense symmetric PSD Q (clipped at -1e-10 eigenvalue tolerance)."""
    op = gram_operator(f, basis, method=method)
    if isinstance(op, DenseGram):
        return op.matrix
    dense = op.dense()
    return DenseGram(basis, dense).matrix
