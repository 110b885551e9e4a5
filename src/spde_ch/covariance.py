"""Spatial correlation kernels and their admissibility conditions.

The driving noise F is white in time and correlated in space by a kernel f:

    E[F(phi) F(psi)] = int dt int dy int dz phi(t,y) f(y-z) psi(t,z).

Supported kernel families: white noise (delta correlation), constant kernels,
Riesz powers f(v) = |v|^{-B}, and tabulated radial profiles.  Everything the
existence / regularity / density theory asks of f reduces to radial integrals
with an origin singularity,

    int_{B_d(0,r0)} f(v) |v|^{-e} ln(1/|v|)^kappa dv.

This module decides those conditions and assembles the noise Gram matrix
Q_{kl} = <e_k, e_l>_H used for sampling.  Every density kernel is one list
of power-law segments (``CovarianceSpec.segments``): f(r) = amp r^{-B} on
lo <= r < hi.  A Riesz or constant kernel is a single segment on (0, inf).  A table's log-log
interpolant is a power law on each sample interval; the law of the first
interval also covers (0, r_1), and the last sample continues flat to inf.
Every radial quantity is one loop over the segments: the segment that
reaches 0 carries the origin singularity (a closed form, or an algebraic
endpoint weight in ``_singular_quad``), each further segment has its own
closed form, or its own quadrature between knots.

For Riesz powers in d >= 2 the Gram matrix uses the exact Gaussian-mixture
identity |u|^{-B} = Gamma(B/2)^{-1} int_0^inf s^{B/2-1} e^{-s|u|^2} ds, which
turns Q into a positive combination of Kronecker products of per-axis PSD
matrices; no dense d-dimensional singular quadrature is ever attempted.

Radial integrals and the conditions built on them use only ``math``.
scipy.integrate is imported only by the d=1 routes that integrate: here by
``_singular_quad``, which builds the direct d=1 Gram, and in ``noise`` by the
grid-cell backend.  A run that only meets kernels in d >= 2 never loads it,
and no module imports scipy.special.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .basis import Basis, axis_integrals, axis_overlap, axis_product
from .greens import KernelExponents

ADMISSIBLE = "admissible"
INADMISSIBLE = "inadmissible"
BORDERLINE = "borderline"

#: analytic exponents within this of the threshold are reported Borderline
EXPONENT_TOL = 1e-12

#: warn when a Gram matrix eigenvalue is below this before clipping
PSD_TOL = -1e-10

#: GramOperator.dense refuses a matrix of more entries than this
MAX_DENSE_ENTRIES = 2**24

#: KroneckerMixtureGram.dense forms each term's products in blocks of head
#: rows of about this many bytes, so they are scaled and summed in cache.
_DENSE_BLOCK_BYTES = 2**18


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


def _power_log_segment(p: float, kappa: int, a: float, b: float) -> float:
    """int_a^b rho^p ln(1/rho)^kappa d rho for 0 < a < b <= 1, closed form.

    With q = p + 1, D = ln(b/a) and phi_j(z) = int_0^1 s^j e^{-zs} ds it is
    b^q sum_j C(kappa, j) ln(1/b)^{kappa-j} D^{j+1} phi_j(qD), a sum of
    nonnegative terms that, unlike a difference of antiderivatives, does not
    cancel as qD -> 0.  phi_j(z) is j!/z^{j+1} (1 - e^{-z} e_j(z)) for
    z >= j + 1, else a series of positive terms (after Kummer's
    transformation, DLMF 13.2.39, when z > 0).
    """
    q, xb, D = p + 1.0, math.log(1.0 / b), math.log(b / a)
    z, total = q * D, 0.0
    for j in range(kappa + 1):
        if z >= j + 1:
            e_j = sum(z**k / math.factorial(k) for k in range(j + 1))
            phi = math.factorial(j) / z ** (j + 1) * (1.0 - math.exp(-z) * e_j)
        else:
            n, term = 0, 1.0 / (j + 1)
            phi = term
            while term > 1e-17 * phi:
                n += 1
                term *= z / (j + 1 + n) if z >= 0 else -z * (j + n) / (n * (j + 1 + n))
                phi += term
            phi *= math.exp(-max(z, 0.0))
        total += math.comb(kappa, j) * xb ** (kappa - j) * D ** (j + 1) * phi
    return b**q * total


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
        self.segments = self._build_segments()

    def _build_segments(self):
        """(lo, hi, amp, B) with f(r) = amp r^{-B} on lo <= r < hi, in order.

        A table gives (0, r_1) and [r_i, r_{i+1}) the log-log law through
        samples i and i + 1 (the first law twice), then [r_n, inf) flat.
        """
        if self.kind == self.WHITE:
            return ()
        if self.kind != self.TABULATED:
            amp, B = (1.0, self.B) if self.kind == self.RIESZ else (self.c, 0.0)
            return ((0.0, math.inf, amp, B),)
        r, v = self.radii, self.values
        B = [-math.log(v[i + 1] / v[i]) / math.log(r[i + 1] / r[i])
             for i in range(r.size - 1)]
        laws = [(float(v[i] * float(r[i]) ** b), b) for i, b in enumerate(B)]
        laws = laws[:1] + laws + [(float(v[-1]), 0.0)]
        edges = [0.0, *map(float, r), math.inf]
        return tuple((lo, hi, *law) for lo, hi, law in zip(edges, edges[1:], laws))

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

    def fitted_origin_power(self) -> float:
        """Exponent B of the segment that reaches the origin (for a table,
        the power law through its two innermost samples)."""
        if not self.segments:
            raise ValueError("no radial density for white noise")
        return self.segments[0][3]

    def evaluate_radial(self, r):
        """f evaluated at radius r, from the segment that holds r."""
        r = np.asarray(r, dtype=float)
        if np.any(r <= 0):
            raise ValueError("radius must be positive")
        if self.kind == self.WHITE:
            raise ValueError("white noise has no pointwise density")
        knots = [seg[0] for seg in self.segments[1:]]
        index = np.searchsorted(knots, r, side="right")
        out = np.empty_like(r)
        for i in np.unique(index):
            _, _, amp, B = self.segments[i]
            inside = index == i
            out[inside] = amp * r[inside] ** (-B)
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
    if f.radii is not None and f.radii[-1] < r0:
        raise ValueError(
            f"tabulated samples reach only {f.radii[-1]:.3g} < r0={r0:.3g}")
    # the segment that reaches 0 diverges there when its exponent is <= -1
    (_, hi, amp, B), *rest = f.segments
    val = _power_log_primitive(d - 1.0 - B - e, kappa, min(hi, r0))
    if math.isinf(val):
        return math.inf
    val *= S * amp
    for lo, hi, amp, B in rest:
        if lo >= r0:
            break
        val += S * amp * _power_log_segment(d - 1.0 - B - e, kappa, lo, min(hi, r0))
    return val


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
    return _shifted_integrability(f, exponents, "stochastic-integrability",
                                  0.0, f.dim)


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
    return _shifted_integrability(f, exponents, f"holder-{which}(order={order:g})",
                                  order * fac, f.dim)


def _shifted_integrability(f, exponents, cid, shift, target):
    """The integrability condition with 2 alpha -> 2 alpha + shift (white
    noise: 2 (alpha + shift)) and theta held against target; shift 0.0
    leaves it unshifted."""
    if f.kind == CovarianceSpec.WHITE:
        margin = 1.0 - (2.0 * (exponents.alpha + shift)
                        - exponents.gamma * f.dim / exponents.beta)
        return ConditionReport(cid, _verdict(margin), None, margin)
    theta = exponents.beta_over_gamma * (2.0 * exponents.alpha + shift - 1.0)
    return _density_condition(f, cid, *_excess(theta, target))


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
    cid = f"moment(q={q:g},p={p:g})"
    if f.kind == CovarianceSpec.WHITE:
        a = exponents.alpha
        denom = 2.0 * a / q - 1.0 + a
        if denom <= 0:
            return ConditionReport(cid, ADMISSIBLE, None, math.inf)
        margin = 2.0 * a / denom - p
        return ConditionReport(cid, _verdict(margin), None, margin)
    return _shifted_integrability(f, exponents, cid, 0.0, f.dim * q / p)


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


# ----------------------------------------------------------------------
# Gram operators


class GramOperator:
    """Base for representations of Q_{kl} = <e_k, e_l>_H."""

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

    def dense(self) -> np.ndarray:
        raise NotImplementedError

    def frobenius_norm(self) -> float:
        raise NotImplementedError

    def frobenius_distance(self, other: "GramOperator") -> float:
        """||Q - other||_F, formed from the two dense matrices."""
        return float(np.linalg.norm(self.dense() - other.dense()))


class DiagonalGram(GramOperator):
    """Q = diag(d) for a coefficient-shaped d; d = None is Q = I (white noise)."""

    def __init__(self, basis, diag=None):
        super().__init__(basis)
        self.diag = (np.ones(basis.shape) if diag is None
                     else np.asarray(diag, dtype=float).reshape(basis.shape))

    def bilinear(self, a, b):
        return float(np.sum(np.asarray(a) * self.diag * np.asarray(b)))

    def diagonal(self):
        return self.diag.copy()

    def dense(self):
        _guard_dense(self.basis.n_modes)
        return np.diag(self.diag.reshape(-1))

    def frobenius_norm(self):
        return math.sqrt(float(np.sum(self.diag**2)))

    def frobenius_distance(self, other):
        # other - diag(d) is other off the diagonal: no dense matrix needed
        q = other.diagonal()
        off = other.frobenius_norm()**2 - math.sqrt(float(np.sum(q**2)))**2
        return math.sqrt(max(off, 0.0) + float(np.sum((q - self.diag)**2)))


class Rank1Gram(GramOperator):
    """Q = scale * outer(v, v) (constant kernels: v_k = int e_k)."""

    def __init__(self, basis, vec, scale):
        super().__init__(basis)
        self.vec = np.asarray(vec, dtype=float)
        self.scale = float(scale)

    def bilinear(self, a, b):
        return self.scale * float(np.sum(self.vec * a)) * float(np.sum(self.vec * b))

    def diagonal(self):
        return self.scale * self.vec**2

    def dense(self):
        _guard_dense(self.basis.n_modes)
        v = self.vec.reshape(-1)
        return self.scale * np.outer(v, v)

    def frobenius_norm(self):
        return self.scale * float(np.sum(self.vec**2))


class DenseGram(GramOperator):
    """Explicit, exactly symmetric (n_modes x n_modes) matrix with PSD
    repair on construction; held without a copy unless repaired."""

    def __init__(self, basis, matrix):
        super().__init__(basis)
        Q = np.asarray(matrix, dtype=float)
        if not np.array_equal(Q, Q.T):
            raise ValueError("Gram matrix must be exactly symmetric")
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
            Q = Q + Q.T
            Q *= 0.5
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

    def dense(self):
        return self.matrix

    def frobenius_norm(self):
        return float(np.linalg.norm(self.matrix))


class KroneckerMixtureGram(GramOperator):
    """Q = sum_j w_j A_j^{(x) d} with per-axis PSD factors A_j.

    Exact Gaussian-mixture representation of Riesz kernels: positive weights,
    Gaussian per-axis correlation matrices, hence PSD by construction.
    """

    def __init__(self, basis, weights, axis_mats):
        super().__init__(basis)
        self.weights = np.asarray(weights, dtype=float)
        self.axis_mats = np.asarray(axis_mats, dtype=float)   # (J, M, M)
        if self.axis_mats.shape[1:] != (basis.modes_per_axis,) * 2:
            raise ValueError("axis matrix shape mismatch")
        if not np.array_equal(self.axis_mats, self.axis_mats.transpose(0, 2, 1)):
            raise ValueError("axis matrices must be exactly symmetric")

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

    def dense(self):
        n = self.basis.n_modes
        _guard_dense(n)
        d, M = self.basis.dim, self.basis.modes_per_axis
        m = M ** (d - 1)
        # Q[(p, i), (q, k)] = R[p, q, i, k] = sum_t (head_t[p, q] A_t[i, k]) w_t,
        # summed in t order from 0.0 with head_t = A_t^{(x)(d-1)} built by
        # np.kron ([[1]] for d = 1), as a term-by-term np.kron build sums it.
        # Two exact symmetries: every A_t is symmetric to the bit (checked
        # on construction), and so is head_t, whose entries are products of
        # mirrored factors (IEEE multiplication commutes).  So R[p, q, i, k]
        # = R[q, p, i, k] = R[p, q, k, i] bit for bit, and only q >= p and
        # i <= k are summed: row blocks [lo, hi) of the head hold
        # R[lo:hi, lo:] over the packed upper triangle of A_t, and Q is
        # filled from them and mirrored.  This Q is exactly symmetric, as
        # DenseGram requires.
        rows, cols = np.triu_indices(M)
        P = len(rows)
        blocks, lo = [], 0
        while lo < m:
            hi = min(m, lo + max(1, _DENSE_BLOCK_BYTES // (8 * P * (m - lo))))
            blocks.append((lo, hi))
            lo = hi
        acc = [np.zeros((hi - lo, m - lo, P)) for lo, hi in blocks]
        buf = np.empty(max(R.size for R in acc))
        for w, A in zip(self.weights, self.axis_mats):
            head = np.ones((1, 1))
            for _ in range(d - 1):
                head = np.kron(head, A)
            packed = A[rows, cols]
            for (lo, hi), R in zip(blocks, acc):
                prod = buf[:R.size].reshape(R.shape)
                np.multiply.outer(head[lo:hi, lo:], packed, out=prod)
                prod *= w
                R += prod
        unpack = np.empty((M, M), dtype=np.intp)
        unpack[rows, cols] = unpack[cols, rows] = np.arange(P)
        Q = np.empty((n, n))
        Q4 = Q.reshape(m, M, m, M)
        for (lo, hi), R in zip(blocks, acc):
            full = R[..., unpack]                       # [p, q, i, k]
            Q4[lo:hi, :, lo:, :] = full.transpose(0, 2, 1, 3)
            Q4[lo:, :, lo:hi, :] = full.transpose(1, 2, 0, 3)
        return Q

    def frobenius_norm(self):
        G = np.einsum("jkl,mkl->jm", self.axis_mats, self.axis_mats)
        total = float(self.weights @ (G ** self.basis.dim) @ self.weights)
        return math.sqrt(max(total, 0.0))


def _guard_dense(n):
    if n * n > MAX_DENSE_ENTRIES:
        raise ValueError(
            f"dense Gram matrix would need {n}x{n} entries; "
            "use the mixture/diagonal representation instead")


# ----------------------------------------------------------------------
# Gram assembly


def _overlap_table(basis: Basis, value, shape=()) -> np.ndarray:
    """T[i, j] = T[j, i] = value(axis_overlap(bc, k_i, k_j)) for i <= j."""
    M, modes = basis.modes_per_axis, basis.axis_modes
    T = np.empty((M, M) + shape)
    for i in range(M):
        for j in range(i, M):
            T[i, j] = T[j, i] = value(axis_overlap(basis.bc, modes[i], modes[j]))
    return T


def _graded_gauss_nodes(u_max: float, u_min: float, max_freq: float = 0.0):
    """10-point Gauss-Legendre panels graded geometrically from u_max to ~u_min.

    Each dyadic panel is split so that no sub-panel spans more than ~5 radians
    of the fastest integrand oscillation (max_freq, rad per unit length).
    """
    levels = max(4, int(math.ceil(math.log2(u_max / max(u_min, 1e-300)))) + 1)
    xg, wg = np.polynomial.legendre.leggauss(10)
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


def gaussian_mixture_nodes(B: float, dim: int):
    """Log-trapezoid discretization of |u|^{-B} = c_B int s^{B/2-1} e^{-s u^2} ds.

    The nodes are log-spaced with step 0.4.  Truncation: the s -> 0 tail is
    cut so its constant contribution is below 1e-12; the s -> inf tail is cut
    once the mollified scale eps = s^{-1/2} satisfies eps^{dim - B} <= 1e-10
    (the induced Gram error bound).
    """
    tol, step, target_scale = 1e-12, 0.4, 1e-10
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


def _riesz_mixture_gram(f: CovarianceSpec, basis: Basis) -> KroneckerMixtureGram:
    s, w = gaussian_mixture_nodes(f.B, f.dim)
    u_min = 0.05 / math.sqrt(s.max())
    max_freq = 2.0 * float(basis.axis_modes.max())
    nodes, wu = _graded_gauss_nodes(math.pi, u_min, max_freq=max_freq)
    csym = _overlap_table(basis, lambda g: g(nodes), nodes.shape)  # (M, M, Nu)
    E = np.exp(-np.outer(s, nodes**2))                    # (J, Nu)
    A = np.einsum("klu,ju->jkl", csym * wu, E)
    return KroneckerMixtureGram(basis, w, A)


def _singular_quad(f: CovarianceSpec, smooth, b: float) -> float:
    """int_0^b f(u) smooth(u) du: the segment of f that reaches 0 as an
    algebraic endpoint weight, plain quadrature on each further segment."""
    from scipy.integrate import quad
    (_, hi, amp, B), *rest = f.segments
    val, _ = quad(smooth, 0.0, min(hi, b), weight="alg", wvar=(-B, 0.0), limit=200)
    val *= amp
    for lo, hi, amp, B in rest:
        if lo >= b:
            break
        val += quad(lambda u, amp=amp, B=B: amp * u ** (-B) * smooth(u),
                    lo, min(hi, b), limit=200)[0]
    return val


def _direct_gram_1d(f: CovarianceSpec, basis: Basis) -> np.ndarray:
    """Dense Q in d=1 by weighted quadrature with the exact endpoint power."""
    return _overlap_table(basis, lambda g: _singular_quad(f, g, math.pi))


def gram_operator(f: CovarianceSpec, basis: Basis,
                  method: str = "auto") -> GramOperator:
    """Build a representation of the noise Gram matrix for a kernel.

    method: 'auto' (direct quadrature in d=1, Gaussian mixture in d>=2),
    'direct', or 'mixture' to force a route (cross-checks in the tests).
    """
    if f.dim != basis.dim:
        raise ValueError(f"kernel dim {f.dim} != basis dim {basis.dim}")
    if f.kind == CovarianceSpec.WHITE:
        return DiagonalGram(basis)
    if not f.locally_integrable:
        raise ValueError("kernel is not locally integrable; no Gram matrix")
    if f.kind == CovarianceSpec.CONSTANT:
        vec = axis_product([axis_integrals(basis.bc, basis.axis_modes)] * basis.dim)
        return Rank1Gram(basis, vec, f.c)
    direct = method == "direct" or (method == "auto" and f.dim == 1)
    if f.kind == CovarianceSpec.RIESZ and not direct:
        return _riesz_mixture_gram(f, basis)
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
