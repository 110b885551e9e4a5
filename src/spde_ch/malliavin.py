"""Stochastic sensitivity (Malliavin) diagnostics for simulated paths.

``tangent_propagate`` differentiates the time stepper with respect to
every Gaussian coordinate of the driving noise: the tangent started at
step r in noise direction j solves the scheme linearized along the stored
trajectory, so adaptedness (zero rows for r past the target time) holds
structurally.  Its drift is the scheme's own: the linearised pointwise
values T R'(u), g'(u) T and b_i'(u) T go through ``solver._drift``, the
one drift assembly.  ``malliavin_matrix`` accumulates the discrete
H_T inner products

    Gamma(i, j) = sum_{r, j'} dt * D_{r,j'} u(t0, x_i) * D_{r,j'} u(t0, x_j)

of those tangents evaluated at interior points; for a linear model with
constant noise amplitude this reproduces the Ornstein-Uhlenbeck covariance
in closed form.  ``decomposition_terms`` splits the quadratic form
<Gamma v, v> restricted to a short window [t0 - tau, t0] into the four
pieces of the lower bound

    <Gamma v, v> >= I1/4 + (1/4) sum_{i != j} v_i v_j I2(i,j)
                    - (l/2) sum_i v_i^2 I3(i) - l sum_i v_i^2 I4(i)

(leading kernel mass, cross terms, amplitude increments, nonlinear
remainder), and ``density_criterion`` combines the spectral floor of Gamma
with a closed-form check of the small-ball limit condition.
"""

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .basis import Basis, axis_eigenfunctions, axis_product
from .covariance import CovarianceSpec, small_ball_integral
from .noise import NoiseBackend
from .solver import (ModelSpec, SolverConfig, Trajectory, _check_problem,
                     _coefficient_on_grid, _drift, _linear_propagate,
                     _scheme_update)

#: Interior-margin proxy constant: evaluation points must keep a distance
#: of at least 2 * C2 * tau^{1/4} from the boundary of [0, pi]^d.
C2_MARGIN = 0.25

#: Bytes of refined-grid values per slice of the tangent block.  Each
#: step pushes the stacked tangent fields through the linearized scheme
#: in slices of this size, so its temporaries stay near this many bytes
#: whatever the number of rows and directions.  decomposition_terms forms
#: the I4 remainder in slabs of about this many bytes of tangent rows.
TANGENT_SLICE_BYTES = 2**20

#: Cap on the bytes of the returned tangent derivatives.
MAX_TANGENT_BYTES = 2**32

#: malliavin_matrix sums its dot products in order over pieces of this many
#: rows, which OpenBLAS forms on one thread: the bits of Gamma do not depend
#: on the BLAS thread count.
DOT_ROWS = 10_000

DEGENERATE = "degenerate"
ABSOLUTELY_CONTINUOUS = "absolutely-continuous"
INCONCLUSIVE = "inconclusive"


# ----------------------------------------------------------------------
# point evaluation helpers


def _check_points(basis: Basis, points) -> np.ndarray:
    """Validate evaluation points: strictly interior, pairwise distinct."""
    pts = np.asarray(points, dtype=float)
    if basis.dim == 1 and pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or pts.shape[1] != basis.dim:
        raise ValueError(f"points must have shape (l, {basis.dim})")
    if len(pts) == 0:
        raise ValueError("need at least one evaluation point")
    if np.any(pts <= 0.0) or np.any(pts >= math.pi):
        raise ValueError("evaluation points must lie strictly inside (0, pi)^d")
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if np.allclose(pts[i], pts[j], rtol=0, atol=1e-12):
                warnings.warn(
                    f"evaluation points {i} and {j} coincide; the Malliavin "
                    "matrix will be singular")
    return pts


def _mode_values_at(basis: Basis, x: np.ndarray) -> np.ndarray:
    """Tensor e_k(x) over all retained multi-indices k, shape basis.shape."""
    return axis_product([axis_eigenfunctions(basis.bc, basis.axis_modes, xa)
                         for xa in x])


def _evaluate_at_points(basis: Basis, stack: np.ndarray,
                        pts: np.ndarray) -> np.ndarray:
    """Evaluate stacked coefficient tensors (..., M..M) at points -> (..., l)."""
    E = np.stack([_mode_values_at(basis, p).reshape(-1) for p in pts], axis=1)
    lead = stack.shape[: stack.ndim - basis.dim]
    return stack.reshape(lead + (-1,)) @ E


def _direction_matrix(backend: NoiseBackend) -> np.ndarray:
    """All covariance-factor columns Q^{1/2} e_j, stacked (n_dir, M..M)."""
    return np.stack([backend.direction_coefficients(j)
                     for j in range(backend.n_directions)])


# ----------------------------------------------------------------------
# model linearization


def _reaction_derivative(coeffs_tuple, u):
    """R'(u) = (3 r3 u + 2 r2) u + r1."""
    r3, r2, r1, _ = (float(c) for c in coeffs_tuple)
    return (3.0 * r3 * u + 2.0 * r2) * u + r1


def _model_derivatives(model: ModelSpec, jacobians):
    """Resolve the u-derivatives of the callable coefficients.

    Scalar amplitudes differentiate to zero automatically; callables must
    come with an explicit derivative in ``jacobians`` ({'sigma': fn,
    'forcing': fn, 'drifts': (fn, ...)}), since a bare callable is not
    verifiably C^1.
    """
    jac = dict(jacobians or {})
    sigma_p = None
    if model.constant_sigma is None:
        sigma_p = jac.get("sigma")
        if not callable(sigma_p):
            raise ValueError(
                "sigma is callable but its u-derivative was not supplied; "
                "pass jacobians={'sigma': dsigma_du} (the tangent equation "
                "needs continuously differentiable coefficients)")

    forcing_p = None
    if model.forcing is not None:
        forcing_p = jac.get("forcing")
        if not callable(forcing_p):
            raise ValueError(
                "forcing is callable but its u-derivative was not supplied; "
                "pass jacobians={'forcing': dg_du}")

    drift_ps = ()
    if model.drifts:
        drift_ps = tuple(jac.get("drifts") or ())
        if len(drift_ps) != len(model.drifts) or not all(callable(f) for f in drift_ps):
            raise ValueError(
                "drift coefficients are callable but their u-derivatives "
                "were not supplied; pass jacobians={'drifts': (db_du, ...)} "
                "aligned with model.drifts")
    return sigma_p, forcing_p, drift_ps


# ----------------------------------------------------------------------
# tangent propagation


@dataclass(eq=False)
class TangentState:
    """First variation of a trajectory w.r.t. each noise coordinate.

    derivatives[r, j] holds the coefficient tensor of
    D_{t_r, j} u(t0, .) / sqrt(dt) (the density of the Malliavin derivative
    against the step quadrature), for the thinned step indices r_indices.
    Rows with t_r >= t0 stay exactly zero (adaptedness).  MAX_TANGENT_BYTES
    caps the bytes of derivatives, the one stored array of that size; the
    factor columns that seed each row, and their grid values under a
    callable sigma, are cached, one row's worth each.
    The trajectory, model, config and backend it was propagated from are
    kept by reference, so any row of the leads (the same tangents carried
    by the scheme's linear part alone, solver._linear_propagate) is
    rebuilt on demand by lead_rows; derivatives - leads is the nonlinear
    remainder entering the lower-bound term I4.
    """

    basis: Basis
    r_indices: np.ndarray
    r_times: np.ndarray
    derivatives: np.ndarray
    t0: float
    dt: float
    thin: int
    trajectory: Trajectory
    model: ModelSpec
    config: SolverConfig
    backend: NoiseBackend

    @property
    def n_directions(self):
        return self.derivatives.shape[1]

    @cached_property
    def _seeds(self):
        """(factor columns, their grid values or None, read-only grid,
        noise_w): what every row's initial value is built from."""
        cols = _direction_matrix(self.backend)
        grid = self.basis.grid()
        grid.flags.writeable = False
        col_vals = None
        if self.model.constant_sigma is None:
            col_vals = self.basis.inverse_transform(cols)
        _, noise_w = _scheme_update(self.basis, self.dt, self.config.scheme)
        return cols, col_vals, grid, noise_w

    def _row_init(self, m, u_vals=None, out=None):
        """Initial value of the tangents started at step m: sigma(u_m)
        Q^{1/2} e_j times the noise scale, for every direction j.  u_vals
        are the grid values of u_m when the caller has them."""
        cols, col_vals, grid, noise_w = self._seeds
        sigma0 = self.model.constant_sigma
        if sigma0 is not None:
            init = np.multiply(sigma0, cols, out=out)
        else:
            if u_vals is None:
                u_vals = self.basis.inverse_transform(
                    self.trajectory.coeffs[m])
            init = self.basis.transform(_coefficient_on_grid(
                self.model.sigma, self.trajectory.times[m], grid, u_vals)
                * col_vals)
        return np.multiply(init, noise_w, out=init if out is None else out)

    def lead_rows(self, rows, out=None) -> np.ndarray:
        """The leads of derivatives[rows] (rows a slice or index array),
        rebuilt from the rows' initial values, zero where t_r >= t0.  Each
        row's bits are the same whichever rows are asked for together.
        Written to out when given, which must have the shape of
        derivatives[rows]."""
        rows = np.arange(len(self.r_indices))[rows]
        if out is None:
            out = np.empty((len(rows),) + self.derivatives.shape[1:])
        times = self.trajectory.times
        _, _, n_to = _trajectory_clock(self.trajectory, self.t0)
        for a, row in enumerate(rows):
            m = int(self.r_indices[row])
            if m < n_to:
                self._row_init(m, out=out[a])
                _linear_propagate(self.basis, self.dt, self.config.scheme,
                                  out[a], self.t0 - times[m + 1], out=out[a])
            else:
                out[a] = 0.0
        return out

    @property
    def leads(self) -> np.ndarray:
        """Every lead row, rebuilt: a new array the size of derivatives."""
        return self.lead_rows(slice(None))


def _trajectory_clock(traj: Trajectory, t0):
    """(dt, t0, index of t0) of a uniformly recorded trajectory, t0 being
    its last recorded time when None."""
    times = traj.times
    if len(times) < 2:
        raise ValueError("trajectory is empty")
    dt = float(times[1] - times[0])
    if not np.allclose(np.diff(times), dt, rtol=0, atol=1e-9):
        raise ValueError("the trajectory must be recorded at uniform steps")
    if t0 is None:
        t0 = float(times[-1])
    n_to = int(np.argmin(np.abs(times - t0)))
    if abs(times[n_to] - t0) > 1e-9 * max(1.0, abs(t0)):
        raise ValueError(f"time {t0} was not recorded on the trajectory")
    return dt, t0, n_to


def tangent_propagate(traj: Trajectory, model: ModelSpec, config: SolverConfig,
                      basis: Basis, backend: NoiseBackend, t0: float = None,
                      thin: int = 1, jacobians=None) -> TangentState:
    """Propagate all noise tangents of a stored trajectory up to t0.

    The tangent started at step r in direction j is initialized with the
    projected amplitude-weighted factor column sigma(u_r) Q^{1/2} e_j
    (times the variance-exact noise scale of the scheme) and then advanced
    by the scheme linearized along the stored path: the cutoff weight of
    each step is reused as recorded.  The multiplicative term needs the
    increment of each step; it is redrawn from the backend's (step, path)
    stream, which reproduces the increment simulate() used bit for bit.
    thin > 1 keeps every thin-th step only; the matrix quadrature
    reweights accordingly.

    Each step advances the stacked tangent fields in slices of about
    TANGENT_SLICE_BYTES of refined-grid values, written back in place.
    Raises ValueError before allocating when the derivatives would exceed
    MAX_TANGENT_BYTES; the leads are not stored (TangentState.lead_rows).

    Requires a trajectory recorded at every step (store_every == 1), by
    the scheme and step size of config, that neither exploded nor crossed
    its cutoff level before t0.
    """
    _check_problem(model, basis, backend=backend, needs_backend=True)
    if thin < 1 or int(thin) != thin:
        raise ValueError(f"thin must be a positive integer, got {thin}")
    thin = int(thin)
    if len(traj.times) != len(traj.weights) + 1:
        raise ValueError("tangent propagation needs every step recorded; "
                         "rerun with store_every=1")
    if traj.exploded:
        raise ValueError("trajectory exploded; tangents are undefined")

    dt = config.dt
    traj_dt, t0, n_to = _trajectory_clock(traj, t0)
    if abs(traj_dt - dt) > 1e-12 or traj.scheme != config.scheme:
        raise ValueError(
            f"config (scheme {config.scheme!r}, dt={dt}) does not match the "
            f"trajectory (scheme {traj.scheme!r}, dt={traj_dt})")
    if n_to < 1:
        raise ValueError("t0 must be at least one step into the trajectory")
    if traj.stop_time is not None and traj.stop_time < t0 - 1e-12:
        raise ValueError(
            f"trajectory reached its cutoff at t={traj.stop_time}, before "
            f"t0={t0}; the tangent equation is only valid up to the crossing")

    sigma_p, forcing_p, drift_ps = _model_derivatives(model, jacobians)
    sigma0 = model.constant_sigma

    n_total = len(traj.times) - 1
    r_indices = np.arange(0, n_total, thin)
    r_times = traj.times[r_indices]
    n_dir = backend.n_directions
    nbytes = len(r_indices) * n_dir * basis.n_modes * 8
    if nbytes > MAX_TANGENT_BYTES:
        raise ValueError(
            f"tangent derivatives need {nbytes} bytes ({len(r_indices)} steps "
            f"x {n_dir} directions x {basis.n_modes} modes), above the cap of "
            f"{MAX_TANGENT_BYTES} bytes; raise thin to keep fewer steps")

    D = np.zeros((len(r_indices),) + (n_dir,) + basis.shape)
    state = TangentState(basis=basis, r_indices=r_indices, r_times=r_times,
                         derivatives=D, t0=float(t0), dt=dt, thin=thin,
                         trajectory=traj, model=model, config=config,
                         backend=backend)
    update, _ = _scheme_update(basis, dt, config.scheme)
    _, _, grid, noise_w = state._seeds
    refined = (2 * basis.modes_per_axis) ** basis.dim
    per_slice = max(1, TANGENT_SLICE_BYTES // (8 * refined))

    row_of = {int(r): i for i, r in enumerate(r_indices)}
    active_rows = 0

    for m in range(n_to):
        t = traj.times[m]
        u_m = traj.coeffs[m]
        K_m = float(traj.weights[m])

        u_vals = None
        if forcing_p is not None or sigma0 is None:
            u_vals = basis.inverse_transform(u_m)
            u_vals.flags.writeable = False

        if active_rows:
            # per-step factors of the linearization, shared by every slice
            u_ref = reaction_ref = g_vals = sp_vals = dW_vals = None
            if model.reaction is not None or drift_ps:
                u_ref = basis.values_on_refined_grid(u_m)
                u_ref.flags.writeable = False
            if model.reaction is not None:
                reaction_ref = _reaction_derivative(model.reaction, u_ref)
            if forcing_p is not None:
                g_vals = _coefficient_on_grid(forcing_p, t, grid, u_vals)
                if not g_vals.any():
                    g_vals = None   # its term would only add signed zeros
            drift_refs = [bp(u_ref) for bp in drift_ps]
            if sigma_p is not None:
                sp_vals = _coefficient_on_grid(sigma_p, t, grid, u_vals)
                dW_vals = basis.inverse_transform(backend.sample_coefficients(
                    dt, step=m, path=traj.path))

            fields = D[:active_rows].reshape((-1,) + basis.shape)
            for lo in range(0, len(fields), per_slice):
                block = fields[lo:lo + per_slice]
                reaction = forcing = None
                if u_ref is not None:
                    T_ref = basis.values_on_refined_grid(block)
                if g_vals is not None or sp_vals is not None:
                    T_vals = basis.inverse_transform(block)
                if reaction_ref is not None:
                    # in place on T_ref unless a drift term still reads it
                    reaction = np.multiply(T_ref, reaction_ref,
                                           out=None if drift_refs else T_ref)
                if g_vals is not None:
                    forcing = g_vals * T_vals
                drifts = ((orders, b_ref * T_ref) for (orders, _), b_ref
                          in zip(model.drifts, drift_refs))
                update(block, _drift(basis, K_m, reaction, forcing, drifts),
                       out=block)
                if sp_vals is not None:
                    T_vals *= sp_vals
                    T_vals *= dW_vals
                    term = basis.transform(T_vals)
                    term *= noise_w
                    block += term

        row = row_of.get(m)
        if row is not None:
            state._row_init(m, u_vals, out=D[row])
            active_rows = row + 1

    return state


# ----------------------------------------------------------------------
# Malliavin matrix


@dataclass(eq=False)
class MalliavinMatrix:
    """Gram matrix of the tangents at the evaluation points."""

    gamma: np.ndarray
    points: np.ndarray
    t0: float
    thin: int

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.gamma)

    def min_eigenvalue(self) -> float:
        return float(self.eigenvalues()[0])


def malliavin_matrix(tangent: TangentState, points) -> MalliavinMatrix:
    """Accumulate Gamma(i,j) = sum_{r,j'} dt D_{r,j'}u(t0,x_i) D_{r,j'}u(t0,x_j).

    Each unordered point pair is reduced once and mirrored, so the matrix
    is symmetric to the bit.  Thinned tangents weight the quadrature by
    thin * dt per retained step.
    """
    basis = tangent.basis
    pts = _check_points(basis, points)
    V = _evaluate_at_points(basis, tangent.derivatives, pts)
    flat = V.reshape(-1, len(pts))
    w = tangent.thin * tangent.dt
    gamma = np.empty((len(pts), len(pts)))
    for i in range(len(pts)):
        for j in range(i, len(pts)):
            val = w * sum(float(flat[lo:lo + DOT_ROWS, i]
                                @ flat[lo:lo + DOT_ROWS, j])
                          for lo in range(0, len(flat), DOT_ROWS))
            gamma[i, j] = val
            gamma[j, i] = val
    return MalliavinMatrix(gamma=gamma, points=pts, t0=tangent.t0,
                           thin=tangent.thin)


def thinning_check(traj, model, config, basis, backend, points, t0=None,
                   thin: int = 2, jacobians=None) -> dict:
    """Compare the matrix at step thinning `thin` against `2 * thin`.

    Returns both matrices and their maximal relative deviation; a small
    value justifies the cheaper quadrature.
    """
    base = tangent_propagate(traj, model, config, basis, backend, t0=t0,
                             thin=thin, jacobians=jacobians)
    double = tangent_propagate(traj, model, config, basis, backend, t0=t0,
                               thin=2 * thin, jacobians=jacobians)
    G1 = malliavin_matrix(base, points).gamma
    G2 = malliavin_matrix(double, points).gamma
    scale = max(float(np.abs(G1).max()), 1e-300)
    return {"thin": thin, "gamma": G1, "gamma_doubled": G2,
            "relative_difference": float(np.abs(G1 - G2).max() / scale)}


# ----------------------------------------------------------------------
# lower-bound decomposition


@dataclass(eq=False)
class DecompositionTerms:
    """The four pieces of the quadratic-form lower bound on [t0-tau, t0].

    i1 : leading kernel mass sum_i v_i^2 int ||G sigma(u(r,x_i))||_H^2
    i2 : cross-point mass sum_{i != j} v_i v_j int <G_i sigma_i, G_j sigma_j>_H
    i3 : per-point amplitude-increment mass (zero for constant sigma)
    i4 : per-point nonlinear remainder in the tangent (None without one)
    lower_bound : i1/4 + i2/4 - (l/2) sum v_i^2 i3 - l sum v_i^2 i4
    """

    i1: float
    i2: float
    i3: np.ndarray
    i4: np.ndarray
    lower_bound: float
    tau: float
    t0: float
    v: np.ndarray
    c2: float
    margin: float


def decomposition_terms(traj: Trajectory, model: ModelSpec, basis: Basis,
                        gram, points, tau: float, v=None, t0: float = None,
                        tangent: TangentState = None,
                        c2: float = C2_MARGIN) -> DecompositionTerms:
    """Evaluate I1..I4 of the short-window lower bound for <Gamma v, v>.

    The kernel rows are the noise scale carried by the linear propagator
    of the scheme that produced traj, so for a linear model with constant
    amplitude i1 + i2 reproduces the window part of <Gamma v, v> under
    either scheme, when gram is the backend's sampled_gram (the covariance
    that drove the path and its tangent).  Preconditions: tau in
    (0, t0/2], every point at distance >= 2 c2 tau^{1/4} from the boundary
    (the interior margin the bound needs), and a tangent, when given,
    propagated along traj: the same path, scheme, recorded times and
    states.
    """
    _check_problem(model, basis)
    pts = _check_points(basis, points)
    l = len(pts)
    if tangent is not None:
        own = tangent.trajectory
        if own is not traj and (
                own.path != traj.path or own.scheme != traj.scheme
                or not np.array_equal(own.times, traj.times)
                or not np.array_equal(own.coeffs, traj.coeffs)):
            raise ValueError(
                f"tangent was propagated along another trajectory (path "
                f"{own.path}, scheme {own.scheme!r}, {len(own.times)} times) "
                f"than traj (path {traj.path}, scheme {traj.scheme!r}, "
                f"{len(traj.times)} times)")
        if t0 is not None and abs(t0 - tangent.t0) > 1e-12:
            raise ValueError(f"t0={t0} disagrees with tangent.t0={tangent.t0}")
        t0 = tangent.t0
    dt, t0, n_to = _trajectory_clock(traj, t0)
    times = traj.times

    if not 0.0 < tau <= t0 / 2 + 1e-12:
        raise ValueError(f"tau must lie in (0, t0/2], got {tau} with t0={t0}")
    m0 = int(np.searchsorted(times, t0 - tau - 1e-12))
    if m0 >= n_to:
        raise ValueError(f"window [t0-tau, t0) contains no steps at dt={dt}")

    margin = float(np.minimum(pts, math.pi - pts).min())
    needed = 2.0 * c2 * tau ** 0.25
    if margin < needed:
        raise ValueError(
            f"interior margin {margin:.4g} is below 2 c2 tau^(1/4) = "
            f"{needed:.4g}; move the points inward or shrink tau")

    if v is None:
        v = np.full(l, 1.0 / math.sqrt(l))
    v = np.asarray(v, dtype=float)
    if v.shape != (l,):
        raise ValueError(f"v must have shape ({l},)")

    _, noise_w = _scheme_update(basis, dt, traj.scheme)
    steps = np.arange(m0, n_to)
    E = _linear_propagate(basis, dt, traj.scheme, noise_w, t0 - times[steps + 1])

    sigma0 = model.constant_sigma
    if sigma0 is not None:
        s_pts = np.full((len(steps), l), sigma0)
    else:
        u_at_pts = _evaluate_at_points(basis, traj.coeffs[steps], pts)
        s_pts = np.empty((len(steps), l))
        for a, m in enumerate(steps):
            for i in range(l):
                s_pts[a, i] = float(model.sigma(times[m], pts[i], u_at_pts[a, i]))

    e_vecs = [_mode_values_at(basis, p) for p in pts]
    rows = [E * e_vecs[i] for i in range(l)]

    I1_pts = np.empty(l)
    I2 = np.zeros((l, l))
    for i in range(l):
        masses = gram.bilinear_many(rows[i], rows[i])
        I1_pts[i] = dt * float(np.sum(s_pts[:, i] ** 2 * masses))
        for j in range(i + 1, l):
            cross = gram.bilinear_many(rows[i], rows[j])
            I2[i, j] = I2[j, i] = dt * float(
                np.sum(s_pts[:, i] * s_pts[:, j] * cross))

    i1 = float(np.sum(v**2 * I1_pts))
    i2 = float(v @ I2 @ v)

    i3 = np.zeros(l)
    if sigma0 is None:
        grid = basis.grid()
        grid.flags.writeable = False
        u_vals = basis.inverse_transform(traj.coeffs[steps])
        u_vals.flags.writeable = False
        for i in range(l):
            g_vals = basis.inverse_transform(rows[i])
            for a, m in enumerate(steps):
                diff = _coefficient_on_grid(model.sigma, times[m], grid,
                                            u_vals[a]) - s_pts[a, i]
                c = basis.transform(g_vals[a] * diff)
                i3[i] += dt * gram.bilinear(c, c)

    i4 = None
    lower = None
    if tangent is not None:
        # remainder D - leads of the window rows, formed slab by slab and
        # evaluated at the points; only the point values are kept
        D = tangent.derivatives
        first, stop = np.searchsorted(tangent.r_indices, (m0, n_to))
        per_slab = max(1, min(TANGENT_SLICE_BYTES // D[0].nbytes,
                              stop - first))
        slab = np.empty((per_slab,) + D.shape[1:])
        vals = np.empty((stop - first, tangent.n_directions, l))
        for lo in range(first, stop, per_slab):
            hi = min(lo + per_slab, stop)
            remainder = tangent.lead_rows(slice(lo, hi), out=slab[:hi - lo])
            np.subtract(D[lo:hi], remainder, out=remainder)
            vals[lo - first:hi - first] = _evaluate_at_points(basis, remainder,
                                                              pts)
        i4 = tangent.thin * tangent.dt * np.sum(vals**2, axis=(0, 1))
        lower = (i1 / 4.0 + i2 / 4.0 - (l / 2.0) * float(np.sum(v**2 * i3))
                 - l * float(np.sum(v**2 * i4)))

    return DecompositionTerms(i1=i1, i2=i2, i3=i3, i4=i4, lower_bound=lower,
                              tau=float(tau), t0=float(t0), v=v, c2=float(c2),
                              margin=margin)


# ----------------------------------------------------------------------
# density criterion


@dataclass(eq=False)
class DensityReport:
    """Verdict on absolute continuity of the point marginals."""

    verdict: str
    analytic_ok: bool
    exponent_primary: float
    exponent_cross: float
    b_effective: float
    nu: float
    min_eigenvalues: np.ndarray
    positive_fraction: float
    smallest_eigenvalue: float
    sigma_floor: float
    notes: tuple


def _effective_origin_power(f: CovarianceSpec) -> float:
    """Exponent B with small-ball mass I(rho) ~ rho^{4-B} (log factors aside)."""
    if f.kind == CovarianceSpec.WHITE:
        return float(f.dim)
    return float(f.fitted_origin_power())


def density_criterion(gammas, f: CovarianceSpec, nu: float,
                      sigma_floor: float = None) -> DensityReport:
    """Combine the empirical spectral floor with the analytic limit check.

    The limit condition requires I(c tau^{1/4+nu})^{-1} [tau + tau^{1/2}
    I(c tau^{1/4-nu})] -> 0; with I(rho) ~ rho^{4-B} this reduces to the
    two exponent inequalities (1/4 + nu)(4 - B) < 1 and 2 nu (4 - B) < 1/2
    (logarithmic corrections do not change either verdict).  The empirical
    side reports the fraction of supplied matrices whose smallest
    eigenvalue is strictly positive; all-degenerate input (for instance a
    model with sigma = 0) yields the verdict "degenerate".
    """
    if not 0.0 < nu < 0.25:
        raise ValueError(f"nu must lie in (0, 1/4), got {nu}")
    if sigma_floor is not None and sigma_floor <= 0:
        raise ValueError("sigma_floor must be positive when given")

    if isinstance(gammas, MalliavinMatrix) or (
            isinstance(gammas, np.ndarray) and gammas.ndim == 2):
        gammas = [gammas]
    mats = [g.gamma if isinstance(g, MalliavinMatrix) else np.asarray(g, dtype=float)
            for g in gammas]
    if not mats:
        raise ValueError("need at least one Malliavin matrix")

    min_eigs = np.array([float(np.linalg.eigvalsh(G)[0]) for G in mats])
    scales = np.array([max(1.0, float(np.abs(G).max())) for G in mats])
    positive = min_eigs > 1e-12 * scales
    positive_fraction = float(np.mean(positive))

    B = _effective_origin_power(f)
    notes = []
    if f.kind == CovarianceSpec.WHITE:
        notes.append("white noise treated through its effective origin "
                     f"power B = d = {f.dim}")
    exponent_primary = (0.25 + nu) * (4.0 - B)
    exponent_cross = 2.0 * nu * (4.0 - B)
    analytic_ok = (4.0 - B > 0.0 and exponent_primary < 1.0
                   and exponent_cross < 0.5)
    if 4.0 - B <= 0.0:
        notes.append("small-ball integral diverges (B >= 4); no admissible "
                     "window exists")
    elif f.has_density:
        # reference value documents the closed form actually used
        notes.append(f"I(0.1) = {small_ball_integral(f, 0.1):.6g}")
    if sigma_floor is not None:
        notes.append(f"uniform ellipticity floor sigma >= {sigma_floor} assumed")

    if not np.any(positive):
        verdict = DEGENERATE
    elif analytic_ok and positive_fraction == 1.0:
        verdict = ABSOLUTELY_CONTINUOUS
    else:
        verdict = INCONCLUSIVE

    return DensityReport(verdict=verdict, analytic_ok=analytic_ok,
                         exponent_primary=float(exponent_primary),
                         exponent_cross=float(exponent_cross),
                         b_effective=B, nu=float(nu),
                         min_eigenvalues=min_eigs,
                         positive_fraction=positive_fraction,
                         smallest_eigenvalue=float(min_eigs.min()),
                         sigma_floor=sigma_floor, notes=tuple(notes))
