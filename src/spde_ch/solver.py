"""Time stepping for the semilinear biharmonic SPDE on [0, pi]^d.

Integrates

    du/dt + Laplace^2 u = K_n(||u||_q) [Laplace R(u) + g] + sum_i D^{k_i} b_i(u)
                          + sigma(t, x, u) dF/dt

in spectral coefficient space.  The linear part is propagated exactly by
``exp(-lambda_k^2 dt)``; the nonlinearity enters through the phi_1 weight
``(1 - exp(-z))/z`` and pointwise products are dealiased on a refined grid.
The noise increment for mode k is scaled so that a linear additive run
reproduces the Ornstein-Uhlenbeck variance ``q_k (1-exp(-2 lambda_k^2 t)) /
(2 lambda_k^2)`` exactly at any step size.

``truncation_weight`` implements the smooth cutoff K_n used to tame the
cubic reaction; trajectories record the first time ||u||_q reaches the
cutoff level.  ``picard_solve`` re-runs the forward map against a frozen
iterate (with the identical noise realization) and tracks the contraction
increments.  ``deterministic_convolution`` evaluates space-time convolutions
with the biharmonic Green function and its derivatives, and
``convolution_bound_check`` fits the constant in the corresponding
L^q -> L^rho smoothing estimate.
"""

import math
from dataclasses import dataclass

import numpy as np

from .basis import NEUMANN, DIRICHLET, Basis
from .covariance import ADMISSIBLE, BORDERLINE, CovarianceSpec, stochastic_integrability
from .greens import KernelExponents
from .noise import NoiseBackend

EXPONENTIAL_EULER = "exponential-euler"
SEMI_IMPLICIT = "semi-implicit"
SCHEMES = (EXPONENTIAL_EULER, SEMI_IMPLICIT)

#: L^q level beyond which a state counts as blown up even if still finite.
BLOWUP_THRESHOLD = 1e12

#: float64 entries per slab of the free-energy potential (1 MiB)
_POTENTIAL_SLAB = 2**17


class BlowUpError(RuntimeError):
    """Raised when a state handed to step() is already non-finite."""

    def __init__(self, message, time=None):
        super().__init__(message)
        self.time = time


def truncation_weight(r, n):
    """Smooth cutoff K_n: 1 on [0, n], 0 on [n+1, inf), cubic in between.

    On the transition interval the weight is the Hermite blend
    1 - 3 s^2 + 2 s^3 with s = r - n, which matches value and slope at
    both ends.  Accepts array input.
    """
    if n < 1:
        raise ValueError(f"cutoff level must be >= 1, got {n}")
    if isinstance(r, (int, float)) and r <= n:
        return 1.0
    r = np.asarray(r, dtype=float)
    s = np.clip(r - n, 0.0, 1.0)
    out = 1.0 - 3.0 * s**2 + 2.0 * s**3
    if out.ndim == 0:
        return float(out)
    return out


def model_violations(bc: str, dim: int, reaction, drift_orders) -> list:
    """(hypothesis id, detail) of each violated model hypothesis, in order.

    The hypotheses: four reaction coefficients, a positive leading
    coefficient r3, R(0) = 0 under Dirichlet conditions, and even
    non-negative drift derivative orders, one per axis.  A reaction of
    the wrong length skips the rules that read its coefficients.
    """
    out = []
    if reaction is not None and len(reaction) != 4:
        out.append(("reaction-coefficients",
                    f"reaction takes four coefficients (r3, r2, r1, r0), "
                    f"got {len(reaction)}"))
    elif reaction is not None:
        if float(reaction[0]) <= 0:
            out.append(("reaction-leading-coefficient",
                        f"leading reaction coefficient r3 must be positive, "
                        f"got {reaction[0]}"))
        if bc == DIRICHLET and float(reaction[3]) != 0.0:
            out.append(("reaction-zero-at-origin",
                        f"Dirichlet models need R(0) = r0 = 0, got {reaction[3]}"))
    for orders in drift_orders:
        if len(orders) != dim or any(a < 0 or a % 2 for a in orders):
            out.append(("drift-even-derivative-orders",
                        f"drift derivative orders {orders} must be even, >= 0, "
                        f"one per axis of {dim}"))
    return out


@dataclass
class ModelSpec:
    """Coefficients and boundary condition of one semilinear model.

    reaction : (r3, r2, r1, r0) or None
        Cubic R(u) = r3 u^3 + r2 u^2 + r1 u + r0 entering through Laplace R.
        The classical double-well choice is (1, 0, -1, 0).
    sigma : float, callable or None
        Noise amplitude.  A float multiplies the increments directly; a
        callable sigma(t, x, u) is evaluated pointwise on the grid at the
        left endpoint of each step.  None or 0 turns the noise off.
    forcing : callable or None
        g(t, x, u), evaluated pointwise on the grid; shares the truncation
        weight with the reaction term.
    drifts : sequence of (orders, fn)
        Extra terms D^{orders} b(u) with even per-axis derivative orders
        and fn applied pointwise (dealiased).
    lipschitz_only : bool
        Declares that every state-dependent coefficient is globally
        Lipschitz; incompatible with a cubic reaction.
    """

    bc: str = NEUMANN
    reaction: tuple = None
    sigma: object = None
    forcing: object = None
    drifts: tuple = ()
    lipschitz_only: bool = False

    def validate(self, dim: int):
        if self.bc not in (NEUMANN, DIRICHLET):
            raise ValueError(f"unknown boundary condition {self.bc!r}")
        if self.reaction is not None and len(self.reaction) != 4:
            raise ValueError("reaction takes four coefficients (r3, r2, r1, r0)")
        drift_orders = [tuple(int(a) for a in np.atleast_1d(orders))
                        for orders, _ in self.drifts]
        violations = model_violations(self.bc, dim, self.reaction, drift_orders)
        if violations:
            raise ValueError(violations[0][1])
        if self.reaction is not None and self.lipschitz_only:
            raise ValueError("a cubic reaction is not globally Lipschitz")
        if not all(callable(fn) for _, fn in self.drifts):
            raise ValueError("drift coefficient must be callable")
        if self.forcing is not None and not callable(self.forcing):
            raise ValueError("forcing must be callable")
        if self.sigma is not None and not (
                isinstance(self.sigma, (int, float, np.integer, np.floating))
                or callable(self.sigma)):
            raise ValueError("sigma must be a numeric scalar or callable")

    @property
    def has_noise(self):
        if self.sigma is None:
            return False
        if np.isscalar(self.sigma):
            return float(self.sigma) != 0.0
        return True


@dataclass
class SolverConfig:
    """Step size, horizon and scheme options for simulate()."""

    dt: float
    t_final: float
    scheme: str = EXPONENTIAL_EULER
    truncation: float = None  # cutoff level n; None disables the taming
    q: float = 2.0            # L^q norm used for cutoff and stopping
    store_every: int = 1

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.t_final < self.dt:
            raise ValueError("t_final must be at least one step")
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        if self.truncation is not None and self.truncation < 1:
            raise ValueError("truncation level must be >= 1")
        if self.q < 1:
            raise ValueError(f"q must be >= 1, got {self.q}")
        if self.store_every < 1:
            raise ValueError("store_every must be >= 1")
        n = round(self.t_final / self.dt)
        if n < 1 or abs(n * self.dt - self.t_final) > 1e-9 * max(self.t_final, 1.0):
            raise ValueError("t_final must be an integer multiple of dt")
        self.n_steps = int(n)


@dataclass(eq=False)
class Trajectory:
    """Recorded output of one simulate() run (coefficient space).

    The noise increments are not stored: the stream is counter-based, so
    backend.sample_coefficients(dt, step=m, path=path) redraws the
    increment of step m bit for bit.
    """

    times: np.ndarray
    coeffs: np.ndarray
    norms: np.ndarray
    weights: np.ndarray           # K_n value used at each completed step
    stop_time: float = None       # first time ||u||_q reached the cutoff
    exploded: bool = False
    path: int = 0

    @property
    def final(self):
        return self.coeffs[-1]

    def state_at(self, t):
        """Recorded coefficients at time t (must match a stored instant)."""
        idx = int(np.argmin(np.abs(self.times - t)))
        if abs(self.times[idx] - t) > 1e-9:
            raise ValueError(f"time {t} was not recorded")
        return self.coeffs[idx]


def _propagators(basis: Basis, dt: float):
    """Per-mode weights of one step: decay, phi_1(-lambda^2 dt), noise scale."""
    z = basis.biharmonic_eigenvalues * dt
    decay = np.exp(-z)
    with np.errstate(divide="ignore", invalid="ignore"):
        phi1 = np.where(z > 0, -np.expm1(-z) / np.where(z > 0, z, 1.0), 1.0)
        noise_w = np.where(z > 0, np.sqrt(-np.expm1(-2 * z) / np.where(z > 0, 2 * z, 1.0)), 1.0)
    return decay, phi1, noise_w


def _scheme_update(basis: Basis, dt: float, scheme: str = EXPONENTIAL_EULER):
    """The scheme's update (u, drift, out=None) -> next state before noise,
    and noise_w.

    This is the one place where either scheme is written.  The update
    also acts on stacked states (..., M..M).  Without out it returns a new
    array; with out it writes the state there and returns out, which may
    be u itself (u is read before out is written).  drift is only read, so
    a caller may pass an array it reuses.
    """
    decay, phi1, noise_w = _propagators(basis, dt)
    if scheme == EXPONENTIAL_EULER:
        dt_phi1 = dt * phi1     # dt * phi1 * drift evaluates as (dt * phi1) * drift

        def update(u, drift, out=None):
            out = np.multiply(decay, u, out=out)
            out += dt_phi1 * drift
            return out
    else:
        denominator = 1.0 + basis.biharmonic_eigenvalues * dt

        def update(u, drift, out=None):
            out = np.add(u, dt * drift, out=out)
            out /= denominator
            return out
    return update, noise_w


def _reaction_fn(coeffs_tuple):
    r3, r2, r1, r0 = coeffs_tuple

    def R(u):
        # ((r3 u + r2) u + r1) u + r0, in place on one new array
        out = r3 * u
        out += r2
        out *= u
        out += r1
        out *= u
        out += r0
        return out

    return R


def _nonlinearity(model: ModelSpec, basis: Basis, t: float, coeffs: np.ndarray,
                  grid_values: np.ndarray, q: float, truncation, grid):
    """Spectral coefficients of the drift, and the cutoff weight applied."""
    norm = basis.lq_norm(grid_values, q)
    weight = 1.0
    if truncation is not None:
        weight = truncation_weight(norm, truncation)

    tamed = np.zeros(coeffs.shape)
    if model.reaction is not None:
        r_hat = basis.dealiased_apply(_reaction_fn(model.reaction), coeffs)
        tamed += basis.laplacian(r_hat)
    if model.forcing is not None:
        g_vals = np.asarray(model.forcing(t, grid, grid_values), dtype=float)
        tamed += basis.transform(np.broadcast_to(g_vals, grid_values.shape))

    tamed *= weight
    for orders, fn in model.drifts:
        b_hat = basis.dealiased_apply(fn, coeffs)
        tamed += basis.derivative(b_hat, orders)
    return tamed, weight, norm


def _noise_term(model: ModelSpec, basis: Basis, t: float, grid_values: np.ndarray,
                increment: np.ndarray, grid):
    """Project sigma(t, x, u) dW onto the basis, given the raw increment."""
    if np.isscalar(model.sigma):
        return float(model.sigma) * increment
    sig_vals = np.asarray(model.sigma(t, grid, grid_values), dtype=float)
    dW_vals = basis.inverse_transform(increment)
    return basis.transform(np.broadcast_to(sig_vals, dW_vals.shape) * dW_vals)


def _stepper(model: ModelSpec, config: SolverConfig, basis: Basis):
    """One step (u, t, increment, frozen, out) -> (new u, cutoff weight, norm).

    The drift and the noise amplitude are evaluated at frozen, which is u
    itself except in the Picard iteration; norm is its ||.||_q.  The new
    state is written to out when given (out may be u), else to a new array.
    A callable forcing or sigma is evaluated on one read-only grid.
    """
    update, noise_w = _scheme_update(basis, config.dt, config.scheme)
    grid = None
    if model.forcing is not None or callable(model.sigma):
        grid = basis.grid()
        grid.flags.writeable = False

    def advance(u, t, increment=None, frozen=None, out=None):
        v = u if frozen is None else frozen
        v_grid = basis.inverse_transform(v)
        drift_hat, weight, norm = _nonlinearity(model, basis, t, v, v_grid,
                                                config.q, config.truncation, grid)
        new = update(u, drift_hat, out=out)
        if increment is not None:
            noise = _noise_term(model, basis, t, v_grid, increment, grid)
            noise *= noise_w
            new += noise
        return new, weight, norm

    return advance


def _check_problem(model: ModelSpec, basis: Basis, u0=None, backend=None,
                   needs_backend: bool = False) -> np.ndarray:
    """Shared entry check: the model's hypotheses in this dimension, matching
    boundary conditions and a backend where one is needed.  Returns u0 as a
    fresh float array of shape basis.shape (zeros when u0 is None)."""
    model.validate(basis.dim)
    if model.bc != basis.bc:
        raise ValueError(f"model bc {model.bc!r} does not match basis bc {basis.bc!r}")
    if needs_backend and backend is None:
        raise ValueError("no noise backend was supplied")
    if u0 is None:
        return np.zeros(basis.shape)
    u = np.array(u0, dtype=float, copy=True)
    if u.shape != basis.shape:
        raise ValueError(f"u0 has shape {u.shape}, expected {basis.shape}")
    return u


def step(coeffs, t, model: ModelSpec, config: SolverConfig, basis: Basis,
         increment=None):
    """Advance one step from time t; returns (new_coeffs, weight, norm).

    increment carries the raw noise coefficients (law N(0, dt Q)); pass
    None for a deterministic step.  The returned norm is ||u(t)||_q of the
    *incoming* state, which drives the cutoff weight.
    """
    coeffs = _check_problem(model, basis, coeffs)
    if not np.all(np.isfinite(coeffs)):
        raise BlowUpError(f"non-finite state entering step at t={t}", time=t)
    if not model.has_noise:
        increment = None
    return _stepper(model, config, basis)(coeffs, t, increment, out=coeffs)


def _gate_admissibility(covariance, basis, force):
    if covariance is None or force:
        return
    exponents = KernelExponents.biharmonic(basis.dim)
    report = stochastic_integrability(covariance, exponents)
    if report.verdict not in (ADMISSIBLE, BORDERLINE):
        raise ValueError(
            f"covariance is not admissible in dimension {basis.dim} "
            f"(margin {report.margin:.3g}); pass force=True to override")


def simulate(model: ModelSpec, config: SolverConfig, basis: Basis,
             backend: NoiseBackend = None, u0=None, path: int = 0,
             covariance: CovarianceSpec = None, force: bool = False) -> Trajectory:
    """Run one trajectory of the truncated (or raw) equation.

    The noise backend supplies one increment per step, keyed by (step,
    path) so that repeated calls are reproducible and paths are disjoint.
    When a covariance spec is supplied its admissibility in this dimension
    is checked first (force=True skips the gate).  Without truncation the
    run stops early if the state leaves [0, BLOWUP_THRESHOLD] in L^q or
    turns non-finite; with truncation the run continues past the cutoff
    crossing and only records it as stop_time.
    """
    u = _check_problem(model, basis, u0, backend, needs_backend=model.has_noise)
    _gate_admissibility(covariance, basis, force)

    advance = _stepper(model, config, basis)

    times = [0.0]
    states = [u.copy()]
    norms = [basis.lq_norm(basis.inverse_transform(u), config.q)]
    weights = []
    stop_time = None
    exploded = False

    for j in range(config.n_steps):
        inc = (backend.sample_coefficients(config.dt, step=j, path=path)
               if model.has_noise else None)
        u, weight, _ = advance(u, j * config.dt, inc, out=u)
        weights.append(weight)
        t_new = (j + 1) * config.dt

        finite = bool(np.isfinite(u).all())
        norm = basis.lq_norm(basis.inverse_transform(u), config.q) if finite else math.inf
        if (j + 1) % config.store_every == 0 or j + 1 == config.n_steps or not finite:
            times.append(t_new)
            states.append(u.copy())
            norms.append(norm)
        if not finite or norm > BLOWUP_THRESHOLD:
            exploded = True
            if stop_time is None:
                stop_time = t_new
            break
        if config.truncation is not None and stop_time is None and norm >= config.truncation:
            stop_time = t_new
        if config.truncation is None and stop_time is None and norm >= BLOWUP_THRESHOLD:
            stop_time = t_new

    return Trajectory(times=np.asarray(times), coeffs=np.asarray(states),
                      norms=np.asarray(norms), weights=np.asarray(weights),
                      stop_time=stop_time, exploded=exploded, path=path)


@dataclass(eq=False)
class PicardResult:
    """Fixed-point iteration record: final iterate plus contraction data."""

    trajectory: Trajectory
    deltas: np.ndarray
    converged: bool
    iterations: int


def picard_solve(model: ModelSpec, config: SolverConfig, basis: Basis,
                 backend: NoiseBackend = None, u0=None, path: int = 0,
                 tol: float = 1e-10, max_iter: int = 60) -> PicardResult:
    """Iterate the mild-solution map with a frozen nonlinearity.

    Every iterate integrates the linear part exactly while the reaction,
    drifts and noise amplitude are evaluated along the previous iterate;
    the Gaussian increments are drawn once and shared by all iterations.
    delta_m is the sup-in-time L^q distance between consecutive iterates.
    Five consecutive increases of delta_m abort with a RuntimeError, since
    the map is then not contracting on this horizon.
    """
    u0 = _check_problem(model, basis, u0, backend, needs_backend=model.has_noise)

    n_steps = config.n_steps
    incs = [backend.sample_coefficients(config.dt, step=j, path=path)
            if model.has_noise else None for j in range(n_steps)]
    advance = _stepper(model, config, basis)

    frozen = np.broadcast_to(u0, (n_steps + 1,) + basis.shape).copy()
    deltas = []
    converged = False
    rising = 0
    iterations = 0
    current = frozen
    weights_last = np.ones(n_steps)

    for m in range(max_iter):
        iterations = m + 1
        new = np.empty_like(frozen)
        new[0] = u0
        for j in range(n_steps):
            _, weights_last[j], _ = advance(new[j], j * config.dt, incs[j],
                                            frozen=frozen[j], out=new[j + 1])
        diff = 0.0
        for j in range(n_steps + 1):
            d = basis.lq_norm(basis.inverse_transform(new[j] - frozen[j]), config.q)
            diff = max(diff, d)
        deltas.append(diff)
        frozen = new
        current = new
        if diff <= tol:
            converged = True
            break
        if len(deltas) >= 2 and deltas[-1] > deltas[-2]:
            rising += 1
            if rising >= 5:
                raise RuntimeError(
                    "Picard iteration is not contracting on this horizon "
                    f"(last increments {deltas[-5:]}); shorten t_final")
        else:
            rising = 0

    times = np.arange(n_steps + 1) * config.dt
    norms = np.array([basis.lq_norm(basis.inverse_transform(current[j]), config.q)
                      for j in range(n_steps + 1)])
    traj = Trajectory(times=times, coeffs=np.asarray(current), norms=norms,
                      weights=weights_last.copy(),
                      stop_time=None, exploded=False, path=path)
    return PicardResult(trajectory=traj, deltas=np.asarray(deltas),
                        converged=converged, iterations=iterations)


def _kernel_order(kernel, dim):
    """Total derivative order |a| and the per-axis orders of a kernel tag."""
    if kernel == "G":
        return 0, None
    if kernel == "laplacian-G":
        return 2, "laplacian"
    orders = tuple(int(a) for a in np.atleast_1d(kernel))
    if len(orders) != dim:
        raise ValueError(f"kernel derivative orders must have {dim} entries")
    if any(a < 0 or a % 2 for a in orders):
        raise ValueError(f"kernel derivative orders must be even, got {orders}")
    return sum(orders), orders


def deterministic_convolution(basis: Basis, v, kernel="G", t0=0.0, t=1.0,
                              n_steps: int = 64):
    """Coefficients of int_{t0}^t int G_a(t, x; s, y) v(s, y) dy ds.

    kernel selects G itself, its Laplacian, or an even mixed derivative
    (per-axis orders).  v is either a grid field (held constant in s) or a
    callable s -> grid field sampled at the left endpoint of each of
    n_steps substeps; the semigroup factor is integrated exactly on each
    substep, so time-constant v incurs no quadrature error at all.
    """
    if t <= t0:
        raise ValueError(f"need t > t0, got t0={t0}, t={t}")
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    _, orders = _kernel_order(kernel, basis.dim)

    ds = (t - t0) / n_steps
    update, _ = _scheme_update(basis, ds)

    if not callable(v):
        v_hat = basis.transform(np.asarray(v, dtype=float))
        v_of = None
    else:
        v_of = v
        v_hat = None

    out = np.zeros(basis.shape)
    for m in range(n_steps):
        s = t0 + m * ds
        hat = basis.transform(np.asarray(v_of(s), dtype=float)) if v_of else v_hat
        if orders == "laplacian":
            hat = basis.laplacian(hat)
        elif orders is not None:
            hat = basis.derivative(hat, orders)
        update(out, hat, out=out)
    return out


@dataclass
class ConvolutionBoundReport:
    """Fitted constant of ||J v(t)||_q <= C int (t-s)^{-eta} ||v(s)||_rho ds."""

    q: float
    rho: float
    r: float
    eta: float
    c_fit: float
    ratios: np.ndarray
    violations: int = 0


def convolution_bound_check(basis: Basis, exponents: KernelExponents, kernel="G",
                            q=math.inf, rho=math.inf, t0=0.0, t=0.5,
                            n_samples: int = 12, seed: int = 0,
                            n_steps: int = 64, c_ref: float = None) -> ConvolutionBoundReport:
    """Probe the smoothing estimate for the Green kernel on random fields.

    The exponent pairing must satisfy 1/r = 1/q - 1/rho + 1 in (0, 1]
    (i.e. rho <= q), and the resulting singularity (t-s)^{-eta} with
    eta = alpha + |a| delta - gamma d / (beta r) must be integrable.  The
    ensemble always contains the constant field; the rest are random
    spectrally decaying fields, constant in time so the right-hand side
    integral is exact.  c_fit is the largest observed ratio; violations
    counts ratios above c_ref when given.
    """
    inv_q = 0.0 if math.isinf(q) else 1.0 / q
    inv_rho = 0.0 if math.isinf(rho) else 1.0 / rho
    if q < 1 or rho < 1:
        raise ValueError("q and rho must be >= 1")
    inv_r = inv_q - inv_rho + 1.0
    if not (0.0 < inv_r <= 1.0):
        raise ValueError(
            f"incompatible pairing q={q}, rho={rho}: 1/r = {inv_r:.3g} outside (0, 1]")
    r = 1.0 / inv_r
    total_order, _ = _kernel_order(kernel, basis.dim)
    eta = (exponents.alpha + total_order * exponents.delta
           - exponents.gamma * basis.dim / (exponents.beta * r))
    if eta >= 1.0:
        raise ValueError(f"kernel singularity (t-s)^-{eta:.3g} is not integrable")

    rng = np.random.default_rng(seed)
    fields = []
    if basis.bc == NEUMANN:
        const = np.ones(basis.shape)
    else:
        # lowest mode instead of a constant, which is outside the Dirichlet span
        c0 = np.zeros(basis.shape)
        c0[(0,) * basis.dim] = 1.0
        const = basis.inverse_transform(c0)
    fields.append(const)
    for _ in range(max(0, n_samples - 1)):
        coeffs = rng.standard_normal(basis.shape) / (1.0 + basis.laplace_eigenvalues)
        fields.append(basis.inverse_transform(coeffs))

    span = t - t0
    ratios = []
    for vals in fields:
        J = deterministic_convolution(basis, vals, kernel=kernel, t0=t0, t=t,
                                      n_steps=n_steps)
        lhs = basis.lq_norm(basis.inverse_transform(J), q)
        v_rho = basis.lq_norm(vals, rho)
        rhs = v_rho * span ** (1.0 - eta) / (1.0 - eta)
        ratios.append(lhs / rhs if rhs > 0 else 0.0)
    ratios = np.asarray(ratios)
    violations = int(np.sum(ratios > c_ref)) if c_ref is not None else 0
    return ConvolutionBoundReport(q=q, rho=rho, r=r, eta=eta,
                                  c_fit=float(ratios.max()), ratios=ratios,
                                  violations=violations)


def energy_diagnostics(traj: Trajectory, basis: Basis, model: ModelSpec = None):
    """Spectral energy series along a trajectory.

    Returns a dict with the squared L^2 norm, the running biharmonic
    dissipation integral int_0^t ||Laplace u||_2^2 ds (trapezoid in time),
    and for Neumann runs the squared mean mode and the H^-1 norm of the
    zero-mean part.  With a reaction model the discrete free energy
    int (|grad u|^2 / 2 + W(u)) dx is added, W being the antiderivative
    of R; on a deterministic run this series should not increase.
    """
    coeffs = np.asarray(traj.coeffs, dtype=float)
    times = np.asarray(traj.times, dtype=float)
    flat = coeffs.reshape(coeffs.shape[0], -1)
    lam = basis.laplace_eigenvalues.reshape(-1)
    l2_sq = np.sum(flat**2, axis=1)
    dissipation = np.sum(flat**2 * lam**2, axis=1)
    cum = np.concatenate([[0.0], np.cumsum(
        0.5 * (dissipation[1:] + dissipation[:-1]) * np.diff(times))])
    out = {"times": times, "l2_sq": l2_sq, "cum_dissipation": cum}

    if basis.bc == NEUMANN:
        mean_idx = 0
        out["mean_mode_sq"] = flat[:, mean_idx] ** 2
        safe = np.where(lam > 0, lam, 1.0)
        out["hminus1_sq"] = np.sum(np.where(lam > 0, flat**2 / safe, 0.0), axis=1)
    else:
        out["hminus1_sq"] = np.sum(flat**2 / lam, axis=1)

    if model is not None and model.reaction is not None:
        r3, r2, r1, r0 = (float(c) for c in model.reaction)
        grad_sq = np.sum(flat**2 * lam, axis=1)
        cell = basis._fine_spacing(4) ** basis.dim
        # W(u) = ((r3/4 u + r2/3) u + r1/2) u u + r0 u is written back into
        # the scratch grid in ~1 MiB slabs through one reused buffer, so each
        # slab's passes stay in cache; one sum over the whole grid keeps the
        # pairwise summation order of an unslabbed evaluation.
        buf = np.empty(min(_POTENTIAL_SLAB, (4 * basis.modes_per_axis) ** basis.dim))
        potential = np.empty(coeffs.shape[0])
        for i in range(coeffs.shape[0]):
            grid = basis.values_on_refined_grid(coeffs[i], factor=4).reshape(-1)
            for start in range(0, grid.size, _POTENTIAL_SLAB):
                u = grid[start:start + _POTENTIAL_SLAB]
                w = np.multiply(r3 / 4, u, out=buf[:u.size])
                w += r2 / 3
                w *= u
                w += r1 / 2
                w *= u
                w *= u
                u *= r0
                u += w
            potential[i] = np.sum(grid) * cell
        out["free_energy"] = 0.5 * grad_sq + potential
    return out
