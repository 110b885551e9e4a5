"""Path-regularity diagnostics: structure functions and exponent fits.

The central object is the second-order structure function

    S_2(h) = E |u(t + h, x) - u(t, x)|^2     (time axis)
    S_2(h) = E |u(t, x + h e_i) - u(t, x)|^2 (space axis i)

averaged over ensemble paths and base points.  ``LinearOracle`` evaluates
the same quantities in closed form for the linear additive equation
started from rest, mode by mode, which pins the Monte Carlo estimator and
provides exact reference slopes.  ``holder_exponent`` turns a structure
function into a Hölder exponent estimate (half the log-log slope), with a
"saturated" flag once the slope reaches the first-difference cap of 2 —
fields smoother than C^1 are indistinguishable beyond that point.

``moment_track`` follows sup_t E ||u(t)||_q^p over an ensemble, and
``u0_regularity_check`` measures how the deterministic semigroup flow of
an initial condition moves in L^q, in sup norm, and in space.
"""

import math
from dataclasses import dataclass

import numpy as np

from .basis import DIRICHLET, Basis, axis_eigenfunctions, axis_product
from .greens import apply_semigroup
from .solver import ModelSpec, SolverConfig, simulate

TIME = "time"

#: fitted slopes at or above this value only bound the regularity from below
SATURATION_SLOPE = 2.0


@dataclass
class StructureFunction:
    """Averaged moment of field increments against the lag."""

    axis: object              # TIME or a space axis index
    lags: np.ndarray
    values: np.ndarray
    errors: np.ndarray        # standard errors; zero in oracle mode
    moment: float = 2.0       # the power |increment|^moment that was averaged

    def __post_init__(self):
        self.lags = np.asarray(self.lags, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        self.errors = np.asarray(self.errors, dtype=float)
        if self.lags.shape != self.values.shape or self.lags.shape != self.errors.shape:
            raise ValueError("lags, values and errors must have matching shapes")
        if np.any(self.lags <= 0):
            raise ValueError("lags must be positive")
        if np.any(self.values < 0):
            raise ValueError("structure-function values must be non-negative")
        if np.any(self.errors < 0):
            raise ValueError("standard errors must be non-negative")


class Ensemble:
    """A bundle of trajectories sharing one basis and time grid."""

    def __init__(self, basis: Basis, trajectories):
        trajectories = list(trajectories)
        if not trajectories:
            raise ValueError("ensemble needs at least one trajectory")
        self.basis = basis
        self.exploded_count = sum(1 for t in trajectories if t.exploded)
        self.trajectories = [t for t in trajectories if not t.exploded]
        if not self.trajectories:
            raise ValueError("every trajectory in the ensemble exploded")
        t0 = self.trajectories[0].times
        for t in self.trajectories[1:]:
            if t.times.shape != t0.shape or not np.allclose(t.times, t0):
                raise ValueError("trajectories do not share a time grid")

    @classmethod
    def generate(cls, model: ModelSpec, config: SolverConfig, basis: Basis,
                 backend=None, n_paths: int = 1, u0=None):
        trajs = [simulate(model, config, basis, backend, u0=u0, path=p)
                 for p in range(n_paths)]
        return cls(basis, trajs)

    @property
    def times(self):
        return self.trajectories[0].times


class LinearOracle:
    """Exact second moments of the linear additive field started from rest.

    Mode k is an Ornstein-Uhlenbeck process with decay lambda_k^2 and
    per-mode input variance sigma^2 q_k, so every increment moment is an
    explicit spectral sum.  Spatial weights use the grid average of
    e_k(x)^2 (matching an estimator that averages over collocation
    points); pass x to evaluate at one point instead.
    """

    def __init__(self, basis: Basis, q_diag=None, sigma: float = 1.0,
                 t_ref: float = 1.0, x=None):
        self.basis = basis
        if q_diag is None:
            q_diag = np.ones(basis.shape)
        self.q_diag = np.asarray(q_diag, dtype=float)
        if self.q_diag.shape != basis.shape:
            raise ValueError(f"q_diag must have shape {basis.shape}")
        if np.any(self.q_diag < 0):
            raise ValueError("q_diag must be non-negative")
        self.sigma = float(sigma)
        if t_ref <= 0:
            raise ValueError("t_ref must be positive")
        self.t_ref = float(t_ref)
        M = basis.modes_per_axis
        if x is None:
            # grid mean of e_k(x)^2 is mode independent: sum_j e_k(x_j)^2 h = 1
            axis_w = 1.0 / (M * basis.spacing)
            self.point_weight = np.full(basis.shape, axis_w**basis.dim)
        else:
            x = np.atleast_1d(np.asarray(x, dtype=float))
            if x.size != basis.dim:
                raise ValueError(f"x must have {basis.dim} components")
            self.point_weight = axis_product(
                [axis_eigenfunctions(basis.bc, basis.axis_modes, xi) ** 2 for xi in x])

    def mode_variance(self, t: float):
        """Var of each mode coefficient at time t."""
        lam2 = self.basis.biharmonic_eigenvalues
        safe = np.where(lam2 > 0, lam2, 1.0)
        shape_fn = np.where(lam2 > 0, (1 - np.exp(-2 * lam2 * t)) / (2 * safe), t)
        return self.sigma**2 * self.q_diag * shape_fn

    def time_increment(self, h: float, t: float = None):
        """E |u(t+h, x) - u(t, x)|^2 with the configured spatial weight."""
        if h <= 0:
            raise ValueError("lag must be positive")
        t = self.t_ref if t is None else float(t)
        lam2 = self.basis.biharmonic_eigenvalues
        v_t = self.mode_variance(t)
        v_th = self.mode_variance(t + h)
        per_mode = v_th + v_t - 2.0 * np.exp(-lam2 * h) * v_t
        return float(np.sum(self.point_weight * per_mode))

    def space_increment(self, h: float, axis: int = 0, t: float = None):
        """E |u(t, x + h e_axis) - u(t, x)|^2 averaged over base grid points."""
        if h <= 0:
            raise ValueError("lag must be positive")
        if not 0 <= axis < self.basis.dim:
            raise ValueError(f"axis must be in [0, {self.basis.dim})")
        t = self.t_ref if t is None else float(t)
        basis = self.basis
        pts = basis.axis_points
        base = pts[pts + h <= math.pi + 1e-12]
        if base.size == 0:
            raise ValueError(f"lag {h} exceeds the domain")
        A0 = axis_eigenfunctions(basis.bc, basis.axis_modes, base)
        A1 = axis_eigenfunctions(basis.bc, basis.axis_modes, base + h)
        inc_sq = np.mean((A1 - A0) ** 2, axis=1)  # per axis mode

        M = basis.modes_per_axis
        axis_mean = 1.0 / (M * basis.spacing)
        weight = axis_product([inc_sq if i == axis else np.full(M, axis_mean)
                               for i in range(basis.dim)])
        return float(np.sum(weight * self.mode_variance(t)))


def _snap_lags(lags, unit, lo, hi, what):
    lags = np.atleast_1d(np.asarray(lags, dtype=float))
    if lags.size == 0:
        raise ValueError("need at least one lag")
    for h in lags:
        if h < lo * (1 - 1e-9) or h > hi * (1 + 1e-9):
            raise ValueError(
                f"{what} lag {h} outside the resolved range [{lo:.4g}, {hi:.4g}]")
    steps = np.maximum(1, np.round(lags / unit).astype(int))
    return steps


def _ensemble_increment_moments(ensemble: Ensemble, axis, lags, t_base):
    """Per-lag mean and stderr of |increment|^2 over paths x base points."""
    basis = ensemble.basis
    times = ensemble.times
    if len(times) < 2:
        raise ValueError("trajectories are too short for increments")
    dt = float(times[1] - times[0])
    T = float(times[-1])

    if axis == TIME:
        steps = _snap_lags(lags, dt, 2 * dt, T / 4, "time")
        eff = steps * dt
    else:
        axis = int(axis)
        if not 0 <= axis < basis.dim:
            raise ValueError(f"space axis must be in [0, {basis.dim})")
        spacing = basis.spacing
        steps = _snap_lags(lags, spacing, 2 * spacing, math.pi / 4, "space")
        eff = steps * spacing

    if t_base is not None:
        i0 = int(np.argmin(np.abs(times - t_base)))
        if abs(times[i0] - t_base) > 1e-9:
            raise ValueError(f"base time {t_base} was not recorded")
        base_pool = np.array([i0])
    else:
        base_pool = np.nonzero(times >= T / 2 - 1e-12)[0]

    n_lags = len(steps)
    P = len(ensemble.trajectories)
    path_means = np.empty((P, n_lags))
    for p, traj in enumerate(ensemble.trajectories):
        vals = basis.inverse_transform(traj.coeffs)
        for j, k in enumerate(steps):
            if axis == TIME:
                bases = base_pool[base_pool + k < len(times)]
                if bases.size == 0:
                    raise ValueError(f"lag {eff[j]:.4g} leaves no base times")
                diff = vals[bases + k] - vals[bases]
            else:
                sl_hi = [slice(None)] * vals.ndim
                sl_lo = [slice(None)] * vals.ndim
                grid_axis = 1 + axis  # axis 0 indexes time
                sl_hi[grid_axis] = slice(k, None)
                sl_lo[grid_axis] = slice(0, -k)
                window = vals[base_pool]
                diff = window[tuple(sl_hi)] - window[tuple(sl_lo)]
            path_means[p, j] = np.mean(np.abs(diff) ** 2.0)
    values = path_means.mean(axis=0)
    if P > 1:
        errors = path_means.std(axis=0, ddof=1) / math.sqrt(P)
    else:
        errors = np.zeros(n_lags)
    return eff, values, errors


def structure_function(source, axis, lags, t_base=None) -> StructureFunction:
    """Second-order structure function of an ensemble or of the oracle.

    axis is TIME or a space axis index.  Ensemble lags must sit inside the
    resolved window ([2 dt, T/4] in time, [2 spacing, pi/4] in space) and
    are snapped to the grid; base points default to the second half of the
    time range, or to the single recorded time t_base.  Oracle values are
    exact and carry zero standard errors.
    """
    if isinstance(source, LinearOracle):
        lags = np.atleast_1d(np.asarray(lags, dtype=float))
        if axis == TIME:
            vals = [source.time_increment(h, t_base) for h in lags]
        else:
            vals = [source.space_increment(h, int(axis), t_base) for h in lags]
        return StructureFunction(axis=axis, lags=lags, values=np.asarray(vals),
                                 errors=np.zeros(len(lags)))
    if isinstance(source, Ensemble):
        eff, values, errors = _ensemble_increment_moments(source, axis, lags,
                                                          t_base)
        return StructureFunction(axis=axis, lags=eff, values=values, errors=errors)
    raise ValueError("source must be an Ensemble or a LinearOracle")


@dataclass
class HolderFit:
    """Least-squares exponent estimate from a structure function."""

    exponent: float           # slope / moment: the Hölder exponent estimate
    slope: float
    stderr: float             # standard error of the slope
    ci: tuple                 # 95% interval for the exponent
    saturated: bool
    n_lags: int


def holder_exponent(sf: StructureFunction, window=None) -> HolderFit:
    """Fit log S(h) = slope * log h + c and report slope/moment.

    Requires at least five positive values inside the window.  MC standard
    errors, when present, enter as weights.  A slope at the first-difference
    cap (2 per squared increment) is flagged saturated: the field is at
    least C^1 along that axis and the estimate is only a lower bound.
    """
    lags, values, errors = sf.lags, sf.values, sf.errors
    if window is not None:
        lo, hi = window
        keep = (lags >= lo) & (lags <= hi)
        lags, values, errors = lags[keep], values[keep], errors[keep]
    if len(lags) < 5:
        raise ValueError(f"need at least 5 lags in the fit window, got {len(lags)}")
    if np.any(values <= 0):
        raise ValueError("structure-function values in the window must be positive")

    x = np.log(lags)
    y = np.log(values)
    if np.any(errors > 0):
        w = values / np.where(errors > 0, errors, errors[errors > 0].min())
    else:
        w = np.ones_like(x)
    W = w**2
    xm = np.sum(W * x) / np.sum(W)
    ym = np.sum(W * y) / np.sum(W)
    sxx = np.sum(W * (x - xm) ** 2)
    slope = float(np.sum(W * (x - xm) * (y - ym)) / sxx)
    resid = y - ym - slope * (x - xm)
    dof = max(len(x) - 2, 1)
    s2 = float(np.sum(W * resid**2) / dof)
    stderr = math.sqrt(s2 / sxx)

    moment = sf.moment
    saturated = slope >= SATURATION_SLOPE * (moment / 2.0) - 0.05
    exponent = slope / moment
    half_width = 1.96 * stderr / moment
    return HolderFit(exponent=exponent, slope=slope, stderr=stderr,
                     ci=(exponent - half_width, exponent + half_width),
                     saturated=saturated, n_lags=len(x))


@dataclass
class MomentTrack:
    """Empirical E ||u(t)||_q^p along an ensemble, and its running sup."""

    times: np.ndarray
    values: np.ndarray
    sup_value: float
    exploded_count: int
    growing: bool             # sup doubled between the two halves of [0, T]


def moment_track(ensemble: Ensemble, q: float = 2.0, p: float = 2.0) -> MomentTrack:
    """Track the p-th moment of the L^q norm over the recorded times.

    Exploded paths were dropped by the Ensemble (their count is carried
    through).  The growth flag compares the sup over the first half of the
    time range with the sup over the second half.
    """
    if q < 1 or p <= 0:
        raise ValueError("need q >= 1 and p > 0")
    basis = ensemble.basis
    times = ensemble.times
    acc = np.zeros(len(times))
    for traj in ensemble.trajectories:
        vals = basis.inverse_transform(traj.coeffs)
        flat = vals.reshape(len(times), -1)
        if math.isinf(q):
            norms = np.abs(flat).max(axis=1)
        else:
            norms = (np.sum(np.abs(flat) ** q, axis=1) * basis.quad_weight()) ** (1.0 / q)
        acc += norms**p
    values = acc / len(ensemble.trajectories)
    half = times <= times[-1] / 2 + 1e-12
    sup_first = float(values[half].max())
    sup_second = float(values[~half].max()) if np.any(~half) else sup_first
    return MomentTrack(times=times, values=values, sup_value=float(values.max()),
                       exploded_count=ensemble.exploded_count,
                       growing=sup_second >= 2.0 * sup_first > 0.0)


LQ_CONTINUITY = "lq-continuity"
INTERIOR_HOLDER = "interior-holder"
BOUNDARY_SPACE_HOLDER = "boundary-space-holder"
U0_MODES = (LQ_CONTINUITY, INTERIOR_HOLDER, BOUNDARY_SPACE_HOLDER)


@dataclass
class U0Report:
    """Measured regularity of the semigroup flow of an initial condition."""

    mode: str
    passed: bool
    times: np.ndarray = None
    values: np.ndarray = None         # moduli along consecutive time pairs
    initial_deltas: np.ndarray = None  # distance of G_t u0 to u0 as t -> 0
    fitted_c: float = None
    exponent: float = None
    boundary_ok: bool = True
    lags: np.ndarray = None


def u0_regularity_check(u0_values, basis: Basis, mode: str = LQ_CONTINUITY,
                        q: float = 2.0, holder_order: float = 1.0,
                        times=None) -> U0Report:
    """Measure how G_t u0 moves. Three views, one per mode.

    lq-continuity: the L^q modulus ||G_t u0 - G_s u0||_q over consecutive
    sample times plus the distance back to u0 as t -> 0; passes when the
    t -> 0 deltas decay.  interior-holder: fits the constant in
    sup_x |G_t u0 - G_s u0| <= C (t-s)^{holder_order/4}.
    boundary-space-holder: spatial increments of G_t u0 at the smallest
    sample time, fitted against h^min(holder_order, 1); for Dirichlet the
    boundary trace of u0 is checked to be small (the reflection argument
    needs a vanishing trace).
    """
    if mode not in U0_MODES:
        raise ValueError(f"mode must be one of {U0_MODES}, got {mode!r}")
    if not 0 < holder_order <= 1:
        raise ValueError("holder_order must be in (0, 1]")
    u0_values = np.asarray(u0_values, dtype=float)
    u0_hat = basis.transform(u0_values)
    if times is None:
        times = np.geomspace(1e-4, 0.5, 9)
    times = np.sort(np.asarray(times, dtype=float))
    if times[0] <= 0:
        raise ValueError("sample times must be positive")
    states = [apply_semigroup(basis, u0_hat, t) for t in times]

    if mode == LQ_CONTINUITY:
        vals = np.array([
            basis.lq_norm(basis.inverse_transform(states[i + 1] - states[i]), q)
            for i in range(len(times) - 1)])
        deltas = np.array([
            basis.lq_norm(basis.inverse_transform(s - u0_hat), q) for s in states])
        passed = bool(deltas[0] <= 0.5 * deltas[-1] + 1e-12)
        return U0Report(mode=mode, passed=passed, times=times, values=vals,
                        initial_deltas=deltas)

    if mode == INTERIOR_HOLDER:
        ratios = []
        sups = []
        for i in range(len(times) - 1):
            for j in range(i + 1, len(times)):
                gap = times[j] - times[i]
                sup = basis.lq_norm(
                    basis.inverse_transform(states[j] - states[i]), math.inf)
                ratios.append(sup / gap ** (holder_order / 4.0))
                sups.append(sup)
        deltas = np.array([
            basis.lq_norm(basis.inverse_transform(s - u0_hat), math.inf)
            for s in states])
        c = float(np.max(ratios))
        passed = bool(math.isfinite(c) and deltas[0] <= deltas[-1] + 1e-12)
        return U0Report(mode=mode, passed=passed, times=times,
                        values=np.asarray(sups), initial_deltas=deltas,
                        fitted_c=c, exponent=holder_order / 4.0)

    # boundary-space-holder
    boundary_ok = True
    if basis.bc == DIRICHLET:
        # the grid never touches x = 0, pi: extrapolate the trace linearly
        lo = 2.0 * np.take(u0_values, 0, axis=0) - np.take(u0_values, 1, axis=0)
        hi = 2.0 * np.take(u0_values, -1, axis=0) - np.take(u0_values, -2, axis=0)
        edge = max(float(np.abs(lo).max()), float(np.abs(hi).max()))
        boundary_ok = edge <= 0.05 * max(1.0, float(np.abs(u0_values).max()))
    w = basis.inverse_transform(states[0])
    spacing = basis.spacing
    steps = [1, 2, 4, 8]
    steps = [k for k in steps if k < basis.modes_per_axis]
    lags = np.array([k * spacing for k in steps])
    sups = []
    for k in steps:
        diff = np.take(w, range(k, w.shape[0]), axis=0) - \
            np.take(w, range(0, w.shape[0] - k), axis=0)
        sups.append(float(np.abs(diff).max()))
    sups = np.asarray(sups)
    expo = min(holder_order, 1.0)
    c = float(np.max(sups / lags**expo))
    slope = None
    if np.all(sups > 0) and len(lags) >= 2:
        slope = float(np.polyfit(np.log(lags), np.log(sups), 1)[0])
    passed = bool(math.isfinite(c) and boundary_ok)
    return U0Report(mode=mode, passed=passed, times=times[:1], values=sups,
                    fitted_c=c, exponent=slope, boundary_ok=boundary_ok,
                    lags=lags)
