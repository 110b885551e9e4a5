"""Command-line driver: JSON configs in, CSV/JSONL/binary snapshots out.

A run is described by one JSON file (model, solver, covariance, seed) and a
command naming what to compute; for a fixed (config, seed) every emitted
file is byte-identical across repeat runs and thread counts.  Each numeric
table carries provenance columns (config hash, package version), and a
manifest records the hash, library versions and per-file checksums.

Field snapshots use a flat binary layout: the magic bytes ``SPDE1``
followed by four little-endian uint32 words (dimension d, modes per axis
M, boundary flag 0=Neumann/1=Dirichlet, record count) and then
``count * M^d`` little-endian float64 coefficients in row-major order.
"""

import argparse
import csv
import functools
import hashlib
import json
import math
import os
import struct
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, fields

import numpy as np
import scipy

from . import __version__
from .basis import DIRICHLET, NEUMANN, Basis
from .covariance import (CovarianceSpec, cahn_hilliard_integrability,
                         stochastic_integrability)
from .greens import KernelExponents, green_function
from .malliavin import (TANGENT_SLICE_BYTES, _check_points, _model_derivatives,
                        decomposition_terms, density_criterion,
                        malliavin_matrix, tangent_propagate)
from .noise import make_backend
from .regularity import (TIME, Ensemble, holder_exponent, moment_track,
                         structure_function)
from .solver import (ModelSpec, SolverConfig, energy_diagnostics,
                     model_violations, picard_solve, simulate)

COMMANDS = ("check-covariance", "green", "simulate", "picard",
            "regularity", "malliavin")

SNAPSHOT_MAGIC = b"SPDE1"
_BC_FLAGS = {NEUMANN: 0, DIRICHLET: 1}
_BC_NAMES = {0: NEUMANN, 1: DIRICHLET}

THREADS_ENV = "SPDE_CH_THREADS"


class ConfigError(ValueError):
    """Invalid or rejected run configuration."""

    def __init__(self, message, violations=None):
        super().__init__(message)
        self.violations = violations or []


# ----------------------------------------------------------------------
# configuration


def _polynomial(coeffs):
    c = np.asarray(coeffs, dtype=float)

    def poly(u):
        return np.polynomial.polynomial.polyval(u, c)

    return poly


@dataclass
class RunConfig:
    """One fully serializable run: command, problem data, seed, output dir."""

    command: str
    basis: dict
    model: dict = None
    solver: dict = None
    covariance: dict = None
    seed: int = 0
    outdir: str = "out"
    options: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise ConfigError(f"unknown command {self.command!r}; "
                              f"expected one of {COMMANDS}")
        if not isinstance(self.seed, int) or not -2**63 <= self.seed < 2**63:
            raise ConfigError("seed must be a 64-bit integer")

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        if "command" not in data or "basis" not in data:
            raise ConfigError("config needs at least 'command' and 'basis'")
        return cls(**data)

    @classmethod
    def from_file(cls, path: str) -> "RunConfig":
        with open(path) as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as e:
                raise ConfigError(f"config file is not valid JSON: {e}")
        return cls.from_dict(data)

    def to_dict(self) -> dict:
        return asdict(self)

    def _content(self) -> dict:
        """Everything that determines the numbers: the config without outdir."""
        return {k: v for k, v in self.to_dict().items() if k != "outdir"}

    def config_hash(self) -> str:
        """Short digest of _content, so relocated reruns stay byte-identical."""
        blob = json.dumps(self._content(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    # -- builders ------------------------------------------------------

    def build_basis(self) -> Basis:
        spec = dict(self.basis)
        return Basis(spec.get("bc", NEUMANN), int(spec["dim"]),
                     int(spec["modes_per_axis"]))

    def build_model(self) -> ModelSpec:
        spec = dict(self.model or {})
        reaction = spec.get("reaction")
        if reaction is not None:
            reaction = tuple(float(c) for c in reaction)
        sigma = spec.get("sigma")
        if sigma is not None:
            sigma = float(sigma)
        forcing = spec.get("forcing")
        if forcing is not None:
            g0 = float(forcing)
            forcing = lambda t, x, u: g0  # noqa: E731 - constant inflow
        drifts = []
        for entry in spec.get("drifts", ()):
            drifts.append((tuple(int(a) for a in entry["orders"]),
                           _polynomial(entry["poly"])))
        return ModelSpec(bc=self.basis.get("bc", NEUMANN), reaction=reaction,
                         sigma=sigma, forcing=forcing, drifts=tuple(drifts),
                         lipschitz_only=bool(spec.get("lipschitz_only", False)))

    def _jacobians(self) -> dict:
        """tangent_propagate's jacobians for build_model's callables: 0 for
        the constant forcing, the derivative polynomial of each drift."""
        polyder = np.polynomial.polynomial.polyder
        return {"forcing": lambda t, x, u: 0.0,
                "drifts": tuple(_polynomial(polyder(entry["poly"]))
                                for entry in (self.model or {}).get("drifts", ()))}

    def build_solver(self) -> SolverConfig:
        spec = dict(self.solver or {})
        return SolverConfig(dt=float(spec["dt"]), t_final=float(spec["t_final"]),
                            scheme=spec.get("scheme", "exponential-euler"),
                            truncation=spec.get("truncation"),
                            q=float(spec.get("q", 2.0)),
                            store_every=int(spec.get("store_every", 1)))

    def build_covariance(self) -> CovarianceSpec:
        if self.covariance is None:
            return None
        spec = dict(self.covariance)
        kind = spec.get("kind", "riesz")
        dim = int(self.basis["dim"])
        if kind == CovarianceSpec.WHITE:
            return CovarianceSpec.white(dim)
        if kind == CovarianceSpec.CONSTANT:
            return CovarianceSpec.constant(dim, c=float(spec.get("c", 1.0)))
        if kind == CovarianceSpec.RIESZ:
            return CovarianceSpec.riesz(dim, B=float(spec["B"]))
        raise ConfigError(f"unsupported covariance kind {kind!r} in configs")

    def build_backend(self, basis: Basis):
        f = self.build_covariance()
        if f is None:
            return None, None
        kind = (self.covariance or {}).get("backend", "auto")
        return f, make_backend(f, basis, seed=self.seed, kind=kind)

    def initial_state(self, basis: Basis) -> np.ndarray:
        u0 = np.zeros(basis.shape)
        for entry in self.options.get("u0_modes", ()):
            k, value = tuple(int(i) for i in entry[0]), float(entry[1])
            u0[k] = value
        return u0


def validate(config: RunConfig) -> dict:
    """Report-only check of the solvability hypotheses behind a config:
    ``solver.model_violations`` of its model, covariance kernel,
    options.eps and solver q."""
    model = dict(config.model or {})
    drift_orders = [tuple(int(a) for a in entry.get("orders", ()))
                    for entry in model.get("drifts", ())]
    q = None if config.solver is None else float(config.solver.get("q", 2.0))
    violations = [{"hypothesis": name, "detail": detail}
                  for name, detail in model_violations(
                      config.basis.get("bc", NEUMANN), int(config.basis["dim"]),
                      model.get("reaction"), drift_orders,
                      kernel=config.build_covariance(),
                      eps=config.options.get("eps"), q=q)]
    return {"passed": not violations, "violations": violations}


# ----------------------------------------------------------------------
# output helpers


def _fmt(x) -> str:
    if isinstance(x, str):
        return x
    if x is None:
        return ""
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    v = float(x)
    return "%.17g" % v


def _write_csv(path, columns, rows, config_hash):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(list(columns) + ["config_hash", "version"])
        for row in rows:
            writer.writerow([_fmt(x) for x in row] + [config_hash, __version__])


def _write_jsonl(path, records):
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True))
            fh.write("\n")


def write_snapshot(path, basis: Basis, stack: np.ndarray):
    """Write stacked coefficient tensors in the documented binary layout."""
    stack = np.asarray(stack, dtype=float)
    if stack.ndim == basis.dim:
        stack = stack[None]
    if stack.shape[1:] != basis.shape:
        raise ValueError(f"snapshot shape {stack.shape[1:]} does not match "
                         f"basis shape {basis.shape}")
    header = SNAPSHOT_MAGIC + struct.pack(
        "<4I", basis.dim, basis.modes_per_axis, _BC_FLAGS[basis.bc],
        stack.shape[0])
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(stack).astype("<f8").tobytes())


def read_snapshot(path):
    """Read a snapshot file -> (bc, dim, modes_per_axis, array)."""
    with open(path, "rb") as fh:
        magic = fh.read(len(SNAPSHOT_MAGIC))
        if magic != SNAPSHOT_MAGIC:
            raise ValueError(f"not a snapshot file: bad magic {magic!r}")
        dim, M, bc_flag, count = struct.unpack("<4I", fh.read(16))
        if bc_flag not in _BC_NAMES:
            raise ValueError(f"unknown boundary flag {bc_flag}")
        data = np.frombuffer(fh.read(), dtype="<f8")
    expected = count * M**dim
    if data.size != expected:
        raise ValueError(f"snapshot payload has {data.size} values, "
                         f"expected {expected}")
    return _BC_NAMES[bc_flag], dim, M, data.reshape((count,) + (M,) * dim).copy()


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


# ----------------------------------------------------------------------
# commands


def _count_option(config, name, default, least=1):
    """options[name], or default when absent; a JSON integer >= least."""
    value = config.options.get(name, default)
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        kind = "positive" if least else "non-negative"
        raise ConfigError(
            f"options.{name} must be a {kind} integer, got {value!r}")
    return value


def _build_problem(config, basis):
    """(model, solver, kernel, noise backend) of a command that runs paths."""
    model = config.build_model()
    solver = config.build_solver()
    f, backend = config.build_backend(basis)
    if model.has_noise and backend is None:
        raise ConfigError("model has noise but no covariance block was given")
    return model, solver, f, backend


# A pool pays only where every call of a path's task works on at least
# this many grid points: below it the threads queue on the interpreter lock
# between numpy calls (README, "Outputs are deterministic").
POOL_MIN_POINTS = 4096


@functools.cache
def _openblas_threads():
    """(get, set) of the thread count of numpy's bundled OpenBLAS, or None
    where no such library or setter is found."""
    import ctypes

    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                        "numpy.libs")
    try:
        names = sorted(os.listdir(libs))
    except OSError:
        return None
    for name in names:
        if not name.startswith("libscipy_openblas"):
            continue
        try:
            lib = ctypes.CDLL(os.path.join(libs, name))
            get = lib.scipy_openblas_get_num_threads64_
            set_ = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


def _map_paths(task, n_paths, threads, points):
    """[task(path) for path in range(n_paths)], pooled where it pays.

    task(path) is one path's whole work, and points the size of the arrays
    its numpy and pocketfft calls work on.  The paths run on a pool of
    min(threads, n_paths) threads only when that width is above 1, points
    reaches POOL_MIN_POINTS, and numpy's OpenBLAS can be held at one thread
    for the pool's lifetime, so that the pool threads do not oversubscribe
    the cores through BLAS; otherwise they run serially.  Results come back
    in path order, and the noise streams are keyed by (step, path), so
    outputs do not depend on the choice.
    """
    width = min(threads, n_paths)
    blas = (_openblas_threads() if width > 1 and points >= POOL_MIN_POINTS
            else None)
    if blas is None:
        return [task(path) for path in range(n_paths)]
    get, set_ = blas
    before = get()
    set_(1)
    try:
        with ThreadPoolExecutor(max_workers=width) as pool:
            return list(pool.map(task, range(n_paths)))
    finally:
        set_(before)


def _simulator(model, solver, basis, backend, u0):
    # run() has already applied the admissibility gate through validate(),
    # so simulate() is not handed the kernel to check it again per path.
    return lambda path: simulate(model, solver, basis, backend=backend,
                                 u0=u0, path=path)


def _refined_points(basis):
    """Points of the factor-2 refined grid that every step synthesises."""
    return (2 * basis.modes_per_axis) ** basis.dim


def _cmd_check_covariance(config, basis, outdir, h, threads):
    if config.covariance is None:
        raise ConfigError("check-covariance needs a covariance block")
    dim = basis.dim
    exponents = KernelExponents.biharmonic(dim)
    kind = config.covariance.get("kind", "riesz")
    if kind == CovarianceSpec.RIESZ:
        B_values = config.options.get("B_values") or [config.covariance["B"]]
        kernels = [CovarianceSpec.riesz(dim, B=float(B)) for B in B_values]
    else:
        kernels = [config.build_covariance()]
    eps = config.options.get("eps")

    rows = []
    for f in kernels:
        rep = stochastic_integrability(f, exponents)
        B = f.B if f.kind == CovarianceSpec.RIESZ else ""
        rows.append((f.kind, B, dim, rep.condition_id, rep.verdict,
                     rep.margin))
        if eps is not None and f.has_density:
            ch = cahn_hilliard_integrability(f, float(eps))
            rows.append((f.kind, B, dim, ch.condition_id, ch.verdict,
                         ch.margin))
    _write_csv(os.path.join(outdir, "covariance.csv"),
               ("kind", "B", "dim", "condition", "verdict", "margin"),
               rows, h)
    return ["covariance.csv"]


def _cmd_green(config, basis, outdir, h, threads):
    d = basis.dim
    taus = config.options.get("taus") or [1e-3, 1e-2, 1e-1]
    center = [math.pi / 2] * d
    pairs = config.options.get("points") or [[center, center]]
    rows = []
    for tau in taus:
        for x, y in pairs:
            x = [float(c) for c in np.atleast_1d(x)]
            y = [float(c) for c in np.atleast_1d(y)]
            value = green_function(basis.bc, d, float(tau), x, y,
                                   modes_per_axis=basis.modes_per_axis)
            rows.append(tuple([tau] + x + y + [value,
                                               float(tau)**(d / 4.0) * value]))
    cols = (["tau"] + [f"x{i}" for i in range(d)] + [f"y{i}" for i in range(d)]
            + ["value", "scaled_value"])
    _write_csv(os.path.join(outdir, "green.csv"), cols, rows, h)
    return ["green.csv"]


def _cmd_simulate(config, basis, outdir, h, threads):
    n_paths = _count_option(config, "paths", 1)
    model, solver, _, backend = _build_problem(config, basis)
    path_run = _simulator(model, solver, basis, backend,
                          config.initial_state(basis))

    def task(path):
        traj = path_run(path)
        return traj, energy_diagnostics(traj, basis, model=model)

    summary, series, finals = [], [], []
    for traj, diag in _map_paths(task, n_paths, threads,
                                 _refined_points(basis)):
        summary.append((traj.path, traj.exploded, traj.stop_time,
                        traj.norms[-1], diag["l2_sq"][-1],
                        diag["cum_dissipation"][-1]))
        record = {"path": traj.path,
                  "times": [float(t) for t in traj.times],
                  "norms": [float(v) for v in traj.norms],
                  "l2_sq": [float(v) for v in diag["l2_sq"]]}
        if "free_energy" in diag:
            record["free_energy"] = [float(v) for v in diag["free_energy"]]
        series.append(record)
        finals.append(traj.final)

    _write_csv(os.path.join(outdir, "paths.csv"),
               ("path", "exploded", "stop_time", "final_norm", "final_l2_sq",
                "final_dissipation"), summary, h)
    _write_jsonl(os.path.join(outdir, "series.jsonl"), series)
    files = ["paths.csv", "series.jsonl"]
    if config.options.get("snapshots"):
        write_snapshot(os.path.join(outdir, "snapshots.bin"), basis,
                       np.stack(finals))
        files.append("snapshots.bin")
    return files


def _cmd_picard(config, basis, outdir, h, threads):
    path = _count_option(config, "path", 0, least=0)
    tol = config.options.get("tol", 1e-10)
    if isinstance(tol, bool) or not isinstance(tol, (int, float)) or not 0 < tol < math.inf:
        raise ConfigError(
            f"options.tol must be a positive finite number, got {tol!r}")
    model, solver, _, backend = _build_problem(config, basis)
    result = picard_solve(model, solver, basis, backend=backend,
                          u0=config.initial_state(basis), path=path,
                          tol=float(tol))
    rows = [(i + 1, d) for i, d in enumerate(result.deltas)]
    _write_csv(os.path.join(outdir, "picard.csv"),
               ("iteration", "delta"), rows, h)
    _write_jsonl(os.path.join(outdir, "picard.jsonl"),
                 [{"converged": bool(result.converged),
                   "iterations": int(result.iterations),
                   "final_norm": float(result.trajectory.norms[-1])}])
    return ["picard.csv", "picard.jsonl"]


def _cmd_regularity(config, basis, outdir, h, threads):
    n_paths = _count_option(config, "paths", 50)
    model, solver, _, backend = _build_problem(config, basis)
    trajs = _map_paths(_simulator(model, solver, basis, backend,
                                  config.initial_state(basis)),
                       n_paths, threads, _refined_points(basis))
    ensemble = Ensemble(basis, trajs)

    dt = solver.dt * solver.store_every
    t_lags = config.options.get("time_lags") or list(
        np.geomspace(2 * dt, solver.t_final / 4, 6))
    s_lags = config.options.get("space_lags") or list(
        np.geomspace(2 * basis.spacing, math.pi / 4, 6))

    rows, fits = [], []
    for axis, lags in ((TIME, t_lags), (0, s_lags)):
        sf = structure_function(ensemble, axis, lags)
        for lag, val, err in zip(sf.lags, sf.values, sf.errors):
            rows.append((str(axis), lag, val, err))
        fit = holder_exponent(sf)
        fits.append({"axis": str(axis), "exponent": fit.exponent,
                     "slope": fit.slope, "stderr": fit.stderr,
                     "saturated": bool(fit.saturated),
                     "n_lags": int(fit.n_lags)})
    _write_csv(os.path.join(outdir, "structure.csv"),
               ("axis", "lag", "value", "stderr"), rows, h)
    _write_jsonl(os.path.join(outdir, "fits.jsonl"), fits)

    track = moment_track(ensemble, q=solver.q,
                         p=float(config.options.get("moment_p", 2.0)))
    m_rows = [(t, v, track.sup_value, track.growing)
              for t, v in zip(track.times, track.values)]
    _write_csv(os.path.join(outdir, "moments.csv"),
               ("time", "value", "sup_value", "growing"), m_rows, h)
    return ["structure.csv", "fits.jsonl", "moments.csv"]


def _cmd_malliavin(config, basis, outdir, h, threads):
    n_paths = _count_option(config, "paths", 1)
    thin = _count_option(config, "thin", 1)
    model, solver, f, backend = _build_problem(config, basis)
    if backend is None:
        raise ConfigError("malliavin needs a covariance block")
    jacobians = config._jacobians()
    _model_derivatives(model, jacobians)
    nu = float(config.options.get("nu", 1.0 / 32.0))
    d = basis.dim
    points = _check_points(basis, config.options.get("points") or [
        [math.pi / 2] * d, [math.pi / 3] * d])
    taus = config.options.get("taus") or [solver.t_final / 8,
                                          solver.t_final / 4,
                                          solver.t_final / 2]
    # The paths are simulated first, as a stage of their own: run inside
    # the tangent task, the simulation made a pool thread's tangent time
    # swing by up to 40% from one process to the next, which a separate
    # stage does not.  A trajectory holds a tangent state's values for one
    # noise direction, so holding them all costs little next to one
    # tangent state.
    trajs = _map_paths(_simulator(model, solver, basis, backend,
                                  config.initial_state(basis)),
                       n_paths, threads, _refined_points(basis))

    def analyse(path):
        # The tangent state, the largest object of the run, dies with this
        # call, so at most one per pool thread is alive at a time.
        traj = trajs[path]
        tang = tangent_propagate(traj, model, solver, basis, backend,
                                 thin=thin, jacobians=jacobians)
        mm = malliavin_matrix(tang, points)
        eig_rows = [(path, i, eig)
                    for i, eig in enumerate(mm.eigenvalues())]
        dec_rows = []
        if path == 0:
            for tau in taus:
                dec = decomposition_terms(traj, model, basis,
                                          backend.sampled_gram, points,
                                          tau=float(tau), tangent=tang)
                dec_rows.append((tau, dec.i1, dec.i2, dec.i3.max(),
                                 dec.i4.max(), dec.lower_bound))
        return mm, eig_rows, dec_rows

    eig_rows, dec_rows, gammas = [], [], []
    # tangent_propagate advances its fields in slices of
    # TANGENT_SLICE_BYTES of refined-grid values
    for mm, eigs, decs in _map_paths(analyse, n_paths, threads,
                                     TANGENT_SLICE_BYTES // 8):
        gammas.append(mm)
        eig_rows += eigs
        dec_rows += decs
    _write_csv(os.path.join(outdir, "eigenvalues.csv"),
               ("path", "index", "eigenvalue"), eig_rows, h)
    _write_csv(os.path.join(outdir, "decomposition.csv"),
               ("tau", "i1", "i2", "i3_max", "i4_max", "lower_bound"),
               dec_rows, h)

    report = density_criterion(gammas, f, nu=nu,
                               sigma_floor=config.options.get("sigma_floor"))
    payload = {"verdict": report.verdict, "analytic_ok": report.analytic_ok,
               "exponent_primary": report.exponent_primary,
               "exponent_cross": report.exponent_cross,
               "b_effective": report.b_effective, "nu": report.nu,
               "positive_fraction": report.positive_fraction,
               "smallest_eigenvalue": report.smallest_eigenvalue,
               "notes": list(report.notes),
               "config_hash": h, "version": __version__}
    with open(os.path.join(outdir, "density.json"), "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return ["eigenvalues.csv", "decomposition.csv", "density.json"]


_HANDLERS = {
    "check-covariance": _cmd_check_covariance,
    "green": _cmd_green,
    "simulate": _cmd_simulate,
    "picard": _cmd_picard,
    "regularity": _cmd_regularity,
    "malliavin": _cmd_malliavin,
}


def run(config: RunConfig, force: bool = False, threads: int = 1) -> dict:
    """Execute one command and return the manifest that was written.

    The validation report gates the run: violated hypotheses abort unless
    force is set, and even then a model hypothesis raises the ValueError
    of ModelSpec.validate.  threads bounds the width of the thread pool
    that runs the paths of simulate, regularity and malliavin, one path
    per task (malliavin simulates its paths, then analyses them, in two
    such stages), so a single-path run gains nothing from it; each
    stage's pool is used only where _map_paths finds that it pays, and
    the outputs are the same either way.  Outputs land in config.outdir;
    the manifest records the config without its outdir (and its hash),
    library versions, and a sha256 per emitted file.
    """
    report = validate(config)
    if not report["passed"] and not force:
        names = [v["hypothesis"] for v in report["violations"]]
        raise ConfigError("config violates: " + ", ".join(names),
                          violations=report["violations"])

    basis = config.build_basis()
    outdir = config.outdir
    os.makedirs(outdir, exist_ok=True)
    h = config.config_hash()
    files = _HANDLERS[config.command](config, basis, outdir, h,
                                      max(1, int(threads)))

    manifest = {
        "command": config.command,
        "config": config._content(),
        "config_hash": h,
        "versions": {"spde_ch": __version__, "numpy": np.__version__,
                     "scipy": scipy.__version__,
                     "python": ".".join(map(str, sys.version_info[:3]))},
        "files": {name: _sha256(os.path.join(outdir, name)) for name in files},
        "validation": report,
    }
    with open(os.path.join(outdir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return manifest


# ----------------------------------------------------------------------
# entry point


def _resolve_threads(arg_value) -> int:
    if arg_value is not None:
        return max(1, int(arg_value))
    env = os.environ.get(THREADS_ENV)
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ConfigError(f"{THREADS_ENV} must be an integer, got {env!r}")
    return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spde-ch",
        description="Spectral simulation toolkit for stochastic Cahn-Hilliard "
                    "type equations")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON run config")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        p.add_argument("--out", default=None, help="override the output dir")
        p.add_argument("--threads", type=int, default=None,
                       help="threads for the path loop, at most one per "
                            "path, used where the state is large enough "
                            f"to gain (fallback: ${THREADS_ENV})")
        p.add_argument("--force", action="store_true",
                       help="run despite violated kernel, eps or q "
                            "hypotheses (model hypotheses still refuse)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = RunConfig.from_file(args.config)
        if config.command != args.command:
            raise ConfigError(
                f"config file names command {config.command!r} but "
                f"{args.command!r} was invoked")
        if args.seed is not None:
            config.seed = args.seed
        if args.out is not None:
            config.outdir = args.out
        threads = _resolve_threads(args.threads)
        manifest = run(config, force=args.force, threads=threads)
    except Exception as e:  # noqa: BLE001 - single machine-readable funnel
        payload = {"error": {"type": type(e).__name__, "message": str(e)}}
        if isinstance(e, ConfigError) and e.violations:
            payload["error"]["violations"] = e.violations
        print(json.dumps(payload, sort_keys=True))
        return 2
    print(json.dumps({"ok": True, "outdir": config.outdir,
                      "config_hash": manifest["config_hash"],
                      "files": sorted(manifest["files"])}, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
