"""Sampling of the space-correlated, white-in-time driving noise.

The noise increment over a window of length dt has basis coefficients
sqrt(dt) F xi, xi standard Gaussian, for a backend's map F: covariance
dt * Q_s with Q_s = F F^T (``sampled_gram``), against the kernel's Gram Q
(``gram``, see covariance.gram_operator).  Backends:

* ``spectral-cholesky``  Q_s = Q by an exact factor (d <= 3 sized problems);
* ``spectral-diagonal``  Q_s = diag(Q) (default for d >= 4); ``white`` is
                         this sampler of a white kernel's Q = I;
* ``grid-cell``          cell-averaged construction in d = 1: sample cell
                         masses with the exact cell-cell covariance, then
                         project piecewise-constant densities onto the basis.

The grid-cell backend integrates the kernel over cells with scipy.integrate,
imported where it runs; the other backends never load it.  The two cell
offsets that meet the origin singularity use ``covariance._singular_quad``,
the per-segment quadrature that builds the direct d=1 Gram matrix; each
other offset is one quadrature told the segment edges (kinks) inside it.

Randomness is counter-based (Philox): the stream for a given (seed, step,
path) triple is identical no matter how many other draws happened before,
which makes restarts and any subset or order of paths reproducible by
construction.
"""

from __future__ import annotations

import math
import threading
import warnings
from dataclasses import dataclass

import numpy as np

from .basis import Basis, axis_cell_means
from .covariance import (CovarianceSpec, DenseGram, DiagonalGram,
                         GramOperator, Rank1Gram, _singular_quad,
                         gram_operator)

WHITE = "white"
SPECTRAL_CHOLESKY = "spectral-cholesky"
SPECTRAL_DIAGONAL = "spectral-diagonal"
GRID_CELL = "grid-cell"

BACKEND_KINDS = (WHITE, SPECTRAL_CHOLESKY, SPECTRAL_DIAGONAL, GRID_CELL)


class NoiseStream:
    """Counter-based Gaussian streams keyed by (seed; step, path).

    Every draw reuses one Philox bit generator: its counter is set to
    [0, 0, step, path] with the buffer cleared, the state that a fresh
    ``Philox(key=seed, counter=[0, 0, step, path])`` starts in.  The saved
    start state is that of the first draw; each draw writes (step, path)
    into its counter array and loads it.  A lock keeps the reset and the
    draw together when threads share the stream.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._lock = threading.Lock()
        self._generator = None
        self._state = None

    def gaussians(self, step: int, path: int, n: int) -> np.ndarray:
        if step < 0 or path < 0:
            raise ValueError("step and path must be non-negative")
        with self._lock:
            if self._generator is None:
                # built on the first draw, so a bad seed fails there, as a
                # fresh Philox per draw did
                bitgen = np.random.Philox(
                    key=self.seed, counter=[0, 0, int(step), int(path)])
                self._generator = np.random.Generator(bitgen)
                self._state = bitgen.state
            else:
                self._state["state"]["counter"][2:] = (step, path)
                self._generator.bit_generator.state = self._state
            return self._generator.standard_normal(n)


class NoiseBackend:
    """Common interface: coefficient increments N(0, dt * sampled_gram)."""

    kind = "abstract"

    def __init__(self, basis: Basis, gram: GramOperator, seed: int):
        self.basis = basis
        self.gram = gram
        self.stream = NoiseStream(seed)

    @property
    def dropped_mass(self) -> float:
        """||Q - Q_s||_F / ||Q||_F: the share of Q the sampler misses."""
        total = self.gram.frobenius_norm()
        if self.sampled_gram is self.gram or total == 0:
            return 0.0
        return self.sampled_gram.frobenius_distance(self.gram) / total

    @property
    def n_directions(self) -> int:
        """Number of independent Gaussian directions consumed per draw."""
        raise NotImplementedError

    def map_gaussians(self, xi: np.ndarray) -> np.ndarray:
        """Apply the covariance factor: xi (n_directions,) -> coeff tensor."""
        raise NotImplementedError

    def sample_coefficients(self, dt: float, step: int, path: int = 0):
        """Coefficient tensor of one noise increment over a window dt."""
        if dt <= 0:
            raise ValueError("dt must be positive")
        xi = self.stream.gaussians(step, path, self.n_directions)
        return math.sqrt(dt) * self.map_gaussians(xi)

    def direction_coefficients(self, j: int) -> np.ndarray:
        """Coefficient tensor of the j-th unit Gaussian direction (column of L)."""
        e = np.zeros(self.n_directions)
        e[j] = 1.0
        return self.map_gaussians(e)


class SpectralCholeskyBackend(NoiseBackend):
    """Exact factor Q = L L^T (eigen-factor, robust to semidefiniteness);
    DenseGram's PSD repair made Q the sampled covariance."""

    kind = SPECTRAL_CHOLESKY

    def __init__(self, basis, gram, seed):
        super().__init__(basis, gram, seed)
        if isinstance(gram, Rank1Gram):
            col = math.sqrt(gram.scale) * gram.vec.reshape(-1)
            self.factor = col[:, None]
        else:
            if not isinstance(gram, DenseGram):
                gram = DenseGram(basis, gram.dense())
                self.gram = gram
            w, V = gram.eigenpairs()
            w = np.clip(w, 0.0, None)
            self.factor = V * np.sqrt(w)
        self.sampled_gram = self.gram

    @property
    def n_directions(self):
        return self.factor.shape[1]

    def map_gaussians(self, xi):
        return (self.factor @ np.asarray(xi, dtype=float)).reshape(self.basis.shape)


class SpectralDiagonalBackend(NoiseBackend):
    """Independent modes with exact marginal variances: Q_s = diag(Q).
    Over the identity Gram of a white kernel this is the ``white`` backend."""

    kind = SPECTRAL_DIAGONAL

    def __init__(self, basis, gram, seed):
        super().__init__(basis, gram, seed)
        diag = np.clip(gram.diagonal(), 0.0, None)
        self.scale = np.sqrt(diag)
        self.sampled_gram = DiagonalGram(basis, diag)
        if self.dropped_mass > 0.05:
            warnings.warn(
                f"diagonal noise backend drops {self.dropped_mass:.1%} of the "
                "Gram Frobenius mass")

    @property
    def n_directions(self):
        return self.basis.n_modes

    def map_gaussians(self, xi):
        return self.scale * np.asarray(xi, dtype=float).reshape(self.basis.shape)


class GridCellBackend(NoiseBackend):
    """d=1 cell construction: exact cell-mass covariance + basis projection.

    Samples the vector of noise masses over n_cells uniform cells (covariance
    C_{jj'} = integral of f over cell_j x cell_{j'}), interprets them as
    piecewise-constant densities and projects onto the spectral basis.  The
    sampled F F^T, F = P C^{1/2} (C clipped to PSD), tends to Q as cells shrink.
    """

    kind = GRID_CELL

    def __init__(self, basis, gram, seed, f: CovarianceSpec, n_cells: int = 0):
        super().__init__(basis, gram, seed)
        if basis.dim != 1:
            raise ValueError("grid-cell backend supports d=1 only")
        if not f.has_density or not f.locally_integrable:
            raise ValueError("grid-cell backend needs a locally integrable density")
        self.n_cells = int(n_cells) if n_cells else 8 * basis.modes_per_axis
        self.cell_cov = _cell_covariance_1d(f, self.n_cells)
        w, V = np.linalg.eigh(self.cell_cov)
        w = np.clip(w, 0.0, None)
        self.cell_factor = V * np.sqrt(w)
        self.projection = axis_cell_means(basis.bc, basis.axis_modes, self.n_cells)
        F = self.projection @ self.cell_factor
        FF = F @ F.T
        self.sampled_gram = DenseGram(basis, 0.5 * (FF + FF.T))

    @property
    def n_directions(self):
        return self.n_cells

    def map_gaussians(self, xi):
        masses = self.cell_factor @ np.asarray(xi, dtype=float)
        return (self.projection @ masses).reshape(self.basis.shape)


def _cell_covariance_1d(f: CovarianceSpec, n_cells: int) -> np.ndarray:
    """Toeplitz C_m = int int_{cell_0 x cell_m} f(y-z) dy dz on [0, pi]."""
    h = math.pi / n_cells
    if f.kind == CovarianceSpec.CONSTANT:
        return np.full((n_cells, n_cells), f.c * h * h)
    from scipy.integrate import quad
    knots = lambda a, b: [s[0] for s in f.segments[1:] if a < s[0] < b]
    col = np.empty(n_cells)
    # offset 0: 2 int_0^h f(u) (h-u) du, singular endpoint handled by weight
    col[0] = _singular_quad(f, lambda u: 2.0 * (h - u), h)
    if n_cells > 1:
        # offset 1: int_0^h f(u) u du + int_h^{2h} f(u) (2h-u) du
        val = _singular_quad(f, lambda u: u, h)
        val += quad(lambda u: float(f.evaluate_radial(u)) * (2 * h - u),
                    h, 2 * h, points=knots(h, 2 * h) or None, limit=100)[0]
        col[1] = val
    for m in range(2, n_cells):
        tent = lambda u, m=m: float(f.evaluate_radial(u)) * (h - abs(u - m * h))
        val, _ = quad(tent, (m - 1) * h, (m + 1) * h,
                      points=[m * h] + knots((m - 1) * h, (m + 1) * h), limit=100)
        col[m] = val
    idx = np.arange(n_cells)
    return col[np.abs(idx[:, None] - idx[None, :])]


def make_backend(f: CovarianceSpec, basis: Basis, seed: int,
                 kind: str = "auto", n_cells: int = 0) -> NoiseBackend:
    """Construct a noise backend for a kernel.

    kind='auto' picks: white kernels -> ``white``; d <= 3 -> exact
    ``spectral-cholesky``; d >= 4 -> ``spectral-diagonal`` (with the dropped
    off-diagonal mass logged).  ``white`` is the diagonal sampler of the
    identity Gram that ``gram_operator`` gives a white kernel.
    """
    if f.dim != basis.dim:
        raise ValueError(f"kernel dim {f.dim} != basis dim {basis.dim}")
    if kind == "auto":
        if f.kind == CovarianceSpec.WHITE:
            kind = WHITE
        elif basis.dim <= 3:
            kind = SPECTRAL_CHOLESKY
        else:
            kind = SPECTRAL_DIAGONAL
    if kind not in BACKEND_KINDS:
        raise ValueError(f"unknown noise backend kind {kind!r}")
    if kind == WHITE and f.kind != CovarianceSpec.WHITE:
        raise ValueError("white backend requires a white-noise kernel")
    gram = gram_operator(f, basis)
    if kind == SPECTRAL_CHOLESKY:
        return SpectralCholeskyBackend(basis, gram, seed)
    if kind == GRID_CELL:
        return GridCellBackend(basis, gram, seed, f, n_cells=n_cells)
    backend = SpectralDiagonalBackend(basis, gram, seed)
    backend.kind = kind
    return backend


@dataclass
class CovarianceTestResult:
    """Monte-Carlo check of E[F(phi) F(psi)] = t <phi, psi>_H."""

    estimate: float
    target: float
    stderr: float
    zscore: float
    passed: bool
    n_samples: int


def empirical_covariance_test(backend: NoiseBackend, phi: np.ndarray,
                              psi: np.ndarray, n_samples: int = 4000,
                              total_time: float = 1.0, path: int = 0,
                              z_max: float = 4.0) -> CovarianceTestResult:
    """Estimate E[(phi, dW)(psi, dW)] from samples and compare with t*Q_s-form.

    phi, psi are coefficient tensors of deterministic test functions.  The
    estimator averages the product of the two linear functionals over
    independent increments of length total_time; the target is the
    backend's ``sampled_gram``, so the test checks the sampler itself.
    """
    if n_samples < 2:
        raise ValueError("need at least 2 samples")
    phi_f = np.asarray(phi, dtype=float).reshape(-1)
    psi_f = np.asarray(psi, dtype=float).reshape(-1)
    target = total_time * backend.sampled_gram.bilinear(phi, psi)
    prods = np.empty(n_samples)
    for i in range(n_samples):
        x = backend.sample_coefficients(total_time, step=i, path=path).reshape(-1)
        prods[i] = (phi_f @ x) * (psi_f @ x)
    est = float(prods.mean())
    stderr = float(prods.std(ddof=1) / math.sqrt(n_samples))
    z = 0.0 if stderr == 0 else (est - target) / stderr
    return CovarianceTestResult(estimate=est, target=target, stderr=stderr,
                                zscore=z, passed=abs(z) <= z_max,
                                n_samples=n_samples)
