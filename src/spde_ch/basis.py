"""Laplacian eigenbases on the box [0, pi]^d and grid <-> coefficient transforms.

Two boundary conditions are supported:

* Neumann:   e_0(x) = 1/sqrt(pi),  e_k(x) = sqrt(2/pi) cos(k x), k >= 1
* Dirichlet: e_k(x) = sqrt(2/pi) sin(k x), k >= 1

In d dimensions the eigenfunctions are tensor products over the axes and
-Laplace e_k = lambda_k e_k with lambda_k = sum_i k_i^2.  The biharmonic
operator has eigenvalue lambda_k^2 on the same basis.

Each axis keeps M modes.  The collocation grid is chosen so that the
quadrature rule underlying the discrete transform integrates products of any
two retained basis functions exactly:

* Neumann: midpoints x_j = (j + 1/2) pi / M with the type-II DCT,
* Dirichlet: interior points x_j = (j + 1) pi / (M + 1) with the type-I DST
  (trapezoid weights; boundary values vanish).

With those pairings the forward transform is plain quadrature against the
basis, round trips are exact to rounding, and Parseval holds on the grid.

The package reads these facts from here only: ``axis_norms`` (the
normalisations), the transform pair ``Basis._forward``/``_inverse`` (bound
once per basis), ``axis_product`` (every per-axis tensor product) and the
integrals of the 1-d factors (``axis_integrals``, ``axis_cell_means`` and
the shifted overlaps of the noise Gram, ``axis_overlap``).

The transform pair is pocketfft's C kernel, bound once per basis together
with its transform types and normalisation codes: the Neumann pair is DCT
type 2 forward and type 3 back, the Dirichlet pair DST type 1 both ways, all
with the orthonormal scale (inorm 1).  Each transform is one single-threaded
kernel call on the trailing d axes (each pass of the pruned route below, one
call on one axis).  These are the arguments ``scipy.fft.dctn``/``idctn``/
``dstn``/``idstn`` with ``norm="ortho"`` (and ``dct``/``idct`` for the
passes) hand to the same kernel at one worker, so the results are bitwise
theirs; only ``scipy.fft``'s per-call Python dispatch is skipped, which on
the small fields of an ensemble step costs several times the transform
itself.  As in ``scipy.fft``, an unaligned input is copied before the kernel
reads it.  ``scipy.fft.set_workers`` has no effect here: parallel work runs
across paths (``spde_ch.cli``), where two workers inside one transform
measured slower than one.  The kernel is loaded from its file in scipy's
``fft/_pocketfft`` directory, so the ``scipy.fft`` package, whose import
costs more than a short run, is never imported.

Each basis computes its constants once: the coefficient scale
spacing^(d/2), the quadrature weight spacing^d and ``shape``.  A basis holds
no buffer: every call allocates its own arrays, which its caller may
keep, and the transforms scale their fresh kernel outputs in place.  The
refined synthesis divides the coefficients straight into its padded buffer.

Refined grids (``values_on_refined_grid``/``coeffs_from_refined_grid``) zero
pad to N = factor * M points per axis.  One padded d-axis transform spends
most of its first passes on lines that are all zero, so where it gives the
same bits the refined transforms run as d one-axis passes over the nonzero
slab instead (FFT pruning, Markel 1971).  pocketfft applies the orthonormal
scale 1/sqrt((2N)^d) once, inside the first pass; separate passes reproduce
that bit for bit only when the scale is an exact power of two 2^-k, because
scaling by 2^-k commutes with rounding.  The pruned route is therefore taken
only for Neumann bases with d >= 3 and (2N)^d a power of four; every other
case keeps the padded call.  (At d = 2 the passes are slower than one padded
call; the DST-I scale of Dirichlet bases is not a power of two.)  The one
limit is the floating-point range: a field whose values all lie below about
1e-304 can differ in the last bits of its subnormal outputs, since 2^-k then
underflows (as can a projection of values within 2^k of overflow).  Mixed
fields and exact zeros are bitwise equal.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import operator
import os

import numpy as np

NEUMANN = "neumann"
DIRICHLET = "dirichlet"

#: hard cap on the total number of retained modes (memory guard)
MAX_TOTAL_MODES = 2**25

#: hard cap on the bytes of one refined-grid synthesis (memory guard)
MAX_REFINED_BYTES = 2**31


def _load_kernel(directory: str):
    """scipy's pypocketfft extension module, loaded from its file in directory.

    The file name is ``pypocketfft`` plus one of the interpreter's extension
    suffixes; anything but exactly one such file raises ImportError.
    """
    name = "pypocketfft"
    suffixes = importlib.machinery.EXTENSION_SUFFIXES
    found = [path for path in (os.path.join(directory, name + s)
                               for s in suffixes) if os.path.isfile(path)]
    if len(found) != 1:
        raise ImportError(
            f"expected one pocketfft kernel file "
            f"{os.path.join(directory, name)}{{{','.join(suffixes)}}}, "
            f"found {len(found)}")
    spec = importlib.util.spec_from_file_location(
        "scipy.fft._pocketfft." + name, found[0])
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


pypocketfft = _load_kernel(os.path.join(
    importlib.util.find_spec("scipy").submodule_search_locations[0],
    "fft", "_pocketfft"))


def _check_bc(bc: str) -> str:
    if bc not in (NEUMANN, DIRICHLET):
        raise ValueError(f"unknown boundary condition {bc!r}; "
                         f"expected {NEUMANN!r} or {DIRICHLET!r}")
    return bc


def _check_factor(factor) -> int:
    try:
        f = operator.index(factor)
    except TypeError:
        f = 0
    if f < 1:
        raise ValueError(
            f"refinement factor must be a positive integer, got {factor!r}")
    return f


def _aligned(x: np.ndarray) -> np.ndarray:
    """x, or a copy of it if its buffer is unaligned: the input the kernel
    gets from scipy.fft, whose ``_asfarray`` makes the same copy."""
    return x if x.flags.aligned else x.copy(order="K")


def axis_norms(bc: str, modes) -> np.ndarray:
    """Normalisation of each 1-d factor e_k: 1/sqrt(pi) for the Neumann k = 0
    mode, sqrt(2/pi) for every other mode."""
    k = np.asarray(modes)
    out = np.full(k.shape, math.sqrt(2.0 / math.pi))
    if _check_bc(bc) == NEUMANN:
        out[k == 0] = 1.0 / math.sqrt(math.pi)
    return out


def axis_product(factors, lead=1.0):
    """lead * (f_0 (x) f_1 (x) ...): factor i is reshaped to axis i of
    len(factors) trailing axes and multiplied in axis order."""
    d = len(factors)
    out = lead
    for i, fac in enumerate(factors):
        shape = [1] * d
        shape[i] = -1
        out = out * np.reshape(fac, shape)
    return out


def axis_eigenfunctions(bc: str, modes, x, deriv: int = 0) -> np.ndarray:
    """deriv-th derivative of the 1-d factors e_k at x, shape (n_modes,) + x.shape.

    Uses d^m/dx^m cos(kx) = k^m cos(kx + m pi/2), and likewise for sin.
    """
    k = np.asarray(modes, dtype=float)
    x = np.asarray(x, dtype=float)
    phase = np.multiply.outer(k, x) + deriv * math.pi / 2
    scale = (axis_norms(bc, k) * k**deriv).reshape(k.shape + (1,) * x.ndim)
    if bc == NEUMANN:
        out = scale * np.cos(phase)
        if deriv:
            out[k == 0] = 0.0       # 0 * cos(pi) would leave -0.0
        return out
    return scale * np.sin(phase)


def axis_integrals(bc: str, modes) -> np.ndarray:
    """Per-axis integrals int_0^pi e_k(x) dx."""
    k = np.asarray(modes, dtype=float)
    if _check_bc(bc) == NEUMANN:
        out = np.zeros(k.shape)
        out[k == 0] = math.pi / math.sqrt(math.pi)
        return out
    return axis_norms(bc, k) * (1.0 - np.cos(k * math.pi)) / k


def axis_cell_means(bc: str, modes, n_cells: int) -> np.ndarray:
    """P_{kj} = (1/h) int_{cell_j} e_k(x) dx for n_cells uniform cells on [0, pi]."""
    h = math.pi / n_cells
    edges = h * np.arange(n_cells + 1)
    P = np.empty((len(modes), n_cells))
    for i, (k, nk) in enumerate(zip(modes, axis_norms(bc, modes))):
        if k == 0:
            P[i] = nk
        elif bc == NEUMANN:
            P[i] = nk * (np.sin(k * edges[1:]) - np.sin(k * edges[:-1])) / (k * h)
        else:
            P[i] = nk * (np.cos(k * edges[:-1]) - np.cos(k * edges[1:])) / (k * h)
    return P


def _cos_integral(lib, a, b, L):
    """int_0^L cos(a z + b) dz, through lib (math or numpy)."""
    if a == 0:
        return L * lib.cos(b)
    return (lib.sin(a * L + b) - lib.sin(b)) / a


def axis_overlap(bc: str, k: int, l: int):
    """u -> c_kl(u) + c_lk(u), c_kl(u) = int_0^{pi-u} e_k(z+u) e_l(z) dz by
    product-to-sum, for u >= 0 a float (through math) or an array (numpy)."""
    k, l = int(k), int(l)
    nk, nl = (float(n) for n in axis_norms(bc, [k, l]))
    sign = 1.0 if bc == NEUMANN else -1.0

    def overlap(u):
        lib = math if isinstance(u, float) else np
        L = math.pi - u
        ckl = 0.5 * (_cos_integral(lib, k - l, k * u, L)
                     + sign * _cos_integral(lib, k + l, k * u, L))
        clk = 0.5 * (_cos_integral(lib, l - k, l * u, L)
                     + sign * _cos_integral(lib, l + k, l * u, L))
        return nk * nl * (ckl + clk)

    return overlap


class Basis:
    """Truncated eigenbasis with M modes per axis in dimension d.

    Parameters
    ----------
    bc : str
        ``"neumann"`` or ``"dirichlet"``.
    dim : int
        Spatial dimension, 1..5.
    modes_per_axis : int
        Number of retained modes M per axis.  Neumann keeps k = 0..M-1,
        Dirichlet keeps k = 1..M, so coefficient tensors have shape (M,)*d
        either way.
    """

    def __init__(self, bc: str, dim: int, modes_per_axis: int):
        self.bc = _check_bc(bc)
        if not 1 <= int(dim) <= 5:
            raise ValueError(f"dim must be in 1..5, got {dim}")
        if modes_per_axis < 1:
            raise ValueError(f"modes_per_axis must be >= 1, got {modes_per_axis}")
        self.dim = int(dim)
        self.modes_per_axis = int(modes_per_axis)
        if self.modes_per_axis ** self.dim > MAX_TOTAL_MODES:
            raise ValueError(
                f"{modes_per_axis}^{dim} modes exceeds the cap {MAX_TOTAL_MODES}")

        M = self.modes_per_axis
        self.shape = (M,) * self.dim
        self.spacing = self._fine_spacing(1)
        self._scale = self.spacing ** (self.dim / 2.0)
        self._quad_weight = self.spacing ** self.dim
        if self.bc == NEUMANN:
            self.axis_modes = np.arange(M)
            self.axis_points = (np.arange(M) + 0.5) * self.spacing
            # dctn/idctn(type=2) reach the kernel as DCT types 2 and 3
            self._kernel, self._types = pypocketfft.dct, (2, 3)
        else:
            self.axis_modes = np.arange(1, M + 1)
            self.axis_points = np.arange(1, M + 1) * self.spacing
            # dstn/idstn(type=1) are DST type 1 both ways
            self._kernel, self._types = pypocketfft.dst, (1, 1)
        # the pair acts on the trailing d axes, so stacked fields transform too
        self._axes = tuple(range(-self.dim, 0))

        # lambda_k = sum_i k_i^2 as a dense (M,)*d tensor
        sq = self.axis_modes.astype(float) ** 2
        lam = sq
        for _ in range(self.dim - 1):
            lam = lam[..., None] + sq
        self.laplace_eigenvalues = np.ascontiguousarray(lam)
        self.biharmonic_eigenvalues = self.laplace_eigenvalues ** 2
        self._neg_laplace = -self.laplace_eigenvalues

    # ------------------------------------------------------------------
    # basic queries

    @property
    def n_modes(self) -> int:
        return self.modes_per_axis ** self.dim

    def eigenvalue(self, k) -> float:
        """lambda_k = sum_i k_i^2 for a multi-index k."""
        k = np.atleast_1d(np.asarray(k, dtype=float))
        if k.shape[-1] != self.dim:
            raise ValueError(f"multi-index has length {k.shape[-1]}, expected {self.dim}")
        self._check_modes(k)
        return float(np.sum(k * k, axis=-1)) if k.ndim == 1 else np.sum(k * k, axis=-1)

    def _check_modes(self, k) -> None:
        lo = self.axis_modes[0]
        hi = self.axis_modes[-1]
        if np.any(k < lo) or np.any(k > hi):
            raise ValueError(f"mode index out of range [{lo}, {hi}] for bc={self.bc!r}")

    def axis_function(self, k: int, x, deriv: int = 0):
        """Evaluate the 1-d factor e_k (or its deriv-th derivative) at x."""
        k = int(k)
        self._check_modes(np.array([k]))
        return axis_eigenfunctions(self.bc, [k], x, deriv)[0]

    def eigenfunction(self, k, points, derivs=None):
        """Evaluate the tensor eigenfunction e_k at points.

        Parameters
        ----------
        k : sequence of int, length d
        points : array, shape (..., d) (or (...,) when d == 1)
        derivs : optional per-axis derivative orders (for probe evaluations).
        """
        k = np.atleast_1d(np.asarray(k))
        if k.size != self.dim:
            raise ValueError(f"multi-index must have {self.dim} entries")
        pts = np.asarray(points, dtype=float)
        if self.dim == 1 and (pts.ndim == 0 or pts.shape[-1] != 1):
            pts = pts[..., None]
        if pts.shape[-1] != self.dim:
            raise ValueError(f"points must have trailing dim {self.dim}")
        if derivs is None:
            derivs = (0,) * self.dim
        out = np.ones(pts.shape[:-1], dtype=float)
        for i in range(self.dim):
            out = out * self.axis_function(int(k[i]), pts[..., i], deriv=int(derivs[i]))
        return out

    def grid(self):
        """Tensor mesh of collocation points, shape (M,)*d + (d,)."""
        axes = np.meshgrid(*([self.axis_points] * self.dim), indexing="ij")
        return np.stack(axes, axis=-1)

    # ------------------------------------------------------------------
    # transforms

    def _fine_spacing(self, factor: int) -> float:
        M = factor * self.modes_per_axis
        return math.pi / M if self.bc == NEUMANN else math.pi / (M + 1)

    def _forward(self, x: np.ndarray) -> np.ndarray:
        """Orthonormal forward transform on the trailing d axes: the kernel
        call of ``scipy.fft.dctn(type=2)``/``dstn(type=1)``, norm "ortho"."""
        return self._kernel(x, self._types[0], self._axes, 1, None, 1)

    def _inverse(self, x: np.ndarray, out=None) -> np.ndarray:
        """Inverse of ``_forward``; out=x transforms in place, as
        ``overwrite_x=True`` does."""
        return self._kernel(x, self._types[1], self._axes, 1, out, 1)

    def _forward_axis(self, x: np.ndarray, axis: int) -> np.ndarray:
        """Unscaled one-axis pass of the pruned route (Neumann only): the
        kernel call of ``scipy.fft.dct(type=2, norm="backward",
        orthogonalize=True)``."""
        return self._kernel(x, 2, (axis,), 0, None, 1, True)

    def _inverse_axis(self, x: np.ndarray, n: int, axis: int) -> np.ndarray:
        """Zero pad ``axis`` to n points and run the unscaled inverse pass in
        place: ``scipy.fft.idct(type=2, n=n, norm="forward",
        orthogonalize=True)``."""
        shape = list(x.shape)
        shape[axis] = n
        padded = np.zeros(shape)
        padded[(..., slice(0, x.shape[axis])) + (slice(None),) * (-axis - 1)] = x
        return self._kernel(padded, 3, (axis,), 0, padded, 1, True)

    def transform(self, values: np.ndarray) -> np.ndarray:
        """Grid values -> coefficients (quadrature against the basis).

        Accepts stacked inputs: transforms act on the trailing d axes.
        """
        values = _aligned(np.asarray(values, dtype=float))
        self._check_grid_shape(values)
        out = self._forward(values)
        out *= self._scale
        return out

    def inverse_transform(self, coeffs: np.ndarray) -> np.ndarray:
        """Coefficients -> values on the collocation grid."""
        coeffs = np.asarray(coeffs, dtype=float)
        self._check_grid_shape(coeffs)
        scaled = coeffs / self._scale
        return self._inverse(scaled, out=scaled)

    def _check_grid_shape(self, arr: np.ndarray) -> None:
        if arr.ndim < self.dim or arr.shape[-self.dim:] != self.shape:
            raise ValueError(
                f"array trailing shape {arr.shape} does not match basis shape {self.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("non-finite entries in field")

    # ------------------------------------------------------------------
    # spectral multipliers

    def laplacian(self, coeffs: np.ndarray) -> np.ndarray:
        """Apply the Laplacian: multiply mode k by -lambda_k."""
        return np.asarray(coeffs) * self._neg_laplace

    def biharmonic(self, coeffs: np.ndarray) -> np.ndarray:
        """Apply Laplace^2: multiply mode k by +lambda_k^2."""
        return np.asarray(coeffs) * self.biharmonic_eigenvalues

    def derivative(self, coeffs: np.ndarray, orders) -> np.ndarray:
        """Apply an even-order mixed derivative D^a, a = (a_1..a_d).

        Mode k picks up the factor prod_i (-k_i^2)^(a_i/2); odd orders leave
        the span of the basis and are rejected.
        """
        orders = tuple(int(a) for a in np.atleast_1d(orders))
        if len(orders) != self.dim:
            raise ValueError(f"need {self.dim} derivative orders, got {len(orders)}")
        if any(a < 0 or a % 2 for a in orders):
            raise ValueError(f"derivative orders must be even and >= 0, got {orders}")
        sq = -(self.axis_modes.astype(float) ** 2)
        return axis_product([sq ** (a // 2) for a in orders],
                            lead=np.asarray(coeffs, dtype=float))

    # ------------------------------------------------------------------
    # dealiased pointwise nonlinearities

    def _pruned_scale(self, factor: int):
        """2^-k when the refined transforms may run as pruned one-axis passes.

        That is a Neumann basis with d >= 3 whose padded orthonormal scale
        1/sqrt((2 factor M)^d) is exactly 2^-k; otherwise None.
        """
        if self.bc != NEUMANN or self.dim < 3:
            return None
        n = (2 * factor * self.modes_per_axis) ** self.dim
        log2 = n.bit_length() - 1
        if n != 1 << log2 or log2 % 2:
            return None
        return math.ldexp(1.0, -(log2 // 2))

    def values_on_refined_grid(self, coeffs: np.ndarray, factor: int = 2) -> np.ndarray:
        """Synthesize the field on a factor-times finer grid (zero padding).

        Neumann bases with d >= 3 and (2 factor M)^d a power of four take the
        pruned route of the module docstring: d one-axis passes over the
        nonzero slab, bitwise equal to the padded transform except where
        the coefficients all lie below about 1e-304 (subnormal outputs).
        Outputs above ``MAX_REFINED_BYTES`` are refused before allocation.
        """
        coeffs = np.asarray(coeffs, dtype=float)
        self._check_grid_shape(coeffs)
        factor = _check_factor(factor)
        M = self.modes_per_axis
        shape = coeffs.shape[:-self.dim] + (factor * M,) * self.dim
        nbytes = math.prod(shape) * coeffs.itemsize
        if nbytes > MAX_REFINED_BYTES:
            raise ValueError(
                f"a factor-{factor} refined grid of shape {shape} needs {nbytes} "
                f"bytes, above MAX_REFINED_BYTES = {MAX_REFINED_BYTES}")
        h_scale = self._fine_spacing(factor) ** (self.dim / 2.0)
        scale = self._pruned_scale(factor)
        if scale is None:
            padded = np.zeros(shape, dtype=float)
            np.divide(coeffs, h_scale,
                      out=padded[(...,) + (slice(0, M),) * self.dim])
            return self._inverse(padded, out=padded)
        cur = coeffs / h_scale
        cur *= scale
        for ax in range(-self.dim, 0):
            cur = self._inverse_axis(cur, factor * M, ax)
        return cur

    def coeffs_from_refined_grid(self, values: np.ndarray, factor: int = 2) -> np.ndarray:
        """Project fine-grid values back onto the retained modes.

        Takes the same pruned route as ``values_on_refined_grid``, slicing
        each one-axis pass to the M retained modes before the next.
        """
        values = _aligned(np.asarray(values, dtype=float))
        factor = _check_factor(factor)
        M = self.modes_per_axis
        if values.shape[-self.dim:] != (factor * M,) * self.dim:
            raise ValueError("refined grid shape mismatch")
        h = self._fine_spacing(factor)
        scale = self._pruned_scale(factor)
        if scale is None:
            full = self._forward(values)[(...,) + (slice(0, M),) * self.dim]
            return full * h ** (self.dim / 2.0)
        cur = values
        for ax in range(-self.dim, 0):
            keep = (..., slice(0, M)) + (slice(None),) * (-ax - 1)
            cur = self._forward_axis(cur, ax)[keep]
        cur = cur * scale
        cur *= h ** (self.dim / 2.0)
        return cur

    def dealiased_apply(self, fn, coeffs: np.ndarray, factor: int = 2) -> np.ndarray:
        """Coefficients of fn(u) for a pointwise fn, evaluated alias-free.

        factor=2 integrates cubic nonlinearities of retained modes exactly.
        """
        vals = self.values_on_refined_grid(coeffs, factor=factor)
        return self.coeffs_from_refined_grid(fn(vals), factor=factor)

    # ------------------------------------------------------------------
    # grid functionals

    def quad_weight(self) -> float:
        return self._quad_weight

    def integrate(self, values: np.ndarray) -> float:
        return float(np.sum(values) * self.quad_weight())

    def lq_norm(self, values: np.ndarray, q: float) -> float:
        """||.||_{L^q(Q)} of a grid field; q = inf gives the sup norm."""
        v = np.abs(np.asarray(values, dtype=float))
        if math.isinf(q):
            return float(v.max())
        if q < 1:
            raise ValueError(f"q must be >= 1 or inf, got {q}")
        v **= q
        return float((v.sum() * self._quad_weight) ** (1.0 / q))

    def __repr__(self) -> str:  # pragma: no cover
        return f"Basis(bc={self.bc!r}, dim={self.dim}, modes_per_axis={self.modes_per_axis})"


# ----------------------------------------------------------------------
# thin field wrappers used at API boundaries

class SpectralField:
    """A field identified by its coefficient tensor on a Basis."""

    def __init__(self, basis: Basis, coeffs: np.ndarray):
        coeffs = np.asarray(coeffs, dtype=float)
        basis._check_grid_shape(coeffs)
        self.basis = basis
        self.coeffs = coeffs

    def to_grid(self) -> "GridField":
        return GridField(self.basis, self.basis.inverse_transform(self.coeffs))

    def l2_norm(self) -> float:
        return float(np.sqrt(np.sum(self.coeffs**2)))


class GridField:
    """A field sampled on the collocation grid of a Basis."""

    def __init__(self, basis: Basis, values: np.ndarray):
        values = np.asarray(values, dtype=float)
        basis._check_grid_shape(values)
        self.basis = basis
        self.values = values

    def to_spectral(self) -> SpectralField:
        return SpectralField(self.basis, self.basis.transform(self.values))


def apply_operator(field: SpectralField, op: str, orders=None) -> SpectralField:
    """Apply a constant-coefficient operator to a spectral field.

    op is one of ``"laplacian"``, ``"biharmonic"``, ``"derivative"`` (the
    latter takes even per-axis orders).
    """
    b = field.basis
    if op == "laplacian":
        return SpectralField(b, b.laplacian(field.coeffs))
    if op == "biharmonic":
        return SpectralField(b, b.biharmonic(field.coeffs))
    if op == "derivative":
        if orders is None:
            raise ValueError("derivative requires per-axis orders")
        return SpectralField(b, b.derivative(field.coeffs, orders))
    raise ValueError(f"unknown operator {op!r}")
