"""Span tracer that wraps spde_ch's public callables from outside.

The library is not edited: ``Tracer.install`` replaces each traced
callable with a timing wrapper, both where it is defined and under every
name another ``spde_ch`` module imported it as (``spde_ch.cli`` calls
``simulate``, ``validate`` and friends through its own globals).  Spans
stay in memory until ``write`` is called at the end of the run.

Self time is a span's duration minus the time its child spans cover.
Spans nest on one stack, so traced runs must be single-threaded
(``--threads 1``).  The bookkeeping of the observers (hashing inputs,
reading returned objects) is charged to no span.
"""

import hashlib
import itertools
import json
import math
import sys
import time
from collections import defaultdict

import numpy as np

# (span name, module, attribute path) of every traced callable.  Methods
# are patched on their class.  ``greens`` is left out on purpose: no
# command on a hot path spends time there.
TARGETS = (
    ("basis.transform", "basis", "Basis.transform"),
    ("basis.inverse_transform", "basis", "Basis.inverse_transform"),
    ("basis.values_on_refined_grid", "basis", "Basis.values_on_refined_grid"),
    ("basis.coeffs_from_refined_grid", "basis",
     "Basis.coeffs_from_refined_grid"),
    ("basis.lq_norm", "basis", "Basis.lq_norm"),
    ("covariance.gram_operator", "covariance", "gram_operator"),
    ("covariance.KroneckerMixtureGram.dense", "covariance",
     "KroneckerMixtureGram.dense"),
    ("covariance.stochastic_integrability", "covariance",
     "stochastic_integrability"),
    ("covariance.cahn_hilliard_integrability", "covariance",
     "cahn_hilliard_integrability"),
    ("noise.make_backend", "noise", "make_backend"),
    ("noise.sample_coefficients", "noise", "NoiseBackend.sample_coefficients"),
    ("solver.simulate", "solver", "simulate"),
    ("solver.energy_diagnostics", "solver", "energy_diagnostics"),
    ("regularity.structure_function", "regularity", "structure_function"),
    ("regularity.holder_exponent", "regularity", "holder_exponent"),
    ("regularity.moment_track", "regularity", "moment_track"),
    ("malliavin.tangent_propagate", "malliavin", "tangent_propagate"),
    ("malliavin.malliavin_matrix", "malliavin", "malliavin_matrix"),
    ("malliavin.decomposition_terms", "malliavin", "decomposition_terms"),
    ("malliavin.density_criterion", "malliavin", "density_criterion"),
    ("cli.run", "cli", "run"),
    ("cli.validate", "cli", "validate"),
)

# Spans whose calls and self time are reported as per-layer metrics.
CALL_METRICS = (
    "basis.transform", "basis.inverse_transform",
    "basis.values_on_refined_grid", "basis.coeffs_from_refined_grid",
    "basis.lq_norm",
    "covariance.gram_operator", "covariance.KroneckerMixtureGram.dense",
    "covariance.stochastic_integrability",
    "covariance.cahn_hilliard_integrability",
    "noise.sample_coefficients",
    "solver.simulate", "solver.energy_diagnostics",
    "malliavin.tangent_propagate", "malliavin.malliavin_matrix",
    "malliavin.decomposition_terms", "malliavin.density_criterion",
)
SELF_ONLY_METRICS = (
    "noise.make_backend",
    "regularity.structure_function", "regularity.holder_exponent",
    "regularity.moment_track",
    "cli.run", "cli.validate",
)
TRANSFORMS = ("basis.transform", "basis.inverse_transform",
              "basis.values_on_refined_grid", "basis.coeffs_from_refined_grid")


def replace_everywhere(original, replacement) -> list:
    """Rebind every name in a loaded ``spde_ch`` module that refers to
    ``original``; returns (module, name, original) for each one."""
    replaced = []
    for mod_name, module in list(sys.modules.items()):
        if mod_name == "spde_ch" or mod_name.startswith("spde_ch."):
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, replacement)
                    replaced.append((module, key, original))
    return replaced


def _digest(arr) -> bytes:
    arr = np.ascontiguousarray(arr, dtype=float)
    h = hashlib.blake2b(digest_size=16)
    h.update(repr(arr.shape).encode())
    h.update(arr.data)
    return h.digest()


class Tracer:
    """Timing wrappers, span store and the counters read at layer boundaries."""

    def __init__(self):
        self.spans = []                  # (id, parent, name, start, end)
        self._stack = []                 # [span id, time covered by children]
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self.facts = {}
        self._inverse_inputs = set()
        self._ids = itertools.count()
        self._restore = []

    # -- observers: count work from arguments and returned objects --------

    def _fields(self, name, args):
        basis, arr = args[0], np.asarray(args[1])
        if arr.size:
            field_size = math.prod(arr.shape[arr.ndim - basis.dim:])
            self.counts["basis.fields"] += arr.size / field_size
        if name == "basis.inverse_transform":
            self._inverse_inputs.add(_digest(arr))

    def _after(self, name, result):
        c = self.counts
        if name == "basis.values_on_refined_grid":
            c["basis.values_on_refined_grid.points"] += result.size
        elif name == "solver.simulate":
            weights = np.asarray(result.weights)
            c["solver.steps"] += weights.size
            c["solver.cutoff_active_steps"] += int(np.sum(weights < 1.0))
            c["solver.exploded"] += bool(result.exploded)
            c["solver.stopped"] += result.stop_time is not None
        elif name == "noise.make_backend":
            self.facts["noise.dropped_mass"] = float(
                getattr(result, "dropped_mass", 0.0))
            self.facts["noise.n_directions"] = int(result.n_directions)
        elif name == "malliavin.tangent_propagate":
            c["malliavin.tangent_bytes"] += (result.derivatives.nbytes
                                             + result.leads.nbytes)

    # -- wrapping ---------------------------------------------------------

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        calls, self_s = self.calls, self.self_s
        ids = self._ids
        observe_args = name in TRANSFORMS
        clock = time.perf_counter

        def traced(*args, **kwargs):
            t_hook = clock()
            if observe_args:
                self._fields(name, args)
            sid = next(ids)
            parent = stack[-1] if stack else None
            frame = [sid, 0.0]
            start = clock()
            if parent is not None:
                parent[1] += start - t_hook
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                calls[name] += 1
                self_s[name] += (end - start) - frame[1]
                spans.append((sid, parent[0] if parent else -1, name,
                              start, end))
                if parent is not None:
                    parent[1] += end - start
            self._after(name, result)
            if parent is not None:
                parent[1] += clock() - end
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Patch every target, in its module and wherever it was imported."""
        import spde_ch.cli  # noqa: F401 - loads every traced module

        for name, mod_name, attr in TARGETS:
            module = sys.modules[f"spde_ch.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, self.wrap(name, original))
                self._restore.append((cls, meth, original))
            else:
                original = getattr(module, attr)
                self._restore += replace_everywhere(
                    original, self.wrap(name, original))

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    # -- results ----------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics, by name, as plain floats."""
        out = {}
        for name in CALL_METRICS:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        for name in SELF_ONLY_METRICS:
            out[f"{name}.self_s"] = self.self_s[name]
        inv_calls = self.calls["basis.inverse_transform"]
        out["basis.inverse_transform.unique_frac"] = (
            len(self._inverse_inputs) / inv_calls if inv_calls else 0.0)
        n_transforms = sum(self.calls[n] for n in TRANSFORMS)
        out["basis.fields_per_call"] = (
            self.counts["basis.fields"] / n_transforms if n_transforms else 0.0)
        c = self.counts
        out["basis.values_on_refined_grid.points"] = \
            c["basis.values_on_refined_grid.points"]
        out["noise.dropped_mass"] = self.facts.get("noise.dropped_mass", 0.0)
        out["noise.n_directions"] = self.facts.get("noise.n_directions", 0)
        out["solver.steps"] = c["solver.steps"]
        out["solver.cutoff_active_frac"] = (
            c["solver.cutoff_active_steps"] / c["solver.steps"]
            if c["solver.steps"] else 0.0)
        out["solver.exploded"] = c["solver.exploded"]
        out["solver.stopped"] = c["solver.stopped"]
        out["malliavin.tangent_bytes"] = c["malliavin.tangent_bytes"]
        out["trace.summed_self_s"] = sum(self.self_s.values())
        return {k: float(v) for k, v in out.items()}

    def write(self, path):
        """Write the per-layer metrics and every span as JSON lines."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"metrics": self.metrics()}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
