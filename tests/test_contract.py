"""What every refactor must keep: the public names and the README example,
with no public code outside them that nothing in the package reads.

The third part of the contract, the CLI (configs, file formats, --threads
and SPDE_CH_THREADS), is covered in tests/test_cli.py.
"""

import ast
import math
import os
import re
import subprocess
import sys
from collections import Counter

import spde_ch

PUBLIC_NAMES = [
    "NEUMANN", "DIRICHLET", "Basis", "SpectralField", "GridField",
    "apply_operator", "CovarianceSpec", "cahn_hilliard_integrability",
    "gram_operator", "holder_integrability", "moment_integrability",
    "small_ball_integral", "stochastic_integrability", "KernelExponents",
    "apply_semigroup", "chapman_kolmogorov_check", "diagonal_scaling_check",
    "fit_kernel_bound", "green_function", "decomposition_terms",
    "density_criterion", "malliavin_matrix", "tangent_propagate",
    "thinning_check", "empirical_covariance_test", "make_backend", "TIME",
    "Ensemble", "LinearOracle", "holder_exponent", "moment_track",
    "structure_function", "u0_regularity_check", "ModelSpec", "SolverConfig",
    "Trajectory", "convolution_bound_check", "deterministic_convolution",
    "energy_diagnostics", "picard_solve", "simulate", "__version__",
]

PKG = os.path.dirname(os.path.abspath(spde_ch.__file__))
SRC = os.path.dirname(PKG)
README = os.path.join(os.path.dirname(SRC), "README.md")


def test_public_names_unchanged_and_resolve():
    assert len(PUBLIC_NAMES) == 42
    assert spde_ch.__all__ == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(spde_ch, name) is not None, name


def _library_example() -> str:
    with open(README) as fh:
        text = fh.read()
    section = text.split("## Library example", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "README has no python block under 'Library example'"
    return match.group(1)


def test_readme_library_example_runs():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", _library_example()], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert math.isfinite(float(proc.stdout.strip().splitlines()[-1]))


def test_eigenbasis_facts_live_in_basis_only():
    """The normalisation sqrt(2/pi), the DCT/DST calls, d-axis and one-axis,
    and the pocketfft kernel behind them are written only in
    spde_ch/basis.py; every other module reads them from there."""
    pattern = re.compile(r"sqrt\(2\.0 / math\.pi\)|sfft\.i?d[cs]tn?\b"
                         r"|_pocketfft|pypocketfft")
    assert pattern.search("sfft.idct(x)") and pattern.search("sfft.dst(x)")
    assert pattern.search("from scipy.fft._pocketfft import pypocketfft")
    assert pattern.search("pypocketfft.dct(x, 2)")
    assert not pattern.search("sfft.set_workers(2)")
    assert not pattern.search("sfft.get_workers()")
    owners = set()
    for name in sorted(os.listdir(PKG)):
        if name.endswith(".py"):
            with open(os.path.join(PKG, name)) as fh:
                if pattern.search(fh.read()):
                    owners.add(name)
    assert owners == {"basis.py"}


#: public definitions that neither ``__all__`` nor any other package code
#: names, each kept on purpose
UNREFERENCED_ALLOWED = {
    # the README's documented reader for snapshots.bin
    "cli.read_snapshot",
    # the guarded entry point of the radial integrals, pinned by GOLDEN
    "covariance.radial_integral",
    # the tests' dense-Q helper
    "covariance.gram_matrix",
}


def _identifiers(tree):
    """Every name a tree reads: bare names, attributes and imported names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def test_every_public_definition_is_exported_or_used():
    """A public module-level function or class is in ``__all__`` or is named
    by other package code; a checker that no run reads gets deleted, not
    kept alive by its tests."""
    trees = {}
    for name in sorted(os.listdir(PKG)):
        if name.endswith(".py"):
            with open(os.path.join(PKG, name)) as fh:
                trees[name[:-3]] = ast.parse(fh.read())
    uses = Counter(i for tree in trees.values() for i in _identifiers(tree))
    unreferenced = set()
    for module, tree in trees.items():
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")
                    and node.name not in spde_ch.__all__):
                own = sum(i == node.name for i in _identifiers(node))
                if uses[node.name] == own:
                    unreferenced.add(f"{module}.{node.name}")
    assert unreferenced == UNREFERENCED_ALLOWED
