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
    """The normalisation sqrt(2/pi) and every call of ``axis_norms``, the
    sin/cos of an eigenfunction formula, the DCT/DST calls, d-axis and
    one-axis, and the pocketfft kernel behind them are written only in
    spde_ch/basis.py; every other module reads them from there."""
    pattern = re.compile(r"sqrt\(2\.0 / math\.pi\)|sfft\.i?d[cs]tn?\b"
                         r"|_pocketfft|pypocketfft"
                         r"|\b(?:np|math)\.(?:sin|cos)\(|\baxis_norms\(")
    assert pattern.search("sfft.idct(x)") and pattern.search("sfft.dst(x)")
    assert pattern.search("from scipy.fft._pocketfft import pypocketfft")
    assert pattern.search("pypocketfft.dct(x, 2)")
    assert pattern.search("np.sin(k * x)") and pattern.search("math.cos(b)")
    assert pattern.search("norms = axis_norms(bc, modes)")
    assert not pattern.search("sfft.set_workers(2)")
    assert not pattern.search("sfft.get_workers()")
    assert not pattern.search("np.sinh(x) + math.cosh(x) + np.arcsin(x)")
    assert not pattern.search("from .basis import axis_norms")
    owners = set()
    for name in sorted(os.listdir(PKG)):
        if name.endswith(".py"):
            with open(os.path.join(PKG, name)) as fh:
                if pattern.search(fh.read()):
                    owners.add(name)
    assert owners == {"basis.py"}


def test_semigroup_lives_in_greens_only():
    """Every e^{-lambda^2 t} of the package goes through
    ``greens._semigroup``: ``np.exp(`` is written only in spde_ch/greens.py
    and in spde_ch/covariance.py (the nodes of the Riesz mixture)."""
    owners = set()
    for name in sorted(os.listdir(PKG)):
        if name.endswith(".py"):
            with open(os.path.join(PKG, name)) as fh:
                if "np.exp(" in fh.read():
                    owners.add(name)
    assert owners == {"greens.py", "covariance.py"}


#: public definitions that are neither in ``__all__`` nor read by any
#: package code, each kept on purpose
UNREFERENCED_ALLOWED = {
    # the README's documented reader for snapshots.bin
    "cli.read_snapshot",
    # the guarded entry point of the radial integrals, pinned by GOLDEN
    "covariance.radial_integral",
    # the tests' dense-Q helper
    "covariance.gram_matrix",
}


def _reads(tree, modules):
    """(module, name) of each package definition that a module reads from
    another one: imported by name, or read as module.name."""
    bound = {}      # local name -> the package module it is bound to
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = (node.module or "").removeprefix("spde_ch").lstrip(".")
            for alias in node.names:
                if source in modules:
                    yield source, alias.name
                elif not source and alias.name in modules:
                    bound[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                package, _, module = alias.name.partition(".")
                if package == "spde_ch" and module in modules and alias.asname:
                    bound[alias.asname] = module
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in bound):
            yield bound[node.value.id], node.attr


def _named_outside(tree, definition):
    """Whether the module names a definition anywhere outside its body."""
    inside = {id(node) for node in ast.walk(definition)}
    return any(isinstance(node, ast.Name) and node.id == definition.name
               and id(node) not in inside for node in ast.walk(tree))


def _unreferenced(sources, exported):
    """module.name of each public module-level function or class that is
    not in exported and that no module reads: no other module imports it
    by name or reads it as module.name, and its own module does not name
    it outside its body."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    reads = {pair for tree in trees.values() for pair in _reads(tree, trees)}
    return {f"{module}.{node.name}"
            for module, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_") and node.name not in exported
            and (module, node.name) not in reads
            and not _named_outside(tree, node)}


def test_the_unused_definition_rule_reads_names_not_spellings():
    """A parameter, keyword or attribute that merely shares a definition's
    name does not keep it alive; the three ways of reading it do."""
    sources = {
        "solver": "def step(): pass\ndef kept(): pass\nkept()\n"
                  "def inner():\n    inner()\n",
        "noise": "def draw(step):\n    return step.step\n",
        "cli": "from .solver import kept\nfrom . import solver as s\n"
               "s.inner\nsolver.step\n",
    }
    assert _unreferenced(sources, ()) == {"noise.draw", "solver.step"}
    assert _unreferenced(sources, ("draw", "step")) == set()


def test_every_public_definition_is_exported_or_used():
    """A public module-level function or class is in ``__all__`` or is read
    by other package code; a checker that no run reads gets deleted, not
    kept alive by its tests."""
    sources = {}
    for name in sorted(os.listdir(PKG)):
        if name.endswith(".py"):
            with open(os.path.join(PKG, name)) as fh:
                sources[name[:-3]] = fh.read()
    assert _unreferenced(sources, spde_ch.__all__) == UNREFERENCED_ALLOWED
