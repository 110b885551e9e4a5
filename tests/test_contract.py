"""What every refactor must keep: the public names and the README example,
with no public code outside them that nothing in the package reads.

The third part of the contract, the CLI (configs, file formats and
--threads), is covered in tests/test_cli.py; here, only the shape of its
path pool: one pooled stage per command, and --threads as its one knob.
"""

import ast
import math
import os
import re
import subprocess
import sys

import spde_ch
from spde_ch import cli

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


#: the one output writer of the CLI: run, the writer it calls per file, and
#: the JSON and snapshot routines that writer shares with the manifest and
#: with library callers
CLI_WRITERS = {"run", "_write", "_write_json", "write_snapshot"}


def _writes(node):
    """Whether node calls a file writer of the CLI, or open() in a mode
    other than reading."""
    for call in ast.walk(node):
        if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)):
            continue
        if call.func.id in {"_write", "_write_json", "_write_csv",
                            "_write_jsonl", "write_snapshot"}:
            return True
        if call.func.id == "open":
            mode = call.args[1] if len(call.args) > 1 else next(
                (k.value for k in call.keywords if k.arg == "mode"), None)
            if mode is not None and not (isinstance(mode, ast.Constant)
                                         and set(mode.value) <= set("rbt")):
                return True
    return False


def test_cli_commands_compute_and_run_writes():
    """Each command handler takes (config, basis, threads) and returns its
    outputs; only run and its writer touch the output directory, so a
    command that raises leaves it as it was."""
    with open(os.path.join(PKG, "cli.py")) as fh:
        tree = ast.parse(fh.read())
    writing = {getattr(node, "name", "<module>") for node in tree.body
               if _writes(node)}
    assert writing == CLI_WRITERS
    handlers = {node.name: [a.arg for a in node.args.args]
                for node in tree.body if isinstance(node, ast.FunctionDef)
                and node.name.startswith("_cmd_")}
    assert len(handlers) == 6
    for name, params in handlers.items():
        assert params == ["config", "basis", "threads"], name
    assert cli.COMMANDS == tuple(cli._HANDLERS)


def _pool_shape(source):
    """({function: its _map_paths call sites} for every top-level function
    of source that calls it, and the lines that read the environment)."""
    tree = ast.parse(source)
    stages = {}
    for node in tree.body:
        calls = sum(isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Name)
                    and call.func.id == "_map_paths"
                    for call in ast.walk(node))
        if calls:
            stages[getattr(node, "name", "<module>")] = calls
    environ = sorted(
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in (
            "environ", "environb", "getenv", "getenvb")
        or isinstance(node, ast.ImportFrom) and node.module == "os"
        and any(a.name.startswith(("environ", "getenv")) for a in node.names))
    return stages, environ


def test_the_pool_shape_rule_reads_calls_and_reads():
    source = ("import os\nfrom os import getenv\n"
              "def _cmd_a(c, b, t):\n"
              "    def task(p):\n        return p\n"
              "    x = _map_paths(task, 2, t)\n    return _map_paths(task, 1, t)\n"
              "def _cmd_b(c, b, t):\n    return os.environ.get('X'), _map_paths\n")
    assert _pool_shape(source) == ({"_cmd_a": 2}, [2, 9])


def test_each_command_runs_one_pooled_stage_and_reads_no_environment():
    """Only command handlers run paths, each through one _map_paths call,
    and the CLI reads no environment variable: --threads alone sets the
    width of the pool."""
    with open(os.path.join(PKG, "cli.py")) as fh:
        stages, environ = _pool_shape(fh.read())
    assert stages == {"_cmd_simulate": 1, "_cmd_regularity": 1,
                      "_cmd_malliavin": 1}
    assert environ == []
