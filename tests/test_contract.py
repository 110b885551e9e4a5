"""What every refactor must keep: the public names and the README example.

The third part of the contract, the CLI (configs, file formats, --threads
and SPDE_CH_THREADS), is covered in tests/test_cli.py.
"""

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

SRC = os.path.dirname(os.path.dirname(os.path.abspath(spde_ch.__file__)))
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
