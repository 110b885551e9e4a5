"""What importing the package, setting up a Riesz run and running it load.

Quadrature (scipy.integrate, which pulls in scipy.optimize) and scipy.linalg
are imported only on the routes that use them, and no route of a simulate
run imports scipy.fft or scipy.special (both load scipy's array-API layer,
whose import costs more than a short run).  The checks run in a fresh
interpreter, because other test modules import these packages into the
pytest process itself.
"""

import os
import subprocess
import sys

import spde_ch

SCRIPT = r"""
import sys
import spde_ch
import spde_ch.cli as cli
config = cli.RunConfig.from_dict({
    "command": "simulate",
    "basis": {"bc": "neumann", "dim": 2, "modes_per_axis": 6},
    "model": {"reaction": [1.0, 0.0, -1.0, 0.0], "sigma": 0.1},
    "solver": {"dt": 0.001, "t_final": 0.01, "q": 4.0, "truncation": 8.0},
    "covariance": {"kind": "riesz", "B": 1.0},
    "seed": 0,
    "options": {"paths": 1},
})
assert cli.validate(config)["passed"]
basis = config.build_basis()
backend = spde_ch.make_backend(config.build_covariance(), basis, seed=0)
assert backend.kind == "spectral-cholesky", backend.kind
loaded = [m for m in ("scipy.integrate", "scipy.linalg", "scipy.optimize")
          if m in sys.modules]
print(",".join(loaded))
"""


SIMULATE_SCRIPT = r"""
import sys
import tempfile
import spde_ch.cli as cli
with tempfile.TemporaryDirectory() as out:
    cli.run(cli.RunConfig.from_dict({
        "command": "simulate",
        "basis": {"bc": "neumann", "dim": 2, "modes_per_axis": 6},
        "model": {"reaction": [1.0, 0.0, -1.0, 0.0], "sigma": 0.1},
        "solver": {"dt": 0.001, "t_final": 0.01, "q": 4.0,
                   "truncation": 8.0},
        "covariance": {"kind": "riesz", "B": 1.0},
        "seed": 0,
        "outdir": out,
        "options": {"paths": 2, "snapshots": True},
    }), threads=2)
loaded = [m for m in ("scipy.fft", "scipy.special", "scipy._lib._array_api")
          if m in sys.modules]
print(",".join(loaded))
"""


def _fresh_stdout(script):
    src = os.path.dirname(os.path.dirname(os.path.abspath(spde_ch.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_riesz_setup_loads_no_quadrature_or_scipy_linalg():
    assert _fresh_stdout(SCRIPT) == ""


def test_simulate_run_loads_neither_scipy_fft_nor_scipy_special():
    assert _fresh_stdout(SIMULATE_SCRIPT) == ""
