"""What importing the package and setting up a Riesz run loads.

Quadrature (scipy.integrate, which pulls in scipy.optimize) and scipy.linalg
are imported only on the routes that use them.  The check runs in a fresh
interpreter, because other test modules import scipy.integrate into the
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


def test_riesz_setup_loads_no_quadrature_or_scipy_linalg():
    src = os.path.dirname(os.path.dirname(os.path.abspath(spde_ch.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""
