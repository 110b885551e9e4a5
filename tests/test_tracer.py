"""The benchmark's tracer, installed around the CLI on tiny configs.

``bench/tracer.py`` wraps library callables by name and reads fields of
what they return (``TangentState.leads``, a backend's ``dropped_mass``).
A refactor that renames one of them fails here, and not only in a traced
benchmark run.
"""

import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

from tracer import Tracer  # noqa: E402

from spde_ch import cli  # noqa: E402


def _config(tmp_path, command, basis, options, backend="auto"):
    """A 20-step run of the command, with a Riesz kernel admissible in any
    dimension."""
    return cli.RunConfig.from_dict({
        "command": command, "basis": basis,
        "model": {"reaction": [1.0, 0.0, -1.0, 0.0], "sigma": 0.2},
        "solver": {"dt": 1e-3, "t_final": 0.02, "q": 4.0, "truncation": 8.0},
        "covariance": {"kind": "riesz", "B": 0.5, "backend": backend},
        "seed": 0, "outdir": str(tmp_path / command), "options": options})


def _traced_run(config):
    tracer = Tracer()
    tracer.install()
    try:
        cli.run(config, threads=1)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    assert all(math.isfinite(value) for value in metrics.values()), metrics
    return tracer, metrics


def test_simulate_layers(tmp_path):
    # the diagonal backend drops off-diagonal mass, which the tracer reads
    with pytest.warns(UserWarning, match="diagonal noise backend drops"):
        tracer, metrics = _traced_run(_config(
            tmp_path, "simulate",
            {"bc": "neumann", "dim": 2, "modes_per_axis": 6},
            {"paths": 2, "u0_modes": [[[1, 0], 0.5]]},
            backend="spectral-diagonal"))
    assert metrics["solver.simulate.calls"] == 2
    assert metrics["solver.steps"] == 2 * 20
    assert metrics["noise.sample_coefficients.calls"] == 2 * 20
    assert metrics["solver.energy_diagnostics.calls"] == 2
    assert metrics["noise.dropped_mass"] > 0.0
    assert tracer.calls["cli.validate"] == 1


def test_regularity_layers(tmp_path):
    tracer, metrics = _traced_run(_config(
        tmp_path, "regularity", {"bc": "neumann", "dim": 1, "modes_per_axis": 8},
        {"paths": 3, "u0_modes": [[[1], 0.3]]}))
    assert metrics["solver.simulate.calls"] == 3
    assert tracer.calls["regularity.structure_function"] == 2
    assert tracer.calls["regularity.holder_exponent"] == 2
    assert tracer.calls["regularity.moment_track"] == 1


@pytest.mark.parametrize("thin", [1, 2])
def test_malliavin_layers(tmp_path, thin):
    _, metrics = _traced_run(_config(
        tmp_path, "malliavin", {"bc": "neumann", "dim": 1, "modes_per_axis": 8},
        {"paths": 2, "thin": thin}))
    assert metrics["malliavin.tangent_propagate.calls"] == 2
    assert metrics["malliavin.malliavin_matrix.calls"] == 2
    assert metrics["malliavin.decomposition_terms.calls"] == 3
    assert metrics["malliavin.density_criterion.calls"] == 1
    rows = 20 // thin
    # derivatives and leads of (rows, 8 directions, 8 modes), per path
    assert metrics["malliavin.tangent_bytes"] == 2 * 2 * rows * 8 * 8 * 8
