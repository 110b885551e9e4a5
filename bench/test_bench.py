"""Tests of the benchmark itself: tracer counts, gates and the result contract.

Run from the repository root with ``python3 -m pytest bench -q``.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
from tracer import Tracer  # noqa: E402


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path("bench") / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


def _lines(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def test_traced_ensemble_counts_are_exact():
    """A wrapper that missed one of the CLI's imported names would read 0."""
    proc = _bench("--workload", "ensemble-2d", "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    record, result = _lines(proc)
    assert result["correct"] and result["failed"] == 0, record["problems"]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["solver.simulate.calls"] == 100
    assert metrics["noise.sample_coefficients.calls"] == 20_000
    assert metrics["basis.inverse_transform.calls"] == 100 * (2 * 200 + 1)
    assert record["facts"]["trace.summed_self_s"] <= record["facts"]["trace.wall_s"]

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert sorted(metrics) == sorted(m["name"] for m in spec["per_layer"])
    assert all(math.isfinite(v) for v in metrics.values())


def test_tracer_patches_imported_names_and_restores_them():
    import spde_ch.cli
    import spde_ch.solver
    from spde_ch.basis import Basis

    original = spde_ch.solver.simulate
    tracer = Tracer()
    tracer.install()
    try:
        assert spde_ch.cli.simulate is spde_ch.solver.simulate
        assert spde_ch.cli.simulate.__wrapped__ is original
        assert Basis.inverse_transform.__wrapped__ is not None
    finally:
        tracer.uninstall()
    assert spde_ch.cli.simulate is original
    assert not hasattr(Basis.inverse_transform, "__wrapped__")


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "ensemble-2d", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _write(path, text):
    path.write_text(text)
    return path


def _simulate_outputs(out, exploded="false", norm="1.5"):
    out.mkdir()
    header = ("path,exploded,stop_time,final_norm,final_l2_sq,"
              "final_dissipation,config_hash,version\n")
    rows = "".join(f"{p},{exploded},,{norm},2.0,0.1,abc,0.1.0\n" for p in range(2))
    _write(out / "paths.csv", header + rows)
    _write(out / "series.jsonl", "".join(
        json.dumps({"path": p, "norms": [1.0, 1.5]}) + "\n" for p in range(2)))


def _workload(command, paths):
    return run.Workload("w", Path("w.json"),
                        {"command": command, "options": {"paths": paths}})


def test_invariants_pass_on_good_simulate_outputs(tmp_path):
    _simulate_outputs(tmp_path / "out")
    assert run.check_invariants(_workload("simulate", 2), tmp_path / "out", {}) == []


@pytest.mark.parametrize("kwargs, paths, expected", [
    ({"exploded": "true"}, 2, "exploded"),
    ({"norm": "nan"}, 2, "non-finite"),
    ({}, 3, "expected 3"),
])
def test_invariants_flag_broken_simulate_outputs(tmp_path, kwargs, paths, expected):
    _simulate_outputs(tmp_path / "out", **kwargs)
    problems = run.check_invariants(_workload("simulate", paths),
                                    tmp_path / "out", {})
    assert any(expected in p for p in problems), problems


def test_regularity_fit_nan_fails_unless_its_lags_are_degenerate(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    head = "axis,lag,value,stderr,config_hash,version\n"
    _write(out / "moments.csv", "time,value,sup_value,growing\n0.1,1.0,1.0,false\n")
    nan_fit = {"axis": "0", "exponent": math.nan, "slope": math.nan,
               "stderr": math.nan}
    _write(out / "fits.jsonl", json.dumps(nan_fit) + "\n")
    workload = _workload("regularity", 4)

    _write(out / "structure.csv", head + "0,0.6,1.0,0.1,h,v\n0,0.6,1.0,0.1,h,v\n")
    facts = {}
    assert run.check_invariants(workload, out, facts) == []
    assert facts["regularity.degenerate_fits"] == 1

    _write(out / "structure.csv", head + "0,0.6,1.0,0.1,h,v\n0,0.9,1.2,0.1,h,v\n")
    assert run.check_invariants(workload, out, {})


def _invocation(hashes, emitted=None):
    return run.Invocation(threads=1, traced=False, wall_s=1.0, setup_s=0.1,
                          cli_s=0.9, rss_mb=1.0, returncode=0, hashes=hashes,
                          emitted=emitted or sorted(hashes))


def test_reference_and_thread_identity_gates():
    good = {"paths.csv": "a", "manifest.json": "m"}
    inv = _invocation(good, emitted=["paths.csv"])
    run.check_reference(inv, {"paths.csv": "a"})
    assert not inv.failed
    run.check_reference(inv, {"paths.csv": "b"})
    assert inv.failed and "paths.csv" in inv.problems[0]

    t1, t2 = _invocation(good), _invocation({**good, "paths.csv": "z"})
    run.check_identical(t2, t1, "between --threads 1 and 2")
    assert t2.failed and "paths.csv" in t2.problems[0]


def test_warnings_become_recorded_fields():
    stderr = ("/x/spde_ch/noise.py:147: UserWarning: diagonal noise backend "
              "drops 19.8% of the Gram Frobenius mass\n  warnings.warn(\n")
    warnings = run.parse_warnings(stderr)
    assert warnings == [{"category": "UserWarning", "source": "noise.py:147",
                         "message": "diagonal noise backend drops 19.8% of "
                                    "the Gram Frobenius mass"}]
    assert run.warning_facts(warnings) == {"noise.dropped_mass": 0.198}


def test_reference_digests_apply_only_on_their_platform(tmp_path, monkeypatch):
    reference = tmp_path / "reference.json"
    reference.write_text(json.dumps({"platform": {"cpus": 2},
                                     "sha256": {"w": {"0": {"a": "b"}}}}))
    monkeypatch.setattr(run, "REFERENCE", reference)
    workload = _workload("simulate", 1)
    assert run.load_reference(workload, 0, {"cpus": 2}) == {"a": "b"}
    assert run.load_reference(workload, 0, {"cpus": 1}) is None
