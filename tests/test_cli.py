"""Config parsing, validation, command outputs and reproducibility."""

import csv
import hashlib
import json
import math
import os
import weakref

import numpy as np
import pytest

from spde_ch import cli, solver
from spde_ch.basis import Basis
from spde_ch.cli import (ConfigError, RunConfig, main, read_snapshot, run,
                         validate, write_snapshot)
from spde_ch.malliavin import decomposition_terms, tangent_propagate
from spde_ch.solver import simulate


def base_config(tmp_path, **overrides):
    data = {
        "command": "simulate",
        "basis": {"bc": "neumann", "dim": 1, "modes_per_axis": 16},
        "model": {"reaction": [1.0, 0.0, -1.0, 0.0], "sigma": 0.1},
        "solver": {"dt": 0.001, "t_final": 0.02, "q": 4.0, "truncation": 10.0},
        "covariance": {"kind": "riesz", "B": 0.5},
        "seed": 7,
        "outdir": str(tmp_path / "out"),
        "options": {"paths": 2, "u0_modes": [[[1], 0.5]]},
    }
    data.update(overrides)
    return data


def _read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


class TestRunConfig:

    def test_round_trip(self, tmp_path):
        data = base_config(tmp_path)
        config = RunConfig.from_dict(data)
        assert config.to_dict() == data
        again = RunConfig.from_dict(config.to_dict())
        assert again.config_hash() == config.config_hash()

    @pytest.mark.parametrize("workload,digest", [
        ("ensemble-2d", "259158a0cc637a42"),
        ("quench-4d", "5337b5fc4494169c"),
        ("malliavin-2d", "0cff193aa215557d"),
        ("regularity-3d", "8c20ad9436e21315"),
    ])
    def test_config_hash_of_the_bench_workloads_is_pinned(self, workload,
                                                          digest):
        # every CSV row carries config_hash, so it must not move when the
        # config class is rewritten
        path = os.path.join(os.path.dirname(__file__), os.pardir, "bench",
                            "workloads", f"{workload}.json")
        assert RunConfig.from_file(path).config_hash() == digest

    def test_from_file(self, tmp_path):
        data = base_config(tmp_path)
        config = RunConfig.from_file(write_config(tmp_path, data))
        assert config.seed == 7
        assert config.model["sigma"] == 0.1

    def test_bad_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            RunConfig.from_file(str(path))

    def test_unknown_keys_rejected(self, tmp_path):
        data = base_config(tmp_path)
        data["extra"] = 1
        with pytest.raises(ConfigError, match="unknown config keys"):
            RunConfig.from_dict(data)

    def test_unknown_command_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown command"):
            RunConfig.from_dict(base_config(tmp_path, command="plot"))

    def test_seed_must_be_64_bit_int(self, tmp_path):
        with pytest.raises(ConfigError, match="64-bit"):
            RunConfig.from_dict(base_config(tmp_path, seed=2**63))
        with pytest.raises(ConfigError, match="64-bit"):
            RunConfig.from_dict(base_config(tmp_path, seed=1.5))

    def test_hash_excludes_outdir(self, tmp_path):
        a = RunConfig.from_dict(base_config(tmp_path, outdir="first"))
        b = RunConfig.from_dict(base_config(tmp_path, outdir="second"))
        assert a.config_hash() == b.config_hash()

    def test_hash_tracks_seed_and_model(self, tmp_path):
        a = RunConfig.from_dict(base_config(tmp_path))
        b = RunConfig.from_dict(base_config(tmp_path, seed=8))
        c = RunConfig.from_dict(base_config(
            tmp_path, model={"reaction": [1.0, 0.0, -1.0, 0.0], "sigma": 0.2}))
        assert len({a.config_hash(), b.config_hash(), c.config_hash()}) == 3

    def test_build_model_polynomial_drift(self, tmp_path):
        data = base_config(tmp_path, model={
            "sigma": 0.3, "forcing": 2.0,
            "drifts": [{"orders": [0], "poly": [1.0, 0.0, 0.5]}]})
        model = RunConfig.from_dict(data).build_model()
        assert model.sigma == 0.3
        assert model.forcing(0.0, None, 0.0) == 2.0
        (orders, fn), = model.drifts
        assert orders == (0,)
        assert fn(2.0) == 1.0 + 0.5 * 4.0

    def test_initial_state_places_modes(self, tmp_path):
        data = base_config(tmp_path)
        data["options"] = {"u0_modes": [[[0], 0.3], [[3], -0.5]]}
        config = RunConfig.from_dict(data)
        u0 = config.initial_state(config.build_basis())
        assert u0[0] == 0.3 and u0[3] == -0.5
        assert np.count_nonzero(u0) == 2


class TestValidate:

    def test_reference_config_passes(self, tmp_path):
        data = base_config(
            tmp_path,
            basis={"bc": "neumann", "dim": 4, "modes_per_axis": 4},
            model={"reaction": [1.0, 0.0, -1.0, 0.0], "sigma": 0.05},
            solver={"dt": 1e-4, "t_final": 1e-3, "q": 5.0},
            covariance={"kind": "riesz", "B": 1.0})
        data["options"] = {"eps": 0.2}
        report = validate(RunConfig.from_dict(data))
        assert report["passed"]
        assert report["violations"] == []

    def test_negative_leading_coefficient_flagged(self, tmp_path):
        data = base_config(tmp_path,
                           model={"reaction": [-1.0, 0.0, -1.0, 0.0]})
        report = validate(RunConfig.from_dict(data))
        names = [v["hypothesis"] for v in report["violations"]]
        assert "reaction-leading-coefficient" in names

    def test_dirichlet_constant_term_flagged(self, tmp_path):
        data = base_config(
            tmp_path,
            basis={"bc": "dirichlet", "dim": 1, "modes_per_axis": 16},
            model={"reaction": [1.0, 0.0, 0.0, 1.0]})
        report = validate(RunConfig.from_dict(data))
        names = [v["hypothesis"] for v in report["violations"]]
        assert "reaction-zero-at-origin" in names

    @pytest.mark.parametrize("bc", ["neumann", "dirichlet"])
    def test_reaction_of_wrong_length_flagged(self, tmp_path, capsys, bc):
        data = base_config(
            tmp_path,
            basis={"bc": bc, "dim": 1, "modes_per_axis": 16},
            model={"reaction": [1.0, 0.0, -1.0], "sigma": 0.1})
        report = validate(RunConfig.from_dict(data))
        names = [v["hypothesis"] for v in report["violations"]]
        assert names == ["reaction-coefficients"]
        path = write_config(tmp_path, data)
        assert main(["simulate", "--config", path]) == 2
        out = json.loads(capsys.readouterr().out)
        assert out["error"]["type"] == "ConfigError"
        names = [v["hypothesis"] for v in out["error"]["violations"]]
        assert names == ["reaction-coefficients"]

    def test_odd_drift_orders_flagged(self, tmp_path):
        data = base_config(tmp_path, model={
            "drifts": [{"orders": [1], "poly": [0.0, 1.0]}]})
        report = validate(RunConfig.from_dict(data))
        names = [v["hypothesis"] for v in report["violations"]]
        assert "drift-even-derivative-orders" in names

    def test_inadmissible_covariance_flagged(self, tmp_path):
        data = base_config(
            tmp_path,
            basis={"bc": "neumann", "dim": 5, "modes_per_axis": 2},
            model={"sigma": 1.0},
            solver={"dt": 1e-4, "t_final": 1e-3, "q": 6.0},
            covariance={"kind": "riesz", "B": 4.5})
        report = validate(RunConfig.from_dict(data))
        names = [v["hypothesis"] for v in report["violations"]]
        assert "covariance-integrability" in names

    def test_reaction_eps_condition_flagged(self, tmp_path):
        data = base_config(
            tmp_path,
            basis={"bc": "neumann", "dim": 4, "modes_per_axis": 4},
            solver={"dt": 1e-4, "t_final": 1e-3, "q": 5.0},
            covariance={"kind": "riesz", "B": 3.3})
        data["options"] = {"eps": 0.2}
        report = validate(RunConfig.from_dict(data))
        names = [v["hypothesis"] for v in report["violations"]]
        assert "covariance-reaction-eps" in names

    def test_small_q_flagged(self, tmp_path):
        data = base_config(
            tmp_path,
            basis={"bc": "neumann", "dim": 4, "modes_per_axis": 4},
            solver={"dt": 1e-4, "t_final": 1e-3, "q": 4.0})
        report = validate(RunConfig.from_dict(data))
        names = [v["hypothesis"] for v in report["violations"]]
        assert "initial-data-integrability" in names

    def test_violations_block_run_without_force(self, tmp_path):
        data = base_config(tmp_path,
                           model={"reaction": [-1.0, 0.0, 0.0, 0.0]})
        with pytest.raises(ConfigError, match="config violates"):
            run(RunConfig.from_dict(data))


class TestSnapshots:

    def test_round_trip(self, tmp_path):
        basis = Basis("neumann", 2, 6)
        rng = np.random.default_rng(0)
        stack = rng.standard_normal((3,) + basis.shape)
        path = tmp_path / "snap.bin"
        write_snapshot(str(path), basis, stack)
        bc, dim, M, back = read_snapshot(str(path))
        assert (bc, dim, M) == ("neumann", 2, 6)
        assert np.array_equal(back, stack)

    def test_single_field_gets_count_one(self, tmp_path):
        basis = Basis("dirichlet", 1, 5)
        field = np.arange(5.0)
        path = tmp_path / "snap.bin"
        write_snapshot(str(path), basis, field)
        bc, dim, M, back = read_snapshot(str(path))
        assert bc == "dirichlet" and back.shape == (1, 5)
        assert np.array_equal(back[0], field)

    def test_magic_bytes_lead_the_file(self, tmp_path):
        basis = Basis("neumann", 1, 4)
        path = tmp_path / "snap.bin"
        write_snapshot(str(path), basis, np.zeros(4))
        raw = path.read_bytes()
        assert raw[:5] == b"SPDE1"
        assert len(raw) == 5 + 16 + 4 * 8

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"JUNK!" + b"\0" * 32)
        with pytest.raises(ValueError, match="bad magic"):
            read_snapshot(str(path))

    def test_shape_mismatch_rejected(self, tmp_path):
        basis = Basis("neumann", 2, 6)
        with pytest.raises(ValueError, match="does not match"):
            write_snapshot(str(tmp_path / "x.bin"), basis, np.zeros((3, 5)))


class TestCommands:

    def test_simulate_zero_model_is_semigroup_decay(self, tmp_path):
        data = base_config(
            tmp_path,
            model={},
            covariance=None,
            solver={"dt": 0.001, "t_final": 0.02, "q": 2.0})
        data["options"] = {"u0_modes": [[[0], 0.3], [[3], 0.5]],
                           "snapshots": True}
        config = RunConfig.from_dict(data)
        run(config)
        _, _, _, snap = read_snapshot(os.path.join(config.outdir,
                                                   "snapshots.bin"))
        expected = np.zeros(16)
        expected[0] = 0.3
        expected[3] = 0.5 * math.exp(-(3**2) ** 2 * 0.02)
        assert np.allclose(snap[0], expected, rtol=1e-12, atol=1e-15)

    def test_simulate_outputs_and_manifest(self, tmp_path):
        data = base_config(tmp_path)
        data["options"]["snapshots"] = True
        config = RunConfig.from_dict(data)
        manifest = run(config)
        assert set(manifest["files"]) == {"paths.csv", "series.jsonl",
                                          "snapshots.bin"}
        for name, digest in manifest["files"].items():
            blob = open(os.path.join(config.outdir, name), "rb").read()
            assert hashlib.sha256(blob).hexdigest() == digest
        saved = json.load(open(os.path.join(config.outdir, "manifest.json")))
        assert saved["config_hash"] == config.config_hash()
        assert saved["config"] == {k: v for k, v in data.items() if k != "outdir"}
        assert saved["versions"]["spde_ch"]

    def test_csv_provenance_columns(self, tmp_path):
        config = RunConfig.from_dict(base_config(tmp_path))
        run(config)
        header = open(os.path.join(config.outdir, "paths.csv")).readline()
        cols = header.strip().split(",")
        assert cols[-2:] == ["config_hash", "version"]
        first = open(os.path.join(config.outdir, "paths.csv")).readlines()[1]
        assert config.config_hash() in first

    def test_check_covariance_straddle_table(self, tmp_path):
        data = base_config(
            tmp_path,
            command="check-covariance",
            basis={"bc": "neumann", "dim": 4, "modes_per_axis": 4},
            model=None, solver=None,
            covariance={"kind": "riesz", "B": 1.0})
        data["options"] = {"B_values": [3.1, 3.3], "eps": 0.2}
        config = RunConfig.from_dict(data)
        run(config)
        rows = open(os.path.join(config.outdir, "covariance.csv")).readlines()
        table = "".join(rows)
        assert "admissible" in table and "inadmissible" in table
        ch_rows = [r for r in rows if "cahn-hilliard" in r]
        assert len(ch_rows) == 2
        assert any("inadmissible" in r for r in ch_rows)
        assert any(",admissible" in r for r in ch_rows)

    def test_green_table_columns(self, tmp_path):
        data = base_config(
            tmp_path,
            command="green",
            basis={"bc": "neumann", "dim": 2, "modes_per_axis": 24},
            model=None, solver=None, covariance=None)
        data["options"] = {"taus": [0.01]}
        config = RunConfig.from_dict(data)
        run(config)
        rows = open(os.path.join(config.outdir, "green.csv")).readlines()
        assert rows[0].startswith("tau,x0,x1,y0,y1,value,scaled_value")
        assert len(rows) == 2

    def test_picard_outputs(self, tmp_path):
        data = base_config(
            tmp_path,
            command="picard",
            model={"sigma": 0.2,
                   "drifts": [{"orders": [0], "poly": [0.0, 0.5]}],
                   "lipschitz_only": True},
            solver={"dt": 0.001, "t_final": 0.05, "q": 4.0})
        data["options"] = {"tol": 1e-8}
        config = RunConfig.from_dict(data)
        run(config)
        result = json.loads(
            open(os.path.join(config.outdir, "picard.jsonl")).readline())
        assert result["converged"] is True
        deltas = [float(line.split(",")[1]) for line in
                  open(os.path.join(config.outdir, "picard.csv")).readlines()[1:]]
        assert deltas[-1] < 1e-8

    def test_regularity_outputs(self, tmp_path):
        data = base_config(
            tmp_path,
            command="regularity",
            basis={"bc": "neumann", "dim": 1, "modes_per_axis": 24},
            model={"sigma": 1.0},
            solver={"dt": 0.0005, "t_final": 0.02, "q": 2.0},
            covariance={"kind": "white"})
        data["options"] = {"paths": 4}
        config = RunConfig.from_dict(data)
        manifest = run(config)
        assert set(manifest["files"]) == {"structure.csv", "fits.jsonl",
                                          "moments.csv"}
        fits = [json.loads(line) for line in
                open(os.path.join(config.outdir, "fits.jsonl"))]
        assert {f["axis"] for f in fits} == {"time", "0"}
        for f in fits:
            assert np.isfinite(f["exponent"])

    def test_malliavin_outputs(self, tmp_path):
        data = base_config(
            tmp_path,
            command="malliavin",
            model={"sigma": 1.0},
            solver={"dt": 0.001, "t_final": 0.04, "q": 2.0},
            covariance={"kind": "riesz", "B": 0.5})
        data["options"] = {"paths": 2, "nu": 0.02}
        config = RunConfig.from_dict(data)
        manifest = run(config)
        assert set(manifest["files"]) == {"eigenvalues.csv",
                                          "decomposition.csv", "density.json"}
        density = json.load(open(os.path.join(config.outdir, "density.json")))
        assert density["verdict"] == "absolutely-continuous"
        assert density["positive_fraction"] == 1.0
        eigs = [float(line.split(",")[2]) for line in
                open(os.path.join(config.outdir,
                                  "eigenvalues.csv")).readlines()[1:]]
        assert min(eigs) > -1e-12

    @pytest.mark.filterwarnings("ignore:diagonal noise backend")
    def test_malliavin_window_terms_use_the_sampled_covariance(self,
                                                              tmp_path):
        # the diagonal backend samples diag(Q), not the kernel's Q; the
        # window terms written are those of the covariance that drove the
        # tangents
        data = base_config(
            tmp_path, command="malliavin", model={"sigma": 0.5},
            solver={"dt": 0.002, "t_final": 0.08, "q": 2.0},
            covariance={"kind": "riesz", "B": 0.5,
                        "backend": "spectral-diagonal"})
        data["options"] = {"paths": 1}
        config = RunConfig.from_dict(data)
        run(config)
        with open(os.path.join(config.outdir, "decomposition.csv")) as fh:
            rows = list(csv.DictReader(fh))
        basis = config.build_basis()
        model, solver_config, _, backend = cli._build_problem(config, basis)
        traj = simulate(model, solver_config, basis, backend=backend,
                        u0=config.initial_state(basis), path=0)
        tang = tangent_propagate(traj, model, solver_config, basis, backend)
        pts = [[math.pi / 2], [math.pi / 3]]
        assert len(rows) == 3
        for row in rows:
            tau = float(row["tau"])
            dec = decomposition_terms(traj, model, basis,
                                      backend.sampled_gram, pts, tau=tau,
                                      tangent=tang)
            assert float(row["i1"]) == dec.i1
            assert float(row["i2"]) == dec.i2
            kernel = decomposition_terms(traj, model, basis, backend.gram,
                                         pts, tau=tau, tangent=tang)
            assert abs(kernel.i1 - dec.i1) > 1e-3 * dec.i1

    def test_simulate_noise_without_covariance_rejected(self, tmp_path):
        data = base_config(tmp_path, covariance=None)
        with pytest.raises(ConfigError, match="no covariance block"):
            run(RunConfig.from_dict(data))

    def test_admissibility_checked_once_per_run(self, tmp_path, monkeypatch):
        # validate() gates the run through solver.model_violations; the
        # paths do not repeat the check
        calls = []
        original = solver.stochastic_integrability

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(solver, "stochastic_integrability", counting)
        run(RunConfig.from_dict(base_config(tmp_path, options={"paths": 3})))
        assert len(calls) == 1


class TestCountOptions:

    @pytest.mark.parametrize("value", [0, -1, 2.5, "2", True])
    @pytest.mark.parametrize("command, option", [
        ("simulate", "paths"), ("regularity", "paths"),
        ("malliavin", "paths"), ("malliavin", "thin")])
    def test_only_positive_integers_run(self, tmp_path, monkeypatch, command,
                                        option, value):
        started = []
        monkeypatch.setattr(cli, "simulate",
                            lambda *args, **kwargs: started.append(args))
        data = base_config(tmp_path, command=command)
        data["options"][option] = value
        for force in (False, True):
            with pytest.raises(ConfigError, match=rf"options\.{option}.*{value!r}"):
                run(RunConfig.from_dict(data), force=force)
        assert started == []

    @pytest.mark.parametrize("option, value, kind", [
        ("path", -1, "non-negative integer"), ("path", 1.5, "non-negative integer"),
        ("path", "2", "non-negative integer"), ("path", True, "non-negative integer"),
        ("tol", -1e-8, "positive finite number"), ("tol", 0, "positive finite number"),
        ("tol", math.nan, "positive finite number"),
        ("tol", math.inf, "positive finite number"),
        ("tol", "1e-8", "positive finite number"), ("tol", False, "positive finite number")])
    def test_picard_rejects_bad_options(self, tmp_path, monkeypatch, option,
                                        value, kind):
        started = []
        monkeypatch.setattr(cli, "picard_solve",
                            lambda *args, **kwargs: started.append(args))
        data = base_config(tmp_path, command="picard")
        data["options"][option] = value
        for force in (False, True):
            with pytest.raises(ConfigError,
                               match=rf"options\.{option} must be a {kind}"):
                run(RunConfig.from_dict(data), force=force)
        assert started == []

    def test_main_reports_the_option_even_with_force(self, tmp_path, capsys):
        data = base_config(tmp_path)
        data["options"]["paths"] = 0
        path = write_config(tmp_path, data)
        assert main(["simulate", "--config", path, "--force"]) == 2
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["type"] == "ConfigError"
        assert "options.paths" in error["message"]
        assert not os.path.exists(tmp_path / "out" / "paths.csv")


class TestReproducibility:

    @pytest.mark.parametrize("command", ["simulate", "regularity",
                                         "malliavin"])
    def test_same_config_seed_byte_identical(self, tmp_path, command):
        data = base_config(tmp_path, command=command)
        data["options"]["snapshots"] = True
        if command == "regularity":
            data["options"]["paths"] = 4
        outdirs = [str(tmp_path / f"threads{n}") for n in (1, 2, 3)]
        files = [run(RunConfig.from_dict(dict(data, outdir=out)),
                     threads=n)["files"]
                 for n, out in zip((1, 2, 3), outdirs)]
        assert files[1] == files[0] and files[2] == files[0]
        for name in [*files[0], "manifest.json"]:
            a, b, c = (_read_bytes(os.path.join(out, name)) for out in outdirs)
            assert a == b == c, f"{name} differs between runs"

    def test_malliavin_with_forcing_and_drift_byte_identical(self, tmp_path):
        # The CLI derives the u-derivatives of the coefficients it builds,
        # so malliavin runs every model that simulate accepts.
        data = base_config(tmp_path, command="malliavin")
        data["model"] = {"reaction": [1.0, 0.0, -1.0, 0.0], "sigma": 0.1,
                         "forcing": 0.1,
                         "drifts": [{"orders": [2], "poly": [0.0, 0.0, 0.05]}]}
        outdirs = [str(tmp_path / f"threads{n}") for n in (1, 2)]
        files = [run(RunConfig.from_dict(dict(data, outdir=out)),
                     threads=n)["files"]
                 for n, out in zip((1, 2), outdirs)]
        assert files[0] == files[1]
        assert set(files[0]) == {"eigenvalues.csv", "decomposition.csv",
                                 "density.json"}
        for name in files[0]:
            a, b = (_read_bytes(os.path.join(out, name)) for out in outdirs)
            assert a == b, f"{name} differs between thread counts"

    # sha256 of malliavin runs with the CLI's constant forcing, whose
    # u-derivative 0.0 drops the forcing term from the tangent equation
    FORCING_DIGESTS = {
        ("neumann", False): {
            "decomposition.csv":
                "677e8f25a7386186401ac37f57ccfe4814dfef927eb873d5ee8f11fdfec459ca",
            "density.json":
                "a9412d1db136ae481c045f12ad1dacb474b258c3f9f18b286995029a49b31fda",
            "eigenvalues.csv":
                "f4b0351deb996c6e45e85dcebd1ff34d0016a27697b10ec2c269b923231d099f",
        },
        ("neumann", True): {
            "decomposition.csv":
                "e94b47a45997592014361a150e8c8e1a76c2e6201698127dbd22fc260ca6c75f",
            "density.json":
                "adab322abf3b80b9bf9719ace1f641cfd652a19955cca31d927bde2044ab314c",
            "eigenvalues.csv":
                "ddd4911356af454828aabe82f74593c90e717ca0a2cae00852433442aa83230d",
        },
        ("dirichlet", False): {
            "decomposition.csv":
                "61372d51ac87bbaff407d98e9dd1e558bd050eac4756e3ade7c3b852044c90d3",
            "density.json":
                "452461b29c75ca1bffb5db4e88bc8e4b2823f7428d1e297dee6ce63fff919b50",
            "eigenvalues.csv":
                "a0a56c734db7e7a634b8e17dde17153402caceffa505c025bc316e26e5e59acc",
        },
        ("dirichlet", True): {
            "decomposition.csv":
                "a54ebbf0f04ab0d5b92e4f4a4222307a21fd70d0038fdd5fda36c851d3ffc4bd",
            "density.json":
                "10cd86e77ba766985ec7b8017125f3c008508f0a04f380af530f68ea6053d65b",
            "eigenvalues.csv":
                "072fb7faa88cbbcae7861261bfa661bf80da43afa68814a8f57deffe63082890",
        },
    }

    @pytest.mark.parametrize("bc,drift", sorted(FORCING_DIGESTS))
    def test_malliavin_constant_forcing_digests(self, tmp_path, bc, drift):
        data = base_config(tmp_path, command="malliavin")
        data["basis"]["bc"] = bc
        data["model"]["forcing"] = 0.1
        if drift:
            data["model"]["drifts"] = [{"orders": [2],
                                        "poly": [0.0, 0.0, 0.05]}]
        files = run(RunConfig.from_dict(data))["files"]
        assert files == self.FORCING_DIGESTS[bc, drift]

    def test_malliavin_rejects_bad_points_before_any_path(self, tmp_path,
                                                          monkeypatch):
        started = []
        monkeypatch.setattr(cli, "simulate",
                            lambda *args, **kwargs: started.append(args))
        data = base_config(tmp_path, command="malliavin")
        data["options"]["points"] = [[0.0]]
        with pytest.raises(ValueError, match="strictly inside"):
            run(RunConfig.from_dict(data))
        assert started == []

    def test_different_seed_changes_outputs(self, tmp_path):
        data = base_config(tmp_path)
        first = RunConfig.from_dict(
            dict(data, outdir=str(tmp_path / "a")))
        second = RunConfig.from_dict(
            dict(data, seed=8, outdir=str(tmp_path / "b")))
        run(first)
        run(second)
        a = open(os.path.join(first.outdir, "paths.csv")).read()
        b = open(os.path.join(second.outdir, "paths.csv")).read()
        assert a != b


def pooled_config(tmp_path, command, outdir="out"):
    """d=3, M=8, 3 paths: the factor-2 refined grid has exactly
    cli.POOL_MIN_POINTS points, so every command runs in the pool.  10
    steps, or 5 for malliavin, whose tangents cost n_steps^2 transforms of
    512 directions."""
    t_final = 0.001 if command == "malliavin" else 0.002
    data = base_config(
        tmp_path, command=command,
        basis={"bc": "neumann", "dim": 3, "modes_per_axis": 8},
        solver={"dt": 0.0002, "t_final": t_final, "q": 4.0,
                "truncation": 10.0},
        covariance={"kind": "riesz", "B": 1.0},
        outdir=str(tmp_path / outdir))
    data["options"] = {"paths": 3, "u0_modes": [[[1, 0, 0], 0.3]]}
    if command == "malliavin":
        data["options"]["taus"] = [0.0002, 0.0004]
    return data


def _output_bytes(outdir):
    return {name: _read_bytes(os.path.join(outdir, name))
            for name in sorted(os.listdir(outdir))}


def record_pools(monkeypatch):
    """Replace ThreadPoolExecutor by one that runs tasks in order and
    records (width, task count) per pool built."""
    pools = []

    class RecordingPool:

        def __init__(self, max_workers):
            self.entry = [max_workers, None]
            pools.append(self.entry)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            items = list(items)
            self.entry[1] = len(items)
            return map(fn, items)

    monkeypatch.setattr(cli, "ThreadPoolExecutor", RecordingPool)
    return pools


# At d=3, M=8 every default lag of regularity snaps to one grid lag, and
# its Hölder fit divides 0 by 0 (ROADMAP item 1).
@pytest.mark.filterwarnings(
    "ignore:invalid value encountered in scalar divide:RuntimeWarning")
class TestPathPool:

    @pytest.mark.parametrize("command, paths, threads, widths", [
        ("simulate", 3, 1, []), ("simulate", 3, 2, []),
        ("simulate", 3, 8, []), ("simulate", 1, 4, []),
        ("malliavin", 2, 3, [2]), ("regularity", 4, 2, []),
    ])
    def test_pool_width_is_threads_capped_by_paths(self, tmp_path, monkeypatch,
                                                   command, paths, threads,
                                                   widths):
        # a d=1, M=16 state is far below POOL_MIN_POINTS, so simulate and
        # regularity run serially; a tangent slice always reaches it
        pools = record_pools(monkeypatch)
        data = base_config(tmp_path, command=command)
        data["options"]["paths"] = paths
        run(RunConfig.from_dict(data), threads=threads)
        assert pools == [[w, paths] for w in widths]

    @pytest.mark.parametrize("command, paths, threads, widths", [
        ("simulate", 3, 1, []), ("simulate", 3, 2, [2]),
        ("simulate", 3, 8, [3]), ("simulate", 1, 4, []),
        ("regularity", 3, 2, [2]), ("regularity", 2, 3, [2]),
        ("malliavin", 3, 1, []), ("malliavin", 3, 2, [2, 2]),
    ])
    def test_states_at_the_threshold_pool(self, tmp_path, monkeypatch,
                                          command, paths, threads, widths):
        pools = record_pools(monkeypatch)
        data = pooled_config(tmp_path, command)
        data["options"]["paths"] = paths
        run(RunConfig.from_dict(data), threads=threads)
        assert pools == [[w, paths] for w in widths]

    @pytest.mark.parametrize("command", ["simulate", "regularity",
                                         "malliavin"])
    def test_pooled_runs_byte_identical(self, tmp_path, command):
        data = pooled_config(tmp_path, command)
        data["options"]["snapshots"] = True
        outputs = {}
        for threads in (1, 2, 3):
            run(RunConfig.from_dict(data), threads=threads)
            outputs[threads] = _output_bytes(data["outdir"])
            for name in outputs[threads]:
                os.remove(os.path.join(data["outdir"], name))
        assert "manifest.json" in outputs[1]
        assert len(outputs[1]) > 1
        for threads in (2, 3):
            assert list(outputs[threads]) == list(outputs[1])
            for name, blob in outputs[1].items():
                assert outputs[threads][name] == blob, \
                    f"{name} differs at --threads {threads}"

    def test_numpy_openblas_thread_count_is_reachable(self):
        assert cli._openblas_threads() is not None

    @pytest.fixture
    def blas_at_two(self):
        """The OpenBLAS thread count getter, with the count set to 2."""
        get, set_ = cli._openblas_threads()
        before = get()
        set_(2)
        yield get
        set_(before)

    @pytest.mark.parametrize("command", ["simulate", "regularity",
                                         "malliavin"])
    def test_blas_thread_count_restored(self, tmp_path, monkeypatch,
                                        blas_at_two, command):
        get = blas_at_two
        seen = []
        original = cli.simulate

        def recording(*args, **kwargs):
            seen.append(get())
            return original(*args, **kwargs)

        monkeypatch.setattr(cli, "simulate", recording)
        run(RunConfig.from_dict(pooled_config(tmp_path, command)), threads=2)
        assert seen == [1, 1, 1]
        assert get() == 2

    def test_blas_thread_count_restored_when_a_path_raises(self, tmp_path,
                                                           monkeypatch,
                                                           blas_at_two):
        get = blas_at_two
        original = cli.simulate

        def failing(*args, path=0, **kwargs):
            if path == 1:
                raise RuntimeError("path 1 failed")
            return original(*args, path=path, **kwargs)

        monkeypatch.setattr(cli, "simulate", failing)
        pools = record_pools(monkeypatch)
        with pytest.raises(RuntimeError, match="path 1 failed"):
            run(RunConfig.from_dict(pooled_config(tmp_path, "simulate")),
                threads=2)
        assert pools == [[2, 3]]
        assert get() == 2

    @pytest.mark.parametrize("command", ["simulate", "regularity"])
    def test_no_blas_setter_runs_serially(self, tmp_path, monkeypatch,
                                          command):
        run(RunConfig.from_dict(pooled_config(tmp_path, command, "pooled")),
            threads=2)
        monkeypatch.setattr(cli, "_openblas_threads", lambda: None)
        pools = record_pools(monkeypatch)
        run(RunConfig.from_dict(pooled_config(tmp_path, command, "serial")),
            threads=2)
        assert pools == []
        pooled = _output_bytes(tmp_path / "pooled")
        serial = _output_bytes(tmp_path / "serial")
        assert list(serial) == list(pooled)
        for name in pooled:
            assert serial[name] == pooled[name], name

    @pytest.mark.parametrize("threads", [1, 2])
    def test_malliavin_simulates_every_path_before_its_tangents(
            self, tmp_path, monkeypatch, threads):
        events = []
        simulate_, propagate_ = cli.simulate, cli.tangent_propagate

        def simulate(*args, **kwargs):
            events.append("simulate")
            return simulate_(*args, **kwargs)

        def propagate(*args, **kwargs):
            events.append("tangent")
            return propagate_(*args, **kwargs)

        monkeypatch.setattr(cli, "simulate", simulate)
        monkeypatch.setattr(cli, "tangent_propagate", propagate)
        data = base_config(tmp_path, command="malliavin")
        data["options"]["paths"] = 3
        run(RunConfig.from_dict(data), threads=threads)
        assert events == ["simulate"] * 3 + ["tangent"] * 3

    @pytest.mark.parametrize("threads", [1, 2])
    def test_malliavin_keeps_one_tangent_per_thread(self, tmp_path,
                                                   monkeypatch, threads):
        live, seen = [], []
        original = cli.tangent_propagate

        def propagate(*args, **kwargs):
            seen.append(sum(ref() is not None for ref in live))
            tangent = original(*args, **kwargs)
            live.append(weakref.ref(tangent))
            return tangent

        monkeypatch.setattr(cli, "tangent_propagate", propagate)
        data = base_config(tmp_path, command="malliavin")
        data["options"]["paths"] = 3
        run(RunConfig.from_dict(data), threads=threads)
        assert len(seen) == 3
        assert max(seen) < threads


class TestMain:

    def test_ok_run_exit_zero(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config(tmp_path))
        assert main(["simulate", "--config", path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["ok"] is True
        assert "paths.csv" in out["files"]

    def test_invalid_config_exit_nonzero_with_json_error(self, tmp_path,
                                                         capsys):
        data = base_config(tmp_path,
                           model={"reaction": [-1.0, 0.0, 0.0, 0.0]})
        path = write_config(tmp_path, data)
        assert main(["simulate", "--config", path]) == 2
        out = json.loads(capsys.readouterr().out)
        assert out["error"]["type"] == "ConfigError"
        names = [v["hypothesis"] for v in out["error"]["violations"]]
        assert "reaction-leading-coefficient" in names

    def test_force_overrides_validation(self, tmp_path, capsys):
        data = base_config(
            tmp_path,
            solver={"dt": 0.001, "t_final": 0.01, "q": 1.0,
                    "truncation": 10.0})
        path = write_config(tmp_path, data)
        assert main(["simulate", "--config", path]) == 2
        capsys.readouterr()
        assert main(["simulate", "--config", path, "--force"]) == 0

    @pytest.mark.parametrize("bc, reaction, hypothesis", [
        ("dirichlet", [1.0, 0.0, -1.0, 0.5], "reaction-zero-at-origin"),
        ("neumann", [0.0, 0.0, -1.0, 0.0], "reaction-leading-coefficient")])
    def test_force_keeps_model_hypotheses(self, tmp_path, capsys, bc,
                                          reaction, hypothesis):
        data = base_config(
            tmp_path, basis={"bc": bc, "dim": 1, "modes_per_axis": 16},
            model={"reaction": reaction, "sigma": 0.1})
        path = write_config(tmp_path, data)
        assert main(["simulate", "--config", path]) == 2
        error = json.loads(capsys.readouterr().out)["error"]
        assert [v["hypothesis"] for v in error["violations"]] == [hypothesis]
        assert main(["simulate", "--config", path, "--force"]) == 2
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["type"] == "ValueError"
        assert not os.path.exists(tmp_path / "out" / "paths.csv")

    def test_command_mismatch_rejected(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config(tmp_path))
        assert main(["green", "--config", path]) == 2
        out = json.loads(capsys.readouterr().out)
        assert "names command" in out["error"]["message"]

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["simulate", "--config",
                     str(tmp_path / "absent.json")]) == 2
        out = json.loads(capsys.readouterr().out)
        assert out["error"]["type"] == "FileNotFoundError"

    def test_seed_and_out_overrides(self, tmp_path, capsys):
        data = base_config(tmp_path)
        path = write_config(tmp_path, data)
        alt = str(tmp_path / "elsewhere")
        assert main(["simulate", "--config", path,
                     "--seed", "99", "--out", alt]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["outdir"] == alt
        assert os.path.exists(os.path.join(alt, "paths.csv"))
        base = RunConfig.from_dict(data)
        assert out["config_hash"] != base.config_hash()

    def test_threads_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.delenv(cli.THREADS_ENV, raising=False)
        assert cli._resolve_threads(None) == 1
        assert cli._resolve_threads(4) == 4
        monkeypatch.setenv(cli.THREADS_ENV, "3")
        assert cli._resolve_threads(None) == 3
        assert cli._resolve_threads(2) == 2
        monkeypatch.setenv(cli.THREADS_ENV, "many")
        with pytest.raises(ConfigError, match="must be an integer"):
            cli._resolve_threads(None)

    def test_env_threads_run_matches_serial(self, tmp_path, capsys,
                                            monkeypatch):
        data = base_config(tmp_path, outdir=str(tmp_path / "serial"))
        path = write_config(tmp_path, data)
        assert main(["simulate", "--config", path]) == 0
        monkeypatch.setenv(cli.THREADS_ENV, "2")
        alt = str(tmp_path / "threaded")
        assert main(["simulate", "--config", path, "--out", alt]) == 0
        capsys.readouterr()
        a = open(os.path.join(data["outdir"], "paths.csv")).read()
        b = open(os.path.join(alt, "paths.csv")).read()
        assert a == b


class TestFormatting:

    def test_floats_round_trip_exactly(self):
        for x in (math.pi, 1e-300, -2.5000000000000004, 0.1):
            assert float(cli._fmt(x)) == x

    def test_special_values(self):
        assert cli._fmt(None) == ""
        assert cli._fmt(True) == "true"
        assert cli._fmt(np.bool_(False)) == "false"
        assert cli._fmt(np.int64(7)) == "7"
        assert cli._fmt("label") == "label"
