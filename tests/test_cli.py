"""Command-line interface: run and compare, exit codes, artifact layout."""

import csv
import filecmp
import hashlib
import json
import logging
import os
import platform
import shutil
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import mfrn
from mfrn import cli
from mfrn.scenarios import scenario_to_config

from conftest import SCENARIO_DIR, shipped


def write_config(sc, path):
    with open(path, "w") as fh:
        json.dump(scenario_to_config(sc), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def cli_run(config, out, *extra):
    rc = cli.main(["run", "--config", str(config), "--out", str(out), *extra])
    return rc, Path(out)


def src_env():
    """The environment with this suite's package first on PYTHONPATH."""
    env = dict(os.environ)
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def assert_named_error(*argv, says):
    """``python -m mfrn *argv`` exits 2 with one stderr line and no traceback."""
    proc = subprocess.run([sys.executable, "-m", "mfrn", *map(str, argv)],
                          capture_output=True, text=True, env=src_env(), timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.count("\n") == 1 and says in proc.stderr, proc.stderr


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def t1_run(workspace):
    rc, out = cli_run(SCENARIO_DIR / "test1_identity.json", workspace / "t1")
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def t1_rerun(workspace):
    rc, out = cli_run(SCENARIO_DIR / "test1_identity.json", workspace / "t1_again")
    assert rc == 0
    return out


def _test3_at_200(initial_guess):
    sc = shipped(f"test3_{initial_guess}")
    return replace(sc, config=replace(sc.config, n_cells=200))


def _small_study():
    sc = shipped("convergence")
    return replace(sc, params={**sc.params, "M_list": [10, 100]})


@pytest.fixture(scope="module")
def t3_zero_run(workspace):
    cfgp = write_config(_test3_at_200("zero"), workspace / "t3_zero.json")
    rc, out = cli_run(cfgp, workspace / "t3_zero")
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def t3_linear_run(workspace):
    cfgp = write_config(_test3_at_200("linear"), workspace / "t3_linear.json")
    rc, out = cli_run(cfgp, workspace / "t3_linear")
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def conv_run(workspace):
    cfgp = write_config(_small_study(), workspace / "conv.json")
    rc, out = cli_run(cfgp, workspace / "conv")
    assert rc == 0
    return out


class TestRun:
    def test_announces_completion(self, tmp_path, capsys):
        cfgp = write_config(_small_study(), tmp_path / "c.json")
        rc, out = cli_run(cfgp, tmp_path / "out")
        assert rc == 0
        assert "run complete" in capsys.readouterr().out

    def test_manifest_records_the_config_hash(self, t1_run):
        manifest = json.loads((t1_run / "manifest.json").read_text())
        raw = (SCENARIO_DIR / "test1_identity.json").read_bytes()
        assert manifest["config_sha256"] == hashlib.sha256(raw).hexdigest()
        assert manifest["config"] == json.loads(raw)
        assert manifest["timings"]["total"] > 0.0

    def test_manifest_records_provenance(self, t1_run, monkeypatch):
        manifest = json.loads((t1_run / "manifest.json").read_text())
        assert manifest["provenance"] == {
            "mfrn": mfrn.__version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "threads": 1,
        }
        # every run is serial, whatever the environment asks for
        monkeypatch.setenv("MFRN_THREADS", "3")
        cfgp = write_config(_small_study(), t1_run.parent / "prov.json")
        rc, out = cli_run(cfgp, t1_run.parent / "prov")
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["provenance"]["threads"] == 1

    def test_summary_reflects_the_training_outcome(self, t1_run):
        summary = json.loads((t1_run / "summary.json").read_text())
        assert summary["scenario"] == "test1"
        assert summary["converged"] is True
        assert summary["iterations"] >= 1
        assert summary["w1_final"] >= 0.0
        with open(t1_run / "iteration_log.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == summary["iterations"] + 1
        assert float(rows[-1]["cost"]) == summary["final_cost"]
        assert rows[0]["e_k"] == ""

    def test_artifacts_present_with_headers(self, t1_run):
        for name, header in [
            ("controls.csv", "t,w,b"),
            ("f0.csv", "t,x_center,value"),
            ("target.csv", "t,x_center,value"),
            ("f_final.csv", "t,x_center,value"),
            ("f_t0.25.csv", "t,x_center,value"),
            ("f_t0.50.csv", "t,x_center,value"),
            ("f_t0.75.csv", "t,x_center,value"),
        ]:
            lines = (t1_run / name).read_text().splitlines()
            assert lines[0] == header, name
            assert len(lines) > 1, name
        assert len((t1_run / "f_final.csv").read_text().splitlines()) == 201

    def test_reruns_are_byte_identical(self, t1_run, t1_rerun):
        for name in ("controls.csv", "iteration_log.csv", "f_final.csv",
                     "summary.json"):
            assert filecmp.cmp(t1_run / name, t1_rerun / name, shallow=False), name

    def test_written_floats_survive_a_parse_round_trip(self, t1_run):
        with open(t1_run / "controls.csv") as fh:
            rows = list(csv.DictReader(fh))
        for row in rows[:20]:
            v = float(row["b"])
            assert format(v, ".17g") == row["b"]

    def test_unbounded_activation_warned_once_per_run(self, tmp_path, caplog):
        # each run says it once, however many runs the process made before
        config = SCENARIO_DIR / "shift_identity.json"
        for k in range(2):
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="mfrn"):
                rc, _ = cli_run(config, tmp_path / f"run{k}")
            assert rc == 0
            said = [r for r in caplog.records if "is unbounded" in r.getMessage()]
            assert len(said) == 1, k


class TestRunFailures:
    def test_invalid_field_value_names_the_line(self, tmp_path, capsys):
        data = scenario_to_config(shipped("test2"))
        data["run"]["n_cells"] = 0
        cfgp = tmp_path / "bad.json"
        cfgp.write_text(json.dumps(data, indent=2, sort_keys=True))
        rc = cli.main(["run", "--config", str(cfgp), "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        line = json.dumps(data, indent=2, sort_keys=True).splitlines()
        assert f"{cfgp}:{1 + next(i for i, r in enumerate(line) if 'n_cells' in r)}:" in err
        assert "n_cells" in err

    @pytest.mark.parametrize("path, value", [
        ("dt", 0), ("dt", -0.01), ("t_final", 1.005),
        ("run.gamma_w", -1.0), ("run.gamma_b", -1.0), ("initial_guess", "warm"),
        ("run.gamma_w", "abc"), ("seed", "x"), ("run.domain", [0]), ("run.n_cells", 200.7),
        ("run.cfll", 0.1), ("params.betta", 2.0), ("params.beta", float("inf")),
        ("seeed", 7), ("run.domain", [-2.0, 3.0, 99.0]), ("run.domain", [-2.0, "3"]),
        ("run.max_armijo", 2.5), ("run.dimension", 1.9), ("run.n_cells", True),
        ("run.gamma_w", True), ("run.cfl", float("nan")), ("run.tol", float("inf")),
        ("seed", 3.7), ("seed", -1), ("dt", "0.01"), ("t_final", None), ("run", 5),
        ("params", [1.0]), ("activation", 5),
        # finite bounds whose width b - a overflows: dx = inf, every artifact NaN
        ("run.domain", [-1e308, 1e308]),
        # integers beyond float range
        pytest.param("seed", 10**400, id="seed-10**400"),
        pytest.param("run.n_cells", 10**400, id="run.n_cells-10**400"),
    ])
    def test_bad_value_exits_two_at_its_line(self, tmp_path, capsys, path, value):
        # every config error names its dotted key and is reported at its line
        data = json.loads((SCENARIO_DIR / "test1_identity.json").read_text())
        *parents, key = path.split(".")
        node = data
        for name in parents:
            node = node[name]
        node[key] = value
        text = json.dumps(data, indent=2, sort_keys=True)
        cfgp = tmp_path / "bad.json"
        cfgp.write_text(text)
        rc = cli.main(["run", "--config", str(cfgp), "--out", str(tmp_path / "o")])
        assert rc == 2
        line = 1 + next(i for i, r in enumerate(text.splitlines()) if f'"{key}":' in r)
        assert capsys.readouterr().err.startswith(f"{cfgp}:{line}: {path} ")
        # rejected while loading, before the manifest is written
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("config, key, value", [
        ("test1_identity", None, {}),        # every key missing
        ("test2", "s", "0.1"),               # a string for a number
        ("convergence", "n_seeds", 0),       # would average over no seeds
    ])
    def test_bad_params_exit_two_naming_the_key(self, tmp_path, capsys, config, key, value):
        data = json.loads((SCENARIO_DIR / f"{config}.json").read_text())
        if key is None:
            data["params"] = value
        else:
            data["params"][key] = value
        text = json.dumps(data, indent=2, sort_keys=True)
        cfgp = tmp_path / "bad.json"
        cfgp.write_text(text)
        rc = cli.main(["run", "--config", str(cfgp), "--out", str(tmp_path / "o")])
        assert rc == 2
        # the key's own line, or the "params" line when the key is absent
        line = 1 + next(i for i, r in enumerate(text.splitlines())
                        if f'"{key or "params"}":' in r)
        err = capsys.readouterr().err
        assert err.startswith(f"{cfgp}:{line}: params.{key or 'beta'} must be ")
        assert not (tmp_path / "o").exists()

    def test_a_single_ensemble_size_exits_two_at_its_line(self, tmp_path, capsys):
        # a study of one size would fit its slope through one point
        data = json.loads((SCENARIO_DIR / "convergence.json").read_text())
        data["params"].update(M_list=[100], n_seeds=1)
        text = json.dumps(data, indent=2, sort_keys=True)
        cfgp = tmp_path / "one_size.json"
        cfgp.write_text(text)
        rc, out = cli_run(cfgp, tmp_path / "o")
        assert rc == 2
        line = 1 + next(i for i, r in enumerate(text.splitlines()) if '"M_list":' in r)
        assert capsys.readouterr().err == (
            f"{cfgp}:{line}: params.M_list must increase and hold at least two "
            "positive integers, got [100]\n")
        assert not out.exists()

    def test_a_step_count_that_overflows_exits_two_at_the_dt_line(self, tmp_path, capsys):
        # t_final / dt = inf once ended in an OverflowError traceback, exit 1
        data = json.loads((SCENARIO_DIR / "test1_identity.json").read_text())
        data.update(t_final=1e308, dt=1e-308)
        text = json.dumps(data, indent=2, sort_keys=True)
        cfgp = tmp_path / "overflow.json"
        cfgp.write_text(text)
        rc, out = cli_run(cfgp, tmp_path / "o")
        assert rc == 2
        line = 1 + next(i for i, r in enumerate(text.splitlines()) if '"dt":' in r)
        assert capsys.readouterr().err == (
            f"{cfgp}:{line}: dt = 1e-308 gives t_final / dt = inf steps\n")
        assert not out.exists()

    def test_a_seed_override_beyond_float_range_exits_two_at_the_seed_line(self, tmp_path,
                                                                            capsys):
        cfgp = SCENARIO_DIR / "test1_identity.json"
        rc, out = cli_run(cfgp, tmp_path / "o", "--seed", str(10**400))
        assert rc == 2
        line = 1 + next(i for i, r in enumerate(cfgp.read_text().splitlines())
                        if '"seed":' in r)
        assert capsys.readouterr().err.startswith(f"{cfgp}:{line}: seed must be an integer")
        assert not out.exists()

    def test_load_config_applies_each_override_after_the_file(self, tmp_path):
        cfgp = SCENARIO_DIR / "test1_identity.json"
        base, raw = cli.load_config(str(cfgp))
        sc, raw_o = cli.load_config(str(cfgp), activation=" RELU", seed=7)
        assert raw == raw_o == cfgp.read_bytes()
        assert sc == replace(base, activation="relu", seed=7)
        # an override's error names its key's line, as the file's own do
        line = 1 + next(i for i, r in enumerate(cfgp.read_text().splitlines())
                        if '"seed":' in r)
        with pytest.raises(cli.ConfigError, match="seed must be an integer") as err:
            cli.load_config(str(cfgp), seed=-1)
        assert err.value.line == line
        # the file is validated first: its error wins over a bad override's
        data = scenario_to_config(base)
        data["seeed"] = 1
        bad = tmp_path / "typo.json"
        bad.write_text(json.dumps(data, indent=2, sort_keys=True))
        with pytest.raises(cli.ConfigError, match="seeed is not a known key"):
            cli.load_config(str(bad), activation="blorp")

    def test_unsupported_dimension_rejected(self, tmp_path, capsys):
        data = scenario_to_config(shipped("test2"))
        data["run"]["dimension"] = 2
        cfgp = tmp_path / "two_d.json"
        cfgp.write_text(json.dumps(data, indent=2, sort_keys=True))
        rc = cli.main(["run", "--config", str(cfgp), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "dimension" in capsys.readouterr().err

    def test_malformed_json_rejected(self, tmp_path, capsys):
        cfgp = tmp_path / "broken.json"
        cfgp.write_text("{ this is not json")
        rc = cli.main(["run", "--config", str(cfgp), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "invalid JSON" in capsys.readouterr().err

    def test_missing_config_rejected(self, tmp_path, capsys):
        rc = cli.main(["run", "--config", str(tmp_path / "absent.json"),
                       "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "cannot read config" in capsys.readouterr().err

    def test_non_object_config_rejected(self, tmp_path, capsys):
        cfgp = tmp_path / "list.json"
        cfgp.write_text("[1, 2, 3]")
        rc = cli.main(["run", "--config", str(cfgp), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "JSON object" in capsys.readouterr().err

    def test_unstable_setup_exits_three(self, tmp_path, capsys):
        # an 8x speed-up of the shift makes the fixed step unstable outright
        sc = replace(shipped("shift_identity"), params={"beta": 2.0}, t_final=0.25)
        cfgp = write_config(sc, tmp_path / "fast.json")
        rc, out = cli_run(cfgp, tmp_path / "o")
        assert rc == 3
        assert "solver diverged" in capsys.readouterr().err
        # the manifest was written before the solver gave up
        assert (out / "manifest.json").exists()
        assert not (out / "summary.json").exists()

    def test_infeasible_activation_override_is_a_config_error(self, tmp_path, capsys):
        # beta / t_final = 1 is no tanh speed: rejected at params.beta's line,
        # before the manifest is written
        cfgp = SCENARIO_DIR / "shift_identity.json"
        rc = cli.main(["run", "--config", str(cfgp), "--out", str(tmp_path / "o"),
                       "--activation", "tanh"])
        assert rc == 2
        line = 1 + next(i for i, r in enumerate(cfgp.read_text().splitlines())
                        if '"beta":' in r)
        assert capsys.readouterr().err == (
            f"{cfgp}:{line}: params.beta / t_final: rate 1.0 is outside the tanh image (-1, 1)\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("kind", ["identity", "gcu"])
    def test_a_rate_beyond_float_range_exits_two_at_the_beta_line(self, tmp_path, kind):
        # beta / t_final = 1e308 / 0.5 overflows to inf, which has no
        # preimage; the gcu scan once looped forever on it, hence the
        # subprocess and its timeout
        data = json.loads((SCENARIO_DIR / "shift_identity.json").read_text())
        data.update(activation=kind, t_final=0.5, dt=0.01)
        data["params"]["beta"] = 1e308
        text = json.dumps(data, indent=2, sort_keys=True)
        cfgp = tmp_path / "huge.json"
        cfgp.write_text(text)
        line = 1 + next(i for i, r in enumerate(text.splitlines()) if '"beta":' in r)
        assert_named_error("run", "--config", cfgp, "--out", tmp_path / "o",
                           says=f"{cfgp}:{line}: params.beta / t_final: rate inf is not finite\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("config", ["test1_identity", "shift_identity"])
    def test_a_shift_too_large_for_the_indicator_exits_two_at_the_beta_line(self, tmp_path,
                                                                            capsys, config):
        # at 1e16 both ends of [beta - 1/2, beta + 1/2] round to beta, so the
        # support check refuses it; the target's density 1 / (hi - lo) once
        # divided by zero mid-run
        data = json.loads((SCENARIO_DIR / f"{config}.json").read_text())
        data["params"]["beta"] = 1e16
        text = json.dumps(data, indent=2, sort_keys=True)
        cfgp = tmp_path / "far.json"
        cfgp.write_text(text)
        rc = cli.main(["run", "--config", str(cfgp), "--out", str(tmp_path / "o")])
        assert rc == 2
        line = 1 + next(i for i, r in enumerate(text.splitlines()) if '"beta":' in r)
        assert capsys.readouterr().err == (
            f"{cfgp}:{line}: params.beta = 1e+16 puts the target indicator "
            "[1e+16, 1e+16] outside run.domain [-2.0, 3.0]\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("config, path, value, key", [
        # Γ(205) raised OverflowError: a traceback, exit 1, the manifest left
        ("test3_zero", "params.a1", 200, "params.a1"),
        # s^2 underflowed: two numpy warnings, then a refusal after the manifest
        ("test2", "params.s", 1e-200, "params.s"),
        # the cells are too wide for the law: its projected mass was 0 mid-run
        ("test2", "params.s", 1e-6, "run.n_cells"),
        ("test2", "params.alpha", 20.0, "run.n_cells"),
        ("shift_identity", "run.domain", [-1e300, 1e300], "run.n_cells"),
    ])
    def test_a_law_the_grid_cannot_hold_exits_two_at_its_line(self, tmp_path, capsys, config,
                                                              path, value, key):
        data = json.loads((SCENARIO_DIR / f"{config}.json").read_text())
        section, name = path.split(".")
        data[section][name] = value
        text = json.dumps(data, indent=2, sort_keys=True)
        cfgp = tmp_path / "unheld.json"
        cfgp.write_text(text)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc, out = cli_run(cfgp, tmp_path / "o")
        assert rc == 2 and not out.exists()
        assert [str(w.message) for w in caught] == []
        line = 1 + next(i for i, r in enumerate(text.splitlines())
                        if f'"{key.split(".")[1]}":' in r)
        assert capsys.readouterr().err.startswith(f"{cfgp}:{line}: {key} = ")

    @pytest.mark.parametrize("config, key, value", [
        ("test1_identity", "beta", 2.8), ("test2", "mu", 2.9),
    ])
    def test_mass_outside_the_domain_exits_two_at_its_line(self, tmp_path, capsys, config,
                                                           key, value):
        # test1 once ran to "converged" toward a target cut off at the domain,
        # and test2 trained, then failed on the target's mass 0.626
        data = json.loads((SCENARIO_DIR / f"{config}.json").read_text())
        data["params"][key] = value
        text = json.dumps(data, indent=2, sort_keys=True)
        cfgp = tmp_path / "outside.json"
        cfgp.write_text(text)
        rc, out = cli_run(cfgp, tmp_path / "o")
        assert rc == 2
        line = 1 + next(i for i, r in enumerate(text.splitlines()) if f'"{key}":' in r)
        err = capsys.readouterr().err
        assert err.startswith(f"{cfgp}:{line}: params.{key} = {value} puts ")
        assert "outside run.domain [-2.0, 3.0]" in err and err.count("\n") == 1
        assert not out.exists()

    COARSE = ("dt = 0.04 > 1.45*dx = 0.03625: the bounded activation sigmoid reaches speed 1, "
              "so a line-search trial could break the hard CFL bound")

    def coarse_config(self, tmp_path, name):
        """The shipped config at dt = 0.04, 1.6 dx at its 200 cells, and the
        line of its dt."""
        data = json.loads((SCENARIO_DIR / f"{name}.json").read_text())
        data["dt"] = 0.04
        text = json.dumps(data, indent=2, sort_keys=True)
        cfgp = tmp_path / "coarse.json"
        cfgp.write_text(text)
        return cfgp, 1 + next(i for i, r in enumerate(text.splitlines()) if '"dt":' in r)

    def test_a_bounded_activation_past_the_hard_cfl_step_is_a_config_error(self, tmp_path,
                                                                           capsys):
        # a sigmoid trial could break the solver's hard CFL bound, so loading
        # refuses the step at its line, before the manifest is written
        cfgp, line = self.coarse_config(tmp_path, "test1_sigmoid")
        rc, out = cli_run(cfgp, tmp_path / "o")
        assert rc == 2
        assert capsys.readouterr().err == f"{cfgp}:{line}: {self.COARSE}\n"
        assert not out.exists()

    def test_a_bounded_activation_override_past_the_hard_cfl_step_is_a_config_error(
            self, tmp_path, capsys):
        # identity trains at any step; --activation sigmoid makes the same
        # step a config error at the dt line
        cfgp, line = self.coarse_config(tmp_path, "test1_identity")
        rc, out = cli_run(cfgp, tmp_path / "o", "--activation", "sigmoid")
        assert rc == 2
        assert capsys.readouterr().err == f"{cfgp}:{line}: {self.COARSE}\n"
        assert not out.exists()

    def test_unknown_activation_override_rejected(self, tmp_path, capsys):
        rc = cli.main(["run", "--config", str(SCENARIO_DIR / "shift_identity.json"),
                       "--out", str(tmp_path / "o"), "--activation", "blorp"])
        assert rc == 2
        assert "blorp" in capsys.readouterr().err

    def test_out_under_a_file_is_a_named_error(self, tmp_path):
        (tmp_path / "file").write_text("")
        assert_named_error("run", "--config", SCENARIO_DIR / "shift_identity.json",
                           "--out", tmp_path / "file" / "sub",
                           says="cannot write output directory: ")

    def test_missing_arguments_trip_argparse(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["run"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 2


class TestOverrides:
    def test_feasible_activation_override_runs(self, tmp_path):
        rc, out = cli_run(SCENARIO_DIR / "shift_identity.json", tmp_path / "o",
                          "--activation", "relu")
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["activation"] == "relu"
        assert summary["w1_final"] <= 0.05

    def test_activation_is_echoed_normalized(self, tmp_path):
        data = json.loads((SCENARIO_DIR / "shift_identity.json").read_text())
        data["activation"] = " RELU"
        cfgp = tmp_path / "relu.json"
        cfgp.write_text(json.dumps(data))
        rc, out = cli_run(cfgp, tmp_path / "o")
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        manifest = json.loads((out / "manifest.json").read_text())
        assert summary["activation"] == manifest["activation"] == "relu"
        assert manifest["config"]["activation"] == "relu"

    def test_seed_override_changes_the_draws(self, workspace, conv_run):
        rc, out = cli_run(workspace / "conv.json", workspace / "conv7", "--seed", "7")
        assert rc == 0
        base = json.loads((conv_run / "summary.json").read_text())
        other = json.loads((out / "summary.json").read_text())
        assert other["w1_mean"] != base["w1_mean"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 7


class TestConvergenceArtifacts:
    def test_csv_and_summary(self, conv_run):
        with open(conv_run / "convergence.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [int(r["M"]) for r in rows] == [10, 100]
        assert set(rows[0]) == {"M", "w1_mean", "w1_seed0", "w1_seed1",
                                "w1_seed2", "w1_seed3", "w1_seed4"}
        summary = json.loads((conv_run / "summary.json").read_text())
        assert summary["slope"] < 0.0
        assert len(summary["w1_mean"]) == 2
        assert float(rows[1]["w1_mean"]) == summary["w1_mean"][1]


class TestCompare:
    def test_self_comparison_has_zero_deltas(self, t1_run, t1_rerun, tmp_path, capsys):
        out = tmp_path / "cmp.csv"
        rc = cli.main(["compare", str(t1_run), str(t1_rerun), "--out", str(out)])
        assert rc == 0
        assert "comparison written" in capsys.readouterr().out
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert rows, "comparison produced no rows"
        for row in rows:
            for key in ("cost_delta", "e_delta", "w_delta", "b_delta"):
                if row[key]:
                    assert float(row[key]) == 0.0
        # a parsed 0.0 is falsy: a zero must still be written, not left empty
        assert "control,0,,,,,,,0,0,0,0,0,0" in out.read_text().splitlines()

    def test_exact_control_runs_compare_their_controls_only(self, tmp_path):
        # neither run writes iteration_log.csv: one control row per time node
        runs = [cli_run(SCENARIO_DIR / "shift_identity.json", tmp_path / f"run{k}")
                for k in range(2)]
        assert [rc for rc, _ in runs] == [0, 0]
        out = tmp_path / "cmp.csv"
        assert cli.main(["compare", *(str(d) for _, d in runs), "--out", str(out)]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        sc = shipped("shift_identity")
        assert len(rows) == round(sc.t_final / sc.dt) + 1
        assert {r["kind"] for r in rows} == {"control"}
        assert all(r["w_delta"] == r["b_delta"] == "0" for r in rows)

    def test_run_without_controls_rejected(self, conv_run, tmp_path, capsys):
        # a convergence study writes no controls.csv: nothing to align
        rc = cli.main(["compare", str(conv_run), str(conv_run),
                       "--out", str(tmp_path / "cmp.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("cannot load run directory: ") and "controls.csv" in err
        assert not (tmp_path / "cmp.csv").exists()

    def test_distinct_guesses_land_close_in_cost_far_in_bias(
        self, t3_zero_run, t3_linear_run, tmp_path
    ):
        out = tmp_path / "cmp.csv"
        rc = cli.main(["compare", str(t3_zero_run), str(t3_linear_run),
                       "--out", str(out)])
        assert rc == 0
        sum_a = json.loads((t3_zero_run / "summary.json").read_text())
        sum_b = json.loads((t3_linear_run / "summary.json").read_text())
        assert abs(sum_a["final_cost"] - sum_b["final_cost"]) \
            <= 0.05 * abs(sum_a["final_cost"])
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        b_deltas = [abs(float(r["b_delta"])) for r in rows
                    if r["kind"] == "control" and r["b_delta"]]
        assert max(b_deltas) > 1e-3
        cost_rows = [r for r in rows if r["kind"] == "iteration" and r["cost_delta"]]
        r = cost_rows[0]
        assert float(r["cost_delta"]) == pytest.approx(
            float(r["cost_b"]) - float(r["cost_a"]), rel=1e-12
        )

    def test_mismatched_grids_rejected(self, t1_run, workspace, tmp_path, capsys):
        sc = shipped("shift_identity")
        sc = replace(sc, config=replace(sc.config, n_cells=100))
        cfgp = write_config(sc, workspace / "shift100.json")
        rc, other = cli_run(cfgp, workspace / "shift100")
        assert rc == 0
        capsys.readouterr()
        rc = cli.main(["compare", str(t1_run), str(other),
                       "--out", str(tmp_path / "cmp.csv")])
        assert rc == 2
        assert "mismatched grids" in capsys.readouterr().err

    def test_summary_is_not_read(self, t1_run, tmp_path, capsys):
        # compare aligns the iteration logs and controls; a truncated
        # summary.json is no reason to refuse
        cut = tmp_path / "cut"
        shutil.copytree(t1_run, cut)
        (cut / "summary.json").write_text((t1_run / "summary.json").read_text()[:20])
        rc = cli.main(["compare", str(t1_run), str(cut), "--out", str(tmp_path / "cmp.csv")])
        assert rc == 0
        assert "comparison written" in capsys.readouterr().out

    def test_missing_run_directory_rejected(self, t1_run, tmp_path, capsys):
        rc = cli.main(["compare", str(t1_run), str(tmp_path / "nothing"),
                       "--out", str(tmp_path / "cmp.csv")])
        assert rc == 2
        assert "cannot load run directory" in capsys.readouterr().err

    BAD_INPUTS = {
        "manifest_without_config": "not a run manifest",
        "manifest_is_a_list": "not a run manifest",
        "manifest_not_json": f"{os.path.join('bad', 'manifest.json')}: not valid JSON: ",
        "controls_value_abc": "controls.csv:4: could not convert string to float: 'abc'",
        "controls_row_cut_short": "controls.csv:4: 2 fields, the header has 3",
        "controls_row_with_an_extra_field": "controls.csv:4: 4 fields, the header has 3",
        "iteration_log_cut_mid_row": "iteration_log.csv:5: the last line has no newline",
        "controls_empty": "controls.csv: empty, no header line",
        "controls_header_without_w_and_b": "controls.csv:1: the header lacks w, b",
        "iteration_log_header_without_cost": "iteration_log.csv:1: the header lacks cost",
        "out_under_a_missing_directory": "cannot write comparison: ",
    }

    @pytest.mark.parametrize("case", BAD_INPUTS)
    def test_bad_input_is_a_named_error(self, t1_run, tmp_path, case):
        bad, out = tmp_path / "bad", tmp_path / "cmp.csv"
        shutil.copytree(t1_run, bad)
        manifest = bad / "manifest.json"
        if case == "manifest_without_config":
            data = json.loads(manifest.read_text())
            del data["config"]
            manifest.write_text(json.dumps(data))
        elif case == "manifest_is_a_list":
            manifest.write_text("[1, 2]")
        elif case == "manifest_not_json":
            manifest.write_text("{ not json")
        elif case == "controls_value_abc":
            lines = (bad / "controls.csv").read_text().splitlines()
            t, _, b = lines[3].split(",")
            lines[3] = f"{t},abc,{b}"
            (bad / "controls.csv").write_text("\n".join(lines) + "\n")
        elif case.startswith("controls_row"):
            lines = (bad / "controls.csv").read_text().splitlines()
            lines[3] = lines[3].rsplit(",", 1)[0] if "short" in case else lines[3] + ",0"
            (bad / "controls.csv").write_text("\n".join(lines) + "\n")
        elif case == "iteration_log_cut_mid_row":
            # as an interrupted write leaves it: four whole lines, part of the fifth
            lines = (bad / "iteration_log.csv").read_text().splitlines()
            (bad / "iteration_log.csv").write_text("\n".join(lines[:4] + [lines[4][:10]]))
        elif case == "controls_empty":
            # as a write cut off before its first flush leaves it
            (bad / "controls.csv").write_bytes(b"")
        elif case == "controls_header_without_w_and_b":
            # the rows stay as they are; only the column names change
            lines = (bad / "controls.csv").read_text().splitlines()
            (bad / "controls.csv").write_text("\n".join(["t,x,y"] + lines[1:]) + "\n")
        elif case == "iteration_log_header_without_cost":
            log = bad / "iteration_log.csv"
            log.write_text(log.read_text().replace("cost", "loss", 1))
        else:
            out = tmp_path / "missing" / "cmp.csv"
        assert_named_error("compare", t1_run, bad, "--out", out, says=self.BAD_INPUTS[case])


def _declared_entry_point():
    """The ``module:function`` that ``[project.scripts]`` names for ``mfrn``."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        spec = tomllib.load(fh)["project"]["scripts"]["mfrn"]
    module, func = spec.split(":")
    return module, func


def test_console_script_help():
    # Run the declared entry point as the installed setuptools wrapper would,
    # and ``python -m mfrn``, against the package this suite imported, so no
    # install is needed.
    module, func = _declared_entry_point()
    code = (f"import sys; sys.argv[0] = 'mfrn'; from {module} import {func}; "
            f"sys.exit({func}())")
    env = src_env()
    runs = [([sys.executable, "-c", code, "--help"], env),
            ([sys.executable, "-m", "mfrn", "--help"], env)]
    # An installed script is checked too, as it runs, wherever there is one.
    installed = shutil.which("mfrn")
    if installed:
        runs.append(([installed, "--help"], None))
    for cmd, cmd_env in runs:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=cmd_env)
        assert proc.returncode == 0, proc.stderr
        assert "run" in proc.stdout and "compare" in proc.stdout
        # the description also says "run and compare"; the usage line lists
        # the subcommands themselves
        assert "{run,compare}" in proc.stdout
