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
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import mfrn
from mfrn import cli
from mfrn.scenarios import scenario_to_config, worker_count

from conftest import SCENARIO_DIR, shipped


def write_config(sc, path):
    with open(path, "w") as fh:
        json.dump(scenario_to_config(sc), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def cli_run(config, out, *extra):
    rc = cli.main(["run", "--config", str(config), "--out", str(out), *extra])
    return rc, Path(out)


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
            "MFRN_THREADS": worker_count(),
        }
        # the recorded thread count is the one the run used
        monkeypatch.setenv("MFRN_THREADS", "3")
        cfgp = write_config(_small_study(), t1_run.parent / "prov.json")
        rc, out = cli_run(cfgp, t1_run.parent / "prov")
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["provenance"]["MFRN_THREADS"] == 3

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
        rc = cli.main(["run", "--config", str(SCENARIO_DIR / "shift_identity.json"),
                       "--out", str(tmp_path / "o"), "--activation", "tanh"])
        assert rc == 2
        assert "tanh image" in capsys.readouterr().err

    def test_unknown_activation_override_rejected(self, tmp_path, capsys):
        rc = cli.main(["run", "--config", str(SCENARIO_DIR / "shift_identity.json"),
                       "--out", str(tmp_path / "o"), "--activation", "blorp"])
        assert rc == 2
        assert "blorp" in capsys.readouterr().err

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
        sc = _small_study()
        sc = replace(sc, config=replace(sc.config, n_cells=100))
        cfgp = write_config(sc, workspace / "conv100.json")
        rc, other = cli_run(cfgp, workspace / "conv100")
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
    env = dict(os.environ)
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
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
