"""Shipped configs and their strict reading, exact controls, studies, sampling."""

import json
import logging
import math
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mfrn import optim, particle, scenarios
from mfrn.core import Activation, ConfigValueError, ControlPath, TimeGrid, activation
from mfrn.fvm import DensityField, DriftSpec, Grid1D, project_initial, solve_transport
from mfrn.measures import moments, particles_to_density, wasserstein1
from mfrn.particle import ode_integrate
from mfrn.scenarios import (
    ExactControlReport,
    ConvergenceReport,
    Scenario,
    activation_preimage,
    gaussian_density,
    indicator_density,
    run_convergence_study,
    run_exact_control,
    run_scenario,
    run_training,
    sample_from_density,
    scenario_from_config,
    scenario_to_config,
)
from conftest import SCENARIO_DIR, shipped
from test_cli import src_env
from test_optim import assert_same_trajectory

SHIPPED = sorted(p.stem for p in SCENARIO_DIR.glob("*.json"))


def shift_quadratic_companion(
    beta: float = 1.0,
    n_cells: int = 200,
    domain: tuple[float, float] = (-2.0, 3.0),
) -> float:
    """Terminal gap between two identity-activation controls with the same
    accumulated rate: constant b, and b(t) = t^2 + 1 over the horizon where
    its integral first reaches beta.  Distinct paths, same terminal measure."""
    act = activation("identity")
    # solve T^3/3 + T = beta for the quadratic path's horizon
    roots = np.roots([1.0 / 3.0, 0.0, 1.0, -float(beta)])
    real = [float(r.real) for r in roots if abs(r.imag) < 1e-12 and r.real > 0]
    if not real:
        raise ValueError(f"no positive horizon reaches accumulated rate {beta!r}")
    t_hor = min(real)
    n = max(1, round(t_hor / 1e-2))
    tg = TimeGrid(t_hor, t_hor / n, n)
    grid = Grid1D(domain[0], domain[1], n_cells)
    f0 = project_initial(indicator_density(-0.5, 0.5), grid)
    quad = ControlPath.from_functions(tg, lambda t: 0.0 * t, lambda t: t**2 + 1.0)
    const = ControlPath.constant(tg, 0.0, beta / t_hor)
    f_quad = solve_transport(f0, DriftSpec(quad, act), tg)[-1]
    f_const = solve_transport(f0, DriftSpec(const, act), tg)[-1]
    return wasserstein1(f_quad, f_const)

class TestBuildersAndConfigs:
    """The shipped configs, the only definition of the paper's scenarios, and
    the strict reading of a config."""

    def test_nine_configs_ship(self):
        assert len(SHIPPED) == 9

    @pytest.mark.parametrize("name", SHIPPED)
    def test_config_round_trip(self, name):
        with open(SCENARIO_DIR / f"{name}.json") as fh:
            data = json.load(fh)
        assert scenario_to_config(scenario_from_config(data)) == data

    @pytest.mark.parametrize("key", SHIPPED)
    def test_shipped_config_files_match_builders(self, key):
        # ``shipped`` is the one builder left: the scenario it reads from the
        # file survives the trip through JSON and back unchanged.
        sc = shipped(key)
        data = json.loads(json.dumps(scenario_to_config(sc)))
        assert scenario_from_config(data) == sc

    def test_nonincreasing_ensemble_sizes_rejected(self):
        sc = shipped("convergence")
        with pytest.raises(ValueError, match="must increase"):
            replace(sc, params={**sc.params, "M_list": [100, 50]})

    def test_activation_name_is_kept_normalized(self):
        sc = replace(shipped("shift_identity"), activation=" RELU")
        assert sc.activation == "relu" and sc.act == Activation("relu")
        assert scenario_to_config(sc)["activation"] == "relu"

    def test_scenario_validation(self):
        good = shipped("test2")
        with pytest.raises(ValueError, match="^scenario must be one of"):
            Scenario(name="test9", config=good.config, t_final=1.0, dt=1e-2,
                     activation="identity")
        with pytest.raises(ValueError, match="^initial_guess must be one of"):
            Scenario(name="test2", config=good.config, t_final=1.0, dt=1e-2,
                     activation="identity", initial_guess="warm")
        with pytest.raises(ValueError):
            Scenario(name="test2", config=good.config, t_final=1.0, dt=1e-2,
                     activation="softplus")

    @pytest.mark.parametrize("config, key, value", [
        ("test1_identity", "beta", float("inf")), ("shift_identity", "beta", None),
        ("test2", "mu", True), ("scale", "s", -0.1), ("test3_zero", "a1", 0.0),
        ("test3_linear", "a2", float("nan")), ("convergence", "n_seeds", 2.0),
        ("convergence", "M_list", []), ("convergence", "M_list", [0, 10]),
        ("convergence", "M_list", [100, 100]), ("convergence", "M_list", 100),
        ("convergence", "M_list", [100]),
    ])
    def test_bad_params_named(self, config, key, value):
        with open(SCENARIO_DIR / f"{config}.json") as fh:
            data = json.load(fh)
        data["params"][key] = value
        with pytest.raises(ValueError, match=rf"^params\.{key} must "):
            scenario_from_config(data)

    @pytest.mark.parametrize("config, params, domain, key", [
        ("test1_identity", {"beta": 2.8}, None, "params.beta"),  # target on [2.3, 3.3]
        ("shift_identity", {"beta": -1.6}, None, "params.beta"),
        ("test1_identity", {}, (-0.4, 3.0), "run.domain"),  # starts on [-0.5, 0.5]
        ("test3_zero", {}, (0.5, 3.0), "run.domain"),  # starts on [0, 1]
        ("test2", {"mu": 2.9}, None, "params.mu"),
        ("test2", {"mu": 2.45}, None, "params.mu"),  # 5.5 sd inside: 1.9e-8 outside
        ("scale", {"mu": 2.0, "alpha": -2.0}, None, "params.mu"),  # the wider target spills
        ("convergence", {"mu": -1.0}, None, "params.mu"),
        ("test2", {"alpha": 800.0}, None, "params.alpha"),
        ("scale", {"alpha": -800.0}, None, "params.alpha"),
    ])
    def test_mass_outside_the_domain_rejected(self, config, params, domain, key):
        # projection would cut the density off at the domain and renormalize
        # it: test1 with beta = 2.8 once trained toward height 1/0.7 on
        # [2.3, 3.0], mean 2.65, and reported that it converged
        data = json.loads((SCENARIO_DIR / f"{config}.json").read_text())
        data["params"].update(params)
        if domain:
            data["run"]["domain"] = list(domain)
        with pytest.raises(ConfigValueError, match=rf"^{key} ") as exc:
            scenario_from_config(data)
        assert exc.value.key == key

    @pytest.mark.parametrize("config, params", [
        ("test1_identity", {"beta": 2.5}),  # the target fills [2, 3]
        ("shift_identity", {"beta": -1.5}),
        ("test2", {"mu": 2.43}),  # 5.7 sd inside: 6e-9 outside
    ])
    def test_mass_inside_the_domain_accepted(self, config, params):
        data = json.loads((SCENARIO_DIR / f"{config}.json").read_text())
        data["params"].update(params)
        scenario_from_config(data)

    def test_missing_config_keys_named(self):
        data = scenario_to_config(shipped("test2"))
        del data["run"], data["dt"]
        with pytest.raises(ValueError, match="dt, run"):
            scenario_from_config(data)

    def test_initial_guesses(self):
        sc = shipped("test3_zero")
        c = sc.initial_controls()
        assert np.all(c.w == 0.0) and np.all(c.b == 0.0)
        lin = shipped("test3_linear").initial_controls()
        assert_allclose(lin.w, sc.time_grid.nodes, rtol=1e-15)
        assert_allclose(lin.b, sc.time_grid.nodes, rtol=1e-15)


class TestBlockShiftProblem:
    def test_target_is_the_unit_translate(self, test1_identity_report):
        r = test1_identity_report
        assert_allclose(moments(r.f0, 1), 0.0, atol=1e-10)
        assert_allclose(moments(r.target_field, 1), 1.0, rtol=1e-10)
        assert_allclose(wasserstein1(r.f0, r.target_field), 1.0, rtol=1e-12)

    def test_trained_bias_accumulates_the_shift(self, test1_identity_report):
        c = test1_identity_report.state.controls
        dt = c.grid.dt
        integral = dt * (np.sum(c.b) - 0.5 * (c.b[0] + c.b[-1]))
        assert abs(integral - 1.0) <= 0.05

    def test_report_carries_the_solve_of_the_trained_controls(self, test1_identity_report):
        r = test1_identity_report
        sc = r.scenario
        assert_same_trajectory(r.state.trajectory, r.state.controls, r.f0, sc.act, sc.config)

    def test_training_solves_each_control_once(self, monkeypatch):
        # the first iterate's forward solve plus one per line-search trial;
        # the report reuses the last accepted one instead of solving again
        forward = trials = 0
        cost = optim.reduced_cost

        def counted_solve(f0, drift, *args, **kwargs):
            nonlocal forward
            forward += not drift.time_reversed
            return solve_transport(f0, drift, *args, **kwargs)

        def counted_cost(*args, **kwargs):
            nonlocal trials
            trials += 1
            return cost(*args, **kwargs)

        for module in (optim, scenarios):
            monkeypatch.setattr(module, "solve_transport", counted_solve)
        monkeypatch.setattr(optim, "reduced_cost", counted_cost)
        report = run_training(shipped("test1_identity"))
        assert trials >= report.state.iteration > 0
        assert forward == 1 + trials


class TestContractionProblem:
    def test_means_agree_and_spread_shrinks(self, test2_report):
        r = test2_report
        assert abs(moments(r.f0, 1) - 1.0) <= 1e-6
        assert abs(r.mean_target - 1.0) <= 1e-6
        assert abs(np.sqrt(r.var_target) - 0.1 * np.exp(-0.25)) <= 1e-4

    def test_mean_is_conserved_along_the_trained_flow(self, test2_report):
        means = [moments(f, 1) for f in test2_report.state.trajectory]
        assert np.max(np.abs(np.array(means) - means[0])) <= 1e-3

    def test_zero_scale_target_is_the_initial_density(self):
        sc = shipped("scale")
        sc = replace(sc, params={**sc.params, "alpha": 0.0})
        assert np.array_equal(
            sc.target_field().averages, sc.initial_density().averages
        )


class TestManufacturedProblem:
    def test_exact_control_curves(self):
        sc = shipped("test3_zero")
        c = sc.exact_controls()
        t = sc.time_grid.nodes
        assert c.w[0] == 0.0 and c.b[0] == 0.0
        assert_allclose(c.w, np.exp(t) - 1.0, rtol=1e-15)
        assert_allclose(c.b, -5.0 * t**2 + t, rtol=1e-15)

    def test_initial_mean(self, test3_zero_report):
        assert abs(moments(test3_zero_report.f0, 1) - 2.0 / 7.0) <= 1e-3

    def test_weight_penalty_freezes_w(self, test3_zero_report):
        assert np.max(np.abs(test3_zero_report.state.controls.w)) <= 0.05


class TestConvergenceStudy:
    def test_monte_carlo_gap_shrinks_and_reruns_identically(self):
        sc = shipped("convergence")
        sc = replace(sc, params={**sc.params, "M_list": [10, 100]})
        first = run_convergence_study(sc)
        assert isinstance(first, ConvergenceReport)
        assert first.w1_by_seed.shape == (5, 2)
        assert first.w1_mean[1] < first.w1_mean[0]
        assert first.slope < 0.0
        second = run_convergence_study(sc)
        assert np.array_equal(first.w1_by_seed, second.w1_by_seed)

    def test_zero_controls_leave_particles_in_place(self):
        rng = np.random.default_rng(3)
        grid = Grid1D(-2.0, 3.0, 200)
        x = rng.normal(0.5, 0.3, size=5000)
        tg = TimeGrid.from_step(1.0, 1e-2)
        moved = ode_integrate(x, ControlPath.zero(tg), Activation("tanh"), 1e-2, 1.0)
        assert np.array_equal(moved, x)
        a = particles_to_density(x, grid)
        b = particles_to_density(moved, grid)
        assert wasserstein1(a, b) == 0.0

    def test_target_field_undefined(self):
        with pytest.raises(ValueError, match="no fixed target density"):
            shipped("convergence").target_field()


def per_ensemble_study(sc: Scenario) -> np.ndarray:
    """The study's W1 table with one integration per seed and size, each
    ensemble its own array: the loop before a seed's ensembles were packed."""
    controls = sc.exact_controls()
    f0 = sc.initial_density()
    f_T = solve_transport(f0, DriftSpec(controls, sc.act), sc.time_grid, cfl=sc.config.cfl)[-1]

    def one(seed_index, M):
        rng = np.random.default_rng([sc.seed, seed_index, M])
        moved = ode_integrate(sample_from_density(f0, M, rng), controls, sc.act, sc.dt,
                              sc.t_final)
        return wasserstein1(particles_to_density(moved, sc.space_grid), f_T)

    return np.array([[one(i, M) for M in sc.params["M_list"]]
                     for i in range(sc.params["n_seeds"])])


class TestPackedStudy:
    """run_convergence_study integrates all of a seed's ensembles as one array."""

    @staticmethod
    def study(**params):
        sc = shipped("convergence")
        return replace(sc, params={**sc.params, **params})

    def test_packed_seeds_are_bitwise_the_per_ensemble_loop(self, monkeypatch):
        # blocks of 8 rows: the slices of sizes 3, 8, 13 and 30 start and end
        # inside blocks and across them
        monkeypatch.setattr(particle, "_BLOCK_ROWS", 8)
        sc = self.study(n_seeds=2, M_list=[3, 8, 13, 30])
        rows = []

        def counted(ens, *args):
            rows.append(len(ens))
            return ode_integrate(ens, *args)

        monkeypatch.setattr(scenarios, "ode_integrate", counted)
        report = run_convergence_study(sc)
        assert rows == [54, 54]  # one integration per seed
        assert report.w1_by_seed.tobytes() == per_ensemble_study(sc).tobytes()

    def test_a_seed_holds_its_own_positions_only(self, monkeypatch):
        # a seed holds at most its packed samples, their integrated copy, the
        # stage buffers and one sample (drawing one holds the packed array and
        # its uniforms and positions), and the short PDE solve ahead holds
        # little: 1.48 MB against 1.58 MB here.  A study packed across seeds
        # would hold a second seed's samples and copy, 1.99 MB or more
        monkeypatch.setattr(particle, "_BLOCK_ROWS", 1024)
        M_list = [2_000, 60_000]
        sc = replace(self.study(n_seeds=2, M_list=M_list), t_final=0.2)
        total, largest = sum(M_list), max(M_list)
        tracemalloc.start()
        try:
            run_convergence_study(sc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * (2 * total + largest + 5 * particle._BLOCK_ROWS) + 64 * 1024


class TestExactControlConstructions:
    @pytest.mark.parametrize("kind", ["identity", "relu"])
    def test_block_shift_is_realized(self, kind):
        gap = run_exact_control(replace(shipped("shift_identity"), activation=kind)).w1
        assert gap <= 2 * (5.0 / 200)

    def test_infeasible_rate_rejected(self):
        # when the scenario is built, before any solve
        with pytest.raises(ConfigValueError, match=r"^params\.beta / t_final: rate 2\.0 "
                                                   r"is outside the sigmoid image"):
            replace(shipped("shift_identity"), activation="sigmoid", params={"beta": 2.0})

    def test_distinct_bias_paths_same_terminal_state(self):
        assert shift_quadratic_companion() <= 2 * (5.0 / 200)

    def test_scale_controls_reach_the_target(self):
        report = run_scenario(shipped("scale"))
        assert isinstance(report, ExactControlReport)
        assert report.w1 <= 2 * report.f0.grid.dx

    def test_shift_scenario_dispatches_to_exact_runner(self):
        report = run_scenario(replace(shipped("shift_identity"), params={"beta": 0.5}))
        assert isinstance(report, ExactControlReport)
        assert report.w1 <= 2 * report.f0.grid.dx

    def test_training_scenarios_carry_no_exact_controls(self):
        with pytest.raises(ValueError, match="no exact controls"):
            run_exact_control(shipped("test1_identity"))


class TestPreimages:
    def test_closed_forms(self):
        assert activation_preimage(Activation("identity"), -0.3) == -0.3
        assert activation_preimage(Activation("sigmoid"), 0.5) == 0.0
        assert_allclose(activation_preimage(Activation("tanh"), 0.5),
                        np.arctanh(0.5), rtol=1e-15)
        assert activation_preimage(Activation("relu"), 0.7) == 0.7

    def test_oscillatory_kind_solved_numerically(self):
        b0 = activation_preimage(Activation("gcu"), 2.0)
        assert abs(b0 * np.cos(b0) - 2.0) <= 1e-10

    @pytest.mark.parametrize("rate", [1e10, 1e100, 1e300, -1e300])
    def test_gcu_preimage_is_a_float_next_to_a_root(self, rate):
        # bisection ends on two neighbouring floats around a sign change of
        # x cos(x) - r and returns the one with the smaller residual.  A root
        # lies within one ulp of it, so the residual is at most the slope
        # bound 1 + |x| times one ulp.  Far out one ulp spans many periods of
        # cos and the residual relative to r is large (0.33 at 1e100), but no
        # float next to the root does better
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            b = activation_preimage(Activation("gcu"), rate)
        res = lambda x: x * math.cos(x) - rate  # noqa: E731
        beside = [np.nextafter(b, -math.inf).item(), np.nextafter(b, math.inf).item()]
        assert any((res(x) < 0) != (res(b) < 0) and abs(res(b)) <= abs(res(x)) for x in beside)
        assert abs(res(b)) / (1.0 + abs(b)) <= abs(np.spacing(b))

    @pytest.mark.parametrize("kind,rate,fragment", [
        ("relu", -0.1, "relu image"),
        ("sigmoid", 1.0, "sigmoid image"),
        ("tanh", -1.0, "tanh image"),
    ])
    def test_out_of_image_rates_rejected(self, kind, rate, fragment):
        with pytest.raises(ValueError, match=fragment):
            activation_preimage(Activation(kind), rate)

    @pytest.mark.parametrize("kind", ["identity", "relu", "sigmoid", "tanh"])
    @pytest.mark.parametrize("rate", [math.inf, -math.inf, math.nan])
    def test_non_finite_rates_rejected(self, kind, rate):
        with pytest.raises(ValueError, match="is not finite"):
            activation_preimage(Activation(kind), rate)

    @pytest.mark.parametrize("rate, says", [
        (math.inf, "rate inf is not finite"),
        (-math.inf, "rate -inf is not finite"),
        (math.nan, "rate nan is not finite"),
        # x cos(x) = 1.7e308 has no root the outward scan can bracket before
        # its width overflows
        (1.7e308, "rate 1.7e+308 has no gcu preimage the scan can reach"),
    ])
    def test_gcu_rates_past_the_scan_are_refused(self, rate, says):
        # the gcu scan once looped forever on these, hence the subprocess and
        # its timeout
        code = ("from mfrn.core import Activation\n"
                "from mfrn.scenarios import activation_preimage\n"
                "try:\n"
                f"    activation_preimage(Activation('gcu'), float('{rate!r}'))\n"
                "except ValueError as e:\n"
                "    print(e)\n")
        proc = subprocess.run([sys.executable, "-W", "error", "-c", code], capture_output=True,
                              text=True, env=src_env(), timeout=60)
        assert proc.returncode == 0 and proc.stderr == "", proc.stderr
        assert proc.stdout == says + "\n"


class TestSampling:
    def test_reproducible_and_inside_the_domain(self):
        grid = Grid1D(-2.0, 3.0, 200)
        from mfrn.fvm import project_initial

        f = project_initial(gaussian_density(0.5, 0.3), grid)
        a = sample_from_density(f, 1000, np.random.default_rng(7))
        b = sample_from_density(f, 1000, np.random.default_rng(7))
        assert np.array_equal(a, b)
        assert np.all((a >= grid.a) & (a <= grid.b))
        big = sample_from_density(f, 200_000, np.random.default_rng(1))
        assert abs(np.mean(big) - 0.5) <= 0.01

    def test_empty_density_rejected(self):
        grid = Grid1D(0.0, 1.0, 10)
        f = DensityField(grid, np.zeros(10))
        with pytest.raises(ValueError, match="no positive mass"):
            sample_from_density(f, 10, np.random.default_rng(0))


def test_boundary_outflow_is_not_reported_as_mass_drift(caplog):
    # the convergence study's Gaussian tail leaves through the zero-inflow
    # boundary: more than the 1e-10 drift threshold, and all of it accounted
    sc = shipped("convergence")
    f0 = sc.initial_density()
    with caplog.at_level(logging.WARNING, logger="mfrn.fvm"):
        traj = solve_transport(f0, DriftSpec(sc.exact_controls(), sc.act), sc.time_grid,
                               cfl=sc.config.cfl)
    assert abs(traj[-1].mass - f0.mass) > 1e-10
    assert not any("mass drift" in r.getMessage() for r in caplog.records)
