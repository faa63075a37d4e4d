"""End-to-end acceptance checks, one test per criterion of the suite.

Each test consumes the session-scoped training fixtures from conftest so the
expensive solves run once and every check below reads the same artifacts.
"""

import math
import time

import numpy as np
import pytest
from scipy.optimize import bisect

from mfrn.core import Activation, ControlPath, TimeGrid
from mfrn.fvm import DriftSpec, Grid1D, project_initial, solve_transport
from mfrn.optim import W_EQUATION_BOUND, identity_w_root
from mfrn.scenarios import gaussian_density
from test_fvm import density_diagnostics

DOMAIN = (-2.0, 3.0)


def assert_monotone(costs):
    costs = np.asarray(costs)
    assert np.all(np.diff(costs) <= 1e-12 * np.abs(costs[:-1]))


def test_criterion_1_identity_bias_drives_the_shift(test1_identity_report):
    report = test1_identity_report
    state = report.state
    assert state.converged
    nodes = state.controls.grid.nodes
    late = nodes >= 0.1 - 1e-12
    assert abs(np.mean(state.controls.b[late]) - 1.0) <= 0.1
    assert np.max(np.abs(state.controls.w)) <= 0.05
    dx = (DOMAIN[1] - DOMAIN[0]) / 200
    assert report.w1_final <= 3.0 * dx
    assert_monotone(state.cost_history)
    assert report.timings["train"] <= 300.0


def test_criterion_2_saturating_activations_pay_more(
    test1_identity_report, test1_tanh_report, test1_sigmoid_report
):
    base = test1_identity_report.state.cost_history[-1]
    for report in (test1_tanh_report, test1_sigmoid_report):
        assert report.state.converged
        assert report.state.cost_history[-1] > base


def test_criterion_3_weight_bias_cancellation(test2_report):
    report = test2_report
    state = report.state
    assert state.converged
    assert np.max(np.abs(state.controls.w + state.controls.b)) <= 0.05
    assert abs(report.mean_f_T - 1.0) <= 1e-2
    dx = (DOMAIN[1] - DOMAIN[0]) / 400
    assert report.w1_final <= 3.0 * dx
    assert_monotone(state.cost_history)
    assert report.timings["train"] <= 600.0


def test_criterion_4_two_minimizers_same_cost(test3_zero_report, test3_linear_report):
    a, b = test3_zero_report, test3_linear_report
    for report in (a, b):
        assert report.state.converged
        assert abs(report.mean_f_T - report.mean_target) <= 1e-2
        assert np.max(np.abs(report.state.controls.w)) <= 0.05
        # the mean-only objective leaves the spread visibly off target
        assert abs(report.var_f_T - report.var_target) > 0.005
    cost_a = a.state.cost_history[-1]
    cost_b = b.state.cost_history[-1]
    assert abs(cost_a - cost_b) <= 0.05 * max(abs(cost_a), abs(cost_b))
    assert np.max(np.abs(a.state.controls.b - b.state.controls.b)) > 1e-3


def test_criterion_5_transport_convergence_order():
    t0 = time.perf_counter()
    tg = TimeGrid.from_step(1.0, 2e-3)
    ones = np.ones(tg.n_steps + 1)
    controls = ControlPath(tg, 0.0 * ones, ones)
    drift = DriftSpec(controls, Activation("identity"))
    errors = []
    for n_cells in (100, 200, 400, 800):
        grid = Grid1D(DOMAIN[0], DOMAIN[1], n_cells)
        f0 = project_initial(gaussian_density(0.0, 0.3), grid)
        end = solve_transport(f0, drift, tg)[-1]
        ref = project_initial(gaussian_density(1.0, 0.3), grid)
        errors.append(grid.dx * np.sum(np.abs(end.averages - ref.averages)))
    orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
    assert np.all(orders >= 2.5), orders
    assert time.perf_counter() - t0 <= 60.0


def test_criterion_6_adjoint_gradient_matches_differences(gradient_probe):
    for kind in ("identity", "tanh", "sigmoid"):
        assert gradient_probe[kind] <= 1e-3, kind
    assert gradient_probe["elapsed"] <= 120.0


def test_criterion_7_particle_rate(convergence_report):
    w1 = np.asarray(convergence_report.w1_mean)
    assert np.all(np.diff(w1) < 0.0)
    assert -0.65 <= convergence_report.slope <= -0.35
    assert convergence_report.timings["total"] <= 120.0


def test_criterion_8_stationary_weight_equation():
    rng = np.random.default_rng(2026)
    rates = rng.uniform(-3.0, W_EQUATION_BOUND, size=100)
    worst = 0.0
    for c in rates:
        w = identity_w_root(float(c))
        assert abs(w * math.exp(-2.0 * w) - c) <= 1e-12
        ref = bisect(lambda x: x * math.exp(-2.0 * x) - c, -5.0, 0.5, xtol=1e-12)
        worst = max(worst, abs(w - ref))
    assert worst <= 1e-8
    with pytest.raises(ValueError, match="branch maximum"):
        identity_w_root(W_EQUATION_BOUND + 1e-6)


def test_criterion_9_mass_and_positivity(
    test1_identity_report, test1_tanh_report, test1_sigmoid_report,
    test2_report, test3_zero_report, test3_linear_report
):
    reports = (test1_identity_report, test1_tanh_report, test1_sigmoid_report,
               test2_report, test3_zero_report, test3_linear_report)
    for report in reports:
        diag = density_diagnostics(report.state.trajectory)
        assert diag["mass_drift"] <= 1e-10, report.scenario.name
        assert diag["min_average"] >= -1e-8, report.scenario.name
        assert report.f0.mass == pytest.approx(1.0, abs=1e-8)
        assert report.target_field.mass == pytest.approx(1.0, abs=1e-8)
