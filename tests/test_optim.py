"""Loss, adjoint gradient, line search, training loop, closed-form controls."""

import inspect

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import optimize

from mfrn import optim
from mfrn.core import Activation, ControlPath, RunConfig, TimeGrid
from mfrn.fvm import (
    CFLViolationError, DensityField, DriftSpec, Grid1D, project_initial, solve_transport,
)
from mfrn.optim import (
    ARMIJO_HALVING,
    ARMIJO_RHO0,
    SolverDivergenceError,
    TargetMeasure,
    W_EQUATION_BOUND,
    adjoint_initial,
    armijo_search,
    control_gradient,
    gauss_seidel_train,
    identity_closed_form,
    identity_w_root,
    reduced_cost,
    tilde_loss,
)
from mfrn.scenarios import gaussian_density


def make_cfg(**kw):
    base = dict(gamma_w=1e-3, gamma_b=1e-3, tol=1e-4, max_armijo=10,
                cfl=0.45, domain=(-2.0, 3.0), n_cells=200, dimension=1)
    base.update(kw)
    return RunConfig(**base)


class TestTargetMeasure:
    def test_inconsistent_moments_rejected(self):
        with pytest.raises(ValueError, match="below mean"):
            TargetMeasure(mean=2.0, second_moment=1.0)

    def test_variance_clamps_roundoff(self):
        assert TargetMeasure(mean=1.0, second_moment=1.0).variance == 0.0
        assert_allclose(TargetMeasure(1.0, 1.25).variance, 0.25, rtol=1e-15)

    def test_from_density_requires_unit_mass(self):
        grid = Grid1D(0.0, 1.0, 10)
        with pytest.raises(ValueError, match="not 1"):
            TargetMeasure.from_density(DensityField(grid, np.full(10, 2.0)))

    def test_from_density_moments(self):
        grid = Grid1D(-2.0, 3.0, 400)
        f = project_initial(gaussian_density(1.0, 0.1), grid)
        g = TargetMeasure.from_density(f)
        assert abs(g.mean - 1.0) <= 1e-9
        # the piecewise-constant representation owns an extra dx^2/12 of
        # within-cell variance on top of the Gaussian's
        assert abs(g.variance - (0.01 + grid.dx**2 / 12.0)) <= 1e-10


class TestLoss:
    def test_pointwise_values(self):
        assert tilde_loss(3.0, TargetMeasure(0.0, 0.0)) == 9.0
        assert tilde_loss(1.0, TargetMeasure(1.0, 1.0)) == 0.0
        assert tilde_loss(0.0, TargetMeasure(0.5, 1.0 / 3.0)) == 1.0 / 3.0

    def test_adjoint_start_is_loss_slope(self):
        grid = Grid1D(-2.0, 3.0, 100)
        lam0 = adjoint_initial(TargetMeasure(1.0, 1.01), grid)
        assert_allclose(lam0.averages, 2.0 * grid.centers - 2.0, rtol=1e-13)

    def test_adjoint_start_depends_only_on_the_mean(self):
        grid = Grid1D(-2.0, 3.0, 100)
        a = adjoint_initial(TargetMeasure(0.7, 0.5), grid)
        b = adjoint_initial(TargetMeasure(0.7, 5.0), grid)
        assert np.array_equal(a.averages, b.averages)


class TestReducedCost:
    def test_matches_direct_expectation_at_zero_controls(self):
        grid = Grid1D(-2.0, 3.0, 200)
        f0 = project_initial(gaussian_density(0.5, 0.1), grid)
        g = TargetMeasure.from_density(f0)
        tg = TimeGrid.from_step(1.0, 1e-2)
        cfg = make_cfg(gamma_w=0.0, gamma_b=0.0)
        cost = reduced_cost(ControlPath.zero(tg), f0, g, Activation("identity"), cfg)
        direct = grid.dx * np.sum(tilde_loss(grid.centers, g) * f0.averages)
        assert_allclose(cost, direct, rtol=1e-12)
        # starting on the target still pays twice its variance
        assert_allclose(cost, 2.0 * g.variance, rtol=1e-12)

    def test_bias_penalty_contributes_half_gamma_t(self):
        grid = Grid1D(-2.0, 3.0, 200)
        f0 = project_initial(gaussian_density(0.5, 0.1), grid)
        g = TargetMeasure.from_density(f0)
        tg = TimeGrid.from_step(1.0, 1e-2)
        c = ControlPath.constant(tg, w=0.0, b=1.0)
        act = Activation("identity")
        lo = reduced_cost(c, f0, g, act, make_cfg(gamma_b=0.0))
        hi = reduced_cost(c, f0, g, act, make_cfg(gamma_b=0.5))
        assert_allclose(hi - lo, 0.25 * tg.t_final, rtol=1e-12)


class TestControlGradient:
    def test_zero_fields_leave_only_regularization(self):
        grid = Grid1D(-2.0, 3.0, 16)
        tg = TimeGrid.from_step(1.0, 0.5)
        c = ControlPath(tg, w=np.array([0.0, 0.2, -0.1]), b=np.array([0.0, 1.0, 0.5]))
        zero = [DensityField(grid, np.zeros(16)) for _ in range(3)]
        g_w, g_b = control_gradient(c, zero, zero, Activation("tanh"), make_cfg())
        assert_allclose(g_w, 1e-3 * c.w, rtol=1e-15)
        assert_allclose(g_b, 1e-3 * c.b, rtol=1e-15)

    def test_matches_hand_summation(self):
        grid = Grid1D(0.0, 1.0, 8)
        tg = TimeGrid.from_step(1.0, 0.5)
        c = ControlPath(tg, w=np.array([0.0, 0.3, -0.2]), b=np.array([0.0, 0.1, 0.4]))
        rng = np.random.default_rng(8)
        f_traj = [DensityField(grid, rng.random(8)) for _ in range(3)]
        lam_traj = [DensityField(grid, rng.standard_normal(8)) for _ in range(3)]
        act = Activation("sigmoid")
        cfg = make_cfg(gamma_w=0.01, gamma_b=0.02)
        g_w, g_b = control_gradient(c, f_traj, lam_traj, act, cfg)
        n = tg.n_steps
        for k in range(n + 1):
            acc_w = acc_b = 0.0
            for j, x in enumerate(grid.centers):
                term = (lam_traj[n - k].averages[j]
                        * act.derivative(c.w[k] * x + c.b[k])
                        * f_traj[k].averages[j])
                acc_b += term
                acc_w += x * term
            assert_allclose(g_b[k], 0.02 * c.b[k] + grid.dx * acc_b, rtol=1e-12)
            assert_allclose(g_w[k], 0.01 * c.w[k] + grid.dx * acc_w, rtol=1e-12)

    def test_trajectory_length_checked(self):
        grid = Grid1D(0.0, 1.0, 8)
        tg = TimeGrid.from_step(1.0, 0.5)
        c = ControlPath.zero(tg)
        fields = [DensityField(grid, np.zeros(8)) for _ in range(2)]
        with pytest.raises(ValueError, match="do not match"):
            control_gradient(c, fields, fields, Activation("tanh"), make_cfg())

    def test_adjoint_gradient_agrees_with_finite_differences(self, gradient_probe):
        for kind in ("identity", "tanh", "sigmoid"):
            assert gradient_probe[kind] <= 1e-3
            assert gradient_probe["scaled"][kind] <= 1e-4

    @pytest.mark.parametrize("seed", [13, 15])
    def test_scaled_gap_is_small_for_every_direction_seed(self, gradient_probe_at, seed):
        # these seeds draw directions nearly orthogonal to the tanh gradient,
        # where the relative gap exceeds 1e-3; scaled by |g| |d| it stays small
        _, scaled = gradient_probe_at("tanh", seed)
        assert scaled <= 1e-4


def assert_same_trajectory(traj, c, f0, act, cfg):
    """traj is bitwise the forward solve of the controls c."""
    fresh = solve_transport(f0, DriftSpec(c, act), c.grid, cfl=cfg.cfl)
    assert len(traj) == len(fresh)
    for got, want in zip(traj, fresh):
        assert got.time == want.time
        assert np.array_equal(got.averages, want.averages)


def assert_same_adjoint(lam_traj, c, f0, g, act, cfg):
    """lam_traj is bitwise the adjoint solve of the controls c on its own."""
    fresh = solve_transport(adjoint_initial(g, f0.grid), DriftSpec(c, act, time_reversed=True),
                            c.grid, cfl=cfg.cfl)
    assert len(lam_traj) == len(fresh)
    for got, want in zip(lam_traj, fresh):
        assert got.time == want.time
        assert got.averages.tobytes() == want.averages.tobytes()


def projected_gradient_residual(c, f_traj, f0, g, act, cfg):
    """Largest |r| of the w and b parts of r = c - pin(P(c - grad)), where
    f_traj is the forward solve of c and P is the line search's projection
    at its own speed cap.  r vanishes exactly at a stationary point of the
    constrained problem (Calamai & More 1987)."""
    lam_traj = solve_transport(adjoint_initial(g, f0.grid),
                               DriftSpec(c, act, time_reversed=True), c.grid, cfg.cfl)
    g_w, g_b = control_gradient(c, f_traj, lam_traj, act, cfg)
    cap = cfg.cfl * f0.grid.dx / c.grid.dt
    w, b = optim._project_to_speed(c.w - g_w, c.b - g_b, cap, f0.grid.a, f0.grid.b,
                                   linear_speed=not act.bounded)
    p = ControlPath(c.grid, w, b).pinned()
    return float(np.max(np.abs(c.w - p.w))), float(np.max(np.abs(c.b - p.b)))


def residual_at_start_and_end(report):
    """Largest |r| at the pinned initial controls, and the w and b parts of r
    at the trained controls of a training report."""
    sc = report.scenario
    g = TargetMeasure.from_density(report.target_field)
    c0 = sc.initial_controls().pinned()
    f_traj0 = solve_transport(report.f0, DriftSpec(c0, sc.act), c0.grid, cfl=sc.config.cfl)
    start = max(projected_gradient_residual(c0, f_traj0, report.f0, g, sc.act, sc.config))
    end_w, end_b = projected_gradient_residual(
        report.state.controls, report.state.trajectory, report.f0, g, sc.act, sc.config
    )
    return start, end_w, end_b


class TestArmijo:
    def test_zero_gradient_returns_unchanged(self):
        grid = Grid1D(-2.0, 3.0, 16)
        f0 = project_initial(gaussian_density(0.3, 0.25), grid)
        g = TargetMeasure(1.0, 1.01)
        tg = TimeGrid.from_step(0.1, 1e-2)
        c = ControlPath.zero(tg)
        zeros = np.zeros(tg.n_steps + 1)
        cfg = make_cfg(n_cells=16)
        act = Activation("tanh")
        traj0 = []
        cost0 = reduced_cost(c, f0, g, act, cfg, trajectory=traj0)
        new_c, rho, cost, traj, lam_traj = armijo_search(
            c, (zeros, zeros), f0, g, act, cfg, cost0, traj0
        )
        assert lam_traj is None
        assert rho == ARMIJO_RHO0
        assert cost == cost0
        assert np.array_equal(new_c.w, c.w) and np.array_equal(new_c.b, c.b)
        assert_same_trajectory(traj, new_c, f0, act, cfg)

    def test_descent_step_lowers_the_cost(self):
        grid = Grid1D(-2.0, 3.0, 8)
        f0 = project_initial(lambda x: ((x >= -0.5) & (x <= 0.5)).astype(float), grid)
        g = TargetMeasure(1.0, 1.01)
        tg = TimeGrid.from_step(0.1, 1e-2)
        c = ControlPath.zero(tg)
        act = Activation("identity")
        cfg = make_cfg(n_cells=8)
        f_traj = solve_transport(f0, DriftSpec(c, act), tg, cfg.cfl)
        lam_traj = solve_transport(
            adjoint_initial(g, grid), DriftSpec(c, act, time_reversed=True), tg, cfg.cfl
        )
        grad = control_gradient(c, f_traj, lam_traj, act, cfg)
        cost0 = reduced_cost(c, f0, g, act, cfg)
        new_c, rho, cost, traj, lam_traj = armijo_search(c, grad, f0, g, act, cfg, cost0,
                                                         f_traj)
        assert rho > 0.0
        assert cost == reduced_cost(new_c, f0, g, act, cfg)
        assert cost < cost0
        assert new_c.w[0] == 0.0 and new_c.b[0] == 0.0
        assert_same_trajectory(traj, new_c, f0, act, cfg)
        assert_same_adjoint(lam_traj, new_c, f0, g, act, cfg)

    @pytest.mark.parametrize("rho0", [ARMIJO_RHO0, 0.3])
    def test_a_trial_past_the_hard_bound_is_rejected(self, monkeypatch, rho0):
        # the first trial's sweep, at rho0, raises; the search goes on to
        # rho0 / 2 and returns that candidate with its adjoint
        grid = Grid1D(-2.0, 3.0, 8)
        f0 = project_initial(lambda x: ((x >= -0.5) & (x <= 0.5)).astype(float), grid)
        g = TargetMeasure(1.0, 1.01)
        tg = TimeGrid.from_step(0.1, 1e-2)
        c = ControlPath.zero(tg)
        act = Activation("identity")
        cfg = make_cfg(n_cells=8)
        f_traj = solve_transport(f0, DriftSpec(c, act), tg, cfg.cfl)
        lam_traj = solve_transport(
            adjoint_initial(g, grid), DriftSpec(c, act, time_reversed=True), tg, cfg.cfl
        )
        grad = control_gradient(c, f_traj, lam_traj, act, cfg)
        cost0 = reduced_cost(c, f0, g, act, cfg)
        trials = []

        def first_trial_fails(f0, drift, *args, **kwargs):
            trials.append(drift.control)
            if len(trials) == 1:
                raise CFLViolationError("interface speed past the hard bound")
            return solve_transport(f0, drift, *args, **kwargs)

        monkeypatch.setattr(optim, "solve_transport", first_trial_fails)
        new_c, rho, cost, traj, lam_traj = armijo_search(c, grad, f0, g, act, cfg, cost0,
                                                         f_traj, rho0=rho0)
        monkeypatch.undo()
        assert rho == rho0 * ARMIJO_HALVING
        assert len(trials) == 2 and trials[1] is new_c
        assert cost == reduced_cost(new_c, f0, g, act, cfg)
        assert cost < cost0
        assert_same_trajectory(traj, new_c, f0, act, cfg)
        assert_same_adjoint(lam_traj, new_c, f0, g, act, cfg)


class TestTraining:
    def test_stationary_when_started_on_the_target(self):
        # heavy penalties plus a zero start on the target leave nothing to gain
        grid = Grid1D(-2.0, 3.0, 200)
        f0 = project_initial(gaussian_density(0.8, 0.05), grid)
        g = TargetMeasure.from_density(f0)
        tg = TimeGrid.from_step(1.0, 1e-2)
        cfg = make_cfg(gamma_w=1.0, gamma_b=1.0)
        state = gauss_seidel_train(f0, g, ControlPath.zero(tg), Activation("identity"), cfg)
        assert state.converged
        assert state.iteration <= 20
        assert np.max(np.abs(state.controls.w)) <= 0.01
        assert np.max(np.abs(state.controls.b)) <= 0.01

    @pytest.mark.parametrize("fixture", [
        "test1_identity_report", "test1_tanh_report", "test1_sigmoid_report",
        "test2_report", "test3_zero_report", "test3_linear_report",
    ])
    def test_history_bookkeeping_and_monotone_cost(self, request, fixture):
        state = request.getfixturevalue(fixture).state
        n = state.iteration
        assert state.cost_history.shape == (n + 1,)
        assert state.rel_error_history.shape == (n,)
        assert state.rho_history.shape == (n,)
        assert state.grad_w_max_history.shape == (n,)
        assert state.grad_b_max_history.shape == (n,)
        assert np.all(state.rel_error_history >= 0.0)
        assert np.all(np.isfinite(state.cost_history))
        drops = np.diff(state.cost_history)
        assert np.all(drops <= 1e-12 * np.abs(state.cost_history[:-1]))
        assert state.controls.w[0] == 0.0 and state.controls.b[0] == 0.0

    def test_first_sweep_already_descends(self, test1_identity_report):
        hist = test1_identity_report.state.cost_history
        assert hist[1] < hist[0]

    def test_gradient_shrinks_substantially(self, test1_identity_report):
        state = test1_identity_report.state
        start = max(state.grad_w_max_history[0], state.grad_b_max_history[0])
        end = max(state.grad_w_max_history[-1], state.grad_b_max_history[-1])
        assert start / end >= 10.0

    @pytest.mark.parametrize("fixture, w_on_cap", [
        ("test1_identity_report", True), ("test1_tanh_report", True),
        ("test1_sigmoid_report", True), ("test2_report", True),
        ("test3_zero_report", False), ("test3_linear_report", False),
    ])
    def test_training_ends_at_a_constrained_stationary_point(self, request, fixture, w_on_cap):
        # where the trained w sits on the line search's shear cap, g_w is the
        # cap's multiplier and stays near its start; the projected-gradient
        # residual is what vanishes there, in w exactly
        start, end_w, end_b = residual_at_start_and_end(request.getfixturevalue(fixture))
        assert max(end_w, end_b) <= start / 100.0
        if w_on_cap:
            assert end_w <= 1e-12

    @staticmethod
    def _counted_training(monkeypatch):
        """A short identity training run, with its solves counted by kind
        (paired sweeps, lone forward and lone adjoint solves), its line-search
        trials, and whether each line search handed over an adjoint."""
        counts = {"sweeps": 0, "forward": 0, "adjoint": 0, "trials": 0}
        handed_over = []
        solve, cost, search = optim.solve_transport, optim.reduced_cost, optim.armijo_search

        def counted_solve(f0, drift, *args, **kwargs):
            if kwargs.get("adjoint") is not None:
                counts["sweeps"] += 1
            else:
                counts["adjoint" if drift.time_reversed else "forward"] += 1
            return solve(f0, drift, *args, **kwargs)

        def counted_cost(*args, **kwargs):
            counts["trials"] += 1
            return cost(*args, **kwargs)

        def counted_search(*args, **kwargs):
            out = search(*args, **kwargs)
            handed_over.append(out[4] is not None)
            return out

        monkeypatch.setattr(optim, "solve_transport", counted_solve)
        monkeypatch.setattr(optim, "reduced_cost", counted_cost)
        monkeypatch.setattr(optim, "armijo_search", counted_search)
        grid = Grid1D(-2.0, 3.0, 40)
        f0 = project_initial(gaussian_density(0.3, 0.25), grid)
        g = TargetMeasure(1.0, 1.01)
        cfg = make_cfg(n_cells=40)
        act = Activation("identity")
        state = gauss_seidel_train(
            f0, g, ControlPath.zero(TimeGrid.from_step(1.0, 5e-2)), act, cfg, max_outer=8
        )
        monkeypatch.undo()
        return state, counts, handed_over, (f0, g, act, cfg)

    @staticmethod
    def _recorded_searches(monkeypatch, max_outer=8, gradient=None):
        """(controls, projected gradient, starting step) of every line search
        in the short identity run of _counted_training; gradient, when given,
        takes the place of control_gradient."""
        searches = []
        search = optim.armijo_search
        signature = inspect.signature(search)

        def recorded_search(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            c, grad = bound.arguments["c"], bound.arguments["grad"]
            pinned = tuple(np.concatenate(([0.0], part[1:])) for part in grad)
            searches.append((c, pinned, bound.arguments["rho0"]))
            return search(*args, **kwargs)

        monkeypatch.setattr(optim, "armijo_search", recorded_search)
        if gradient is not None:
            monkeypatch.setattr(optim, "control_gradient", gradient)
        grid = Grid1D(-2.0, 3.0, 40)
        f0 = project_initial(gaussian_density(0.3, 0.25), grid)
        gauss_seidel_train(f0, TargetMeasure(1.0, 1.01),
                           ControlPath.zero(TimeGrid.from_step(1.0, 5e-2)),
                           Activation("identity"), make_cfg(n_cells=40), max_outer=max_outer)
        monkeypatch.undo()
        return searches

    @staticmethod
    def _step_products(prev, cur):
        """<s,s> and <s,y> between two recorded searches: s the change of the
        controls, y that of the projected gradient, trapezoidal in time."""
        (c0, g0, _), (c1, g1, _) = prev, cur
        dt = c1.grid.dt

        def trapezoid(v):
            return float(dt * (v.sum() - 0.5 * (v[0] + v[-1])))

        s = (c1.w - c0.w, c1.b - c0.b)
        y = (g1[0] - g0[0], g1[1] - g0[1])
        return (trapezoid(s[0] ** 2) + trapezoid(s[1] ** 2),
                trapezoid(s[0] * y[0]) + trapezoid(s[1] * y[1]))

    def test_each_line_search_starts_at_the_spectral_step(self, monkeypatch):
        searches = self._recorded_searches(monkeypatch)
        assert len(searches) >= 3
        assert searches[0][2] == ARMIJO_RHO0
        spectral = 0
        for prev, cur in zip(searches, searches[1:]):
            ss, sy = self._step_products(prev, cur)
            if sy > 0.0:
                assert_allclose(cur[2], ss / sy, rtol=1e-9)
                spectral += 1
            else:
                assert cur[2] == ARMIJO_RHO0
        # the spectral start differs from the fixed one in this run
        assert spectral >= 2
        assert all(rho0 != ARMIJO_RHO0 for _, _, rho0 in searches[1:])

    @pytest.mark.parametrize("change", ["none", "against_the_step"])
    def test_search_starts_at_rho0_where_s_y_is_not_positive(self, monkeypatch, change):
        # every gradient after the first is bent so that y = 0 or y = -s
        gradient = optim.control_gradient
        first = []

        def bent_gradient(c, *args):
            if not first:
                first.append((c, gradient(c, *args)))
            c0, (g_w, g_b) = first[0]
            if change == "none":
                return g_w, g_b
            return g_w - (c.w - c0.w), g_b - (c.b - c0.b)

        searches = self._recorded_searches(monkeypatch, max_outer=3, gradient=bent_gradient)
        assert len(searches) >= 2
        assert not np.array_equal(searches[1][0].b, searches[0][0].b)
        for prev, cur in zip(searches, searches[1:]):
            ss, sy = self._step_products(prev, cur)
            assert sy == 0.0 if change == "none" else sy < 0.0 < ss
        assert [rho0 for _, _, rho0 in searches] == [ARMIJO_RHO0] * len(searches)

    def test_accepted_line_search_solve_is_reused(self, monkeypatch):
        # sweeps: the first iterate's plus one per line-search trial, each
        # solving the adjoint of its controls beside their forward transport;
        # no lone solves
        state, counts, handed_over, (f0, g, act, cfg) = self._counted_training(monkeypatch)
        # backtracking and a final rejected search both occur in this run
        assert counts["trials"] > state.iteration >= 3
        assert 0.0 < np.min(state.rho_history[:-1]) < ARMIJO_RHO0
        assert state.rho_history[-1] == 0.0
        assert len(handed_over) == state.iteration
        # iteration k > 0 enters with what line search k - 1 handed over; the
        # final, rejected search hands over nothing and ends the run
        assert handed_over == [True] * (state.iteration - 1) + [False]
        assert counts["sweeps"] == 1 + counts["trials"]
        assert counts["forward"] == counts["adjoint"] == 0
        assert state.cost_history[-1] == reduced_cost(state.controls, f0, g, act, cfg)

    def test_nonfinite_cost_aborts(self):
        grid = Grid1D(-2.0, 3.0, 200)
        # 1e307 averages overflow inside the reconstruction on purpose
        f0 = DensityField(grid, np.full(200, 1e307))
        g = TargetMeasure(1.0, 1.01)
        tg = TimeGrid.from_step(0.1, 1e-2)
        with np.errstate(over="ignore"), pytest.raises(
            SolverDivergenceError, match="non-finite"
        ):
            gauss_seidel_train(f0, g, ControlPath.zero(tg), Activation("tanh"), make_cfg())


class TestPairingMoments:
    """Time invariants of the coupled forward/adjoint moments I_k(t)."""

    @staticmethod
    def _pairings(dt, n_cells=200):
        """Controls and the pairings I_k(t) = int x^k lam f for k = 0, 1."""
        grid = Grid1D(-2.0, 3.0, n_cells)
        tg = TimeGrid.from_step(0.5, dt)
        c = ControlPath.from_functions(
            tg, lambda t: 0.05 * np.sin(2.0 * t), lambda t: 0.2 * t
        )
        act = Activation("identity")
        f0 = project_initial(gaussian_density(0.3, 0.25), grid)
        f_traj = solve_transport(f0, DriftSpec(c, act), tg)
        lam0 = adjoint_initial(TargetMeasure(1.0, 1.01), grid)
        lam_traj = solve_transport(lam0, DriftSpec(c, act, time_reversed=True), tg)
        n = tg.n_steps
        x = grid.centers
        pairs = [
            np.array([
                grid.dx * np.sum(x**k * lam_traj[n - j].averages * f_traj[j].averages)
                for j in range(n + 1)
            ])
            for k in (0, 1)
        ]
        return c, pairs

    @staticmethod
    def _rate(pair, dt):
        """Central-difference time derivative at the interior nodes."""
        return (pair[2:] - pair[:-2]) / (2.0 * dt)

    def _mass_mismatch(self, dt):
        c, (i0, _) = self._pairings(dt)
        return float(np.max(np.abs(self._rate(i0, dt) + c.w[1:-1] * i0[1:-1])))

    def _first_moment_mismatch(self, n_cells):
        # with the identity activation the w-terms cancel:
        # d/dt int x lam f = int sigma lam f - w int x sigma' lam f = b(t) I_0
        c, (i0, i1) = self._pairings(1e-2, n_cells)
        return float(np.max(np.abs(self._rate(i1, 1e-2) - c.b[1:-1] * i0[1:-1])))

    def test_mass_pairing_decays_at_rate_w(self):
        coarse = self._mass_mismatch(1e-2)
        fine = self._mass_mismatch(5e-3)
        assert coarse <= 1e-4
        assert fine <= coarse / 3.0

    def test_first_moment_pairing_grows_at_rate_b_times_mass_pairing(self):
        # the residual is spatial error, so it falls under mesh refinement
        coarse = self._first_moment_mismatch(200)
        fine = self._first_moment_mismatch(400)
        assert coarse <= 1e-5
        assert fine <= coarse / 3.0


class TestIdentityClosedForm:
    def test_root_at_zero(self):
        assert abs(identity_w_root(0.0)) <= 1e-12

    def test_root_at_branch_maximum(self):
        assert identity_w_root(W_EQUATION_BOUND) == 0.5

    def test_root_matches_reference_solver(self):
        for c in (0.1, 0.05, -0.4, -2.0):
            want = optimize.bisect(
                lambda w: w * np.exp(-2.0 * w) - c, -5.0, 0.5, xtol=1e-12
            )
            assert abs(identity_w_root(c) - want) <= 1e-8

    def test_above_branch_maximum_rejected(self):
        with pytest.raises(ValueError, match="branch maximum"):
            identity_w_root(0.2)

    def test_negative_rate_gives_negative_root(self):
        w = identity_w_root(-1.5)
        assert w < 0.0
        assert abs(w * np.exp(-2.0 * w) + 1.5) <= 1e-12

    def test_closed_form_satisfies_its_equations(self):
        grid = Grid1D(-2.0, 3.0, 200)
        f0 = project_initial(lambda x: ((x >= -0.5) & (x <= 0.5)).astype(float), grid)
        lam_T = DensityField(grid, 0.001 * (2.0 * grid.centers - 1.0))
        cfg = make_cfg(gamma_w=1.0, gamma_b=2.0)
        w, b = identity_closed_form(f0, lam_T, cfg)
        x = grid.centers
        m0 = grid.dx * np.sum(lam_T.averages * f0.averages)
        m1 = grid.dx * np.sum(x * lam_T.averages * f0.averages)
        assert abs(w * np.exp(-2.0 * w) - m1 / cfg.gamma_w) <= 1e-12
        assert_allclose(b, np.exp(w) * m0 / cfg.gamma_b, rtol=1e-12)

    def test_requires_positive_regularization(self):
        grid = Grid1D(-2.0, 3.0, 16)
        f = DensityField(grid, np.full(16, 0.2))
        with pytest.raises(ValueError, match="positive regularization"):
            identity_closed_form(f, f, make_cfg(gamma_w=0.0, n_cells=16))
