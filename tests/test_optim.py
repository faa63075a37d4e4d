"""Loss, adjoint gradient, line search, training loop, closed-form controls."""

import inspect
import itertools
import logging
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st
from numpy.testing import assert_allclose
from scipy import optimize

from mfrn import optim
from mfrn.core import Activation, ControlPath, RunConfig, TimeGrid
from mfrn.fvm import (
    DensityField, DriftSpec, Grid1D, project_initial, solve_transport, _CFL_HARD,
    _stage_schedule,
)
from mfrn.measures import moments, variance
from mfrn.optim import (
    ARMIJO_DECREASE,
    ARMIJO_HALVING,
    ARMIJO_RHO0,
    SolverDivergenceError,
    TargetMeasure,
    W_EQUATION_BOUND,
    adjoint_initial,
    armijo_search,
    control_gradient,
    gauss_seidel_train,
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
        # mean^2 overflows to inf, which the check names rather than raising
        # OverflowError
        with pytest.raises(ValueError, match=r"below mean\^2 inf"):
            TargetMeasure(mean=1e200, second_moment=1e300)

    @pytest.mark.parametrize("mean, second_moment", [(math.nan, 1.0), (0.0, math.nan),
                                                       (0.0, math.inf), (math.inf, math.inf)])
    def test_non_finite_moments_rejected(self, mean, second_moment):
        # a NaN target would otherwise fail training late, as a divergence
        with pytest.raises(ValueError, match="non-finite target moments"):
            TargetMeasure(mean, second_moment)

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
        assert g.second_moment == moments(f, 2)
        assert abs(variance(f) - (0.01 + grid.dx**2 / 12.0)) <= 1e-10


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
        assert_allclose(cost, 2.0 * variance(f0), rtol=1e-12)

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

    @pytest.mark.parametrize("act", ["identity", "relu", "sigmoid", "tanh", "gcu"])
    def test_the_two_forms_agree(self, act):
        # the lone cost (one final-field row) is bitwise the paired cost, and
        # the paired trajectories are bitwise the paired solve's.  The box's
        # edges make the limiter act on the forward row
        grid = Grid1D(-2.0, 3.0, 40)
        f0 = project_initial(lambda x: ((x >= -0.75) & (x <= -0.25)).astype(float), grid)
        g = TargetMeasure(1.0, 1.01)
        tg = TimeGrid.from_step(0.5, 2.5e-2)
        c = ControlPath.from_functions(tg, lambda t: 0.3 * np.sin(np.pi * t),
                                       lambda t: 0.5 * t).pinned()
        act, cfg = Activation(act), make_cfg(n_cells=40)
        cost = reduced_cost(c, f0, g, act, cfg)
        paired_cost, f_traj, lam_traj = reduced_cost(c, f0, g, act, cfg, paired=True)
        assert np.float64(cost).tobytes() == np.float64(paired_cost).tobytes()
        want = solve_transport(f0, DriftSpec(c, act), tg, cfl=cfg.cfl,
                               adjoint=adjoint_initial(g, grid))
        for got, fresh in zip((f_traj, lam_traj), want):
            assert [(f.time, f.averages.tobytes()) for f in got] == \
                [(f.time, f.averages.tobytes()) for f in fresh]


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


def reference_armijo_search(c, grad, f0, g, act, cfg, current_cost, rho0=ARMIJO_RHO0):
    """The line search as it was written first: each trial in turn is one
    paired sweep, and the first with sufficient decrease is taken.  Returns
    what armijo_search returns, and how the search ended: the index of the
    accepted trial, or "rejected"."""
    g_w, g_b = grad
    assert g_w[0] == g_b[0] == 0.0  # the projected gradient of pinned controls
    assert optim._trapezoid(g_w**2 + g_b**2, c.grid.dt) > 0.0
    speed_cap = cfg.cfl * f0.grid.dx / c.grid.dt
    rho, tried = rho0, 0
    for _ in range(cfg.max_armijo):
        w_c, b_c = optim._project_to_speed(c.w - rho * g_w, c.b - rho * g_b, speed_cap,
                                           f0.grid.a, f0.grid.b, linear_speed=not act.bounded)
        cand = ControlPath(c.grid, w_c, b_c).pinned()
        inner = optim._trapezoid(g_w * (cand.w - c.w) + g_b * (cand.b - c.b), c.grid.dt)
        if inner < 0.0:
            cost, traj, lam_traj = reduced_cost(cand, f0, g, act, cfg, paired=True)
            if math.isfinite(cost) and cost <= current_cost + ARMIJO_DECREASE * inner:
                return (cand, rho, cost, traj, lam_traj), tried
            tried += 1
        rho *= ARMIJO_HALVING
    return None, "rejected"


def assert_same_step(got, want):
    """Two line-search results are bitwise the same: both None, or the same
    controls, rho, cost and both trajectories."""
    assert (got is None) == (want is None)
    if got is None:
        return
    (c1, rho1, cost1, traj1, lam1), (c2, rho2, cost2, traj2, lam2) = got, want
    assert c1.w.tobytes() == c2.w.tobytes() and c1.b.tobytes() == c2.b.tobytes()
    assert rho1 == rho2
    assert np.float64(cost1).tobytes() == np.float64(cost2).tobytes()
    for a, b in ((traj1, traj2), (lam1, lam2)):
        assert [(f.time, f.averages.tobytes()) for f in a] == \
            [(f.time, f.averages.tobytes()) for f in b]


def box_problem():
    """The 8-cell identity problem of the line-search tests at zero controls:
    (c, projected gradient, f0, g, act, cfg, cost)."""
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
    grad = tuple(map(optim._projected, control_gradient(c, f_traj, lam_traj, act, cfg)))
    return c, grad, f0, g, act, cfg, reduced_cost(c, f0, g, act, cfg)


def counted_batches(monkeypatch):
    """The number of rows of every solve_final_fields sweep that optim makes."""
    rows, sweep = [], optim.solve_final_fields

    def counted(f0, drifts, *args, **kwargs):
        rows.append(len(drifts))
        return sweep(f0, drifts, *args, **kwargs)

    monkeypatch.setattr(optim, "solve_final_fields", counted)
    return rows


class TestArmijo:
    def test_zero_gradient_takes_no_step(self):
        grid = Grid1D(-2.0, 3.0, 16)
        f0 = project_initial(gaussian_density(0.3, 0.25), grid)
        g = TargetMeasure(1.0, 1.01)
        tg = TimeGrid.from_step(0.1, 1e-2)
        c = ControlPath.zero(tg)
        zeros = np.zeros(tg.n_steps + 1)
        cfg = make_cfg(n_cells=16)
        act = Activation("tanh")
        cost0 = reduced_cost(c, f0, g, act, cfg)
        # no candidate step descends, so the search takes no step
        assert armijo_search(c, (zeros, zeros), f0, g, act, cfg, cost0) is None

    def test_descent_step_lowers_the_cost(self):
        c, grad, f0, g, act, cfg, cost0 = box_problem()
        new_c, rho, cost, traj, lam_traj = armijo_search(c, grad, f0, g, act, cfg, cost0)
        assert rho > 0.0
        assert cost == reduced_cost(new_c, f0, g, act, cfg)
        assert cost < cost0
        assert new_c.w[0] == 0.0 and new_c.b[0] == 0.0
        assert_same_trajectory(traj, new_c, f0, act, cfg)
        assert_same_adjoint(lam_traj, new_c, f0, g, act, cfg)

    @pytest.mark.parametrize("case, scale, rho0, end", [
        ("first-trial-accepted", 1.0, 1.0, 0),
        ("batch-trial-accepted", 1.0, 32.0, 2),
        ("second-batch-trial-accepted", 1.0, 256.0, 5),
        ("steep-every-trial-rejected", 2.0**15, 2.0**-10, "rejected"),
        ("every-trial-rejected", -1.0, 1.0, "rejected"),
    ])
    def test_the_search_is_the_sequential_search(self, monkeypatch, case, scale, rho0, end):
        # rho = 32 and 16 fail the decrease test on this problem and 8 passes
        # it, so from 256 the search takes the second batch's second trial.
        # A gradient scaled by 2^15 asks for a decrease 3.3 times the
        # first-order one, which no trial gives, though eight of the ten
        # lower the cost, so the search takes no step; a negated gradient
        # points uphill.  Every trial of this problem descends
        c, grad, f0, g, act, cfg, cost0 = box_problem()
        grad = (scale * grad[0], scale * grad[1])
        want, how = reference_armijo_search(c, grad, f0, g, act, cfg, cost0, rho0)
        assert how == end
        assert (want is None) == (end == "rejected")
        rows = counted_batches(monkeypatch)
        project, projected = optim._project_to_speed, []

        def counted_projection(*args, **kwargs):
            projected.append(None)
            return project(*args, **kwargs)

        monkeypatch.setattr(optim, "_project_to_speed", counted_projection)
        got = armijo_search(c, grad, f0, g, act, cfg, cost0, rho0=rho0)
        # a rejected first trial is followed by one sweep of the next three
        # trials, and by one of the other six only if none of those passes;
        # a batch's candidates are projected only when it is solved
        in_first = end != "rejected" and end <= 3
        assert rows == ([] if end == 0 else [3] if in_first else [3, 6])
        assert len(projected) == (1 if end == 0 else 1 + 3 if in_first else cfg.max_armijo)
        assert_same_step(got, want)

    @given(st.sampled_from([-1.0, 1.0]), st.floats(-4.0, 16.0), st.floats(-10.0, 10.0))
    @example(1.0, 15.0, -10.0)  # the steep case above, where no trial passes
    def test_a_step_taken_passes_the_armijo_test(self, sign, log2_scale, log2_rho0):
        c, grad, f0, g, act, cfg, cost0 = box_problem()
        scale = sign * 2.0**log2_scale
        g_w, g_b = scale * grad[0], scale * grad[1]
        step = armijo_search(c, (g_w, g_b), f0, g, act, cfg, cost0, rho0=2.0**log2_rho0)
        if step is not None:
            new_c, rho, cost, _, _ = step
            assert rho > 0.0
            inner = optim._trapezoid(g_w * (new_c.w - c.w) + g_b * (new_c.b - c.b),
                                     c.grid.dt)
            assert cost <= cost0 + ARMIJO_DECREASE * inner

    def test_every_search_of_a_training_run_is_the_sequential_search(self, monkeypatch):
        search, ends = optim.armijo_search, []

        def both(*args, **kwargs):
            got = search(*args, **kwargs)
            want, how = reference_armijo_search(*args, **kwargs)
            assert_same_step(got, want)
            ends.append(how)
            return got

        monkeypatch.setattr(optim, "armijo_search", both)
        grid = Grid1D(-2.0, 3.0, 40)
        f0 = project_initial(gaussian_density(0.3, 0.25), grid)
        gauss_seidel_train(f0, TargetMeasure(1.0, 1.01),
                           ControlPath.zero(TimeGrid.from_step(1.0, 5e-2)),
                           Activation("sigmoid"), make_cfg(n_cells=40), max_outer=8)
        # searches that take their first trial, one that takes its third,
        # and a last one that takes none
        assert ends == [0, 0, 0, 2, "rejected"]

ACTIVATIONS = ["identity", "relu", "gcu", "sigmoid", "tanh"]


def largest_cfl_number(drift, grid, tg):
    """The largest step CFL number of a solve of drift, over the stage
    schedule's speeds, as the solver reckons it."""
    return max(max(peaks) * tg.dt / grid.dx
               for _, peaks in _stage_schedule([drift], grid, 0.0, tg.dt, tg.n_steps))


class TestProjection:
    """_project_to_speed is the Euclidean projection of each node onto the
    line search's region: the strip |w| <= w_cap, and for an unbounded
    activation also |lo w + b| <= cap and |hi w + b| <= cap."""

    @staticmethod
    def _faces(cap, lo, hi, linear_speed):
        """The region's halfplanes a . (w, b) <= c, as (a, c, w_cap)."""
        w_cap = optim.SHEAR_FRACTION * cap / max(abs(lo), abs(hi))
        rows = [(1.0, 0.0, w_cap), (-1.0, 0.0, w_cap)]
        if linear_speed:
            rows += [(lo, 1.0, cap), (-lo, -1.0, cap), (hi, 1.0, cap), (-hi, -1.0, cap)]
        rows = np.array(rows)
        return rows[:, :2], rows[:, 2], w_cap

    @staticmethod
    def _corners(a, c, slack):
        """The pairwise intersections of the faces that lie in the region."""
        corners = []
        for i, j in itertools.combinations(range(len(c)), 2):
            det = a[i, 0] * a[j, 1] - a[i, 1] * a[j, 0]
            if det != 0.0:
                corners.append(((c[i] * a[j, 1] - c[j] * a[i, 1]) / det,
                                (a[i, 0] * c[j] - a[j, 0] * c[i]) / det))
        corners = np.array(corners)
        return corners[np.all(corners @ a.T <= c + slack, axis=-1)]

    @given(st.data(), st.booleans(),
           st.one_of(st.sampled_from([1.125, 0.5625]), st.floats(1e-3, 10.0)),
           st.sampled_from([(-2.0, 3.0), (-1.0, 4.0)]), st.integers(1, 12),
           st.integers(0, 2**32 - 1))
    def test_the_projection_is_the_nearest_admissible_point(self, data, linear_speed, cap,
                                                            domain, n, seed):
        lo, hi = domain
        nodes = st.lists(st.floats(-20.0, 20.0), min_size=n, max_size=n)
        p = np.stack([np.array(data.draw(nodes)), np.array(data.draw(nodes))], axis=-1)
        w, b = optim._project_to_speed(p[:, 0], p[:, 1], cap, lo, hi, linear_speed)
        z = np.stack([w, b], axis=-1)
        a, c, w_cap = self._faces(cap, lo, hi, linear_speed)
        assert np.all(z @ a.T <= c + 1e-10 * max(1.0, cap))
        inside = np.all(p @ a.T <= c, axis=-1)
        assert z[inside].tobytes() == p[inside].tobytes()
        # an independent sample of admissible points: the polygon's corners
        # and random convex combinations of them, or the strip's own
        # projection (clip w) and random points of the strip
        rng = np.random.default_rng(seed)
        if linear_speed:
            corners = self._corners(a, c, 1e-14 * max(1.0, cap))
            mixes = rng.dirichlet(np.ones(len(corners)), size=200) @ corners
            sample = np.broadcast_to(np.concatenate([corners, mixes]), (n, len(corners) + 200, 2))
        else:
            clipped = np.stack([np.clip(p[:, 0], -w_cap, w_cap), p[:, 1]], axis=-1)
            strip = np.stack([rng.uniform(-w_cap, w_cap, (n, 200)),
                              p[:, 1:] + rng.normal(0.0, 1.0, (n, 200))], axis=-1)
            sample = np.concatenate([clipped[:, None, :], strip], axis=1)
        nearest = np.min(np.linalg.norm(sample - p[:, None, :], axis=-1), axis=1)
        # none nearer than the result, to 1e-12 of the point's own scale
        got = np.linalg.norm(z - p, axis=-1)
        assert np.all(got <= nearest + 1e-12 * np.maximum(1.0, np.linalg.norm(p, axis=-1)))


class TestNoTrialBreaksTheHardBound:
    """The line search's projection keeps every trial inside the solver's
    hard CFL bound, so training refuses up front the one case it cannot:
    a bounded activation at dt > _CFL_HARD * dx."""

    @given(st.data(), st.sampled_from(ACTIVATIONS), st.integers(8, 400),
           st.floats(-5.0, 5.0), st.floats(0.5, 10.0), st.floats(1e-3, _CFL_HARD),
           st.floats(0.05, 1.0), st.integers(1, 12), st.floats(-10.0, 10.0))
    def test_every_projected_candidate_stays_inside(self, data, kind, n_cells, a, width,
                                                     ratio, cfl, n_steps, log2_rho):
        # the search's own projection of c - rho g, for pinned controls c, a
        # gradient g and rho from 2^-10 to 2^10, solved forward and reversed
        grid = Grid1D(a, a + width, n_cells)
        dt = ratio * grid.dx
        tg = TimeGrid.from_step(n_steps * dt, dt)
        nodes = st.lists(st.floats(-50.0, 50.0), min_size=n_steps + 1, max_size=n_steps + 1)
        c = ControlPath(tg, np.array(data.draw(nodes)), np.array(data.draw(nodes))).pinned()
        g_w, g_b = (optim._projected(np.array(data.draw(nodes))) for _ in range(2))
        act = Activation(kind)
        rho = 2.0**log2_rho
        cap = cfl * grid.dx / tg.dt
        w, b = optim._project_to_speed(c.w - rho * g_w, c.b - rho * g_b, cap, grid.a, grid.b,
                                       linear_speed=not act.bounded)
        cand = ControlPath(tg, w, b).pinned()
        # the steps training admits: 1.45 dx / dx may round past 1.45
        assume(not act.bounded or tg.dt / grid.dx <= _CFL_HARD)
        bound = tg.dt / grid.dx if act.bounded else cfl * (1.0 + 1e-9)
        for reversed_ in (False, True):
            drift = DriftSpec(cand, act, time_reversed=reversed_)
            assert largest_cfl_number(drift, grid, tg) <= bound

    @staticmethod
    def _train(kind):
        """Train on 40 cells over [-2, 3] at dt = 0.2, dt / dx = 1.6."""
        grid = Grid1D(-2.0, 3.0, 40)
        f0 = project_initial(gaussian_density(0.3, 0.25), grid)
        return gauss_seidel_train(f0, TargetMeasure(1.0, 1.01),
                                  ControlPath.zero(TimeGrid.from_step(1.0, 0.2)),
                                  Activation(kind), make_cfg(n_cells=40), max_outer=4)

    @pytest.mark.parametrize("kind", ["sigmoid", "tanh"])
    def test_a_bounded_activation_past_the_bound_is_refused(self, monkeypatch, kind):
        solves = []
        monkeypatch.setattr(optim, "solve_transport", lambda *args, **kw: solves.append(1))
        with pytest.raises(ValueError, match=rf"dt=0\.2 > 1\.45\*dx = 0\.18125: .* {kind} "):
            self._train(kind)
        assert solves == []

    @pytest.mark.parametrize("kind", ["identity", "relu", "gcu"])
    def test_an_unbounded_activation_trains_at_any_step(self, kind):
        state = self._train(kind)
        assert state.iteration >= 1
        assert np.all(np.isfinite(state.cost_history))
        assert state.cost_history[-1] <= state.cost_history[0]


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
        """A short sigmoid training run, with its solves in call order: a
        paired sweep ("sweep"), a lone forward or adjoint solve ("forward",
        "adjoint"), a final-field sweep (its number of rows), and "search"
        where a line search starts; and whether each line search handed
        over an adjoint."""
        solves, handed_over = [], []
        solve, batch, search = (optim.solve_transport, optim.solve_final_fields,
                                optim.armijo_search)

        def counted_solve(f0, drift, *args, **kwargs):
            if kwargs.get("adjoint") is not None:
                solves.append("sweep")
            else:
                solves.append("adjoint" if drift.time_reversed else "forward")
            return solve(f0, drift, *args, **kwargs)

        def counted_batch(f0, drifts, *args, **kwargs):
            solves.append(len(drifts))
            return batch(f0, drifts, *args, **kwargs)

        def counted_search(*args, **kwargs):
            solves.append("search")
            out = search(*args, **kwargs)
            handed_over.append(out is not None)
            return out

        monkeypatch.setattr(optim, "solve_transport", counted_solve)
        monkeypatch.setattr(optim, "solve_final_fields", counted_batch)
        monkeypatch.setattr(optim, "armijo_search", counted_search)
        grid = Grid1D(-2.0, 3.0, 40)
        f0 = project_initial(gaussian_density(0.3, 0.25), grid)
        g = TargetMeasure(1.0, 1.01)
        cfg = make_cfg(n_cells=40)
        act = Activation("sigmoid")
        state = gauss_seidel_train(
            f0, g, ControlPath.zero(TimeGrid.from_step(1.0, 5e-2)), act, cfg, max_outer=8
        )
        monkeypatch.undo()
        return state, solves, handed_over, (f0, g, act, cfg)

    @staticmethod
    def _recorded_searches(monkeypatch, max_outer=8, gradient=None):
        """(controls, projected gradient, starting step) of every line search
        in a short identity training run; gradient, when given, takes the
        place of control_gradient."""
        searches = []
        search = optim.armijo_search
        signature = inspect.signature(search)

        def recorded_search(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            searches.append((bound.arguments["c"], bound.arguments["grad"],
                             bound.arguments["rho0"]))
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
        # the first iterate is one paired sweep, and so is each line search's
        # first trial.  A search that rejects it solves the next three trials
        # as one final-field sweep and the other six as a second only if none
        # of those passes, then solves the step it takes, if any, as one more
        # paired sweep; no solve is a lone one
        state, solves, handed_over, (f0, g, act, cfg) = self._counted_training(monkeypatch)
        assert solves[0] == "sweep"
        per_search = []
        for solved in solves[1:]:
            if solved == "search":
                per_search.append([])
            else:
                per_search[-1].append(solved)
        assert len(per_search) == len(handed_over) == state.iteration
        kinds = []
        for part, handed in zip(per_search, handed_over):
            assert part[0] == "sweep"
            if len(part) == 1:
                kinds.append("first trial")
                assert handed
            else:
                batches = part[1:-1] if handed else part[1:]
                assert batches in ([3], [3, 6])
                if handed:
                    assert part[-1] == "sweep"
                    kinds.append(f"batch {len(batches)}")
                else:
                    assert batches == [3, 6]
                    kinds.append("none")
        # this run takes the first trial, a trial of the first batch, and in
        # its last search none, which hands over nothing and ends the run
        assert kinds == ["first trial"] * (state.iteration - 2) + ["batch 1", "none"]
        assert state.rho_history[-1] == 0.0
        assert state.cost_history[-1] == reduced_cost(state.controls, f0, g, act, cfg)

    @pytest.mark.parametrize("tol, max_outer, said", [
        (1e-4, 8, "training stopped on a line search that found no acceptable step "
                  "after 5 iteration(s)"),
        (0.1, 8, "training converged on the relative control change 0.0718 <= tol 0.1 "
                 "after 4 iteration(s)"),
        (1e-4, 2, "training stopped at the iteration cap after 2 iteration(s)"),
    ], ids=["no-acceptable-step", "relative-change", "iteration-cap"])
    def test_the_closing_line_names_the_stop_rule(self, caplog, tol, max_outer, said):
        # the short sigmoid run's relative changes are 1, 0.854, 0.152, 0.0718
        # and 0, the last from a search that takes no step
        grid = Grid1D(-2.0, 3.0, 40)
        f0 = project_initial(gaussian_density(0.3, 0.25), grid)
        with caplog.at_level(logging.INFO, logger="mfrn.optim"):
            state = gauss_seidel_train(f0, TargetMeasure(1.0, 1.01),
                                       ControlPath.zero(TimeGrid.from_step(1.0, 5e-2)),
                                       Activation("sigmoid"), make_cfg(n_cells=40, tol=tol),
                                       max_outer=max_outer)
        closing = caplog.records[-1].getMessage()
        assert closing.startswith(said + ": cost ")
        assert state.converged == (max_outer == 8)
        # the histories' last entries, as iteration_log.csv writes them
        if "no acceptable step" in said:
            assert state.rel_error_history[-1] == 0.0 and state.rho_history[-1] == 0.0
        elif "relative control change" in said:
            assert state.rho_history[-1] > 0.0
        else:
            assert len(state.rel_error_history) == len(state.rho_history) == max_outer

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


def identity_closed_form(
    f0: DensityField, lam_T: DensityField, cfg: RunConfig
) -> tuple[float, float]:
    """Stationary constant controls for the identity activation.

    Derived from the moment transport identity: with act = identity the
    coupled moments of the adjoint terminal snapshot against the initial
    density determine (w, b) in closed form, up to the scalar root solve of
    the w-equation.  Returned as time-constant values; the admissible set's
    pin at t = 0 is a boundary exception the caller may apply on top.
    """
    if cfg.gamma_w <= 0 or cfg.gamma_b <= 0:
        raise ValueError("closed form requires strictly positive regularization weights")
    x = f0.grid.centers
    dx = f0.grid.dx
    m0 = float(dx * np.sum(lam_T.averages * f0.averages))
    m1 = float(dx * np.sum(x * lam_T.averages * f0.averages))
    w = identity_w_root(m1 / cfg.gamma_w)
    b = math.exp(w) * m0 / cfg.gamma_b
    return w, b


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

    @pytest.mark.parametrize("c", [math.nan, -math.inf, math.inf])
    def test_non_finite_rates_rejected(self, c):
        with pytest.raises(ValueError, match="not a finite number"):
            identity_w_root(c)

    @pytest.mark.parametrize("c", [-1e300, -1.7e308])
    def test_far_negative_rates_have_roots(self, c):
        # below c = -256 e^512, about -5.8e224, the bracket's doubling once
        # reached w = -512, where exp(1024) overflows; every root lies above
        # -1/2 ln(float max), about -354.9
        w = identity_w_root(c)
        assert -355.0 < w < -256.0
        assert abs(w * math.exp(-2.0 * w) - c) <= 1e-12 * abs(c)

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
