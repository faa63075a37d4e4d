"""The identity activation's exact answer, against the grid solver.

With act(z) = z the velocity w(t) x + b(t) is affine in x, so the flow is
affine: X_T = Phi(s, T) X_s + Psi(s, T), with Phi(s, T) = exp(int_s^T w) and
Psi(s, T) = int_s^T exp(int_r^T w) b(r) dr.  For piecewise-linear controls
int w is the trapezoid sum exactly and Psi needs one quadrature per
interval, so for any controls:

- the forward field is f_t(x) = f0((x - Psi(0, t)) / Phi(0, t)) / Phi(0, t),
  whose cell averages come from f0's CDF;
- the adjoint lambda = d/dx l(X_T(t, x)) is linear in x;
- the mean-field gradient needs only f_t's first two moments:
  g_b(t) = gamma_b b + Phi(t,T) (2 (Phi(t,T) E X_t + Psi(t,T)) - 2 m*),
  g_w(t) = gamma_w w + Phi(t,T) (2 (Phi(t,T) E X_t^2 + Psi(t,T) E X_t) - 2 m* E X_t).

The tests compare control_gradient with it at the two identity configs'
starting and trained controls, and check the forward solve's order and the
gradient's order with time-varying controls.  The gradient order test runs
on a domain wide enough that the adjoint's zero-inflow boundary front does
not reach the density: on the shipped domain [-2, 3] that front leaves a gap
that refinement does not remove.
"""

import math

import numpy as np
import pytest
from scipy.special import erf

from mfrn.core import Activation, ControlPath, RunConfig, TimeGrid
from mfrn.fvm import DensityField, DriftSpec, Grid1D, solve_final_fields, solve_transport
from mfrn.optim import TargetMeasure, adjoint_initial, control_gradient, reduced_cost

IDENTITY = Activation("identity")
_LEGENDRE = np.polynomial.legendre.leggauss(12)


def flow(c: ControlPath) -> tuple[np.ndarray, np.ndarray]:
    """At each node t_k: W_k = int_0^t_k w, exact for piecewise-linear w, and
    I_k = int_0^t_k exp(-W(r)) b(r) dr, by a 12-node Gauss-Legendre rule on
    each interval.  Then Phi(s, t) = exp(W(t) - W(s)) and
    Psi(s, t) = exp(W(t)) (I(t) - I(s))."""
    h = np.diff(c.grid.nodes)
    w, b = c.w, c.b
    W = np.concatenate(([0.0], np.cumsum(0.5 * h * (w[:-1] + w[1:]))))
    x, weights = _LEGENDRE
    s = 0.5 * (x + 1.0)                       # the nodes on [0, 1]
    r = s * h[:, None]                        # time into each interval
    W_r = W[:-1, None] + w[:-1, None] * r + (w[1:] - w[:-1])[:, None] * r * s / 2.0
    b_r = b[:-1, None] + (b[1:] - b[:-1])[:, None] * s
    pieces = 0.5 * h * (np.exp(-W_r) * b_r @ weights)
    return W, np.concatenate(([0.0], np.cumsum(pieces)))


def exact_gradient(c: ControlPath, m1: float, m2: float, m_star: float, cfg: RunConfig):
    """(g_w, g_b) on the nodes, from f0's mean m1 and second moment m2 and
    the target mean m_star."""
    W, I = flow(c)
    mean = np.exp(W) * (m1 + I)
    second = np.exp(2.0 * W) * (m2 + 2.0 * I * m1 + I * I)
    phi = np.exp(W[-1] - W)                   # Phi(t, T)
    psi = np.exp(W[-1]) * (I[-1] - I)         # Psi(t, T)
    g_b = cfg.gamma_b * c.b + phi * (2.0 * (phi * mean + psi) - 2.0 * m_star)
    g_w = cfg.gamma_w * c.w + phi * (2.0 * (phi * second + psi * mean) - 2.0 * m_star * mean)
    return g_w, g_b


def gaussian_averages(mu: float, s: float, grid: Grid1D, phi: float = 1.0,
                      psi: float = 0.0) -> np.ndarray:
    """Cell averages of N(mu, s^2) pushed through x -> phi x + psi, from its CDF."""
    z = ((grid.edges - psi) / phi - mu) / (s * math.sqrt(2.0))
    return np.diff(0.5 * erf(z)) / grid.dx


def gaps(c: ControlPath, g_w, g_b, m1, m2, m_star, cfg) -> tuple[float, float]:
    """The largest |gap| in w and in b over the nodes t > 0."""
    e_w, e_b = exact_gradient(c, m1, m2, m_star, cfg)
    return float(np.max(np.abs(g_w - e_w)[1:])), float(np.max(np.abs(g_b - e_b)[1:]))


def time_varying(tg: TimeGrid) -> ControlPath:
    return ControlPath.from_functions(tg, lambda t: 0.8 * np.sin(np.pi * t),
                                      lambda t: 0.5 + 0.5 * t)


def solver_gaps(report, controls) -> tuple[float, float]:
    """The gaps of control_gradient at controls, on the report's scenario."""
    sc = report.scenario
    g = TargetMeasure.from_density(report.target_field)
    _, f_traj, lam_traj = reduced_cost(controls, report.f0, g, sc.act, sc.config, paired=True)
    g_w, g_b = control_gradient(controls, f_traj, lam_traj, sc.act, sc.config)
    p = sc.params
    m1, m2 = (0.0, 1.0 / 12.0) if sc.name == "test1" else (p["mu"], p["mu"] ** 2 + p["s"] ** 2)
    return gaps(controls, g_w, g_b, m1, m2, g.mean, sc.config)


def test_flow_is_exact_for_constant_controls():
    # w = a, b = beta: X_T = e^{aT} X_0 + beta (e^{aT} - 1) / a
    tg = TimeGrid.from_step(1.0, 0.1)
    W, I = flow(ControlPath.constant(tg, 0.7, 0.4))
    assert np.allclose(W, 0.7 * tg.nodes, rtol=1e-14, atol=0)
    psi = np.exp(W) * I
    assert np.allclose(psi, 0.4 * np.expm1(0.7 * tg.nodes) / 0.7, rtol=1e-13, atol=0)


@pytest.mark.parametrize("name, w_bound, b_bound", [
    ("test1_identity", 1.2e-4, 1e-12), ("test2", 3.0e-5, 1e-12)])
def test_starting_controls_gradient_matches_the_closed_form(request, name, w_bound, b_bound):
    report = request.getfixturevalue(f"{name}_report")
    w_gap, b_gap = solver_gaps(report, report.scenario.initial_controls())
    assert w_gap <= w_bound and b_gap <= b_bound, (w_gap, b_gap)


@pytest.mark.parametrize("name, w_bound, b_bound", [
    ("test1_identity", 6e-3, 7e-5), ("test2", 4e-5, 8e-8)])
def test_trained_controls_gradient_matches_the_closed_form(request, name, w_bound, b_bound):
    report = request.getfixturevalue(f"{name}_report")
    w_gap, b_gap = solver_gaps(report, report.state.controls)
    assert w_gap <= w_bound and b_gap <= b_bound, (w_gap, b_gap)


def test_forward_solve_is_third_order_with_time_varying_controls():
    errors = []
    for n_cells in (100, 200, 400, 800):
        grid = Grid1D(-2.0, 3.0, n_cells)
        c = time_varying(TimeGrid.from_step(1.0, 0.1 * grid.dx))
        f0 = DensityField(grid, gaussian_averages(0.0, 0.3, grid))
        (f_T,) = solve_final_fields(f0, [DriftSpec(c, IDENTITY)], c.grid)
        W, I = flow(c)
        phi = math.exp(W[-1])
        exact = gaussian_averages(0.0, 0.3, grid, phi, phi * I[-1])
        errors.append(grid.dx * np.sum(np.abs(f_T.averages - exact)))
    orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
    assert np.all(orders >= 2.7), (errors, orders)


def test_gradient_is_second_order_in_w_on_a_wide_domain():
    cfg = RunConfig(gamma_w=1e-3, gamma_b=1e-3, tol=1e-4, max_armijo=10, cfl=0.45,
                    domain=(-4.5, 5.5), n_cells=200, dimension=1)
    g = TargetMeasure(1.0, 1.09)
    w_gaps, b_gaps = [], []
    for n_cells in (200, 400, 800):
        grid = Grid1D(-4.5, 5.5, n_cells)
        c = time_varying(TimeGrid.from_step(1.0, 0.1 * grid.dx))
        f0 = DensityField(grid, gaussian_averages(0.0, 0.3, grid))
        # speeds reach |0.8 * 5.5 + 1| = 5.4, CFL 0.54: past the usual
        # advisory 0.45, well inside the hard bound
        f_traj, lam_traj = solve_transport(f0, DriftSpec(c, IDENTITY), c.grid, cfl=0.6,
                                           adjoint=adjoint_initial(g, grid))
        g_w, g_b = control_gradient(c, f_traj, lam_traj, IDENTITY, cfg)
        w_gap, b_gap = gaps(c, g_w, g_b, 0.0, 0.09, g.mean, cfg)
        w_gaps.append(w_gap)
        b_gaps.append(b_gap)
    assert np.all(np.log2(np.array(w_gaps[:-1]) / np.array(w_gaps[1:])) >= 1.9), w_gaps
    assert np.all(np.array(b_gaps[:-1]) >= 8.0 * np.array(b_gaps[1:])), b_gaps
