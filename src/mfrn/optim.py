"""Training of the control pair by adjoint gradients and backtracking descent.

One outer iteration takes the forward and the adjoint transport under the
current controls (the adjoint is the same conservative solver, drift negated
and controls read in reversed time), assembles the two gradient curves, and
takes a backtracking step that re-pins the controls at t = 0.  The adjoint of
controls depends on them and the target alone, so the solves whose controls
training goes on with (the first iterate, and each line search's first trial
and the step it takes) advance the adjoint in the same sweep as the forward
transport, and the line search hands the controls it accepts over with both
solves: reduced_cost(..., paired=True) returns both beside the cost.  A
search's other trials only need a cost: they are the rows of forward sweeps
that keep only their final fields, as a lone reduced_cost is one such row,
with the cost bitwise the paired one.  The next FIRST_BATCH trials are one
sweep, and the rest are a second only if none of those passes.  The
stopping rule is the relative change of the control pair between iterates
in the max norm over time nodes.

The step is spectral projected gradient (Barzilai & Borwein 1988; Birgin,
Martinez & Raydan 2000): each line search starts at rho0 = <s,s> / <s,y>,
with s the change of the controls since the last iterate and y the change
of the projected gradient, both inner products trapezoidal over time and
summed over the two components.  The first search, and any whose <s,y> is
not positive, starts at ARMIJO_RHO0.  From there it is monotone Armijo
backtracking with no other acceptance rule: if no trial passes, the search
takes no step, training records rho = 0 and stops.

Every line-search candidate is projected nodewise before it is solved, onto
the region _project_to_speed describes, which keeps an unbounded activation's
CFL number at the configured cfl <= 1.  A bounded activation's speeds reach 1
at most, so its CFL number is at most dt / dx, and training refuses, up front,
a dt / dx past the solver's hard CFL bound.  So no trial ever reaches that bound.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass

import numpy as np

from .core import Activation, ControlPath, RunConfig, bisect
from .fvm import (
    _CFL_HARD,
    DensityField,
    DriftSpec,
    Grid1D,
    project_initial,
    solve_final_fields,
    solve_transport,
)
from .measures import moments

log = logging.getLogger(__name__)

# Fraction of the admissible advective speed the shear component w*x may use
# during the line search.  Calibrated so identity-activation training settles
# in the transport-dominated regime instead of the mean-only loss's squeeze.
SHEAR_FRACTION = 0.12

ARMIJO_RHO0 = 1.0
ARMIJO_HALVING = 0.5
ARMIJO_DECREASE = 1e-4
MAX_OUTER_ITERATIONS = 500

# Trials a line search solves in its first sweep after a rejected first
# trial: rho0/2, rho0/4 and rho0/8; the rest get a sweep of their own only if
# none of these passes.  In every search of the six shipped training configs
# that backtracks and takes a step, the step taken is one of these three:
# the BB start rho0 is within a factor 8 of it.
FIRST_BATCH = 3

# Largest root of the identity-activation w-equation's monotone branch:
# w * exp(-2w) attains its maximum 1/(2e) at w = 1/2.
W_EQUATION_BOUND = 0.5 * math.exp(-1.0)


class SolverDivergenceError(RuntimeError):
    """Training produced a non-finite cost; the iteration cannot continue."""


@dataclass(frozen=True)
class TargetMeasure:
    """Mean and raw second moment of the target, all the loss needs."""

    mean: float
    second_moment: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.mean) and math.isfinite(self.second_moment)):
            raise ValueError(f"non-finite target moments {self.mean!r}, {self.second_moment!r}")
        if self.second_moment < self.mean * self.mean - 1e-12:
            raise ValueError(
                f"second moment {self.second_moment!r} below mean^2 {self.mean * self.mean!r}"
            )

    @property
    def variance(self) -> float:
        return max(self.second_moment - self.mean**2, 0.0)

    @classmethod
    def from_density(cls, g: DensityField) -> "TargetMeasure":
        if abs(g.mass - 1.0) > 1e-8:
            raise ValueError(f"target density mass {g.mass!r} is not 1")
        return cls(mean=moments(g, 1), second_moment=moments(g, 2))


@dataclass(frozen=True)
class OptimState:
    """Outcome of the training loop with its per-iteration histories."""

    controls: ControlPath
    trajectory: list[DensityField]  # the forward solve of controls
    cost_history: np.ndarray        # cost of iterate k, plus the final iterate
    rel_error_history: np.ndarray   # stopping quantity after each update
    iteration: int                  # number of outer updates performed
    converged: bool
    rho_history: np.ndarray         # accepted step sizes, 0 where a search took no
                                    # step and ended the run; a spectral start may
                                    # exceed 1
    grad_w_max_history: np.ndarray  # max |projected w-gradient| per iteration
    grad_b_max_history: np.ndarray


def tilde_loss(x, target: TargetMeasure):
    """Mean-field integrand: squared distance to the target in expectation."""
    x = np.asarray(x, dtype=float)
    return x * x - 2.0 * target.mean * x + target.second_moment


def adjoint_initial(target: TargetMeasure, grid: Grid1D) -> DensityField:
    """Cell averages of the loss derivative 2x - 2*mean, the adjoint start."""
    return project_initial(
        lambda x: 2.0 * x - 2.0 * target.mean, grid, renormalize=False
    )


def _trapezoid(values: np.ndarray, dt: float) -> float:
    return float(dt * (np.sum(values) - 0.5 * (values[0] + values[-1])))


def _cost(c: ControlPath, f_T: DensityField, g: TargetMeasure, cfg: RunConfig) -> float:
    """J(c) from c's final field f_T: the terminal mean-field loss plus the
    Tikhonov terms, added as terminal + (w term + b term)."""
    terminal = float(f_T.grid.dx * np.sum(tilde_loss(f_T.grid.centers, g) * f_T.averages))
    dt = c.grid.dt
    return terminal + (0.5 * cfg.gamma_w * _trapezoid(c.w**2, dt)
                       + 0.5 * cfg.gamma_b * _trapezoid(c.b**2, dt))


def reduced_cost(
    c: ControlPath,
    f0: DensityField,
    g: TargetMeasure,
    act: Activation,
    cfg: RunConfig,
    *,
    paired: bool = False,
) -> float | tuple[float, list[DensityField], list[DensityField]]:
    """Terminal mean-field loss plus Tikhonov terms, via a fresh forward solve.

    The solve is one forward row that keeps only its final field
    (solve_final_fields).  With paired, it is instead one sweep of the
    forward and adjoint solves of c that keeps every node's field, and the
    call returns (cost, forward trajectory, adjoint trajectory), so a caller
    that goes on with these controls need not solve them again.  The cost is
    bitwise the same either way.
    """
    drift = DriftSpec(c, act)
    if not paired:
        (f_T,) = solve_final_fields(f0, [drift], c.grid, cfg.cfl)
        return _cost(c, f_T, g, cfg)
    f_traj, lam_traj = solve_transport(f0, drift, c.grid, cfl=cfg.cfl,
                                       adjoint=adjoint_initial(g, f0.grid))
    return _cost(c, f_traj[-1], g, cfg), f_traj, lam_traj


def control_gradient(
    c: ControlPath,
    f_traj: list[DensityField],
    lam_traj: list[DensityField],
    act: Activation,
    cfg: RunConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """Gradient curves sampled on the time nodes.

    The adjoint trajectory is indexed in its own (reversed) time, so the
    snapshot pairing flips: node k of the forward trajectory integrates
    against adjoint snapshot n_steps - k.
    """
    n = c.grid.n_steps
    if len(f_traj) != n + 1 or len(lam_traj) != n + 1:
        raise ValueError(
            f"trajectory lengths {len(f_traj)}, {len(lam_traj)} do not match "
            f"the control grid's {n + 1} nodes"
        )
    x = f_traj[0].grid.centers
    dx = f_traj[0].grid.dx
    g_w = np.empty(n + 1)
    g_b = np.empty(n + 1)
    for k in range(n + 1):
        slope = act.derivative(c.w[k] * x + c.b[k])
        pairing = lam_traj[n - k].averages * slope * f_traj[k].averages
        g_b[k] = cfg.gamma_b * c.b[k] + dx * np.sum(pairing)
        g_w[k] = cfg.gamma_w * c.w[k] + dx * np.sum(x * pairing)
    return g_w, g_b


def _projected(grad: np.ndarray) -> np.ndarray:
    out = grad.copy()
    out[0] = 0.0  # the admissible set pins the controls at t = 0
    return out


def _project_to_speed(
    w1: np.ndarray,
    b1: np.ndarray,
    cap: float,
    lo: float,
    hi: float,
    linear_speed: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """Euclidean projection of each time node (w, b) onto the admissible
    step region of the line search.

    Two constraints make it up.  The shear part w*x alone may claim at most
    SHEAR_FRACTION of the advective speed the configured CFL number admits:
    the mean-only loss rewards contracting the state without limit, and an
    unrestrained w races the translation mode into that degenerate squeeze
    regardless of the activation.  For unbounded activations (linear_speed),
    which satisfy |sigma(y)| <= |y|, the full argument w*x + b additionally
    stays below the speed cap at the domain corners [lo, hi], which bounds
    the induced speed everywhere; bounded activations need no such guard.
    cap is the speed the configured CFL number admits at the fixed time
    step, cfl * dx / dt, so |w| <= SHEAR_FRACTION * cap / max(|lo|, |hi|).

    The feasible set per node is a convex polygon; its projection is the
    point itself, the foot on one face, or a vertex.  Projecting (rather than
    shrinking the step until it fits) lets the line search slide along the
    active constraints instead of stalling the whole step on them.
    """
    w_cap = SHEAR_FRACTION * cap / max(abs(lo), abs(hi))
    # halfplanes a . z <= c with z = (w, b), a the rows of faces, c the bounds
    faces = [[1.0, 0.0], [-1.0, 0.0]]
    bounds = [w_cap, w_cap]
    if linear_speed:
        faces += [[lo, 1.0], [-lo, -1.0], [hi, 1.0], [-hi, -1.0]]
        bounds += [cap] * 4
    faces, bounds = np.array(faces), np.array(bounds)
    p = np.stack([w1, b1], axis=-1)
    cands = [p]
    for a, cbound in zip(faces, bounds):
        cands.append(p - ((p @ a - cbound) / (a @ a))[:, None] * a[None, :])
    for i, j in itertools.combinations(range(len(faces)), 2):
        mat = faces[[i, j]]
        if abs(np.linalg.det(mat)) < 1e-12:
            continue
        vertex = np.linalg.solve(mat, bounds[[i, j]])
        cands.append(np.broadcast_to(vertex, p.shape))
    cands = np.stack(cands)
    tol = 1e-10 * max(1.0, cap)
    feasible = np.all(cands @ faces.T <= bounds + tol, axis=-1)
    # the nearest feasible candidate, the first of equals; p itself if none is
    d2 = np.where(feasible, np.sum((cands - p) ** 2, axis=-1), np.inf)
    best = np.take_along_axis(cands, np.argmin(d2, axis=0)[None, :, None], axis=0)[0]
    return best[..., 0], best[..., 1]


def armijo_search(
    c: ControlPath,
    grad: tuple[np.ndarray, np.ndarray],
    f0: DensityField,
    g: TargetMeasure,
    act: Activation,
    cfg: RunConfig,
    current_cost: float,
    rho0: float = ARMIJO_RHO0,
) -> tuple[ControlPath, float, float, list[DensityField], list[DensityField]] | None:
    """Backtracking step from the pinned controls c, whose cost is
    current_cost, along grad, the projected gradient (_projected), returning
    (new controls, accepted rho, their cost, their forward trajectory, their
    adjoint trajectory), or None if it takes no step.

    Tries rho0, then halves it.  Takes the first step size with sufficient
    decrease (the Armijo test); if none passes, returns None.

    The first trial, which the search usually takes, is one paired sweep
    (reduced_cost(..., paired=True)), handed over when taken.  Otherwise the
    next FIRST_BATCH trials are the rows of one forward sweep that keeps
    only their final fields (solve_final_fields), and the remaining trials
    are the rows of a second such sweep only if none of those passes; a
    batch's candidates are built when it is solved.  Each row is bitwise its
    own solve, so the costs, and the step taken from them, are those of
    trials solved one by one.  The step taken is solved again as one paired
    sweep for the trajectories it hands over.

    Every candidate is projected nodewise (_project_to_speed), so the search
    never wastes trials on solves that would go unstable.  The decrease test
    uses the inner product with the projected step, which reduces to the
    usual -rho*|grad|^2 whenever the projection is inactive; a candidate whose
    projected step does not descend is no trial.
    """
    g_w, g_b = grad
    speed_cap = cfg.cfl * f0.grid.dx / c.grid.dt

    def trials():
        """(rho, candidate, inner product of its step with the projected
        gradient) for rho0, rho0 / 2, ..., wherever that step descends."""
        rho = rho0
        for _ in range(cfg.max_armijo):
            w_c, b_c = _project_to_speed(
                c.w - rho * g_w, c.b - rho * g_b, speed_cap, f0.grid.a, f0.grid.b,
                linear_speed=not act.bounded,
            )
            cand = ControlPath(c.grid, w_c, b_c).pinned()
            inner = _trapezoid(g_w * (cand.w - c.w) + g_b * (cand.b - c.b), c.grid.dt)
            if inner < 0.0:
                yield rho, cand, inner
            rho *= ARMIJO_HALVING

    def paired(trial):
        """The trial solved as one paired sweep, as the search returns it."""
        return (trial[1], trial[0], *reduced_cost(trial[1], f0, g, act, cfg, paired=True))

    def accepted(cost: float, trial) -> bool:
        return math.isfinite(cost) and cost <= current_cost + ARMIJO_DECREASE * trial[2]

    pending = trials()  # a batch's candidates are built only when it is solved
    first = next(pending, None)
    if first is None:
        return None
    step = paired(first)
    if accepted(step[2], first):
        return step
    del step  # a rejected trial holds no trajectories
    for size in (FIRST_BATCH, None):  # the rest only if the first batch takes no step
        batch = list(itertools.islice(pending, size))
        if not batch:
            return None
        finals = solve_final_fields(f0, [DriftSpec(cand, act) for _, cand, _ in batch],
                                    c.grid, cfg.cfl)
        for trial, f_T in zip(batch, finals):
            if accepted(_cost(trial[1], f_T, g, cfg), trial):
                return paired(trial)
    return None


def _bounded_step_excess(act: Activation, dt: float, dx: float) -> str | None:
    """Why training cannot take steps dt on cells of width dx with act, as
    "dt > bound: reason", or None when it can: a bounded activation reaches
    speed 1, so past _CFL_HARD * dx a line-search trial could break the hard
    CFL bound."""
    if act.bounded and dt / dx > _CFL_HARD:
        return (f"{dt:g} > {_CFL_HARD}*dx = {_CFL_HARD * dx:g}: the bounded activation "
                f"{act.kind} reaches speed 1, so a line-search trial could break the hard "
                "CFL bound")
    return None


def gauss_seidel_train(
    f0: DensityField,
    g: TargetMeasure,
    c0: ControlPath,
    act: Activation,
    cfg: RunConfig,
    max_outer: int = MAX_OUTER_ITERATIONS,
) -> OptimState:
    """Alternating forward/adjoint sweeps with spectral projected-gradient
    updates.

    Each iterate's adjoint comes from the sweep that solved its forward
    transport.  Each line search starts at the Barzilai-Borwein step
    <s,s> / <s,y> of the last update (see the module docstring), or at
    ARMIJO_RHO0 on the first iteration and wherever <s,y> <= 0.

    Stops when the relative control change e = ||c_new - c_old|| / ||c_new||
    (max over time nodes, max over the two components) drops to cfg.tol, or
    after max_outer updates.  A line search that finds no acceptable step
    stops the run too, recorded as e = 0 and rho = 0 with converged set; the
    closing log line names which of the three ended it.  A non-finite cost of the
    starting controls aborts with diagnostics; every later cost is finite,
    as the line search takes only finite costs.

    With a bounded activation, dt > _CFL_HARD * dx is refused before any
    solve (see the module docstring).
    """
    c = c0.pinned()
    excess = _bounded_step_excess(act, c.grid.dt, f0.grid.dx)
    if excess:
        raise ValueError(f"time step dt={excess}")
    costs: list[float] = []
    errors: list[float] = []
    rhos: list[float] = []
    gw_hist: list[float] = []
    gb_hist: list[float] = []
    converged = False
    stop = "stopped at the iteration cap"
    log.info("training start: Lipschitz budget of initial controls = %.6g", c.lipschitz_budget())

    # the first iterate is solved here, its adjoint in the same sweep; every
    # later one was solved by the line search that accepted it
    f_traj, lam_traj = solve_transport(f0, DriftSpec(c, act), c.grid, cfl=cfg.cfl,
                                       adjoint=adjoint_initial(g, f0.grid))
    cost = _cost(c, f_traj[-1], g, cfg)
    if not math.isfinite(cost):
        raise SolverDivergenceError(f"non-finite cost {cost!r} of the starting controls "
                                    f"(C0 norm {c.c0_norm():.6g})")
    for k in range(max_outer):
        costs.append(cost)
        g_w, g_b = control_gradient(c, f_traj, lam_traj, act, cfg)
        del lam_traj  # the trials' adjoints take its place
        pg_w, pg_b = _projected(g_w), _projected(g_b)
        gw_hist.append(float(np.max(np.abs(pg_w))))
        gb_hist.append(float(np.max(np.abs(pg_b))))
        rho0 = ARMIJO_RHO0
        if k > 0:  # s and y: the changes of the controls and the projected gradient
            s_w, s_b = c.w - last[0], c.b - last[1]
            y_w, y_b = pg_w - last[2], pg_b - last[3]
            sy = _trapezoid(s_w * y_w + s_b * y_b, c.grid.dt)
            if sy > 0.0:
                rho0 = _trapezoid(s_w**2 + s_b**2, c.grid.dt) / sy
        last = (c.w, c.b, pg_w, pg_b)
        step = armijo_search(c, (pg_w, pg_b), f0, g, act, cfg, cost, rho0=rho0)
        if step is None:
            errors.append(0.0)
            rhos.append(0.0)
            converged = True
            stop = "stopped on a line search that found no acceptable step"
            break
        new_c, rho, cost, f_traj, lam_traj = step
        dist = new_c.c0_distance(c)
        denom = new_c.c0_norm()
        e = dist / denom if denom else math.inf if dist else 0.0
        errors.append(e)
        rhos.append(rho)
        c = new_c
        if e <= cfg.tol:
            converged = True
            stop = f"converged on the relative control change {e:.3g} <= tol {cfg.tol:g}"
            break
    costs.append(cost)
    log.info("training %s after %d iteration(s): cost %.8g, Lipschitz budget %.6g",
             stop, len(errors), cost, c.lipschitz_budget())
    return OptimState(
        controls=c,
        trajectory=f_traj,
        cost_history=np.array(costs),
        rel_error_history=np.array(errors),
        iteration=len(errors),
        converged=converged,
        rho_history=np.array(rhos),
        grad_w_max_history=np.array(gw_hist),
        grad_b_max_history=np.array(gb_hist),
    )


def identity_w_root(c: float) -> float:
    """Root of w * exp(-2w) = c on the branch w <= 1/2.

    The left-hand side increases up to its maximum 1/(2e) at w = 1/2, so any
    c <= 1/(2e) has exactly one root on the branch; larger c has none.
    Bisection (core.bisect) on the branch bracket; every root lies at
    w >= -1/2 ln(float max), where the left-hand side is -inf, not an overflow.
    """
    if not (math.isfinite(c) and c <= W_EQUATION_BOUND):
        raise ValueError(f"no root: c = {c!r} is not a finite number up to the branch "
                         f"maximum 1/(2e) = {W_EQUATION_BOUND!r}")
    if c == W_EQUATION_BOUND:
        return 0.5

    def h(w: float) -> float:
        return w * math.exp(-2.0 * w) - c

    lo, hi = (0.0, 0.5) if c >= 0.0 else (-1.0, 0.0)
    while h(lo) > 0.0:
        lo = max(2.0 * lo, -0.5 * math.log(np.finfo(float).max))
    return bisect(lambda w: h(w) <= 0.0, h, lo, hi)  # h(lo) <= 0 < h(hi)
