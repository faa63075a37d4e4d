"""Shared fixtures.

The training scenarios are expensive (minutes in total), so every test that
inspects a trained state shares one session-scoped run per scenario.  The
gradient probe is likewise computed once and reused by both the module-level
consistency test and the acceptance check.

The shipped config files are the only definition of the paper's scenarios:
tests read them with ``shipped`` and derive variants with
``dataclasses.replace``.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from mfrn.core import Activation, ControlPath, RunConfig, TimeGrid
from mfrn.fvm import DriftSpec, Grid1D, project_initial, solve_transport
from mfrn.optim import TargetMeasure, adjoint_initial, control_gradient, reduced_cost
from mfrn.scenarios import (
    Scenario,
    gaussian_density,
    run_convergence_study,
    run_training,
    scenario_from_config,
)

settings.register_profile("solver", deadline=None)
settings.load_profile("solver")

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def shipped(name: str) -> Scenario:
    """The scenario of the shipped config ``scenarios/<name>.json``."""
    with open(SCENARIO_DIR / f"{name}.json") as fh:
        return scenario_from_config(json.load(fh))


@pytest.fixture(scope="session")
def test1_identity_report():
    return run_training(shipped("test1_identity"))


@pytest.fixture(scope="session")
def test1_tanh_report():
    return run_training(shipped("test1_tanh"))


@pytest.fixture(scope="session")
def test1_sigmoid_report():
    return run_training(shipped("test1_sigmoid"))


@pytest.fixture(scope="session")
def test2_report():
    return run_training(shipped("test2"))


@pytest.fixture(scope="session")
def test3_zero_report():
    return run_training(shipped("test3_zero"))


@pytest.fixture(scope="session")
def test3_linear_report():
    return run_training(shipped("test3_linear"))


@pytest.fixture(scope="session")
def convergence_report():
    return run_convergence_study(shipped("convergence"))


def _smooth_direction(rng, nodes, t_final):
    out = np.zeros_like(nodes)
    for k in range(1, 5):
        out += rng.standard_normal() * np.sin(k * np.pi * nodes / t_final)
    return out


def _probe(kind, seed):
    """Worst gaps between the adjoint gradient and central differences over
    eight smooth random directions drawn with the given seed.

    Returns (relative, scaled): the relative gap |fd - an| / max(|fd|, |an|)
    and the gap scaled by the gradient and direction sizes,
    |fd - an| / (|g| |d|) with trapezoid L2 norms over time.  A direction
    nearly orthogonal to the gradient makes fd and an small and the relative
    gap ill-conditioned; the scaled gap measures the gradient's accuracy.
    """
    n_cells = 400
    cfg = RunConfig(gamma_w=1e-3, gamma_b=1e-3, tol=1e-4, max_armijo=10,
                    cfl=0.45, domain=(-2.0, 3.0), n_cells=n_cells, dimension=1)
    grid = Grid1D(-2.0, 3.0, n_cells)
    tg = TimeGrid.from_step(0.5, 5e-3)
    f0 = project_initial(gaussian_density(0.3, 0.25), grid)
    target = TargetMeasure(mean=1.0, second_moment=1.01)
    base = ControlPath.from_functions(
        tg, lambda t: 0.3 * np.sin(np.pi * t), lambda t: 0.5 * t
    ).pinned()
    eps = 1e-5

    def trapezoid(v):
        return float(tg.dt * (v.sum() - 0.5 * (v[0] + v[-1])))

    act = Activation(kind)
    f_traj = solve_transport(f0, DriftSpec(base, act), tg, cfg.cfl)
    lam0 = adjoint_initial(target, grid)
    lam_traj = solve_transport(
        lam0, DriftSpec(base, act, time_reversed=True), tg, cfg.cfl
    )
    gw, gb = control_gradient(base, f_traj, lam_traj, act, cfg)
    g_norm = np.sqrt(trapezoid(gw**2 + gb**2))
    rng = np.random.default_rng(seed)
    worst_rel = worst_scaled = 0.0
    for _ in range(8):
        dw = _smooth_direction(rng, tg.nodes, tg.t_final)
        db = _smooth_direction(rng, tg.nodes, tg.t_final)
        cp = ControlPath(tg, base.w + eps * dw, base.b + eps * db)
        cm = ControlPath(tg, base.w - eps * dw, base.b - eps * db)
        fd = (reduced_cost(cp, f0, target, act, cfg)
              - reduced_cost(cm, f0, target, act, cfg)) / (2 * eps)
        an = trapezoid(gw * dw + gb * db)
        gap = abs(fd - an)
        worst_rel = max(worst_rel, gap / max(abs(fd), abs(an), 1e-14))
        d_norm = np.sqrt(trapezoid(dw**2 + db**2))
        worst_scaled = max(worst_scaled, float(gap / (g_norm * d_norm)))
    return worst_rel, worst_scaled


@pytest.fixture(scope="session")
def gradient_probe_at():
    """The criterion-6 probe for one activation and one direction seed."""
    return _probe


@pytest.fixture(scope="session")
def gradient_probe():
    """Worst relative gap, adjoint gradient vs central differences.

    One smooth base control, eight smooth random perturbation directions
    (seed 11), probed for each smooth activation.  Returns per-activation
    worst relative gaps, the worst scaled gaps under "scaled", and the wall
    time of the whole probe.
    """
    t0 = time.monotonic()
    worst = {"scaled": {}}
    for kind in ("identity", "tanh", "sigmoid"):
        worst[kind], worst["scaled"][kind] = _probe(kind, 11)
    worst["elapsed"] = time.monotonic() - t0
    return worst
