"""Time solves and particle ensembles of two source trees in one interpreter.

    python3 tools/ab_solves.py BASE_SRC HEAD_SRC

Each argument is a checkout of this repository (or its ``src`` directory).
Both trees' ``mfrn`` packages are imported into this one process, under the
names ``mfrn_base`` and ``mfrn_head``, so the two sides share the interpreter,
the heap and the machine's load at every moment.  The solve cases are 200,
400 and 1600 cells; identity, sigmoid and tanh; a forward solve, an adjoint
solve, and the pair of them that training makes, all of 100 steps; at 200
and 400 cells also a batch of 9 forward solves under the controls scaled by
1, 1/2, ..., 1/256, like a line search's trials.  The paired case is one
sweep of both rows (``solve_transport(..., adjoint=lam0)``), and both final
snapshots are compared.  The batch case solves the 9 rows in one sweep that
keeps only their final fields (``solve_final_fields``), and all 9 are
compared.  The cost cases are those of the benchmark's gradient probe: one
``optim.reduced_cost`` call at 400 cells, dt 5e-3, T = 0.5, under the pinned
controls w = 0.3 sin(pi t), b = 0.5 t, from the exact cell averages of
N(0.3, 0.25^2), with identity, tanh and sigmoid; the costs are compared.
The cost cases run COST_ROUNDS rounds, not ROUNDS: at 15 rounds a single
cost case of two trees that left the cost path as it was read 1.207 in one
run and 1.139 in the next, so the group could not resolve a 1.02 gate.  At
31 rounds the same three cases read 0.995 to 1.000 in four repeats, and in
five more repeats on loaded shared cores 0.906 to 1.026 a case and 0.969 to
1.013 for the group's geometric mean.  So the cost group runs GROUP_REPEATS
times, and its line reports the median of the repeats' geometric means
beside each of them.  In two full runs against a parent whose cost path was
the same, the repeats read 0.997 to 0.999 and 0.990 to 1.007, medians 0.998
and 1.001.
The training cases run ``optim.gauss_seidel_train`` on the shipped
test1_identity, test3_zero and test3_linear, set up as
``scenarios.run_training`` sets them up (the starting density and the target
are built once, outside the timed calls), over TRAIN_ROUNDS rounds, and
compare the trained controls and the cost histories.  So a change to the
line search or the training loop is timed in one interpreter, not only by
``bench/run.py`` across two checkouts, whose layout alone can move ``train``
by up to 8%.  The training group runs GROUP_REPEATS times too, and reports
the median of its repeats' geometric means.  Its cases spread: in one run
against a tree that solved a search's later trials as one 9-row sweep,
test1_identity (five iterations, about 0.2 s a call) read 0.920 to 1.076
over the three repeats, test3_zero 0.691 to 0.818, and the group 0.852 to
0.932.
The sweep cases are the benchmark's refinement-sweep solves at its finest
grids (``bench/child.py::run_sweep``), 800, 1600 and 3200 cells on [-2, 3]: one
row, ``solve_transport`` keeping its snapshots, constant speed 1 (identity,
w = 0, b = 1), dt = 0.4 dx up to T = 1.  The forward case carries the exact
cell averages of N(0, 0.25^2), limited; the reversed case those of the
derivative of the N(1, 0.25^2) density, unlimited.  The final snapshots are
compared.  These are every sweep size from which a lone solve's block holds
fewer than 4 steps by _BLOCK_DOUBLES alone (fvm._block_steps).  Over
SWEEP_ROUNDS rounds a single sweep case of two trees whose sweep code
differed by one small per-solve table read 0.888 to 1.247 on two shared
cores, while the group's geometric mean read 0.991 and 0.988: only a
group's geometric mean is a check; a single case moving 10-25% says nothing.
The ensemble cases integrate 1e2, 1e3, 1e4 and 1e5 particles
drawn from N(0.5, 0.3^2) with RK4 (``particle.ode_integrate``) under the
controls of ``scenarios/convergence.json`` (w = 0.4 sin(pi t), b = 0.3 t,
dt 0.01, T = 1), with identity, sigmoid and tanh, and compare the final
positions; each case keeps one ControlPath across its calls, as the study
does across its seeds.  The study case runs the whole convergence study of
``scenarios/convergence.json`` (``scenarios.run_convergence_study``: one PDE
solve, then 5 seeds of 1e2 to 1e5 particles) over STUDY_ROUNDS rounds and
compares the W1 tables.  One study call spreads by about 15% from round to
round on a shared machine, so the study's own ratio does not resolve 10%;
it counts as one more case of the ensemble group, and that group's
geometric mean is the check of the particle path.

In every case the two sides' calls alternate, the side that goes first
alternating too, and the script prints each side's median time, the ratio
head / base, each side's median count of minor page faults a call
(``resource.getrusage`` ``ru_minflt`` around it: an exact count beside the
noisy times, of the pages the call's temporaries had mapped in anew), and
whether the results are bitwise equal.  The last lines are the geometric
means of the ratios, over the forward, adjoint and paired cases, over the
batch cases, over the cost cases, over the training cases, over the sweep
cases and over the ensemble cases with the study.  Plain timings of
one tree on a shared machine can drift by 2x within minutes; two runs of
this script on the same tree read within a few percent of 1 on a quiet
machine, and the 200- and 400-cell cases spread to about 0.88-1.18 under
other tenants' load.  A page-fault count does not depend on the load, only
on the state of the heap, which the two sides share.  Standard library and
numpy (``resource`` makes it Unix only).
"""

from __future__ import annotations

import importlib.util
import json
import logging
import math
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

CELLS = (200, 400, 1600)
ACTIVATIONS = ("identity", "sigmoid", "tanh")
KINDS = ("forward", "adjoint", "paired", "batch")
BATCH_CELLS = (200, 400)
BATCH_ROWS = 9
STEPS = 100
ROUNDS = 15
COST_ROUNDS = 31
COST_ACTIVATIONS = ("identity", "tanh", "sigmoid")
ENSEMBLE_SIZES = (100, 1000, 10_000, 100_000)
SWEEP_CELLS = (800, 1600, 3200)
SWEEP_ROUNDS = 9  # a 3200-cell sweep solve takes about a second
STUDY_ROUNDS = 9  # a study takes about a second a call
TRAIN_CONFIGS = ("test1_identity", "test3_zero", "test3_linear")
TRAIN_ROUNDS = 7  # the three trainings take about 1.5 s a round and side
GROUP_REPEATS = 3  # the cost and training groups read as the median of 3 group means


def _load(tree: Path, name: str):
    """The tree's mfrn package, imported as ``name``."""
    for src in (tree / "src", tree):
        init = src / "mfrn" / "__init__.py"
        if init.is_file():
            spec = importlib.util.spec_from_file_location(
                name, init, submodule_search_locations=[str(init.parent)])
            module = importlib.util.module_from_spec(spec)
            sys.modules[name] = module
            spec.loader.exec_module(module)
            return module
    raise SystemExit(f"{tree}: no mfrn package in it or in its src/")


def _config(tree: Path, name: str) -> dict:
    """scenarios/<name>.json of the checkout tree (or of its src's parent)."""
    for root in (tree, tree.parent):
        path = root / "scenarios" / f"{name}.json"
        if path.is_file():
            return json.loads(path.read_text())
    raise SystemExit(f"{tree}: no scenarios/{name}.json in it or its parent")


def _case(pkg, n_cells: int, act: str, kind: str):
    """The solves of one case, of STEPS steps at CFL number at most 0.32
    (|w x + b| <= 0.8 on [-2, 3]), as a zero-argument callable that returns
    their final snapshots."""
    fvm, core = pkg.fvm, pkg.core
    dt = 0.01 * 200 / n_cells
    tg = core.TimeGrid.from_step(STEPS * dt, dt)
    controls = core.ControlPath.from_functions(
        tg, lambda t: 0.2 * np.sin(np.pi * t), lambda t: 0.4 * t - 0.2)
    grid = fvm.Grid1D(-2.0, 3.0, n_cells)
    fwd = fvm.DriftSpec(controls, core.Activation(act))
    rev = fvm.DriftSpec(controls, core.Activation(act), time_reversed=True)
    f0 = fvm.project_initial(lambda x: np.exp(-((x - 0.3) ** 2) / 0.125), grid)
    lam0 = fvm.DensityField(grid, 2.0 * grid.centers - 1.0)
    if kind == "forward":
        return lambda: [fvm.solve_transport(f0, fwd, tg)[-1]]
    if kind == "adjoint":
        return lambda: [fvm.solve_transport(lam0, rev, tg)[-1]]
    if kind == "batch":
        drifts = [fvm.DriftSpec(core.ControlPath(tg, 0.5**k * controls.w, 0.5**k * controls.b),
                                core.Activation(act)) for k in range(BATCH_ROWS)]
        return lambda: fvm.solve_final_fields(f0, drifts, tg)

    def paired():
        f_traj, lam_traj = fvm.solve_transport(f0, fwd, tg, adjoint=lam0)
        return [f_traj[-1], lam_traj[-1]]
    return paired


def _cost(pkg, act: str):
    """The benchmark probe's cost of its base controls, as a zero-argument
    callable that returns it."""
    core, fvm, optim = pkg.core, pkg.fvm, pkg.optim
    cfg = core.RunConfig(gamma_w=1e-3, gamma_b=1e-3, tol=1e-4, max_armijo=10, cfl=0.45,
                         domain=(-2.0, 3.0), n_cells=400, dimension=1)
    grid = fvm.Grid1D(-2.0, 3.0, 400)
    tg = core.TimeGrid.from_step(0.5, 5e-3)
    nodes = tg.nodes
    base = core.ControlPath(tg, 0.3 * np.sin(np.pi * nodes), 0.5 * nodes).pinned()
    edges = -2.0 + 5.0 / 400 * np.arange(401)
    cdf = np.array([0.5 * math.erfc(-(e - 0.3) / (0.25 * math.sqrt(2.0))) for e in edges])
    f0 = np.diff(cdf) / np.diff(edges)
    f0 = fvm.DensityField(grid, f0 / (np.sum(f0) * (edges[1] - edges[0])), 0.0)
    target = optim.TargetMeasure(mean=1.0, second_moment=1.01)
    act = core.Activation(act)
    return lambda: [np.float64(optim.reduced_cost(base, f0, target, act, cfg))]


def _sweep(pkg, n_cells: int, kind: str):
    """One solve of the benchmark's refinement sweep, forward (limited) or
    reversed (unlimited), as a zero-argument callable that returns its final
    snapshot."""
    core, fvm = pkg.core, pkg.fvm
    grid = fvm.Grid1D(-2.0, 3.0, n_cells)
    steps = n_cells // 2  # dt = 0.4 dx = 2 / n_cells
    tg = core.TimeGrid(1.0, 1.0 / steps, steps)
    ctrl = core.ControlPath.constant(tg, 0.0, 1.0)
    edges = grid.a + grid.dx * np.arange(n_cells + 1)
    if kind == "forward":
        cdf = np.array([0.5 * math.erfc(-e / (0.25 * math.sqrt(2.0))) for e in edges])
        start = np.diff(cdf) / grid.dx
    else:
        pdf = np.exp(-0.5 * ((edges - 1.0) / 0.25) ** 2) / (0.25 * math.sqrt(2.0 * math.pi))
        start = np.diff(pdf) / grid.dx
    drift = fvm.DriftSpec(ctrl, core.Activation("identity"), time_reversed=kind == "reversed")
    f0 = fvm.DensityField(grid, start, 0.0)
    return lambda: [fvm.solve_transport(f0, drift, tg, cfl=0.45,
                                        limit_positive=kind == "forward")[-1]]


def _ensemble(pkg, size: int, act: str):
    """RK4 over T = 1 of size particles under the convergence study's
    controls, as a zero-argument callable that returns their final
    positions."""
    core = pkg.core
    tg = core.TimeGrid.from_step(1.0, 0.01)
    controls = core.ControlPath.from_functions(
        tg, lambda t: 0.4 * np.sin(np.pi * t), lambda t: 0.3 * t)
    xs = np.random.default_rng(size).normal(0.5, 0.3, size)
    return lambda: [pkg.particle.ode_integrate(xs, controls, core.Activation(act), 0.01, 1.0)]


def _study(pkg, config: dict):
    """The convergence study of config, as a zero-argument callable that
    returns its W1 table (seeds by ensemble sizes)."""
    sc = pkg.scenarios.scenario_from_config(config)
    return lambda: [pkg.scenarios.run_convergence_study(sc).w1_by_seed]


def _train(pkg, config: dict):
    """The training of config as run_training makes it, its starting density
    and target built once, as a zero-argument callable that returns the
    trained controls and the cost history."""
    sc = pkg.scenarios.scenario_from_config(config)
    f0, target = sc.initial_density(), pkg.optim.TargetMeasure.from_density(sc.target_field())
    c0 = sc.initial_controls()

    def train():
        state = pkg.optim.gauss_seidel_train(f0, target, c0, sc.act, sc.config)
        return [state.controls.w, state.controls.b, state.cost_history]
    return train


def _compare(calls: dict, rounds: int = ROUNDS) -> tuple[dict, dict, bool]:
    """Each side's median time and median minor page faults over rounds
    alternating calls, and whether the two sides' results are bitwise
    equal."""
    bits = {side: [getattr(a, "averages", a).tobytes() for a in call()]
            for side, call in calls.items()}
    times = {side: [] for side in calls}
    faults = {side: [] for side in calls}
    for r in range(rounds):
        for side in (("base", "head") if r % 2 == 0 else ("head", "base")):
            f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            t0 = time.perf_counter()
            calls[side]()
            times[side].append(time.perf_counter() - t0)
            faults[side].append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0)
    return ({side: statistics.median(ts) for side, ts in times.items()},
            {side: statistics.median(fs) for side, fs in faults.items()},
            bits["base"] == bits["head"])


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    logging.disable(logging.WARNING)
    sides = {"base": _load(Path(argv[0]).resolve(), "mfrn_base"),
             "head": _load(Path(argv[1]).resolve(), "mfrn_head")}
    print(f"{'size':>6} {'activation':>10} {'case':>14} {'base ms':>9} {'head ms':>9} "
          f"{'ratio':>6} {'base flt':>8} {'head flt':>8}  same bits")
    ratios = {}  # group -> the ratios of its cases, one list for each repeat of the group

    def report(size, act, kind, group, calls, rounds=ROUNDS, repeat=0):
        med, flt, same = _compare(calls, rounds)
        ratio = med["head"] / med["base"]
        runs = ratios.setdefault(group, [])
        if repeat == len(runs):
            runs.append([])
        runs[repeat].append(ratio)
        print(f"{size:>6} {act:>10} {kind:>14} "
              f"{1e3 * med['base']:>9.2f} {1e3 * med['head']:>9.2f} {ratio:>6.3f} "
              f"{flt['base']:>8g} {flt['head']:>8g}  {'yes' if same else 'NO'}", flush=True)

    for n_cells in CELLS:
        for act in ACTIVATIONS:
            for kind in KINDS:
                if kind == "batch" and n_cells not in BATCH_CELLS:
                    continue
                group = "batch" if kind == "batch" else "forward, adjoint and paired"
                report(n_cells, act, kind, group,
                       {side: _case(pkg, n_cells, act, kind) for side, pkg in sides.items()})
    for repeat in range(GROUP_REPEATS):
        for act in COST_ACTIVATIONS:
            report(400, act, "cost", "cost",
                   {side: _cost(pkg, act) for side, pkg in sides.items()}, COST_ROUNDS, repeat)
    configs = {name: _config(Path(argv[1]).resolve(), name) for name in TRAIN_CONFIGS}
    for repeat in range(GROUP_REPEATS):
        for name, config in configs.items():
            report(config["run"]["n_cells"], config["activation"], name, "training",
                   {side: _train(pkg, config) for side, pkg in sides.items()}, TRAIN_ROUNDS,
                   repeat)
    for n_cells in SWEEP_CELLS:
        for kind in ("forward", "reversed"):
            report(n_cells, "identity", kind, "sweep",
                   {side: _sweep(pkg, n_cells, kind) for side, pkg in sides.items()},
                   SWEEP_ROUNDS)
    for size in ENSEMBLE_SIZES:
        for act in ACTIVATIONS:
            report(size, act, "ensemble", "ensemble and study",
                   {side: _ensemble(pkg, size, act) for side, pkg in sides.items()})
    config = _config(Path(argv[1]).resolve(), "convergence")
    report("1e5", config["activation"], "study", "ensemble and study",
           {side: _study(pkg, config) for side, pkg in sides.items()}, STUDY_ROUNDS)
    for group, runs in ratios.items():
        means = [math.exp(sum(map(math.log, some)) / len(some)) for some in runs]
        line = (f"geometric mean ratio head / base over {len(runs[0])} {group} cases: "
                f"{statistics.median(means):.3f}")
        if len(runs) > 1:
            line += f" (median of {len(runs)} repeats: {', '.join(f'{m:.3f}' for m in means)})"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
