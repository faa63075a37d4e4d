"""Time transport solves of two source trees side by side in one interpreter.

    python3 tools/ab_solves.py BASE_SRC HEAD_SRC

Each argument is a checkout of this repository (or its ``src`` directory).
Both trees' ``mfrn`` packages are imported into this one process, under the
names ``mfrn_base`` and ``mfrn_head``, so the two sides share the interpreter,
the heap and the machine's load at every moment.  For every case (200, 400
and 1600 cells; identity, sigmoid and tanh; a forward solve, an adjoint
solve, and the pair of them that training makes, all of 100 steps; at 200
and 400 cells also a batch of 9 forward solves under the controls scaled by
1, 1/2, ..., 1/256, like a line search's trials) the two sides' solves
alternate, the side that goes first alternating too, and the script prints
each side's median time, the ratio head / base, and whether the final
snapshots are bitwise equal.  The paired case is one sweep of both rows
(``solve_transport(..., adjoint=lam0)``), and both final snapshots are
compared.  The batch case solves the 9 rows in one sweep that keeps only
their final fields (``solve_final_fields``), and all 9 are compared.
The last lines are the geometric means of the ratios, over the forward,
adjoint and paired cases and over the batch cases.  Plain timings of one
tree on a shared machine can drift by 2x within minutes; two runs of this
script on the same tree read within a few percent of 1 on a quiet machine,
and the 200- and 400-cell cases spread to about 0.88-1.18 under other
tenants' load.  Standard library and numpy.
"""

from __future__ import annotations

import importlib.util
import logging
import math
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


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    logging.disable(logging.WARNING)
    sides = {"base": _load(Path(argv[0]).resolve(), "mfrn_base"),
             "head": _load(Path(argv[1]).resolve(), "mfrn_head")}
    print(f"{'cells':>5} {'activation':>10} {'solve':>7} {'base ms':>9} {'head ms':>9} "
          f"{'ratio':>6}  same bits")
    ratios = {}
    for n_cells in CELLS:
        for act in ACTIVATIONS:
            for kind in KINDS:
                if kind == "batch" and n_cells not in BATCH_CELLS:
                    continue
                solves = {side: _case(pkg, n_cells, act, kind) for side, pkg in sides.items()}
                times = {side: [] for side in sides}
                finals = {side: solve() for side, solve in solves.items()}
                for r in range(ROUNDS):
                    for side in (("base", "head") if r % 2 == 0 else ("head", "base")):
                        t0 = time.perf_counter()
                        solves[side]()
                        times[side].append(time.perf_counter() - t0)
                med = {side: statistics.median(ts) for side, ts in times.items()}
                ratio = med["head"] / med["base"]
                ratios.setdefault(kind == "batch", []).append(ratio)
                same = all(a.averages.tobytes() == b.averages.tobytes()
                           for a, b in zip(finals["base"], finals["head"], strict=True))
                print(f"{n_cells:>5} {act:>10} {kind:>7} "
                      f"{1e3 * med['base']:>9.2f} {1e3 * med['head']:>9.2f} {ratio:>6.3f}  "
                      f"{'yes' if same else 'NO'}", flush=True)
    for batch, some in sorted(ratios.items()):
        geo = math.exp(sum(map(math.log, some)) / len(some))
        print(f"geometric mean ratio head / base over {len(some)} "
              f"{'batch' if batch else 'forward, adjoint and paired'} cases: {geo:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
