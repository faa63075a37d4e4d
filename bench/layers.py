"""Per-layer metrics, computed from one traced round's spans and hot counters.

Each metric names the entry points it reads and the workloads on which its
layer is expected to do work.  A metric whose entry point was not wrapped
(it has disappeared or was renamed) or was never called is *missing* where
it is expected: it is left out of the result and reported by name.  Where the
layer does no work on the workload it reads 0.
"""

from __future__ import annotations

import statistics

from child import SWEEP_CELLS

ALL = ("train", "solver", "particles")

SOLVE = "fvm.solve_transport"
EVALS = ("core.ControlPath.eval_w", "core.ControlPath.eval_b")
SPEED = "fvm.DriftSpec.speed"
FLUX = "fvm.llf_flux"
TRAIN = "optim.gauss_seidel_train"
COST = "optim.reduced_cost"
GRAD = "optim.control_gradient"
ODE = "particle.ode_integrate"
MAIN = "cli.main"
LOAD = "cli.load_config"
RUN = "scenarios.run_scenario"


class Trace:
    """Spans as (name, start, end, parent, attrs) plus per-name hot counters."""

    def __init__(self, hot: dict, wrapped, spans, outer_iterations: int) -> None:
        self.hot = hot
        self.wrapped = set(wrapped)
        self.spans = spans
        self.outer_iterations = outer_iterations
        self.by_name: dict[str, list[int]] = {}
        for i, s in enumerate(spans):
            self.by_name.setdefault(s[0], []).append(i)

    def has(self, *names) -> bool:
        return all(n in self.wrapped for n in names)

    def calls(self, name, under=None) -> list[int]:
        idx = self.by_name.get(name, [])
        return [i for i in idx if self.ancestor(i, under)] if under else idx

    def ancestor(self, i: int, name: str) -> bool:
        p = self.spans[i][3]
        while p >= 0:
            if self.spans[p][0] == name:
                return True
            p = self.spans[p][3]
        return False

    def seconds(self, name, under=None) -> float:
        return sum(self.spans[i][2] - self.spans[i][1] for i in self.calls(name, under))

    def solves(self) -> list[tuple[float, dict]] | None:
        """(duration, attrs) of every solve, or None if any lacks its attrs."""
        out = [(self.spans[i][2] - self.spans[i][1], self.spans[i][4])
               for i in self.calls(SOLVE)]
        return None if any(a is None for _, a in out) else out


def _sum_hot(t: Trace, names, field: int):
    if not t.has(*names) or not any(t.hot.get(n, [0])[0] for n in names):
        return None
    return sum(t.hot[n][field] for n in names)


def _total(name):
    def f(t: Trace):
        return t.seconds(name) if t.has(name) and t.calls(name) else None
    return f


def _solve_count(reversed_: bool):
    def f(t: Trace):
        s = t.solves() if t.has(SOLVE) else None
        return sum(a["reversed"] is reversed_ for _, a in s) if s else None
    return f


def _step_us(n_cells: int):
    def f(t: Trace):
        s = t.solves() if t.has(SOLVE) else None
        per = [d / a["steps"] * 1e6 for d, a in (s or []) if a["cells"] == n_cells]
        return statistics.median(per) if per else None
    return f


def _cell_steps_per_s(t: Trace):
    s = t.solves() if t.has(SOLVE) else None
    if not s:
        return None
    return sum(a["cells"] * a["steps"] for _, a in s) / sum(d for d, _ in s)


def _trial_solves(t: Trace):
    if not (t.has(COST, TRAIN) and t.calls(TRAIN)):
        return None
    return len(t.calls(COST, under=TRAIN))


def _per_iteration(numerator):
    def f(t: Trace):
        top = numerator(t)
        return top / t.outer_iterations if top is not None and t.outer_iterations else None
    return f


def _train_ms(t: Trace):
    return 1e3 * t.seconds(TRAIN) if t.has(TRAIN) and t.calls(TRAIN) else None


def _ode_rate(t: Trace):
    if not (t.has(ODE) and t.calls(ODE)):
        return None
    idx = t.calls(ODE)
    if any(t.spans[i][4] is None for i in idx):
        return None
    work = sum(t.spans[i][4]["particles"] * t.spans[i][4]["steps"] for i in idx)
    return work / t.seconds(ODE)


def _emit_s(t: Trace):
    if not (t.has(MAIN, RUN, LOAD) and t.calls(MAIN) and t.calls(RUN, under=MAIN)):
        return None
    return t.seconds(MAIN) - t.seconds(RUN, under=MAIN) - t.seconds(LOAD, under=MAIN)


# name -> (unit, better, compute(trace) -> value or None, workloads expected)
METRICS = {
    "core.control_evals": ("count", "lower", lambda t: _sum_hot(t, EVALS, 0), ALL),
    "fvm.solves_fwd": ("count", "lower", _solve_count(False), ALL),
    "fvm.solves_adj": ("count", "lower", _solve_count(True), ("train", "solver")),
    "fvm.solve_s": ("s", "lower", _total(SOLVE), ALL),
    **{f"fvm.step_us.n{n}": ("us", "lower", _step_us(n),
                             ALL if n in (200, 400) else ("solver",)) for n in SWEEP_CELLS},
    "fvm.cell_steps_per_s": ("1/s", "higher", _cell_steps_per_s, ALL),
    "fvm.speed_calls": ("count", "lower", lambda t: _sum_hot(t, (SPEED,), 0), ALL),
    "fvm.speed_s": ("s", "lower", lambda t: _sum_hot(t, (SPEED,), 1), ALL),
    "fvm.flux_s": ("s", "lower", lambda t: _sum_hot(t, (FLUX,), 1), ALL),
    "optim.outer_iterations": ("count", "lower", lambda t: t.outer_iterations or None,
                               ("train",)),
    "optim.trial_solves": ("count", "lower", _trial_solves, ("train",)),
    "optim.trials_per_iteration": ("ratio", "lower", _per_iteration(_trial_solves), ("train",)),
    "optim.fwd_solves_per_iteration": ("ratio", "lower", _per_iteration(_solve_count(False)),
                                       ("train",)),
    "optim.ms_per_iteration": ("ms", "lower", _per_iteration(_train_ms), ("train",)),
    "optim.gradient_s": ("s", "lower", _total(GRAD), ("train", "solver")),
    "optim.reduced_cost_s": ("s", "lower", _total(COST), ("train", "solver")),
    "particle.ode_s": ("s", "lower", _total(ODE), ("particles",)),
    "particle.steps_per_s": ("1/s", "higher", _ode_rate, ("particles",)),
    "measures.w1_s": ("s", "lower", _total("measures.wasserstein1"), ("train", "particles")),
    "measures.hist_s": ("s", "lower", _total("measures.particles_to_density"), ("particles",)),
    "scenarios.sample_s": ("s", "lower", _total("scenarios.sample_from_density"),
                           ("particles",)),
    "scenarios.target_s": ("s", "lower", _total("scenarios.Scenario.target_field"),
                           ("train", "particles")),
    "cli.load_s": ("s", "lower", _total(LOAD), ("train", "particles")),
    "cli.emit_s": ("s", "lower", _emit_s, ("train", "particles")),
}

# The benchmark's own cost: traced wall time minus untraced wall time.
OVERHEAD = ("trace.overhead_s", "s", "lower")


def per_layer(t: Trace, workload: str) -> tuple[dict, list[str]]:
    """Metric values for the workload, and the names of the missing ones."""
    values, missing = {}, []
    for name, (unit, _, compute, expected) in METRICS.items():
        v = compute(t)
        if v is None and workload in expected:
            missing.append(name)
            continue
        values[name] = {"value": float(v or 0.0), "unit": unit}
    return values, missing


def part_counts(t: Trace) -> dict[str, dict]:
    """Noise-free counts for each part of the round, keyed by part label."""
    out = {}
    for i, s in enumerate(t.spans):
        if s[0] != "bench.part":
            continue
        solves = [t.spans[j][4] for j in t.calls(SOLVE) if _inside(t, j, i)]
        hot = s[4]["hot_calls"]
        out[s[4]["label"]] = {
            "solves_fwd": sum(1 for a in solves if a and not a["reversed"]),
            "solves_adj": sum(1 for a in solves if a and a["reversed"]),
            "trial_solves": sum(1 for j in t.calls(COST, under=TRAIN) if _inside(t, j, i)),
            "control_evals": sum(hot.get(n, 0) for n in EVALS),
            "speed_calls": hot.get(SPEED, 0),
        }
    return out


def _inside(t: Trace, j: int, part: int) -> bool:
    p = t.spans[j][3]
    while p >= 0:
        if p == part:
            return True
        p = t.spans[p][3]
    return False
