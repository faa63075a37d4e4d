"""One round of one workload, in a fresh single-threaded interpreter.

Started by ``run.py`` as ``python3 bench/child.py '<json spec>'``.  It imports
the package from ``src/``, optionally installs the tracer, sets the workload
up, runs its parts (the timed phase), notes its peak resident memory, and only
then checks every output.  The result goes to the JSON file the spec names.
Operations are the CLI runs, solves and probe directions the round attempts,
plus one per output check; a check that cannot be made because its operation
failed counts as failed, a check that is made and does not hold makes the
round incorrect.
"""

from __future__ import annotations

import time

T_START = time.monotonic()

import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402

import numpy as np  # noqa: E402

import oracles  # noqa: E402
import speed  # noqa: E402
from tracer import Tracer  # noqa: E402

LAYERS = ("core", "fvm", "optim", "particle", "measures", "scenarios", "cli")

TRAIN_CONFIGS = ("test1_identity", "test3_zero")
PARTICLE_CONFIGS = ("convergence", "shift_identity", "scale")
SWEEP_CELLS = (200, 400, 800, 1600, 3200)
PROBE_KINDS = ("identity", "tanh", "sigmoid")
PROBE_DIRECTIONS = 8
PROBE_EPS = 1e-5
PROBE_SEED = 11
CONVERGENCE_SEED = 42
DOMAIN = (-2.0, 3.0)

# The paper's reproduction targets and the method's own guarantees.
MASS_TOL = 1e-10
MIN_AVERAGE = -1e-8
COST_RTOL = 1e-10
ORDER_MIN = 2.5
PROBE_GAP_MAX = 1e-3
SLOPE_RANGE = (-0.65, -0.35)
PUSH_PARTICLES = 2000
SETUP_KERNELS = 5


def planned_ops(workload: str, repeats: dict) -> int:
    """Operations one round attempts: CLI runs, solves and probe directions,
    plus one per output check."""
    if workload == "train":
        return sum(repeats.get(n, 1) for n in TRAIN_CONFIGS) + 6 * len(TRAIN_CONFIGS)
    if workload == "solver":
        return (2 * len(SWEEP_CELLS) + len(PROBE_KINDS) * (1 + PROBE_DIRECTIONS)
                * repeats.get("probe", 1) + 2 * 2 + len(PROBE_KINDS))
    return (repeats.get("convergence", 1) + 2 * repeats.get("shift_scale", 1)
            + len(PARTICLE_CONFIGS))


class Round:
    """Operation and check bookkeeping for one round.

    ``repeats`` says how many times a part runs in the round; each run of a
    part is one timing sample, and the output checks read the last one.
    Untraced samples are taken at reference speed (see speed.py), with the
    raw times beside them."""

    def __init__(self, tracer: Tracer | None, repeats: dict) -> None:
        self.tracer = tracer
        self.repeats = repeats
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.checks: list[dict] = []
        self.parts: dict[str, list[float]] = {}
        self.parts_raw: dict[str, list[float]] = {}
        self.facts: dict = {}

    def op(self, fn, *args, **kwargs):
        """Run one operation; a raised error or non-zero exit code fails it."""
        self.attempted += 1
        try:
            out = fn(*args, **kwargs)
        except Exception:  # an operation's failure is counted, not fatal
            traceback.print_exc()
            self.failed += 1
            return None
        if isinstance(out, int) and not isinstance(out, bool) and out != 0:
            print(f"operation exited with code {out}", file=sys.stderr)
            self.failed += 1
            return None
        return out

    def check(self, name: str, fn) -> None:
        """fn returns (holds, measured value); any error fails the check."""
        self.attempted += 1
        try:
            ok, value = fn()
        except Exception:  # outputs missing because an operation failed
            traceback.print_exc()
            self.failed += 1
            self.checks.append({"name": name, "ok": None})
            return
        ok = bool(ok)
        self.correct &= ok
        self.checks.append({"name": name, "ok": ok, "value": value})

    def part(self, label: str):
        if self.tracer is None:
            return nullcontext()
        return self.tracer.span("bench.part", {"label": label})

    def timed(self, label: str, fn) -> None:
        for _ in range(self.repeats.get(label, 1)):
            with speed.Sampler(active=self.tracer is None) as s, self.part(label):
                fn()
            self.parts.setdefault(label, []).append(s.scaled)
            self.parts_raw.setdefault(label, []).append(s.raw)


# --- train and particles: `mfrn run` through mfrn.cli.main --------------------

def config_path(root: str, name: str) -> str:
    return os.path.join(root, "scenarios", f"{name}.json")


def load_configs(root: str, names) -> dict:
    from mfrn import cli
    out = {}
    for name in names:
        cli.load_config(config_path(root, name))
        with open(config_path(root, name)) as fh:
            out[name] = json.load(fh)
    return out


def cli_run(root: str, out_dir: str, name: str, extra=()) -> int:
    from mfrn import cli
    return cli.main(["run", "--config", config_path(root, name),
                     "--out", os.path.join(out_dir, name), *extra])


class RunDir:
    """The artifacts of one `mfrn run`, read back with the benchmark's own code."""

    def __init__(self, path: str, config: dict) -> None:
        self.path = path
        run = config["run"]
        self.edges = oracles.uniform_edges(run["domain"][0], run["domain"][1], run["n_cells"])
        self.dx = float(self.edges[1] - self.edges[0])
        self.centers = 0.5 * (self.edges[:-1] + self.edges[1:])
        self.config = config
        with open(os.path.join(path, "summary.json")) as fh:
            self.summary = json.load(fh)

    def field(self, name: str) -> np.ndarray:
        cols = oracles.read_csv(os.path.join(self.path, name))
        if np.max(np.abs(cols["x_center"] - self.centers)) > 1e-12:
            raise ValueError(f"{name}: cell centers do not match the config's grid")
        return cols["value"]

    def controls(self) -> dict:
        return oracles.read_csv(os.path.join(self.path, "controls.csv"))

    def field_names(self) -> list[str]:
        return sorted(f for f in os.listdir(self.path)
                      if f.endswith(".csv") and (f.startswith("f_") or f in ("f0.csv", "target.csv")))

    def w1_final_target(self) -> float:
        return oracles.w1_density_density(self.edges, self.field("f_final.csv"),
                                          self.edges, self.field("target.csv"))


def check_training(rnd: Round, load, cfg: dict, label: str) -> None:
    """Every check loads the run's artifacts itself, so a failed run fails
    each of them and a round always attempts the same operations."""

    def converged():
        s = load().summary
        return s["converged"] is True, s["iterations"]
    rnd.check(f"{label}.converged", converged)

    def monotone():
        cost = oracles.read_csv(os.path.join(load().path, "iteration_log.csv"))["cost"]
        rise = float(np.max(np.diff(cost) / np.abs(cost[:-1])))
        return rise <= 1e-12, rise
    rnd.check(f"{label}.cost_nonincreasing", monotone)

    def fields():
        d = load()
        worst_mass, worst_min = 0.0, math.inf
        for name in d.field_names():
            avg = d.field(name)
            worst_mass = max(worst_mass, abs(d.dx * float(np.sum(avg)) - 1.0))
            worst_min = min(worst_min, float(np.min(avg)))
        return worst_mass <= MASS_TOL and worst_min >= MIN_AVERAGE, [worst_mass, worst_min]
    rnd.check(f"{label}.field_mass_and_sign", fields)

    def cost():
        d = load()
        c = d.controls()
        run = cfg["run"]
        mine = oracles.training_cost(d.field("f_final.csv"), d.field("target.csv"), d.centers,
                                     d.dx, c["w"], c["b"], cfg["dt"],
                                     run["gamma_w"], run["gamma_b"])
        rel = abs(mine - d.summary["final_cost"]) / abs(mine)
        return rel <= COST_RTOL, rel
    rnd.check(f"{label}.final_cost_recomputed", cost)

    def push():
        d = load()
        c = d.controls()
        x0 = oracles.density_quantiles(d.edges, d.field("f0.csv"), PUSH_PARTICLES)
        xt = oracles.rk4_flow(x0, c["t"], c["w"], c["b"], cfg["activation"],
                              cfg["dt"], cfg["t_final"])
        gap = oracles.w1_atoms_density(xt, d.edges, d.field("f_final.csv")) / d.dx
        return gap <= 1.0, gap
    rnd.check(f"{label}.characteristics_reach_f_final", push)

    if cfg["scenario"] == "test1":
        def shift():
            d = load()
            c = d.controls()
            late_b = float(np.mean(c["b"][c["t"] >= 0.1 - 1e-12]))
            w_max = float(np.max(np.abs(c["w"])))
            w1 = d.w1_final_target() / d.dx
            return abs(late_b - 1.0) <= 0.1 and w_max <= 0.05 and w1 <= 3.0, [late_b, w_max, w1]
        rnd.check(f"{label}.paper_shift_target", shift)
    else:
        def mean_match():
            d = load()
            gap = abs(d.dx * float(np.sum(d.centers * (d.field("f_final.csv")
                                                        - d.field("target.csv")))))
            w_max = float(np.max(np.abs(d.controls()["w"])))
            return gap <= 1e-2 and w_max <= 0.05, [gap, w_max]
        rnd.check(f"{label}.paper_mean_target", mean_match)


def loader(path: str, config: dict):
    cache = []

    def load() -> RunDir:
        if not cache:
            cache.append(RunDir(path, config))
        return cache[0]
    return load


def run_train(rnd: Round, root: str, out_dir: str, configs: dict) -> None:
    for name in TRAIN_CONFIGS:
        rnd.timed(name, lambda: rnd.op(cli_run, root, out_dir, name))
    rnd.facts["peak_rss_mb"] = peak_rss_mb()
    iterations = {}
    for name in TRAIN_CONFIGS:
        load = loader(os.path.join(out_dir, name), configs[name])
        check_training(rnd, load, configs[name], name)
        try:
            iterations[name] = load().summary["iterations"]
        except (OSError, ValueError, KeyError):
            pass
    rnd.facts["outer_iterations"] = iterations


def run_particles(rnd: Round, root: str, out_dir: str, configs: dict, seed: int) -> None:
    conv_seed = (CONVERGENCE_SEED + seed) % 2**32
    rnd.timed("convergence", lambda: rnd.op(
        cli_run, root, out_dir, "convergence", ("--seed", str(conv_seed))))

    def exact_runs():
        for name in PARTICLE_CONFIGS[1:]:
            rnd.op(cli_run, root, out_dir, name)
    rnd.timed("shift_scale", exact_runs)
    rnd.facts["peak_rss_mb"] = peak_rss_mb()
    rnd.facts["convergence_seed"] = conv_seed

    def rate():
        cols = oracles.read_csv(os.path.join(out_dir, "convergence", "convergence.csv"))
        w1 = cols["w1_mean"]
        per_seed = np.array([v for k, v in cols.items() if k.startswith("w1_seed")])
        mean_ok = np.allclose(per_seed.mean(axis=0), w1, rtol=1e-12, atol=0.0)
        slope = oracles.loglog_slope(cols["M"], w1)
        ok = mean_ok and bool(np.all(np.diff(w1) < 0.0)) and SLOPE_RANGE[0] <= slope <= SLOPE_RANGE[1]
        return ok, slope
    rnd.check("convergence.rate", rate)
    for name in PARTICLE_CONFIGS[1:]:
        def reach(name=name):
            d = loader(os.path.join(out_dir, name), configs[name])()
            w1 = d.w1_final_target() / d.dx
            return w1 <= 3.0, w1
        rnd.check(f"{name}.w1_to_target", reach)


# --- solver: refinement sweep and adjoint-gradient probe ----------------------

def sweep_inputs(seed: int) -> dict:
    rng = np.random.default_rng(seed % 2**32)
    mu = float(rng.uniform(-0.1, 0.1))
    return {"mu": mu, "s": 0.25, "shift": 1.0}


def run_sweep(rnd: Round, inp: dict) -> None:
    from mfrn import core, fvm
    mu, s, shift = inp["mu"], inp["s"], inp["shift"]
    results = {"forward": [], "reversed": []}
    for n in SWEEP_CELLS:
        grid = fvm.Grid1D(DOMAIN[0], DOMAIN[1], n)
        edges = oracles.uniform_edges(DOMAIN[0], DOMAIN[1], n)
        steps = n // 2                      # dt = 0.4 dx = 2 / n, t_final = 1
        tg = core.TimeGrid(shift, shift / steps, steps)
        ctrl = core.ControlPath.constant(tg, 0.0, 1.0)
        ident = core.Activation("identity")
        cases = (
            ("forward", oracles.gaussian_cell_averages(edges, mu, s),
             oracles.gaussian_cell_averages(edges, mu + shift, s), False),
            ("reversed", oracles.gaussian_derivative_cell_averages(edges, mu + shift, s),
             oracles.gaussian_derivative_cell_averages(edges, mu, s), True),
        )
        for label, start, exact, reversed_ in cases:
            drift = fvm.DriftSpec(ctrl, ident, time_reversed=reversed_)
            f0 = fvm.DensityField(grid, start, 0.0)
            traj = rnd.op(fvm.solve_transport, f0, drift, tg, cfl=0.45,
                          limit_positive=not reversed_)
            if traj is None:
                continue
            end = np.asarray(traj[-1].averages)
            h = edges[1] - edges[0]
            results[label].append({
                "n": n,
                "l1": float(h * np.sum(np.abs(end - exact))),
                "mass_drift": float(abs(h * (np.sum(end) - np.sum(start)))),
            })
    rnd.facts["sweep"] = results


def check_sweep(rnd: Round) -> None:
    for label in ("forward", "reversed"):
        rows = rnd.facts["sweep"][label]

        def order(rows=rows):
            if len(rows) != len(SWEEP_CELLS):
                raise ValueError("a sweep solve failed")
            l1 = np.array([r["l1"] for r in rows])
            orders = np.log2(l1[:-1] / l1[1:])
            return bool(np.all(orders >= ORDER_MIN)), [round(float(o), 4) for o in orders]
        rnd.check(f"sweep.{label}.order", order)

        def mass(rows=rows):
            if len(rows) != len(SWEEP_CELLS):
                raise ValueError("a sweep solve failed")
            worst = max(r["mass_drift"] for r in rows)
            return worst <= MASS_TOL, worst
        rnd.check(f"sweep.{label}.mass", mass)


def probe_inputs() -> dict:
    """Smooth random directions (four sine modes each, for w and for b),
    shared by every activation.

    The directions do not follow --seed: the relative gap is ill-conditioned
    for a direction nearly orthogonal to the gradient, so other direction
    sets can exceed the 1e-3 bound for reasons of the check, not the solver
    (see README.md).  Seed 11 is the test suite's criterion-6 probe."""
    rng = np.random.default_rng(PROBE_SEED)
    t_final, dt = 0.5, 5e-3
    nodes = np.linspace(0.0, t_final, round(t_final / dt) + 1)
    modes = np.array([np.sin(k * np.pi * nodes / t_final) for k in range(1, 5)])
    dirs = [(rng.standard_normal(4) @ modes, rng.standard_normal(4) @ modes)
            for _ in range(PROBE_DIRECTIONS)]
    edges = oracles.uniform_edges(DOMAIN[0], DOMAIN[1], 400)
    f0 = oracles.gaussian_cell_averages(edges, 0.3, 0.25)
    return {"t_final": t_final, "dt": dt, "nodes": nodes, "dirs": dirs,
            "f0": f0 / (np.sum(f0) * (edges[1] - edges[0]))}


def run_probe(rnd: Round, inp: dict) -> None:
    from mfrn import core, fvm, optim
    cfg = core.RunConfig(gamma_w=1e-3, gamma_b=1e-3, tol=1e-4, max_armijo=10, cfl=0.45,
                         domain=DOMAIN, n_cells=400, dimension=1)
    grid = fvm.Grid1D(DOMAIN[0], DOMAIN[1], 400)
    tg = core.TimeGrid.from_step(inp["t_final"], inp["dt"])
    nodes = inp["nodes"]
    base = core.ControlPath(tg, 0.3 * np.sin(np.pi * nodes), 0.5 * nodes).pinned()
    f0 = fvm.DensityField(grid, inp["f0"], 0.0)
    target = optim.TargetMeasure(mean=1.0, second_moment=1.01)
    gaps = {}
    for kind in PROBE_KINDS:
        act = core.Activation(kind)

        def gradient():
            f_traj = fvm.solve_transport(f0, fvm.DriftSpec(base, act), tg, cfg.cfl)
            lam0 = optim.adjoint_initial(target, grid)
            lam_traj = fvm.solve_transport(lam0, fvm.DriftSpec(base, act, time_reversed=True),
                                           tg, cfg.cfl)
            return optim.control_gradient(base, f_traj, lam_traj, act, cfg)
        grad = rnd.op(gradient)
        worst = []
        for dw, db in inp["dirs"]:
            def direction(dw=dw, db=db):
                cp = core.ControlPath(tg, base.w + PROBE_EPS * dw, base.b + PROBE_EPS * db)
                cm = core.ControlPath(tg, base.w - PROBE_EPS * dw, base.b - PROBE_EPS * db)
                return (optim.reduced_cost(cp, f0, target, act, cfg)
                        - optim.reduced_cost(cm, f0, target, act, cfg)) / (2.0 * PROBE_EPS)
            fd = rnd.op(direction)
            if fd is None or grad is None:
                continue
            an = oracles.trapezoid(grad[0] * dw + grad[1] * db, tg.dt)
            worst.append(abs(fd - an) / max(abs(fd), abs(an), 1e-14))
        gaps[kind] = worst
    rnd.facts["probe_gaps"] = gaps


def check_probe(rnd: Round) -> None:
    for kind in PROBE_KINDS:
        def gap(kind=kind):
            g = rnd.facts["probe_gaps"][kind]
            if len(g) != PROBE_DIRECTIONS:
                raise ValueError(f"{kind}: a probe solve failed")
            return max(g) <= PROBE_GAP_MAX, max(g)
        rnd.check(f"probe.{kind}.gap", gap)


# --- the round ------------------------------------------------------------------

def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(spec: dict) -> None:
    root = spec["root"]
    sys.path.insert(0, os.path.join(root, "src"))
    import mfrn  # noqa: F401  (the whole package, every layer)

    tracer = None
    if spec["trace"]:
        tracer = Tracer()
        tracer.install("mfrn", LAYERS)

    workload, seed = spec["workload"], spec["seed"]
    if workload == "train":
        configs = load_configs(root, TRAIN_CONFIGS)
    elif workload == "particles":
        configs = load_configs(root, PARTICLE_CONFIGS)
    elif workload == "solver":
        sweep, probe = sweep_inputs(seed), probe_inputs()
    else:
        raise ValueError(f"unknown workload {workload!r}")
    setup_raw = time.monotonic() - spec["t_spawn"]
    kernels = [speed.kernel_s() for _ in range(SETUP_KERNELS)]
    result = {"setup_s": speed.scale(setup_raw, kernels), "setup_raw_s": setup_raw,
              "child_start_s": T_START - spec["t_spawn"]}

    if not spec["setup_only"]:
        rnd = Round(tracer, spec["repeats"])
        out_dir = spec["out"]
        if workload == "train":
            run_train(rnd, root, out_dir, configs)
        elif workload == "particles":
            run_particles(rnd, root, out_dir, configs, seed)
        else:
            rnd.timed("sweep", lambda: run_sweep(rnd, sweep))
            rnd.timed("probe", lambda: run_probe(rnd, probe))
            rnd.facts["peak_rss_mb"] = peak_rss_mb()
            rnd.facts["sweep_mu"] = sweep["mu"]
            check_sweep(rnd)
            check_probe(rnd)
        result.update({
            # one pass of the workload: the first sample of each part
            "wall_s": sum(v[0] for v in rnd.parts.values()),
            "wall_raw_s": sum(v[0] for v in rnd.parts_raw.values()),
            "parts": rnd.parts,
            "parts_raw": rnd.parts_raw,
            "attempted": rnd.attempted,
            "failed": rnd.failed,
            "correct": rnd.correct,
            "checks": rnd.checks,
            "facts": rnd.facts,
        })
        if tracer is not None:
            tracer.dump(spec["trace_file"])
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
