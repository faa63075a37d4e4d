"""The paper's problem families: the three training benchmarks, the two exact
control constructions (shift and scale of a density), and the particle-vs-PDE
convergence study.

The config files in ``scenarios/`` define the problems.  Every scenario is a
plain value object read strictly from that format and written back to it
bit-exactly, so a run is reproducible from its manifest alone.
"""

from __future__ import annotations

import logging
import math
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from .core import (Activation, ConfigValueError, ControlPath, RunConfig, TimeGrid, bisect,
                   is_number, reject_unknown)
from .fvm import DensityField, DriftSpec, Grid1D, project_initial, solve_transport
from .measures import _MASS_TOL, moments, particles_to_density, variance, wasserstein1
from .optim import OptimState, TargetMeasure, _bounded_step_excess, gauss_seidel_train
from .particle import ode_integrate

log = logging.getLogger(__name__)

TRAINING_NAMES = ("test1", "test2", "test3")
INITIAL_GUESSES = ("zero", "linear")


def indicator_density(lo: float, hi: float):
    def pdf(x):
        x = np.asarray(x, dtype=float)
        return np.where((x >= lo) & (x <= hi), 1.0 / (hi - lo), 0.0)

    return pdf


def gaussian_density(mu: float, s: float):
    def pdf(x):
        x = np.asarray(x, dtype=float)
        return np.exp(-((x - mu) ** 2) / (2.0 * s * s)) / math.sqrt(2.0 * math.pi * s * s)

    return pdf


def beta_density(a1: float, a2: float):
    """Beta density on [0, 1], zero outside."""
    norm = math.gamma(a1 + a2) / (math.gamma(a1) * math.gamma(a2))

    def pdf(x):
        x = np.asarray(x, dtype=float)
        inside = (x > 0.0) & (x < 1.0)
        xs = np.where(inside, x, 0.5)  # keep the power well defined off-support
        return np.where(inside, norm * xs ** (a1 - 1.0) * (1.0 - xs) ** (a2 - 1.0), 0.0)

    return pdf


_LOG_FLOAT_MAX = math.log(sys.float_info.max)


def _normal_mass_outside(mu: float, sd: float, a: float, b: float) -> float:
    """The mass of N(mu, sd^2) outside [a, b]."""
    r = sd * math.sqrt(2.0)
    return 0.5 * (math.erfc((mu - a) / r) + math.erfc((b - mu) / r))


# the numeric params each family reads (convergence also reads the integers
# n_seeds and M_list); s, a1 and a2 must also be positive
_PARAMS = {"test1": ("beta",), "test2": ("mu", "s", "alpha"), "test3": ("a1", "a2"),
           "convergence": ("mu", "s"), "shift_control": ("beta",),
           "scale_control": ("mu", "s", "alpha")}
SCENARIO_NAMES = tuple(_PARAMS)


@dataclass(frozen=True)
class Scenario:
    """A named problem setup plus everything needed to rerun it."""

    name: str
    config: RunConfig
    t_final: float
    dt: float
    activation: str
    seed: int = 42
    params: dict = field(default_factory=dict)
    initial_guess: str = "zero"

    def __post_init__(self) -> None:
        if self.name not in SCENARIO_NAMES:
            raise ConfigValueError("scenario",
                                   f"must be one of {SCENARIO_NAMES}, got {self.name!r}")
        if self.initial_guess not in INITIAL_GUESSES:
            raise ConfigValueError(
                "initial_guess", f"must be one of {INITIAL_GUESSES}, got {self.initial_guess!r}")
        # validates the kind and keeps its normalized name, which runs echo
        object.__setattr__(self, "activation", Activation(self.activation).kind)
        TimeGrid.from_step(self.t_final, self.dt)  # validates t_final and dt
        object.__setattr__(self, "t_final", float(self.t_final))
        object.__setattr__(self, "dt", float(self.dt))
        if not (is_number(self.seed, integer=True) and self.seed >= 0):  # numpy's seed rule
            raise ConfigValueError("seed", f"must be an integer >= 0, got {self.seed!r}")
        p = self.params
        study = self.name == "convergence"
        reject_unknown(p, _PARAMS[self.name] + (("n_seeds", "M_list") if study else ()), "params.")
        for key in _PARAMS[self.name]:
            kind = "positive" if key in ("s", "a1", "a2") else "finite"
            if not is_number(p.get(key)) or (kind == "positive" and p[key] <= 0):
                raise ConfigValueError(f"params.{key}",
                                       f"must be a {kind} number, got {p.get(key)!r}")
        n, M = p.get("n_seeds"), p.get("M_list")
        if study and not (is_number(n, integer=True) and n >= 1):
            raise ConfigValueError("params.n_seeds", f"must be an integer >= 1, got {n!r}")
        if study and not (  # two sizes at least, for the log-log slope
                isinstance(M, list) and len(M) >= 2 and all(is_number(m, integer=True) for m in M)
                and all(lo < hi for lo, hi in zip([0, *M], M))):
            raise ConfigValueError("params.M_list", "must increase and hold at least two "
                                                    f"positive integers, got {M!r}")
        grid = self.space_grid
        for what, pdf in zip(("initial density", "target"), self._family()[:2]):
            with np.errstate(over="ignore"):  # a law far narrower than a cell overflows to 0
                if pdf is not None and not project_initial(pdf, grid, renormalize=False).mass > 0:
                    raise ConfigValueError("run.n_cells", f"= {grid.n_cells}: cells of width "
                                           f"{grid.dx:.6g} hold none of the {what}'s mass")
        if self.name in TRAINING_NAMES:
            # refused here too, so a run reports it at the dt line before it
            # writes anything
            excess = _bounded_step_excess(self.act, self.dt, grid.dx)
            if excess:
                raise ConfigValueError("dt", f"= {excess}")

    def _family(self) -> tuple:
        """The family's starting law and fixed target as pdfs, the target None
        where test3's solve makes it or the study has none, and its exact
        controls, None for test1 and test2.  Refuses a law that has no float
        form (a beta normalization that overflows, an s^2 that underflows) or
        has mass outside run.domain, which projection would cut off and
        renormalize: an indicator or the beta density must lie inside, a
        Gaussian may put at most _MASS_TOL of its mass outside (the tolerance
        to which W1 takes a density as normalized)."""
        p, tg, (a, b) = self.params, self.time_grid, self.config.domain
        where = f"run.domain [{a!r}, {b!r}]"
        if self.name in ("test1", "shift_control", "test3"):
            controls = None
            if self.name == "shift_control":
                # the exact control needs a bias b0 with act(b0) = beta / t_final
                try:
                    b0 = activation_preimage(self.act, p["beta"] / self.t_final)
                except ValueError as e:
                    raise ConfigValueError("params.beta", f"/ t_final: {e}") from None
                controls = ControlPath.constant(tg, 0.0, b0)
            lo, hi = (0.0, 1.0) if self.name == "test3" else (-0.5, 0.5)
            if not a <= lo < hi <= b:
                raise ConfigValueError("run.domain", f"[{a!r}, {b!r}] does not hold the initial "
                                                     f"density's support [{lo!r}, {hi!r}]")
            if self.name == "test3":
                try:
                    f0 = beta_density(p["a1"], p["a2"])
                except OverflowError:  # Γ(a1 + a2) past float range, or Γ of a tiny a
                    key = max(("a1", "a2"), key=lambda k: abs(math.log(p[k])))  # further from 1
                    raise ConfigValueError(f"params.{key}", f"= {p[key]!r} overflows the beta "
                                           "density's Γ(a1 + a2) / (Γ(a1) Γ(a2))") from None
                return f0, None, ControlPath.from_functions(
                    tg, lambda t: np.exp(t) - 1.0, lambda t: -5.0 * t**2 + t)
            lo, hi = -0.5 + p["beta"], 0.5 + p["beta"]
            if not a <= lo < hi <= b:
                raise ConfigValueError("params.beta", f"= {p['beta']!r} puts the target "
                                                      f"indicator [{lo!r}, {hi!r}] outside {where}")
            return indicator_density(-0.5, 0.5), indicator_density(lo, hi), controls
        # test2, scale_control and convergence start from N(mu, s^2)
        mu, s = p["mu"], p["s"]
        if s * s == 0.0:  # the pdf divides by s^2
            raise ConfigValueError("params.s", f"= {s!r} is too small: s^2 underflows to 0")
        f0, target, spreads = gaussian_density(mu, s), None, {"initial density": s}
        if self.name == "convergence":
            controls = ControlPath.from_functions(
                tg, lambda t: 0.4 * np.sin(math.pi * t), lambda t: 0.3 * t)
        else:  # the target N(mu, (s e^-alpha)^2)
            alpha = p["alpha"]
            sd = s * math.exp(-alpha) if abs(alpha) < _LOG_FLOAT_MAX else 0.0
            if sd == 0.0:  # the target scales by e^alpha
                raise ConfigValueError("params.alpha", f"= {alpha!r} leaves the target "
                                                       "N(mu, (s e^-alpha)^2) no float spread")
            spreads["target"], ea = sd, math.exp(alpha)

            def target(x):
                x = np.asarray(x, dtype=float)
                return f0(x * ea + (1.0 - ea) * mu) * ea

            controls = (ControlPath.constant(tg, -alpha / self.t_final, alpha * mu / self.t_final)
                        if self.name == "scale_control" else None)
        for what, sd in spreads.items():
            outside = _normal_mass_outside(mu, sd, a, b)
            if not outside <= _MASS_TOL:
                raise ConfigValueError("params.mu", f"= {mu!r} puts {outside:.3g} of the "
                                                    f"{what} N(mu, {sd:.6g}^2) outside {where}, "
                                                    f"more than {_MASS_TOL:g}")
        return f0, target, controls

    @property
    def time_grid(self) -> TimeGrid:
        return TimeGrid.from_step(self.t_final, self.dt)

    @property
    def space_grid(self) -> Grid1D:
        a, b = self.config.domain
        return Grid1D(a, b, self.config.n_cells)

    @property
    def act(self) -> Activation:
        return Activation(self.activation)

    def initial_density(self) -> DensityField:
        return project_initial(self._family()[0], self.space_grid)

    def target_field(self) -> DensityField:
        """The target as cell averages; test3 manufactures it numerically."""
        _, target, controls = self._family()
        if target is not None:
            return project_initial(target, self.space_grid)
        if self.name == "test3":
            return _push_forward(self, self.initial_density(), controls)
        raise ValueError(f"scenario {self.name!r} has no fixed target density")

    def exact_controls(self) -> ControlPath | None:
        return self._family()[2]

    def initial_controls(self) -> ControlPath:
        grid = self.time_grid
        if self.initial_guess == "linear":
            return ControlPath.from_functions(grid, lambda t: t, lambda t: t)
        return ControlPath.zero(grid)


def scenario_to_config(sc: Scenario) -> dict:
    return {
        "scenario": sc.name,
        "activation": sc.activation,
        "seed": sc.seed,
        "t_final": sc.t_final,
        "dt": sc.dt,
        "initial_guess": sc.initial_guess,
        "params": dict(sc.params),
        "run": sc.config.to_dict(),
    }


def scenario_from_config(data: dict) -> Scenario:
    """The scenario a parsed config file describes, read strictly: a key that
    ``scenario_to_config`` would not write is rejected, and so is a number that is
    not a finite JSON number (an integer for ``seed`` and the counting keys of
    ``run``).  Each error but a missing top-level key is a ConfigValueError."""
    missing = [k for k in ("scenario", "activation", "t_final", "dt", "run") if k not in data]
    if missing:
        raise ValueError(f"config missing required field(s): {', '.join(missing)}")
    for key in ("run", "params"):
        if not isinstance(data.get(key, {}), dict):
            raise ConfigValueError(key, f"must be a JSON object, got {data[key]!r}")
    sc = Scenario(
        name=data["scenario"],
        config=RunConfig.from_dict(data["run"]),
        t_final=data["t_final"],
        dt=data["dt"],
        activation=data["activation"],
        **{k: data[k] for k in ("seed", "params", "initial_guess") if k in data},
    )
    reject_unknown(data, scenario_to_config(sc))
    return sc


def activation_preimage(act: Activation, r: float) -> float:
    """A b0 with act(b0) = r, or a ValueError when r is not a finite point of the image."""
    if not math.isfinite(r):
        raise ValueError(f"rate {r!r} is not finite")
    if act.kind == "identity":
        return float(r)
    if act.kind == "relu":
        if r < 0:
            raise ValueError(f"rate {r!r} is outside the relu image [0, inf)")
        return float(r)
    if act.kind == "sigmoid":
        if not 0.0 < r < 1.0:
            raise ValueError(f"rate {r!r} is outside the sigmoid image (0, 1)")
        return math.log(r / (1.0 - r))
    if act.kind == "tanh":
        if not -1.0 < r < 1.0:
            raise ValueError(f"rate {r!r} is outside the tanh image (-1, 1)")
        return math.atanh(r)
    # gcu: x*cos(x) is continuous and unbounded both ways, so a root always
    # exists; bracket by scanning outward, then bisect, comparing x cos(x)
    # with r (a product of residuals can overflow)
    span = 4.0
    while True:
        if not math.isfinite(2.0 * span):  # the next scan's width overflows
            raise ValueError(f"rate {r!r} has no gcu preimage the scan can reach")
        xs = np.linspace(-span, span, 4001)
        below = xs * np.cos(xs) < r  # the sign of x cos(x) - r, which may overflow
        sign_change = np.nonzero(np.diff(below))[0]
        if sign_change.size:
            lo, hi = xs[sign_change[0]].item(), xs[sign_change[0] + 1].item()
            return bisect(lambda x: x * math.cos(x) < r, lambda x: x * math.cos(x) - r, lo, hi)
        span *= 2.0


def _push_forward(sc: Scenario, f0: DensityField, controls: ControlPath) -> DensityField:
    """f0 carried to t_final under controls: the scenarios' one final-only
    solve (test3's target, the exact controls, the study), by solve_transport,
    whose calls the benchmark's per-layer metrics count."""
    return solve_transport(f0, DriftSpec(controls, sc.act), sc.time_grid, cfl=sc.config.cfl)[-1]


@dataclass(frozen=True)
class TrainingReport:
    scenario: Scenario
    state: OptimState
    f0: DensityField
    target_field: DensityField
    w1_final: float
    mean_f_T: float
    var_f_T: float
    mean_target: float
    var_target: float
    timings: dict


@dataclass(frozen=True)
class ExactControlReport:
    scenario: Scenario
    controls: ControlPath
    f0: DensityField
    target_field: DensityField
    f_T: DensityField
    w1: float
    timings: dict


@dataclass(frozen=True)
class ConvergenceReport:
    scenario: Scenario
    M_list: list[int]
    w1_by_seed: np.ndarray   # (n_seeds, n_M)
    w1_mean: np.ndarray      # (n_M,)
    slope: float             # least-squares log-log slope of mean W1 vs M
    timings: dict


def run_training(sc: Scenario) -> TrainingReport:
    """Train the scenario and report the terminal fit plus the moment summary.

    The variance gap between the final state and the target is part of the
    report on purpose: the loss constrains the target only through its first
    two moments, so matched means with mismatched variances is an expected
    outcome, not a silent failure.
    """
    t0 = time.perf_counter()
    f0 = sc.initial_density()
    g_field = sc.target_field()
    g = TargetMeasure.from_density(g_field)
    t1 = time.perf_counter()
    state = gauss_seidel_train(f0, g, sc.initial_controls(), sc.act, sc.config)
    t2 = time.perf_counter()
    f_T = state.trajectory[-1]
    report = TrainingReport(
        scenario=sc,
        state=state,
        f0=f0,
        target_field=g_field,
        w1_final=wasserstein1(f_T, g_field),
        mean_f_T=moments(f_T, 1),
        var_f_T=variance(f_T),
        mean_target=g.mean,
        var_target=variance(g_field),
        timings={"setup": t1 - t0, "train": t2 - t1, "finalize": time.perf_counter() - t2},
    )
    log.info(
        "%s: cost %.6g after %d iteration(s), W1(f_T, g) = %.4g, "
        "variance gap f_T vs target = %.4g",
        sc.name, state.cost_history[-1], state.iteration, report.w1_final,
        report.var_f_T - report.var_target,
    )
    return report


def run_exact_control(sc: Scenario) -> ExactControlReport:
    t0 = time.perf_counter()
    controls = sc.exact_controls()
    if controls is None:
        raise ValueError(f"scenario {sc.name!r} carries no exact controls")
    f0 = sc.initial_density()
    g_field = sc.target_field()
    f_T = _push_forward(sc, f0, controls)
    return ExactControlReport(
        scenario=sc, controls=controls, f0=f0, target_field=g_field, f_T=f_T,
        w1=wasserstein1(f_T, g_field),
        timings={"total": time.perf_counter() - t0},
    )


def sample_from_density(f: DensityField, n: int, rng: np.random.Generator) -> np.ndarray:
    """Inverse-CDF samples from a piecewise-constant density.

    Tiny negative averages from the solver are clipped before the CDF is
    assembled, so the sampler sees a proper distribution.
    """
    avg = np.clip(f.averages, 0.0, None)
    cum = np.concatenate(([0.0], np.cumsum(avg * f.grid.dx)))
    if cum[-1] <= 0:
        raise ValueError("density has no positive mass to sample from")
    cum /= cum[-1]
    return np.interp(rng.random(n), cum, f.grid.edges)


def run_convergence_study(sc: Scenario) -> ConvergenceReport:
    """Sample, integrate and histogram ensembles of increasing size against
    one fixed PDE solve, averaging the terminal gap over the declared seeds.

    A seed's ensembles are integrated as one array, each size its own slice
    and its own random stream; particles do not interact, so every slice
    moves bitwise as it would alone.  Seeds stay apart, which bounds the
    positions held at once by one seed's."""
    if sc.name != "convergence":
        raise ValueError(f"expected a convergence scenario, got {sc.name!r}")
    t0 = time.perf_counter()
    controls = sc.exact_controls()
    f0 = sc.initial_density()
    f_T = _push_forward(sc, f0, controls)
    M_list, n_seeds = list(sc.params["M_list"]), sc.params["n_seeds"]

    edges = np.cumsum([0, *M_list])
    slices = [slice(lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]

    def samples(seed_index: int) -> np.ndarray:
        xs = np.empty(edges[-1])
        for M, part in zip(M_list, slices):
            xs[part] = sample_from_density(f0, M, np.random.default_rng([sc.seed, seed_index, M]))
        return xs

    def one_seed(seed_index: int) -> list[float]:
        # the samples go out of reach once integrated, before the histograms
        moved = ode_integrate(samples(seed_index), controls, sc.act, sc.dt, sc.t_final)
        return [wasserstein1(particles_to_density(moved[part], sc.space_grid), f_T)
                for part in slices]

    w1 = np.array([one_seed(i) for i in range(n_seeds)])
    w1_mean = w1.mean(axis=0)
    slope = float(np.polyfit(np.log10(M_list), np.log10(w1_mean), 1)[0])
    return ConvergenceReport(
        scenario=sc, M_list=M_list, w1_by_seed=w1, w1_mean=w1_mean, slope=slope,
        timings={"total": time.perf_counter() - t0},
    )


def run_scenario(sc: Scenario):
    """Dispatch to the runner matching the scenario family."""
    act = sc.act
    if not act.bounded:
        # once per run: every family solves the transport with this activation
        log.warning(
            "activation %r is unbounded; the mean-field limit assumes a bounded "
            "activation and compactly supported initial data",
            act.kind,
        )
    if sc.name in TRAINING_NAMES:
        return run_training(sc)
    if sc.name == "convergence":
        return run_convergence_study(sc)
    return run_exact_control(sc)

