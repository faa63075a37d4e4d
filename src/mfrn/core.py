"""Shared types: activations, time grids, control paths, run configuration.

Controls are stored as samples on the solver's time grid and evaluated by
piecewise-linear interpolation, so the optimizer, the particle integrators,
and the transport solver all read the same representation.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

_ACTIVATION_KINDS = ("identity", "relu", "sigmoid", "tanh", "gcu")


class ConfigValueError(ValueError):
    """A config value that cannot be used.  ``key``, its dotted path in the file
    (``run.n_cells``, ``params.beta``), starts the message and locates its line."""

    def __init__(self, key: str, problem: str):
        super().__init__(f"{key} {problem}")
        self.key = key


def is_number(v, integer: bool = False) -> bool:
    """A finite real (an integer if integer), numpy's included, in float range, not a bool."""
    try:
        return (isinstance(v, numbers.Integral if integer else numbers.Real)
                and not isinstance(v, bool) and math.isfinite(v))
    except OverflowError:  # an int beyond float range
        return False


def reject_unknown(section: dict, allowed, prefix: str = "") -> None:
    """A ConfigValueError naming the first key of section that allowed lacks."""
    unknown = sorted(set(section) - set(allowed))
    if unknown:
        raise ConfigValueError(prefix + unknown[0],
                               f"is not a known key; expected one of {sorted(allowed)}")


def bisect(below: Callable, residual: Callable, lo: float, hi: float) -> float:
    """A root of residual in [lo, hi], whose sides below tells apart: halve
    toward the side whose below differs from lo's until no float lies between
    the ends, then return the end with the smaller |residual|, lo on a tie."""
    lo_below = below(lo)
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        if below(mid) == lo_below:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return lo if abs(residual(lo)) <= abs(residual(hi)) else hi


@dataclass(frozen=True)
class Activation:
    """Scalar activation applied componentwise by every solver.

    ``bounded`` records whether the range is bounded; transport with an
    unbounded activation is allowed but the theory behind the mean-field
    limit wants a bounded one, so ``scenarios.run_scenario`` logs a warning.
    """

    kind: str

    def __post_init__(self) -> None:
        # a name is read without case or surrounding space, and kept normalized
        kind = self.kind.strip().lower() if isinstance(self.kind, str) else self.kind
        if kind not in _ACTIVATION_KINDS:
            raise ConfigValueError("activation",
                                   f"must be one of {_ACTIVATION_KINDS}, got {kind!r}")
        object.__setattr__(self, "kind", kind)

    @property
    def bounded(self) -> bool:
        return self.kind in ("sigmoid", "tanh")

    def value(self, x, out=None):
        """The activation at x, written into out when given (a float array of
        x's shape, which may be x itself); bitwise the same either way."""
        x = np.asarray(x, dtype=float)
        if self.kind == "identity":
            return np.add(x, 0.0, out=out)
        if self.kind == "relu":
            return np.maximum(x, 0.0, out=out)
        if self.kind == "sigmoid":
            # exp(-|x|) never overflows: 1 / (1 + e) for x >= 0, e / (1 + e) below
            e = np.exp(-np.abs(x))
            return np.divide(np.where(x >= 0, 1.0, e), 1.0 + e, out=out)
        if self.kind == "tanh":
            return np.tanh(x, out=out)
        # gcu: growing cosine unit x * cos(x)
        return np.multiply(x, np.cos(x), out=out)

    def derivative(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "identity":
            return np.ones_like(x)
        if self.kind == "relu":
            # subgradient choice at the kink: derivative at 0 is 0
            return np.where(x > 0.0, 1.0, 0.0)
        if self.kind == "sigmoid":
            s = self.value(x)
            return s * (1.0 - s)
        if self.kind == "tanh":
            t = np.tanh(x)
            return 1.0 - t * t
        return np.cos(x) - x * np.sin(x)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid 0 = t_0 < ... < t_N = t_final with N = n_steps."""

    t_final: float
    dt: float
    n_steps: int

    def __post_init__(self) -> None:
        # the network's depth and step live here, so a bad one is named here
        for key in ("t_final", "dt"):
            if not is_number(getattr(self, key)):
                raise ConfigValueError(key, f"must be a finite number, got "
                                            f"{getattr(self, key)!r}")
        if not is_number(self.n_steps, integer=True):
            raise ValueError(f"TimeGrid n_steps must be an integer, got {self.n_steps!r}")
        if abs(self.n_steps * self.dt - self.t_final) > 1e-10 * max(1.0, self.t_final):
            raise ConfigValueError("t_final", f"{self.t_final!r} is not a whole multiple of "
                                              f"dt = {self.dt!r}: inconsistent grid")
        if self.t_final <= 0 or self.dt <= 0 or self.n_steps < 1:
            raise ValueError("TimeGrid needs t_final > 0, dt > 0, n_steps >= 1")

    @classmethod
    def from_step(cls, t_final: float, dt: float) -> "TimeGrid":
        if not (is_number(dt) and dt > 0):
            raise ConfigValueError("dt", f"must be finite and > 0, got {dt!r}")
        if not (is_number(t_final) and t_final > 0):
            raise ConfigValueError("t_final", f"must be finite and > 0, got {t_final!r}")
        n = t_final / dt
        if not math.isfinite(n):  # round() would raise OverflowError
            raise ConfigValueError("dt", f"= {dt!r} gives t_final / dt = {n!r} steps")
        return cls(t_final=t_final, dt=dt, n_steps=round(n))

    @functools.cached_property
    def nodes(self) -> np.ndarray:
        # built once per grid and read-only, since every control read uses it
        nodes = np.linspace(0.0, self.t_final, self.n_steps + 1)
        nodes.flags.writeable = False
        return nodes


@dataclass(frozen=True)
class ControlPath:
    """Sampled control pair (w, b) on a TimeGrid, piecewise linear in time.

    The training iterates live in the admissible set that pins w(0) = b(0) = 0;
    the container itself does not enforce the pin because verification runs
    (constant-bias transports, closed-form solutions) legitimately use
    unpinned paths.  The optimizer re-pins after every update.

    The samples are read-only copies, so a scalar time is checked and
    interpolated once: eval_w and eval_b keep the value read at each float
    time, and the RK4 particle stages read the same few hundred times for
    every block.
    """

    grid: TimeGrid
    w: np.ndarray
    b: np.ndarray

    def __post_init__(self) -> None:
        w = np.array(self.w, dtype=float)
        b = np.array(self.b, dtype=float)
        w.flags.writeable = b.flags.writeable = False
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "b", b)
        # not fields: equality, repr and replace() see only the samples
        object.__setattr__(self, "_w_at", {})
        object.__setattr__(self, "_b_at", {})
        n = self.grid.n_steps + 1
        if w.shape != (n,) or b.shape != (n,):
            raise ValueError(
                f"control arrays must have shape ({n},) = n_steps + 1 samples; "
                f"got w {w.shape}, b {b.shape}"
            )
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
            raise ValueError("control samples must be finite")

    @classmethod
    def zero(cls, grid: TimeGrid) -> "ControlPath":
        n = grid.n_steps + 1
        return cls(grid, np.zeros(n), np.zeros(n))

    @classmethod
    def from_functions(
        cls, grid: TimeGrid, w_fn: Callable[[np.ndarray], np.ndarray],
        b_fn: Callable[[np.ndarray], np.ndarray],
    ) -> "ControlPath":
        return cls(grid, w_fn(grid.nodes), b_fn(grid.nodes))  # __post_init__ copies

    @classmethod
    def constant(cls, grid: TimeGrid, w: float, b: float) -> "ControlPath":
        n = grid.n_steps + 1
        return cls(grid, np.full(n, float(w)), np.full(n, float(b)))

    def _check_time(self, t):
        t = np.asarray(t, dtype=float)
        if t.size and 0.0 <= t.min() and t.max() <= self.grid.t_final:
            return t
        # NaN fails both bounds; np.interp reads a time in the slack as the end sample
        slack = 1e-12 * max(1.0, self.grid.t_final)
        if not np.all((-slack <= t) & (t <= self.grid.t_final + slack)):
            raise ValueError(
                f"time {t!r} outside control domain [0, {self.grid.t_final}]"
            )
        return t

    def _interp(self, t, samples, memo):
        if not isinstance(t, float):  # an array of times is read afresh
            return np.interp(self._check_time(t), self.grid.nodes, samples)
        v = memo.get(t)  # only a checked time is stored, so NaN never hits
        if v is None:
            v = memo[t] = np.interp(self._check_time(t), self.grid.nodes, samples)
        return v

    def eval_w(self, t):
        return self._interp(t, self.w, self._w_at)

    def eval_b(self, t):
        return self._interp(t, self.b, self._b_at)

    def pinned(self) -> "ControlPath":
        """Copy with the admissible-set pin w(0) = b(0) = 0 applied."""
        w = self.w.copy()
        b = self.b.copy()
        w[0] = 0.0
        b[0] = 0.0
        return ControlPath(self.grid, w, b)

    def c0_norm(self) -> float:
        """Max over time nodes of max(|w|, |b|)."""
        return float(max(np.max(np.abs(self.w)), np.max(np.abs(self.b))))

    def c0_distance(self, other: "ControlPath") -> float:
        if other.grid != self.grid:
            raise ValueError("control paths live on different time grids")
        dw = np.max(np.abs(self.w - other.w))
        db = np.max(np.abs(self.b - other.b))
        return float(max(dw, db))

    def lipschitz_budget(self) -> float:
        """Sum of the discrete Lipschitz constants of w and b.

        Reported for diagnostics only; the admissible set's budget is not
        enforced as a hard constraint.
        """
        dt = self.grid.dt
        lw = float(np.max(np.abs(np.diff(self.w)))) / dt
        lb = float(np.max(np.abs(np.diff(self.b)))) / dt
        return lw + lb


@dataclass(frozen=True)
class RunConfig:
    """The ``run`` section of a config file, whose keys are these fields."""

    gamma_w: float          # Tikhonov weight on w
    gamma_b: float          # Tikhonov weight on b
    tol: float              # stopping tolerance on the relative control change
    max_armijo: int         # max step-halving trials per outer iteration
    cfl: float              # advisory CFL number for the fixed-step transport solver
    domain: tuple[float, float]  # spatial interval [a, b]
    n_cells: int            # uniform cells over the domain
    dimension: int          # state dimension; only 1 is accepted

    def __post_init__(self) -> None:
        # the types first, as the file reader names them, then the ranges
        dom = self.domain
        if not (isinstance(dom, (list, tuple)) and len(dom) == 2 and all(map(is_number, dom))):
            raise ConfigValueError("run.domain",
                                   f"must be a list of two finite numbers, got {dom!r}")
        object.__setattr__(self, "domain", (float(dom[0]), float(dom[1])))
        for f in fields(self):
            if f.name == "domain":
                continue
            v, integer = getattr(self, f.name), f.type == "int"
            if not is_number(v, integer):
                kind = "an integer" if integer else "a finite number"
                raise ConfigValueError(f"run.{f.name}", f"must be {kind}, got {v!r}")
            object.__setattr__(self, f.name, int(v) if integer else float(v))
        a, b = self.domain
        for key, ok, rule in (
                ("tol", self.tol > 0, "> 0"), ("max_armijo", self.max_armijo >= 1, ">= 1"),
                ("cfl", 0 < self.cfl <= 1, "in (0, 1]"), ("gamma_w", self.gamma_w >= 0, ">= 0"),
                ("n_cells", self.n_cells >= 8, ">= 8"), ("gamma_b", self.gamma_b >= 0, ">= 0"),
                ("dimension", self.dimension == 1, "1 (the grid solver is 1-d)"),
                ("domain", a < b and math.isfinite(b - a),
                 "a finite interval [a, b] with a < b and a finite width b - a")):
            if not ok:
                raise ConfigValueError(f"run.{key}", f"must be {rule}, got {getattr(self, key)!r}")

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        """Every field once and no other key; __post_init__ checks the values."""
        names = [f.name for f in fields(cls)]
        missing = [k for k in names if k not in data]
        if missing:
            raise ConfigValueError("run", f"is missing field(s): {', '.join(missing)}")
        reject_unknown(data, names, "run.")
        return cls(**data)

    def to_dict(self) -> dict:
        return {f.name: list(self.domain) if f.name == "domain" else getattr(self, f.name)
                for f in fields(self)}
