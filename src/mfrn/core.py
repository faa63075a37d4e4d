"""Shared types: activations, time grids, control paths, run configuration.

Controls are stored as samples on the solver's time grid and evaluated by
piecewise-linear interpolation, so the optimizer, the particle integrators,
and the transport solver all read the same representation.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

_ACTIVATION_KINDS = ("identity", "relu", "sigmoid", "tanh", "gcu")


@dataclass(frozen=True)
class Activation:
    """Scalar activation applied componentwise by every solver.

    ``bounded`` records whether the range is bounded; transport with an
    unbounded activation is allowed but the theory behind the mean-field
    limit wants a bounded one, so solvers log a warning (see fvm).
    """

    kind: str

    def __post_init__(self) -> None:
        if self.kind not in _ACTIVATION_KINDS:
            raise ValueError(
                f"unknown activation {self.kind!r}; expected one of {_ACTIVATION_KINDS}"
            )

    @property
    def bounded(self) -> bool:
        return self.kind in ("sigmoid", "tanh")

    def value(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "identity":
            return x + 0.0
        if self.kind == "relu":
            return np.maximum(x, 0.0)
        if self.kind == "sigmoid":
            # exp(-|x|) never overflows: 1 / (1 + e) for x >= 0, e / (1 + e) below
            e = np.exp(-np.abs(x))
            return np.where(x >= 0, 1.0, e) / (1.0 + e)
        if self.kind == "tanh":
            return np.tanh(x)
        # gcu: growing cosine unit x * cos(x)
        return x * np.cos(x)

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

    def zeros(self) -> tuple[float, ...] | None:
        """Zero set of the activation, when it is discrete.

        Returns a finite generator description: identity and tanh vanish only
        at 0, sigmoid never vanishes (empty tuple), gcu vanishes at 0 and at
        the cosine zeros (handled by the caller since there are infinitely
        many). relu has a whole half-line of zeros, so None.
        """
        if self.kind in ("identity", "tanh"):
            return (0.0,)
        if self.kind == "sigmoid":
            return ()
        return None


def activation(name: str) -> Activation:
    return Activation(name.strip().lower())


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid 0 = t_0 < ... < t_N = t_final with N = n_steps."""

    t_final: float
    dt: float
    n_steps: int

    def __post_init__(self) -> None:
        if self.t_final <= 0 or self.dt <= 0 or self.n_steps < 1:
            raise ValueError("TimeGrid needs t_final > 0, dt > 0, n_steps >= 1")
        if abs(self.n_steps * self.dt - self.t_final) > 1e-10 * max(1.0, self.t_final):
            raise ValueError(
                f"inconsistent grid: n_steps * dt = {self.n_steps * self.dt!r} "
                f"but t_final = {self.t_final!r}"
            )

    @classmethod
    def from_step(cls, t_final: float, dt: float) -> "TimeGrid":
        if not dt > 0:
            raise ValueError(f"dt must be > 0, got {dt!r}")
        if not 0 < t_final < math.inf:
            raise ValueError(f"t_final must be finite and > 0, got {t_final!r}")
        return cls(t_final=t_final, dt=dt, n_steps=round(t_final / dt))

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
    """

    grid: TimeGrid
    w: np.ndarray
    b: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.w, dtype=float)
        b = np.asarray(self.b, dtype=float)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "b", b)
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
        t = grid.nodes.copy()  # w_fn = identity must not hand out the read-only nodes
        return cls(grid, np.asarray(w_fn(t), dtype=float), np.asarray(b_fn(t), dtype=float))

    @classmethod
    def constant(cls, grid: TimeGrid, w: float, b: float) -> "ControlPath":
        n = grid.n_steps + 1
        return cls(grid, np.full(n, float(w)), np.full(n, float(b)))

    def _check_time(self, t):
        if isinstance(t, float) and 0.0 <= t <= self.grid.t_final:
            return t  # the solvers' case: a scalar time inside the domain
        t = np.asarray(t, dtype=float)
        slack = 1e-12 * max(1.0, self.grid.t_final)
        if np.any(t < -slack) or np.any(t > self.grid.t_final + slack):
            raise ValueError(
                f"time {t!r} outside control domain [0, {self.grid.t_final}]"
            )
        return np.clip(t, 0.0, self.grid.t_final)

    def eval_w(self, t):
        t = self._check_time(t)
        return np.interp(t, self.grid.nodes, self.w)

    def eval_b(self, t):
        t = self._check_time(t)
        return np.interp(t, self.grid.nodes, self.b)

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
        lw = float(np.max(np.abs(np.diff(self.w)))) / dt if self.grid.n_steps else 0.0
        lb = float(np.max(np.abs(np.diff(self.b)))) / dt if self.grid.n_steps else 0.0
        return lw + lb


# RunConfig fields are the exact keys of the JSON config format.
_RUNCONFIG_REQUIRED = (
    "gamma_w", "gamma_b", "tol", "max_armijo", "cfl", "domain", "n_cells", "dimension",
)


@dataclass(frozen=True)
class RunConfig:
    gamma_w: float          # Tikhonov weight on w
    gamma_b: float          # Tikhonov weight on b
    tol: float              # stopping tolerance on the relative control change
    max_armijo: int         # max step-halving trials per outer iteration
    cfl: float              # advisory CFL number for the fixed-step transport solver
    domain: tuple[float, float]  # spatial interval [a, b]
    n_cells: int            # uniform cells over the domain
    dimension: int          # state dimension; only 1 is accepted

    def __post_init__(self) -> None:
        object.__setattr__(self, "domain", (float(self.domain[0]), float(self.domain[1])))
        if not self.tol > 0:
            raise ValueError(f"tol must be > 0, got {self.tol!r}")
        if not (0.0 < self.cfl <= 1.0):
            raise ValueError(f"cfl must lie in (0, 1], got {self.cfl!r}")
        if self.n_cells < 8:
            raise ValueError(f"n_cells must be >= 8, got {self.n_cells!r}")
        if self.gamma_w < 0:
            raise ValueError(f"gamma_w must be >= 0, got {self.gamma_w!r}")
        if self.gamma_b < 0:
            raise ValueError(f"gamma_b must be >= 0, got {self.gamma_b!r}")
        if self.max_armijo < 1:
            raise ValueError(f"max_armijo must be >= 1, got {self.max_armijo!r}")
        if self.dimension != 1:
            raise ValueError(f"dimension must be 1 (the grid solver is 1-d), got {self.dimension!r}")
        a, b = self.domain
        if not (math.isfinite(a) and math.isfinite(b) and a < b):
            raise ValueError(f"domain must be a finite interval [a, b] with a < b, got {self.domain!r}")

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        missing = [k for k in _RUNCONFIG_REQUIRED if k not in data]
        if missing:
            raise ValueError(f"config missing required field(s): {', '.join(missing)}")
        return cls(
            gamma_w=float(data["gamma_w"]),
            gamma_b=float(data["gamma_b"]),
            tol=float(data["tol"]),
            max_armijo=int(data["max_armijo"]),
            cfl=float(data["cfl"]),
            domain=(float(data["domain"][0]), float(data["domain"][1])),
            n_cells=int(data["n_cells"]),
            dimension=int(data["dimension"]),
        )

    def to_dict(self) -> dict:
        return {
            "gamma_w": self.gamma_w,
            "gamma_b": self.gamma_b,
            "tol": self.tol,
            "max_armijo": self.max_armijo,
            "cfl": self.cfl,
            "domain": [self.domain[0], self.domain[1]],
            "n_cells": self.n_cells,
            "dimension": self.dimension,
        }
