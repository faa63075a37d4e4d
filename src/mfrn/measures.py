"""Probability-measure utilities shared by the solver and the diagnostics.

The 1-d Wasserstein-1 distance is computed exactly as the area between
cumulative distribution functions.  Both grid densities (piecewise-constant,
hence piecewise-linear CDF) and weighted atom sets (step CDF) are supported,
in any combination: between consecutive breakpoints of the merged breakpoint
set the CDF difference is affine, so each piece integrates in closed form.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .core import Activation
from .fvm import DensityField, Grid1D
from .particle import ParticleEnsemble

log = logging.getLogger(__name__)

_MASS_TOL = 1e-8


@dataclass(frozen=True)
class EmpiricalMeasure:
    """Weighted atoms: nonnegative weights summing to one."""

    locations: np.ndarray
    weights: np.ndarray | None = None

    def __post_init__(self) -> None:
        locs = np.atleast_1d(np.asarray(self.locations, dtype=float))
        if locs.ndim != 1 or locs.size == 0:
            raise ValueError("locations must be a nonempty 1-d array")
        if self.weights is None:
            w = np.full(locs.size, 1.0 / locs.size)
        else:
            w = np.atleast_1d(np.asarray(self.weights, dtype=float))
        if w.shape != locs.shape:
            raise ValueError("weights must match locations")
        if np.any(w < 0):
            raise ValueError("weights must be nonnegative")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ValueError(f"weights must sum to 1 (got {w.sum()!r})")
        order = np.argsort(locs, kind="stable")
        object.__setattr__(self, "locations", locs[order])
        object.__setattr__(self, "weights", w[order])


class _Cdf:
    """Breakpoints plus left/right limit evaluation for a unit-mass CDF."""

    def __init__(self, breakpoints: np.ndarray, left, right):
        self.breakpoints = breakpoints
        self.left = left      # F(x-) as a vectorized callable
        self.right = right    # F(x) right-continuous


def _cdf_of(m) -> _Cdf:
    if isinstance(m, DensityField):
        total = m.mass
        if abs(total - 1.0) > _MASS_TOL:
            raise ValueError(f"density field is not normalized: mass = {total!r}")
        edges = m.grid.edges
        cum = np.concatenate([[0.0], np.cumsum(m.averages) * m.grid.dx]) / total
        cum[-1] = 1.0

        def interp(x):
            return np.interp(x, edges, cum, left=0.0, right=1.0)

        return _Cdf(edges, interp, interp)
    if isinstance(m, EmpiricalMeasure):
        locs = m.locations
        cum = np.cumsum(m.weights)
        cum = cum / cum[-1]

        def right(x):
            idx = np.searchsorted(locs, x, side="right")
            return np.where(idx > 0, cum[np.maximum(idx - 1, 0)], 0.0)

        def left(x):
            idx = np.searchsorted(locs, x, side="left")
            return np.where(idx > 0, cum[np.maximum(idx - 1, 0)], 0.0)

        return _Cdf(locs, left, right)
    raise TypeError(f"unsupported measure type {type(m).__name__}")


def wasserstein1(mu, nu) -> float:
    """Exact W1 between grid densities and/or weighted atom sets."""
    fa, fb = _cdf_of(mu), _cdf_of(nu)
    points = np.unique(np.concatenate([fa.breakpoints, fb.breakpoints]))
    if points.size < 2:
        return 0.0
    x0, x1 = points[:-1], points[1:]
    d0 = np.asarray(fa.right(x0) - fb.right(x0))
    d1 = np.asarray(fa.left(x1) - fb.left(x1))
    h = x1 - x0
    same_sign = d0 * d1 >= 0
    trapezoid = 0.5 * h * (np.abs(d0) + np.abs(d1))
    denom = np.where(same_sign, 1.0, np.abs(d1 - d0))
    crossing = 0.5 * h * (d0 * d0 + d1 * d1) / np.where(denom == 0.0, 1.0, denom)
    return float(np.sum(np.where(same_sign, trapezoid, crossing)))


def moments(m, k: int) -> float:
    """k-th raw moment; midpoint rule for densities, exact sum for atoms."""
    if k < 0:
        raise ValueError("moment order must be >= 0")
    if isinstance(m, DensityField):
        x = m.grid.centers
        return float(m.grid.dx * np.sum(x**k * m.averages))
    if isinstance(m, EmpiricalMeasure):
        return float(np.sum(m.weights * m.locations**k))
    raise TypeError(f"unsupported measure type {type(m).__name__}")


def variance(m) -> float:
    m1 = moments(m, 1)
    return moments(m, 2) - m1 * m1


def steady_state_support(
    w_bar: float, b_bar: float, act: Activation, domain: tuple[float, float] | None = None
) -> np.ndarray:
    """Support points of the long-time concentration state for frozen controls.

    Mass accumulates where the speed vanishes: points y with
    act(w_bar * y + b_bar) = 0, i.e. y = (z - b_bar) / w_bar over the zeros z
    of the activation.  gcu has infinitely many zeros, so a bounded domain is
    required to enumerate them; pass the solver domain.
    """
    if w_bar == 0.0:
        raise ValueError("w_bar = 0 leaves the zero equation rank-deficient in y")
    zeros = act.zeros()
    if zeros is None:
        if act.kind == "gcu":
            if domain is None:
                raise ValueError("gcu has infinitely many zeros; a domain is required")
            lo = w_bar * domain[0] + b_bar
            hi = w_bar * domain[1] + b_bar
            lo, hi = min(lo, hi), max(lo, hi)
            zs = [0.0] if lo <= 0.0 <= hi else []
            # cosine zeros (2k+1) * pi/2 inside [lo, hi]
            k_min = math.ceil((2.0 * lo / math.pi - 1.0) / 2.0)
            k_max = math.floor((2.0 * hi / math.pi - 1.0) / 2.0)
            zs += [(2 * k + 1) * math.pi / 2.0 for k in range(k_min, k_max + 1)]
            zeros = tuple(zs)
        else:
            raise ValueError(f"activation {act.kind!r} has a non-discrete zero set")
    y = np.sort(np.array([(z - b_bar) / w_bar for z in zeros], dtype=float))
    if domain is not None:
        y = y[(y >= domain[0]) & (y <= domain[1])]
    residual = np.abs(act.value(w_bar * y + b_bar)) if y.size else np.zeros(0)
    if y.size and np.max(residual) > 1e-10:
        raise AssertionError(f"steady-state residual {np.max(residual):.3e} exceeds 1e-10")
    return y


def particles_to_density(ens: ParticleEnsemble, grid: Grid1D) -> DensityField:
    """Histogram of particle states as a unit-mass density on the grid.

    Particles outside the domain are counted, reported via a warning, and the
    remaining mass is renormalized to one.
    """
    if ens.dim != 1:
        raise ValueError("histogram projection requires one-dimensional states")
    x = ens.states[:, 0]
    counts, _ = np.histogram(x, bins=grid.edges)
    inside = int(counts.sum())
    outside = ens.size - inside
    if outside > 0:
        log.warning(
            "%d of %d particles fall outside [%g, %g]; renormalizing the rest",
            outside, ens.size, grid.a, grid.b,
        )
    if inside == 0:
        raise ValueError("no particles inside the domain; cannot form a density")
    return DensityField(grid, counts / (inside * grid.dx), 0.0)
