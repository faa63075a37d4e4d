"""Probability-measure utilities shared by the solver and the diagnostics.

The 1-d Wasserstein-1 distance between two grid densities is computed exactly
as the area between their cumulative distribution functions.  A grid density
is piecewise constant, so its CDF is piecewise linear; between consecutive
points of the merged cell edges of the two grids the CDF difference is
affine, and each piece integrates in closed form.  Particle ensembles enter
through their histogram on a grid (``particles_to_density``).
"""

from __future__ import annotations

import logging

import numpy as np

from .fvm import DensityField, Grid1D

log = logging.getLogger(__name__)

_MASS_TOL = 1e-8


def _cdf_at(f: DensityField, x: np.ndarray) -> np.ndarray:
    """The CDF of a unit-mass density at the points x."""
    total = f.mass
    if abs(total - 1.0) > _MASS_TOL:
        raise ValueError(f"density field is not normalized: mass = {total!r}")
    cum = np.concatenate([[0.0], np.cumsum(f.averages) * f.grid.dx]) / total
    cum[-1] = 1.0
    return np.interp(x, f.grid.edges, cum, left=0.0, right=1.0)


def wasserstein1(mu: DensityField, nu: DensityField) -> float:
    """Exact W1 between two grid densities, on the same grid or on two."""
    points = np.unique(np.concatenate([mu.grid.edges, nu.grid.edges]))
    d = _cdf_at(mu, points) - _cdf_at(nu, points)
    d0, d1 = d[:-1], d[1:]
    h = points[1:] - points[:-1]
    same_sign = d0 * d1 >= 0
    trapezoid = 0.5 * h * (np.abs(d0) + np.abs(d1))
    denom = np.where(same_sign, 1.0, np.abs(d1 - d0))  # > 0: d0 * d1 < 0 where signs differ
    crossing = 0.5 * h * (d0 * d0 + d1 * d1) / denom
    return float(np.sum(np.where(same_sign, trapezoid, crossing)))


def moments(f: DensityField, k: int) -> float:
    """k-th raw moment of a grid density by the midpoint rule."""
    if k < 0:
        raise ValueError("moment order must be >= 0")
    return float(f.grid.dx * np.sum(f.grid.centers**k * f.averages))


def variance(f: DensityField) -> float:
    """Second moment less squared mean, floored at the 0 roundoff can undershoot."""
    m1 = moments(f, 1)
    return max(moments(f, 2) - m1 * m1, 0.0)


def particles_to_density(x: np.ndarray, grid: Grid1D) -> DensityField:
    """Histogram of the particle positions x (a 1-d array) as a unit-mass
    density on the grid.

    Particles outside the domain are counted, reported via a warning, and the
    remaining mass is renormalized to one.  A NaN or infinite position is no
    place at all, and raises ValueError.
    """
    x = np.asarray(x)
    if x.ndim != 1:
        raise ValueError(f"histogram projection requires a one-dimensional array "
                         f"of positions, got shape {x.shape}")
    counts, _ = np.histogram(x, bins=grid.edges)
    inside = int(counts.sum())
    outside = x.size - inside
    if outside > 0:  # the histogram drops non-finite positions too
        bad = x.size - int(np.count_nonzero(np.isfinite(x)))
        if bad:
            raise ValueError(f"{bad} of {x.size} particle positions are not finite "
                             "(NaN or infinite); cannot form a density")
        log.warning(
            "%d of %d particles fall outside [%g, %g]; renormalizing the rest",
            outside, x.size, grid.a, grid.b,
        )
    if inside == 0:
        raise ValueError("no particles inside the domain; cannot form a density")
    return DensityField(grid, counts / (inside * grid.dx), 0.0)
