"""Reference computations the benchmark checks the program's outputs against.

Nothing here imports mfrn: every formula is written out again so that a bug
in the package cannot also hide in the check.  Densities are cell averages on
uniform edges; measures are either such densities or sets of equally weighted
atoms.  ``test_oracles.py`` compares these functions with scipy.
"""

from __future__ import annotations

import csv
import math

import numpy as np

SQRT2 = math.sqrt(2.0)


def uniform_edges(a: float, b: float, n_cells: int) -> np.ndarray:
    return a + (b - a) / n_cells * np.arange(n_cells + 1)


def gaussian_pdf(x, mu: float, s: float):
    x = np.asarray(x, dtype=float)
    return np.exp(-0.5 * ((x - mu) / s) ** 2) / (s * math.sqrt(2.0 * math.pi))


def gaussian_cell_averages(edges: np.ndarray, mu: float, s: float) -> np.ndarray:
    """Exact cell averages of the N(mu, s^2) density: CDF differences over dx."""
    cdf = np.array([0.5 * math.erfc(-(e - mu) / (s * SQRT2)) for e in edges])
    return np.diff(cdf) / np.diff(edges)


def gaussian_derivative_cell_averages(edges: np.ndarray, mu: float, s: float) -> np.ndarray:
    """Exact cell averages of d/dx of the N(mu, s^2) density: point-value
    differences of the density over dx."""
    return np.diff(gaussian_pdf(edges, mu, s)) / np.diff(edges)


# --- Wasserstein-1 as the area between two CDFs ------------------------------

def _density_cdf(edges: np.ndarray, avg: np.ndarray):
    """CDF knots of a piecewise-constant density, normalised to unit mass."""
    cum = np.concatenate(([0.0], np.cumsum(avg * np.diff(edges))))
    return edges, cum / cum[-1]


def _abs_integral_of_linear(d0: np.ndarray, d1: np.ndarray, h: np.ndarray) -> float:
    """Sum over pieces of the integral of |d| where d runs linearly d0 -> d1."""
    a0, a1 = np.abs(d0), np.abs(d1)
    same = d0 * d1 >= 0.0
    total = a0 + a1
    crossing = np.divide(d0 * d0 + d1 * d1, total, out=np.zeros_like(total), where=total > 0)
    return float(np.sum(np.where(same, 0.5 * h * total, 0.5 * h * crossing)))


def w1_atoms_density(points, edges: np.ndarray, avg: np.ndarray) -> float:
    """W1 between equally weighted atoms and a piecewise-constant density.

    On every interval between consecutive merged breakpoints the atoms' CDF is
    constant and the density's CDF is affine, so |F - G| integrates exactly.
    """
    x = np.sort(np.asarray(points, dtype=float))
    knots_x, knots_F = _density_cdf(edges, avg)
    grid = np.union1d(x, knots_x)
    lo, hi = grid[:-1], grid[1:]
    # atoms' CDF on (lo, hi): share of atoms at or below lo
    g = np.searchsorted(x, lo, side="right") / x.size
    f_lo = np.interp(lo, knots_x, knots_F, left=0.0, right=1.0)
    f_hi = np.interp(hi, knots_x, knots_F, left=0.0, right=1.0)
    return _abs_integral_of_linear(f_lo - g, f_hi - g, hi - lo)


def w1_density_density(edges_a, avg_a, edges_b, avg_b) -> float:
    """W1 between two piecewise-constant densities (both CDFs affine per piece)."""
    xa, Fa = _density_cdf(np.asarray(edges_a, float), np.asarray(avg_a, float))
    xb, Fb = _density_cdf(np.asarray(edges_b, float), np.asarray(avg_b, float))
    grid = np.union1d(xa, xb)
    d = (np.interp(grid, xa, Fa, left=0.0, right=1.0)
         - np.interp(grid, xb, Fb, left=0.0, right=1.0))
    return _abs_integral_of_linear(d[:-1], d[1:], np.diff(grid))


def density_quantiles(edges: np.ndarray, avg: np.ndarray, n: int) -> np.ndarray:
    """Points at the mid-quantiles (i + 1/2)/n of a piecewise-constant density."""
    mass = np.clip(avg, 0.0, None) * np.diff(edges)
    cum = np.concatenate(([0.0], np.cumsum(mass)))
    u = (np.arange(n) + 0.5) / n * cum[-1]
    j = np.clip(np.searchsorted(cum, u, side="right") - 1, 0, mass.size - 1)
    return edges[j] + (u - cum[j]) / mass[j] * (edges[j + 1] - edges[j])


# --- characteristic flow dx/dt = act(w(t) x + b(t)) --------------------------

def activation(kind: str):
    if kind == "identity":
        return lambda z: z
    if kind == "tanh":
        return lambda z: 1.0 - 2.0 / (np.exp(2.0 * z) + 1.0)
    if kind == "sigmoid":
        return lambda z: 0.5 * (1.0 + np.tanh(0.5 * z))
    raise ValueError(f"no reference formula for activation {kind!r}")


def piecewise_linear(t_nodes: np.ndarray, values: np.ndarray, t: float) -> float:
    """Value at t of the broken line through (t_nodes, values)."""
    k = int(np.clip(np.searchsorted(t_nodes, t, side="right") - 1, 0, t_nodes.size - 2))
    theta = (t - t_nodes[k]) / (t_nodes[k + 1] - t_nodes[k])
    return float((1.0 - theta) * values[k] + theta * values[k + 1])


def rk4_flow(x0, t_nodes, w, b, kind: str, dt: float, t_final: float) -> np.ndarray:
    """Classical RK4 for every particle under piecewise-linear controls."""
    act = activation(kind)
    n_steps = round(t_final / dt)

    def rhs(x, t):
        return act(piecewise_linear(t_nodes, w, t) * x + piecewise_linear(t_nodes, b, t))

    x = np.asarray(x0, dtype=float).copy()
    for k in range(n_steps):
        t = k * dt
        k1 = rhs(x, t)
        k2 = rhs(x + 0.5 * dt * k1, t + 0.5 * dt)
        k3 = rhs(x + 0.5 * dt * k2, t + 0.5 * dt)
        k4 = rhs(x + dt * k3, t + dt)
        x = x + dt * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
    return x


# --- artifacts written by `mfrn run` -----------------------------------------

def read_csv(path) -> dict[str, np.ndarray]:
    """Numeric columns of a CSV with one header line; empty cells become nan."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    return {name: np.array([float(r[i]) if r[i] else math.nan for r in body])
            for i, name in enumerate(header)}


def trapezoid(values: np.ndarray, dt: float) -> float:
    return float(dt * (np.sum(values) - 0.5 * (values[0] + values[-1])))


def training_cost(f_final: np.ndarray, target: np.ndarray, centers: np.ndarray, dx: float,
                  w: np.ndarray, b: np.ndarray, dt: float,
                  gamma_w: float, gamma_b: float) -> float:
    """Mean-field loss of the final density against the target's first two
    moments (midpoint rule), plus the Tikhonov terms on the controls."""
    m1 = dx * np.sum(centers * target)
    m2 = dx * np.sum(centers**2 * target)
    terminal = dx * np.sum((centers**2 - 2.0 * m1 * centers + m2) * f_final)
    return float(terminal + 0.5 * gamma_w * trapezoid(w**2, dt)
                 + 0.5 * gamma_b * trapezoid(b**2, dt))


def loglog_slope(m, y) -> float:
    """Least-squares slope of log10 y against log10 m."""
    lx, ly = np.log10(np.asarray(m, float)), np.log10(np.asarray(y, float))
    lx0 = lx - lx.mean()
    return float(np.sum(lx0 * (ly - ly.mean())) / np.sum(lx0 * lx0))
