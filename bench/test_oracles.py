"""The benchmark's reference computations against scipy, and its own wiring.

    python3 -m pytest -q bench

scipy is the oracle here and only here; the benchmark itself needs the
standard library and numpy.
"""

import json
import math
import os
import sys

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp
from scipy.stats import wasserstein_distance

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import layers  # noqa: E402
import oracles  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_gaussian_cell_averages_match_quadrature():
    edges = oracles.uniform_edges(-2.0, 3.0, 50)
    mine = oracles.gaussian_cell_averages(edges, 0.07, 0.25)
    ref = [quad(lambda x: oracles.gaussian_pdf(x, 0.07, 0.25), a, b, epsabs=1e-14)[0] / (b - a)
           for a, b in zip(edges[:-1], edges[1:])]
    assert np.max(np.abs(mine - ref)) <= 1e-12


def test_derivative_cell_averages_match_quadrature():
    edges = oracles.uniform_edges(-2.0, 3.0, 50)

    def dpdf(x):
        return -(x - 1.05) / 0.25**2 * oracles.gaussian_pdf(x, 1.05, 0.25)

    mine = oracles.gaussian_derivative_cell_averages(edges, 1.05, 0.25)
    ref = [quad(dpdf, a, b, epsabs=1e-14)[0] / (b - a) for a, b in zip(edges[:-1], edges[1:])]
    assert np.max(np.abs(mine - ref)) <= 1e-11


def _cdf_area(cdf_a, cdf_b, lo, hi, breaks):
    pts = np.unique(np.clip(np.concatenate([[lo, hi], breaks]), lo, hi))
    return sum(quad(lambda t: abs(cdf_a(t) - cdf_b(t)), a, b, epsabs=1e-13)[0]
               for a, b in zip(pts[:-1], pts[1:]))


def _density_cdf(edges, avg):
    cum = np.concatenate(([0.0], np.cumsum(avg * np.diff(edges))))
    return lambda t: float(np.interp(t, edges, cum / cum[-1], left=0.0, right=1.0))


def test_w1_densities_match_quadrature_and_scipy():
    rng = np.random.default_rng(6)
    ea, eb = oracles.uniform_edges(-1.0, 1.0, 20), oracles.uniform_edges(-0.5, 1.5, 33)
    aa, ab = rng.random(20), rng.random(33)
    mine = oracles.w1_density_density(ea, aa, eb, ab)
    ref = _cdf_area(_density_cdf(ea, aa), _density_cdf(eb, ab), -1.0, 1.5,
                    np.concatenate([ea, eb]))
    assert mine == pytest.approx(ref, rel=1e-9)
    # the same distance from scipy, with each density as a fine weighted atom set
    fine = 400

    def atoms(edges, avg):
        h = np.diff(edges) / fine
        x = (edges[:-1, None] + (np.arange(fine) + 0.5)[None, :] * h[:, None]).ravel()
        return x, np.repeat(avg * np.diff(edges), fine)

    xa, wa = atoms(ea, aa)
    xb, wb = atoms(eb, ab)
    assert mine == pytest.approx(wasserstein_distance(xa, xb, wa, wb), rel=1e-4)


def test_w1_atoms_to_density_matches_quadrature_and_scipy():
    rng = np.random.default_rng(7)
    edges = oracles.uniform_edges(-2.0, 3.0, 40)
    avg = rng.random(40)
    x = rng.normal(0.5, 0.8, 60)
    mine = oracles.w1_atoms_density(x, edges, avg)
    xs = np.sort(x)

    def atoms_cdf(t):
        return np.searchsorted(xs, t, side="right") / xs.size

    ref = _cdf_area(atoms_cdf, _density_cdf(edges, avg), min(xs[0], -2.0), max(xs[-1], 3.0),
                    np.concatenate([edges, xs]))
    assert mine == pytest.approx(ref, rel=1e-9)
    # scipy, with the density as a fine weighted atom set
    fine = 2000
    h = np.diff(edges) / fine
    cells = (edges[:-1, None] + (np.arange(fine) + 0.5)[None, :] * h[:, None]).ravel()
    weights = np.repeat(avg * np.diff(edges), fine)
    assert mine == pytest.approx(wasserstein_distance(x, cells, None, weights), rel=1e-4)


def test_density_quantiles_invert_the_cdf():
    edges = oracles.uniform_edges(-1.0, 1.0, 10)
    avg = np.array([0, 1, 2, 0, 0, 3, 1, 0, 1, 2], dtype=float)
    x = oracles.density_quantiles(edges, avg, 1000)
    cdf = _density_cdf(edges, avg)
    assert np.max(np.abs([cdf(t) for t in x] - (np.arange(1000) + 0.5) / 1000)) <= 1e-12


@pytest.mark.parametrize("kind", ["identity", "tanh", "sigmoid"])
def test_rk4_flow_matches_solve_ivp(kind):
    t = np.linspace(0.0, 1.0, 101)
    w, b = 0.4 * np.sin(3.0 * t), 1.0 - t**2
    act = {"identity": lambda z: z, "tanh": np.tanh,
           "sigmoid": lambda z: 1.0 / (1.0 + np.exp(-z))}[kind]
    x0 = np.linspace(-1.0, 1.0, 7)
    mine = oracles.rk4_flow(x0, t, w, b, kind, 0.01, 1.0)

    def rhs(tt, x):
        return act(np.interp(tt, t, w) * x + np.interp(tt, t, b))

    ref = solve_ivp(rhs, (0.0, 1.0), x0, method="DOP853", rtol=1e-12, atol=1e-12,
                    t_eval=[1.0], max_step=0.01).y[:, -1]
    assert np.max(np.abs(mine - ref)) <= 1e-9


def test_training_cost_matches_quadrature_of_its_definition():
    edges = oracles.uniform_edges(0.0, 1.0, 4)
    centers = 0.5 * (edges[:-1] + edges[1:])
    f = np.array([0.5, 1.5, 1.0, 1.0])
    g = np.array([1.0, 1.0, 1.0, 1.0])
    w = np.array([0.0, 1.0, 2.0])
    b = np.array([0.0, -1.0, 1.0])
    m1, m2 = 0.5, (0.125**2 + 0.375**2 + 0.625**2 + 0.875**2) / 4
    terminal = sum(fi * (c * c - 2 * m1 * c + m2) for fi, c in zip(f, centers)) / 4
    reg = 0.5 * 0.1 * (0.25 * 0 + 0.5 * 1 + 0.25 * 4) + 0.5 * 0.2 * (0.5 * 1 + 0.25 * 1)
    got = oracles.training_cost(f, g, centers, 0.25, w, b, 0.5, 0.1, 0.2)
    assert got == pytest.approx(terminal + reg, rel=1e-14)


def test_loglog_slope_recovers_a_power_law():
    m = np.array([100, 1000, 10000, 100000])
    assert oracles.loglog_slope(m, 3.0 * m**-0.5) == pytest.approx(-0.5, abs=1e-12)


def test_benchmark_json_names_match_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    declared = {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]}
    code = {n: (u, b) for n, (u, b, _, _) in layers.METRICS.items()}
    code[layers.OVERHEAD[0]] = layers.OVERHEAD[1:]
    assert declared == code
    assert [m["name"] for m in bench["end_to_end"]] == [
        "setup_s", "wall_s", "peak_rss_mb", "part1_s", "part2_s"]
    assert max(m["bound"] for m in bench["end_to_end"]) == next(
        m["bound"] for m in bench["end_to_end"] if m["name"] == "setup_s")


def test_missing_entry_point_is_reported_not_zero():
    spans = [("bench.part", 0.0, 2.0, -1, {"label": "x", "hot_calls": {}}),
             ("fvm.solve_transport", 0.5, 1.5, 0, {"cells": 200, "steps": 100,
                                                   "reversed": False})]
    wrapped = ["fvm.solve_transport"]      # no optim, cli or hot entry points
    t = layers.Trace({}, wrapped, spans, outer_iterations=0)
    values, missing = layers.per_layer(t, "train")
    assert values["fvm.solves_fwd"]["value"] == 1.0
    assert values["fvm.step_us.n200"]["value"] == pytest.approx(1e4)
    assert "optim.trial_solves" in missing and "optim.trial_solves" not in values
    assert "core.control_evals" in missing
    assert values["particle.ode_s"]["value"] == 0.0          # not expected on train
    assert math.isclose(values["fvm.solve_s"]["value"], 1.0)
