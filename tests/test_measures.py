"""Wasserstein distance, moments, particle histograms."""

import logging
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose
from scipy import integrate, stats

from mfrn.fvm import DensityField, Grid1D, project_initial
from mfrn.measures import (
    moments,
    particles_to_density,
    variance,
    wasserstein1,
)
from mfrn.scenarios import gaussian_density


def box_density(lo, hi):
    return lambda x: ((x >= lo) & (x <= hi)).astype(float)


# three grids with different domains and cell widths
GRIDS = (Grid1D(-2.0, 3.0, 8), Grid1D(-1.3, 2.2, 11), Grid1D(0.1, 1.0, 16))


@st.composite
def densities(draw, grid):
    """Random nonnegative cell averages on the grid, normalized to unit mass."""
    cells = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
    w = np.array(draw(st.lists(cells, min_size=grid.n_cells, max_size=grid.n_cells)
                      .filter(lambda w: sum(w) > 1e-6)))
    return DensityField(grid, w / (w.sum() * grid.dx))


def quad_w1(f, g):
    """W1 as the integral of |F - G| by adaptive quadrature between merged
    breakpoints, each CDF summed from its own cell probabilities."""
    def cdf(field):
        grid = field.grid
        p = field.averages * grid.dx / field.mass

        def F(x):
            return float(np.sum(p * np.clip((x - grid.edges[:-1]) / grid.dx, 0.0, 1.0)))

        return F

    F, G = cdf(f), cdf(g)
    points = np.unique(np.concatenate([f.grid.edges, g.grid.edges]))
    return sum(integrate.quad(lambda x: abs(F(x) - G(x)), lo, hi)[0]
               for lo, hi in zip(points[:-1], points[1:]))


class TestWasserstein:
    def test_identical_measures(self):
        grid = Grid1D(-2.0, 3.0, 100)
        f = project_initial(gaussian_density(0.3, 0.25), grid)
        assert wasserstein1(f, f) == 0.0

    def test_translated_uniform_density(self):
        grid = Grid1D(-2.0, 3.0, 500)
        f = project_initial(box_density(-1.5, -0.5), grid)
        g = project_initial(box_density(-0.5, 0.5), grid)
        assert_allclose(wasserstein1(f, g), 1.0, rtol=1e-12)

    def test_translated_uniforms_on_different_grids(self):
        f = project_initial(box_density(-1.5, -0.5), Grid1D(-2.0, 3.0, 500))
        g = project_initial(box_density(-0.5, 0.5), Grid1D(-1.0, 1.0, 80))
        assert_allclose(wasserstein1(f, g), 1.0, rtol=1e-12)
        assert_allclose(wasserstein1(g, f), 1.0, rtol=1e-12)

    def test_matches_quadrature_on_different_grids(self):
        f = project_initial(gaussian_density(0.3, 0.4), Grid1D(-2.0, 3.0, 40))
        g = project_initial(gaussian_density(0.6, 0.25), Grid1D(-1.7, 2.9, 27))
        assert_allclose(wasserstein1(f, g), quad_w1(f, g), rtol=1e-9)

    def test_unnormalized_density_rejected(self):
        grid = Grid1D(0.0, 1.0, 10)
        bad = DensityField(grid, np.full(10, 2.0))
        with pytest.raises(ValueError, match="not normalized"):
            wasserstein1(bad, bad)

    @pytest.mark.parametrize("grids", [GRIDS[:1] * 3, GRIDS], ids=["one_grid", "three_grids"])
    @given(data=st.data())
    @settings(max_examples=50)
    def test_symmetry(self, grids, data):
        a, b = (data.draw(densities(grid)) for grid in grids[:2])
        assert abs(wasserstein1(a, b) - wasserstein1(b, a)) <= 1e-12

    @pytest.mark.parametrize("grids", [GRIDS[:1] * 3, GRIDS], ids=["one_grid", "three_grids"])
    @given(data=st.data())
    @settings(max_examples=50)
    def test_triangle_inequality(self, grids, data):
        a, b, c = (data.draw(densities(grid)) for grid in grids)
        assert wasserstein1(a, c) <= wasserstein1(a, b) + wasserstein1(b, c) + 1e-10


class TestMoments:
    def test_zeroth_moment_is_total_mass(self):
        grid = Grid1D(-2.0, 3.0, 200)
        f = project_initial(gaussian_density(0.3, 0.25), grid)
        assert_allclose(moments(f, 0), 1.0, rtol=1e-12)

    def test_beta_density_mean(self):
        grid = Grid1D(-2.0, 3.0, 400)
        f = project_initial(
            lambda x: np.where((x > 0) & (x < 1), np.abs(x) * np.abs(1 - x) ** 4, 0.0),
            grid,
        )
        assert abs(moments(f, 1) - stats.beta(2, 5).mean()) <= 1e-3

    def test_gaussian_second_moment(self):
        grid = Grid1D(-2.0, 3.0, 400)
        f = project_initial(gaussian_density(1.0, 0.1), grid)
        assert abs(moments(f, 2) - 1.01) <= 5e-4

    def test_negative_order_rejected(self):
        f = project_initial(box_density(0.0, 1.0), Grid1D(0.0, 1.0, 10))
        with pytest.raises(ValueError, match=">= 0"):
            moments(f, -1)

    def test_variance(self):
        # the midpoint rule on the unit uniform: mean 1/2, second moment
        # 1/3 - dx^2/12, so the variance is 1/12 - dx^2/12
        f = project_initial(box_density(0.0, 1.0), Grid1D(0.0, 1.0, 10))
        assert_allclose(variance(f), (1.0 - 0.1**2) / 12.0, rtol=1e-13)


class TestParticleHistogram:
    def test_single_particle_fills_one_cell(self):
        grid = Grid1D(0.0, 1.0, 10)
        f = particles_to_density(np.array([0.55]), grid)
        assert_allclose(f.averages[5], 1.0 / grid.dx, rtol=1e-14)
        assert np.count_nonzero(f.averages) == 1
        assert_allclose(f.mass, 1.0, rtol=1e-14)

    def test_monte_carlo_error_decreases(self):
        rng = np.random.default_rng(12)
        grid = Grid1D(-2.0, 3.0, 200)
        target = project_initial(gaussian_density(0.5, 0.3), grid)
        errs = []
        for m_count in (100, 1000, 10000, 100000):
            x = rng.normal(0.5, 0.3, size=m_count)
            f = particles_to_density(x, grid)
            errs.append(wasserstein1(f, target))
        assert errs[1] < errs[0] and errs[2] < errs[1] and errs[3] < errs[2]

    def test_out_of_domain_particles_warn_and_renormalize(self, caplog):
        grid = Grid1D(0.0, 1.0, 10)
        x = np.array([0.5, 0.5, 10.0])
        with caplog.at_level(logging.WARNING, logger="mfrn.measures"):
            f = particles_to_density(x, grid)
        assert any("outside" in r.getMessage() for r in caplog.records)
        assert_allclose(f.mass, 1.0, rtol=1e-14)

    def test_in_domain_particles_stay_quiet(self, caplog):
        grid = Grid1D(0.0, 1.0, 10)
        x = np.array([0.5, 0.25])
        with caplog.at_level(logging.WARNING, logger="mfrn.measures"):
            particles_to_density(x, grid)
        assert not caplog.records

    @pytest.mark.parametrize("bad", [[np.nan], [np.inf], [np.nan, -np.inf]],
                             ids=["nan", "inf", "nan and -inf"])
    def test_non_finite_positions_are_named(self, bad):
        # a NaN or infinite position is no place at all, not a particle outside
        grid = Grid1D(-2.0, 3.0, 50)
        x = np.array([*bad, 0.5, 0.7, 5.0])
        with pytest.raises(ValueError, match=f"^{len(bad)} of {x.size} particle positions "
                                             "are not finite"):
            particles_to_density(x, grid)

    def test_finite_positions_outside_still_warn(self, caplog):
        grid = Grid1D(-2.0, 3.0, 50)
        x = np.array([-1e300, 0.5, 0.7, 1e300])
        with caplog.at_level(logging.WARNING, logger="mfrn.measures"):
            f = particles_to_density(x, grid)
        assert [r.getMessage() for r in caplog.records] == [
            "2 of 4 particles fall outside [-2, 3]; renormalizing the rest"]
        assert_allclose(f.mass, 1.0, rtol=1e-14)

    def test_all_outside_rejected(self):
        grid = Grid1D(0.0, 1.0, 10)
        with pytest.raises(ValueError, match="no particles inside"):
            particles_to_density(np.array([5.0]), grid)

    def test_multidimensional_states_rejected(self):
        grid = Grid1D(0.0, 1.0, 10)
        with pytest.raises(ValueError, match="one-dimensional"):
            particles_to_density(np.zeros((3, 2)), grid)

    @pytest.mark.parametrize("x", [np.array(0.5), np.full((3, 1), 0.5)], ids=["0-d", "2-d"])
    def test_positions_not_a_vector_are_named(self, x):
        # a column of positions is no longer read as M one-dimensional particles
        grid = Grid1D(0.0, 1.0, 10)
        with pytest.raises(ValueError, match="one-dimensional array of positions, got shape "
                                             + re.escape(str(x.shape))):
            particles_to_density(x, grid)
