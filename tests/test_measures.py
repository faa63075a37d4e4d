"""Wasserstein distance, moments, steady states, particle histograms."""

import logging

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose
from scipy import stats

from mfrn.core import Activation
from mfrn.fvm import Grid1D, project_initial
from mfrn.measures import (
    EmpiricalMeasure,
    moments,
    particles_to_density,
    steady_state_support,
    variance,
    wasserstein1,
)
from mfrn.particle import ParticleEnsemble
from mfrn.scenarios import gaussian_density


def box_density(lo, hi):
    return lambda x: ((x >= lo) & (x <= hi)).astype(float)


atoms = st.lists(
    st.floats(min_value=-5.0, max_value=5.0, allow_nan=False), min_size=1, max_size=6
)


class TestEmpiricalMeasure:
    def test_validation(self):
        with pytest.raises(ValueError, match="nonempty"):
            EmpiricalMeasure(np.zeros(0))
        with pytest.raises(ValueError, match="match locations"):
            EmpiricalMeasure([0.0, 1.0], [1.0])
        with pytest.raises(ValueError, match="nonnegative"):
            EmpiricalMeasure([0.0, 1.0], [1.5, -0.5])
        with pytest.raises(ValueError, match="sum to 1"):
            EmpiricalMeasure([0.0, 1.0], [0.4, 0.4])

    def test_sorted_on_construction(self):
        m = EmpiricalMeasure([2.0, -1.0, 0.5], [0.2, 0.5, 0.3])
        assert np.array_equal(m.locations, [-1.0, 0.5, 2.0])
        assert np.array_equal(m.weights, [0.5, 0.3, 0.2])


class TestWasserstein:
    def test_identical_measures(self):
        m = EmpiricalMeasure([0.0, 1.0, 2.5])
        assert wasserstein1(m, m) == 0.0
        grid = Grid1D(-2.0, 3.0, 100)
        f = project_initial(gaussian_density(0.3, 0.25), grid)
        assert wasserstein1(f, f) == 0.0

    def test_point_masses(self):
        a = EmpiricalMeasure([0.3])
        b = EmpiricalMeasure([-1.1])
        assert_allclose(wasserstein1(a, b), 1.4, rtol=1e-14)

    def test_translated_uniform_density(self):
        grid = Grid1D(-2.0, 3.0, 500)
        f = project_initial(box_density(-1.5, -0.5), grid)
        g = project_initial(box_density(-0.5, 0.5), grid)
        assert_allclose(wasserstein1(f, g), 1.0, rtol=1e-12)

    def test_equal_weight_atoms_match_sorted_pairing(self):
        rng = np.random.default_rng(5)
        xs = rng.normal(0.0, 1.0, 257)
        ys = rng.normal(0.4, 0.7, 257)
        got = wasserstein1(EmpiricalMeasure(xs), EmpiricalMeasure(ys))
        want = np.mean(np.abs(np.sort(xs) - np.sort(ys)))
        assert_allclose(got, want, rtol=1e-12)

    def test_unnormalized_density_rejected(self):
        grid = Grid1D(0.0, 1.0, 10)
        from mfrn.fvm import DensityField

        bad = DensityField(grid, np.full(10, 2.0))
        with pytest.raises(ValueError, match="not normalized"):
            wasserstein1(bad, bad)

    @given(atoms, atoms)
    @settings(max_examples=50)
    def test_symmetry(self, xs, ys):
        a, b = EmpiricalMeasure(np.array(xs)), EmpiricalMeasure(np.array(ys))
        assert abs(wasserstein1(a, b) - wasserstein1(b, a)) <= 1e-12

    @given(atoms, atoms, atoms)
    @settings(max_examples=50)
    def test_triangle_inequality(self, xs, ys, zs):
        a = EmpiricalMeasure(np.array(xs))
        b = EmpiricalMeasure(np.array(ys))
        c = EmpiricalMeasure(np.array(zs))
        assert wasserstein1(a, c) <= wasserstein1(a, b) + wasserstein1(b, c) + 1e-10


class TestMoments:
    def test_zeroth_moment_is_total_mass(self):
        grid = Grid1D(-2.0, 3.0, 200)
        f = project_initial(gaussian_density(0.3, 0.25), grid)
        assert_allclose(moments(f, 0), 1.0, rtol=1e-12)
        assert_allclose(moments(EmpiricalMeasure([1.0, 2.0]), 0), 1.0, rtol=1e-15)

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

    def test_empirical_moments_are_exact_sums(self):
        locs = np.array([-0.4, 0.2, 1.7, 2.2])
        w = np.array([0.1, 0.2, 0.3, 0.4])
        m = EmpiricalMeasure(locs, w)
        for k in range(4):
            assert_allclose(moments(m, k), np.sum(w * locs**k), rtol=1e-14)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            moments(EmpiricalMeasure([0.0]), -1)

    def test_variance(self):
        m = EmpiricalMeasure([0.0, 1.0])
        assert_allclose(variance(m), 0.25, rtol=1e-15)


class TestSteadyStates:
    def test_identity_concentrates_at_zero_speed_point(self):
        y = steady_state_support(1.0, 0.0, Activation("identity"))
        assert_allclose(y, [0.0], atol=1e-15)

    def test_tanh_affine_shift(self):
        y = steady_state_support(2.0, 1.0, Activation("tanh"))
        assert_allclose(y, [-0.5], rtol=1e-15)

    def test_gcu_enumerates_cosine_zeros(self):
        y = steady_state_support(1.0, 0.0, Activation("gcu"), domain=(-2.0, 5.0))
        assert_allclose(y, [-np.pi / 2, 0.0, np.pi / 2, 3 * np.pi / 2], rtol=1e-14)

    def test_sigmoid_has_no_rest_points(self):
        y = steady_state_support(1.0, 0.0, Activation("sigmoid"))
        assert y.size == 0

    def test_degenerate_weight_rejected(self):
        with pytest.raises(ValueError, match="rank-deficient"):
            steady_state_support(0.0, 1.0, Activation("tanh"))

    def test_relu_zero_set_rejected(self):
        with pytest.raises(ValueError, match="non-discrete"):
            steady_state_support(1.0, 0.0, Activation("relu"))

    def test_gcu_needs_a_domain(self):
        with pytest.raises(ValueError, match="domain"):
            steady_state_support(1.0, 0.0, Activation("gcu"))

    @given(
        st.floats(min_value=0.1, max_value=5.0),
        st.booleans(),
        st.floats(min_value=-3.0, max_value=3.0),
        st.sampled_from(["identity", "tanh", "gcu"]),
    )
    @settings(max_examples=60)
    def test_support_points_have_zero_speed(self, mag, flip, b_bar, kind):
        w_bar = -mag if flip else mag
        act = Activation(kind)
        y = steady_state_support(w_bar, b_bar, act, domain=(-40.0, 40.0))
        if y.size:
            assert np.max(np.abs(act.value(w_bar * y + b_bar))) <= 1e-10


class TestParticleHistogram:
    def test_single_particle_fills_one_cell(self):
        grid = Grid1D(0.0, 1.0, 10)
        ens = ParticleEnsemble(np.array([[0.55]]))
        f = particles_to_density(ens, grid)
        assert_allclose(f.averages[5], 1.0 / grid.dx, rtol=1e-14)
        assert np.count_nonzero(f.averages) == 1
        assert_allclose(f.mass, 1.0, rtol=1e-14)

    def test_monte_carlo_error_decreases(self):
        rng = np.random.default_rng(12)
        grid = Grid1D(-2.0, 3.0, 200)
        target = project_initial(gaussian_density(0.5, 0.3), grid)
        errs = []
        for m_count in (100, 1000, 10000, 100000):
            x = rng.normal(0.5, 0.3, size=(m_count, 1))
            f = particles_to_density(ParticleEnsemble(x), grid)
            errs.append(wasserstein1(f, target))
        assert errs[1] < errs[0] and errs[2] < errs[1] and errs[3] < errs[2]

    def test_out_of_domain_particles_warn_and_renormalize(self, caplog):
        grid = Grid1D(0.0, 1.0, 10)
        x = np.array([[0.5], [0.5], [10.0]])
        ens = ParticleEnsemble(x)
        with caplog.at_level(logging.WARNING, logger="mfrn.measures"):
            f = particles_to_density(ens, grid)
        assert any("outside" in r.getMessage() for r in caplog.records)
        assert_allclose(f.mass, 1.0, rtol=1e-14)

    def test_in_domain_particles_stay_quiet(self, caplog):
        grid = Grid1D(0.0, 1.0, 10)
        x = np.array([[0.5], [0.25]])
        ens = ParticleEnsemble(x)
        with caplog.at_level(logging.WARNING, logger="mfrn.measures"):
            particles_to_density(ens, grid)
        assert not caplog.records

    def test_all_outside_rejected(self):
        grid = Grid1D(0.0, 1.0, 10)
        ens = ParticleEnsemble(np.array([[5.0]]))
        with pytest.raises(ValueError, match="no particles inside"):
            particles_to_density(ens, grid)

    def test_multidimensional_states_rejected(self):
        grid = Grid1D(0.0, 1.0, 10)
        ens = ParticleEnsemble(np.zeros((3, 2)))
        with pytest.raises(ValueError, match="one-dimensional"):
            particles_to_density(ens, grid)
