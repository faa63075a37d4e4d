"""Network recursion and particle ODE integrators."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from mfrn import particle
from mfrn.core import Activation, ControlPath, TimeGrid
from mfrn.fvm import DriftSpec
from mfrn.particle import ode_integrate, resnet_forward
from test_fvm import _AVERAGE, aligned, placed

KINDS = ["identity", "tanh", "sigmoid", "relu", "gcu"]


def constant_controls(t_final, dt, w, b):
    tg = TimeGrid.from_step(t_final, dt)
    return ControlPath.constant(tg, w=w, b=b)


class TestResNetForward:
    @pytest.mark.parametrize("n_layers", [0, 1, 5, 33])
    def test_tanh_zero_drive_is_a_fixed_point(self, n_layers):
        c = constant_controls((n_layers + 1) * 0.1, 0.1, w=0.0, b=0.0)
        assert c.grid.n_steps == n_layers + 1
        assert resnet_forward(np.array(1.0), c, Activation("tanh")) == 1.0

    def test_constant_bias_accumulates_linearly(self):
        b0 = 0.37
        L = 12
        dt = 0.05
        c = constant_controls((L + 1) * dt, dt, w=0.0, b=b0)
        assert c.grid.n_steps == L + 1
        out = resnet_forward(np.array(0.0), c, Activation("identity"))
        assert_allclose(out, (L + 1) * dt * b0, rtol=1e-14)

    def test_sigmoid_recursion_against_scalar_oracle(self):
        """Ten sigmoid layers, checked against a hand-rolled recursion."""
        dt = 0.1
        c = constant_controls(1.0, dt, w=1.0, b=0.0)
        out = resnet_forward(np.array(0.3), c, Activation("sigmoid"))
        x = 0.3
        for _ in range(10):
            x = x + dt / (1.0 + np.exp(-x))
        assert_allclose(out, x, rtol=1e-15)

    # The depth L = n_steps - 1 and the step dt live in the controls' grid,
    # so a network that cannot be built is refused when its grid is.
    def test_config_validation(self):
        with pytest.raises(ValueError):
            TimeGrid(t_final=0.0, dt=0.1, n_steps=0)      # n_layers = -1
        with pytest.raises(ValueError):
            TimeGrid(t_final=0.0, dt=0.0, n_steps=4)
        with pytest.raises(ValueError):
            constant_controls(0.4, 0.0, w=0.0, b=0.0)

    @pytest.mark.parametrize("dt", [float("nan"), float("inf"), "0.1", None])
    def test_non_finite_or_non_numeric_dt_is_named(self, dt):
        with pytest.raises(ValueError, match="^dt must be"):
            TimeGrid(t_final=0.4, dt=dt, n_steps=4)
        with pytest.raises(ValueError, match="^dt must be"):
            constant_controls(0.4, dt, w=0.0, b=0.0)

    @pytest.mark.parametrize("n_layers", [True, 2.5, 3.0, "3"])
    def test_non_integer_n_layers_is_named(self, n_layers):
        # named by the grid's step count, of which the depth is one less
        with pytest.raises(ValueError, match="n_steps must be an integer"):
            TimeGrid(t_final=0.3, dt=0.1, n_steps=n_layers)

    @given(st.integers(min_value=0, max_value=64),
           st.sampled_from(KINDS),
           st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=30)
    def test_euler_equals_network_recursion_bitwise(self, n_layers, kind, seed):
        rng = np.random.default_rng(seed)
        dt = 0.05
        tg = TimeGrid.from_step((n_layers + 1) * dt, dt)
        c = ControlPath(tg,
                        w=rng.uniform(-1, 1, tg.n_steps + 1),
                        b=rng.uniform(-1, 1, tg.n_steps + 1))
        x0 = rng.standard_normal(4)
        net = resnet_forward(x0, c, Activation(kind))
        euler = unblocked_integrate(x0, c, Activation(kind), "euler", dt, tg.n_steps)
        assert np.array_equal(net, euler)


class TestOdeIntegrate:
    def test_unit_speed_translates(self):
        c = constant_controls(1.0, 0.1, w=0.0, b=1.0)
        out = ode_integrate(np.array([2.0]), c, Activation("identity"), 0.1, 1.0)
        assert_allclose(out, [3.0], rtol=1e-14)

    def test_rk4_reproduces_the_exponential(self):
        c = constant_controls(1.0, 0.01, w=1.0, b=0.0)
        out = ode_integrate(np.array([1.0]), c, Activation("identity"), 0.01, 1.0)
        assert abs(out[0] - np.e) <= 1e-6

    def test_rk4_self_convergence_order(self):
        """Halving the step divides the error by ~16 on smooth dynamics."""
        tg = TimeGrid.from_step(1.0, 0.01)
        c = ControlPath.from_functions(tg, np.sin, np.cos)
        act = Activation("tanh")
        x0 = np.array([0.3])

        def terminal(dt):
            return ode_integrate(x0, c, act, dt, 1.0)[0]

        ref = terminal(1.0 / 3200)
        errs = [abs(terminal(dt) - ref) for dt in (0.01, 0.005, 0.0025)]
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(orders >= 3.9)

    def test_ensemble_mean_is_conserved_by_centered_bias(self):
        # bias tied to the initial mean cancels the mean drift exactly
        rng = np.random.default_rng(42)
        x0 = rng.normal(0.5, 0.2, size=2000)
        m0 = float(np.mean(x0))
        tg = TimeGrid.from_step(1.0, 1e-2)
        w = 0.4 * np.sin(np.pi * tg.nodes)
        c = ControlPath(tg, w=w, b=-w * m0)
        out = ode_integrate(x0, c, Activation("identity"), 1e-2, 1.0)
        assert abs(float(np.mean(out)) - m0) <= 1e-12

    def test_non_divisible_horizon_rejected(self):
        c = constant_controls(1.0, 0.1, w=0.0, b=0.0)
        with pytest.raises(ValueError, match="multiple"):
            ode_integrate(np.zeros(1), c, Activation("tanh"), 0.1, 0.35)

    @pytest.mark.parametrize("dt", [float("nan"), float("inf"), -0.1, 0.0])
    def test_bad_step_is_named(self, dt):
        c = constant_controls(1.0, 0.1, w=0.0, b=0.0)
        with pytest.raises(ValueError, match="dt must be"):
            ode_integrate(np.zeros(1), c, Activation("tanh"), dt, 1.0)

    def test_non_finite_horizon_is_named(self):
        c = constant_controls(1.0, 0.1, w=0.0, b=0.0)
        with pytest.raises(ValueError, match="t_final"):
            ode_integrate(np.zeros(1), c, Activation("tanh"), 0.1, float("inf"))

    @pytest.mark.parametrize("method, stages", [("euler", 1), ("rk4", 4)])
    def test_speeds_come_from_the_drift_spec(self, monkeypatch, method, stages):
        # the network and the particles read the transport solver's velocity
        # field: one DriftSpec.speed call per layer or RK4 stage, each reading
        # w and b once
        calls = {"speed": 0, "eval_w": 0, "eval_b": 0}

        def count(owner, name):
            fn = getattr(owner, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)

        count(DriftSpec, "speed")
        count(ControlPath, "eval_w")
        count(ControlPath, "eval_b")
        c = constant_controls(1.0, 0.1, w=0.3, b=0.2)
        integrate(method, np.zeros(5), c, Activation("tanh"), 0.1, 1.0)
        n = stages * 10
        assert calls == {"speed": n, "eval_w": n, "eval_b": n}


def integrate(method, x0, c, act, dt, t_final):
    """Positions at t_final by the package's Euler path (the depth-L network,
    whose L + 1 layers are the n steps of the controls' grid, which must be
    the grid of dt and t_final) or by RK4."""
    if method == "euler":
        assert c.grid == TimeGrid.from_step(t_final, dt)
        return resnet_forward(x0, c, act)
    return ode_integrate(x0, c, act, dt, t_final)


def unblocked_integrate(x0, c, act, method, dt, n):
    """All particles at once, by explicit Euler or RK4: ode_integrate's loop
    before it was blocked."""
    drift = DriftSpec(c, act)
    x = x0.copy()
    for k in range(n):
        if method == "euler":
            x = x + dt * drift.speed(x, k * dt)
        else:
            x = rk4_step(x, drift, k * dt, dt)
    return x


def rk4_step(x, drift, t, dt):
    """One classical RK4 step, each stage a fresh array: the formula that
    ode_integrate's in-place stages must reproduce bit for bit."""
    k1 = drift.speed(x, t)
    k2 = drift.speed(x + 0.5 * dt * k1, t + 0.5 * dt)
    k3 = drift.speed(x + 0.5 * dt * k2, t + 0.5 * dt)
    k4 = drift.speed(x + dt * k3, t + dt)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


class TestBlockedIntegration:
    """ode_integrate moves _BLOCK_ROWS rows at a time; with blocks of 8 rows the
    small ensembles below cover one block, a partial block, exact multiples and
    a partial last block.  resnet_forward, the Euler path, moves all rows in
    one sweep and must give the same bytes as the whole-ensemble loop."""

    B = 8

    @pytest.fixture
    def controls(self):
        rng = np.random.default_rng(7)
        tg = TimeGrid.from_step(0.5, 0.05)
        return ControlPath(tg, w=rng.uniform(-1, 1, tg.n_steps + 1),
                           b=rng.uniform(-1, 1, tg.n_steps + 1))

    # dim 1 is positions of shape (m,), dim 2 positions of shape (m, 2)
    @pytest.mark.parametrize("shape", [(), (2,)], ids=["1", "2"])
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("method", ["euler", "rk4"])
    @pytest.mark.parametrize("m", [1, 7, 8, 9, 19])
    def test_blocks_are_bitwise_the_whole_ensemble(self, monkeypatch, controls,
                                                   m, method, kind, shape):
        monkeypatch.setattr(particle, "_BLOCK_ROWS", self.B)
        x0 = np.random.default_rng(m).uniform(-2, 2, (m, *shape))
        ens = x0.copy()
        act = Activation(kind)
        out = integrate(method, ens, controls, act, 0.05, 0.5)
        want = unblocked_integrate(x0, controls, act, method, 0.05, 10)
        assert out.shape == (m, *shape)
        assert out.tobytes() == want.tobytes()
        assert ens.tobytes() == x0.tobytes()

    @pytest.mark.parametrize("method, stages", [("euler", 1), ("rk4", 4)])
    @pytest.mark.parametrize("m", [1, 7, 8, 9, 19])
    def test_one_speed_call_per_block_and_stage(self, monkeypatch, controls,
                                                m, method, stages):
        monkeypatch.setattr(particle, "_BLOCK_ROWS", self.B)
        calls = 0
        speed = DriftSpec.speed

        def counted(*args, **kwargs):
            nonlocal calls
            calls += 1
            return speed(*args, **kwargs)

        monkeypatch.setattr(DriftSpec, "speed", counted)
        integrate(method, np.zeros(m), controls, Activation("tanh"), 0.05, 0.5)
        blocks = -(-m // self.B) if method == "rk4" else 1
        assert calls == blocks * stages * 10

    def test_an_ensemble_integration_holds_one_block_of_buffers(self):
        # a 1e5-particle sigmoid integration holds its output, five stage buffers
        # of one 128 KiB block and the sigmoid's three block-sized temporaries
        # (8.02 blocks past the output, by tracemalloc); one block of slack.
        # Whole-ensemble stage buffers would hold 4 MB, about 31 blocks
        x0 = np.random.default_rng(3).standard_normal(100_000)
        c = constant_controls(0.05, 0.01, w=0.4, b=0.3)
        block = particle._BLOCK_ROWS * x0.itemsize
        tracemalloc.start()
        try:
            out = ode_integrate(x0, c, Activation("sigmoid"), 0.01, 0.05)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < out.nbytes + 9 * block


class TestAlignedStageMemory:
    @pytest.fixture(scope="class")
    def controls(self):
        rng = np.random.default_rng(11)
        tg = TimeGrid.from_step(0.5, 0.05)
        return ControlPath(tg, w=rng.uniform(-1, 1, tg.n_steps + 1),
                           b=rng.uniform(-1, 1, tg.n_steps + 1))

    @pytest.mark.parametrize("m", [100, 20_000])
    def test_every_stage_reads_and_writes_aligned_arrays(self, monkeypatch, controls, m):
        # the ensemble's copy, whose blocks the stages read and move, and the
        # five stage buffers start on cache lines; 20,000 rows are two blocks
        seen, speed = [], DriftSpec.speed

        def spy(self, x, t, out=None):
            seen.extend((x, out))
            return speed(self, x, t, out=out)

        monkeypatch.setattr(DriftSpec, "speed", spy)
        x0 = np.random.default_rng(m).standard_normal(m)
        out = ode_integrate(x0, controls, Activation("tanh"), 0.05, 0.5)
        assert len(seen) == 2 * 4 * 10 * -(-m // particle._BLOCK_ROWS)
        assert aligned([out, *seen])

    @given(st.lists(_AVERAGE, min_size=1, max_size=40), st.sampled_from(["tanh", "sigmoid"]))
    def test_the_bits_do_not_depend_on_placement(self, controls, values, kind):
        # the ensemble and the five stage buffers at each 8-byte offset
        # within a cache line give the same final positions, signed zeros too
        results = set()
        for offset in range(0, 64, 8):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(particle, "_slots", lambda k, shape, dtype=float: placed(
                    k, shape, dtype, offset=offset))
                ens = placed(1, (len(values),), offset=offset)[0]
                ens[...] = values
                results.add(ode_integrate(ens, controls, Activation(kind), 0.05, 0.5).tobytes())
        assert len(results) == 1
