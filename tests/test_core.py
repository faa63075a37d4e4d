"""Activation functions, time grids, control paths, run configuration."""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose

from mfrn.core import (Activation, ConfigValueError, ControlPath, RunConfig, TimeGrid, bisect,
                       is_number)
from mfrn.fvm import DriftSpec

ALL_KINDS = ("identity", "relu", "sigmoid", "tanh", "gcu")


class TestActivation:
    def test_pointwise_values(self):
        assert Activation("sigmoid").value(0.0) == 0.5
        assert Activation("relu").value(-3.0) == 0.0
        assert Activation("relu").value(2.0) == 2.0
        assert Activation("identity").value(-1.7) == -1.7
        assert_allclose(Activation("gcu").value(np.pi), -np.pi, rtol=1e-15)
        assert_allclose(Activation("tanh").value(0.5), np.tanh(0.5), rtol=1e-15)

    @given(st.sampled_from(ALL_KINDS),
           st.floats(min_value=-3.0, max_value=3.0))
    def test_derivative_matches_central_difference(self, kind, x):
        act = Activation(kind)
        if kind == "relu" and abs(x) < 1e-3:
            x = x + 2e-3  # kink at 0 is not differentiable
        eps = 1e-6
        fd = (act.value(x + eps) - act.value(x - eps)) / (2 * eps)
        an = act.derivative(x)
        assert abs(fd - an) <= 1e-6 * max(1.0, abs(an))

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_value_into_out_is_bitwise_the_allocating_call(self, kind):
        # into a separate buffer and in place (out is x), as DriftSpec.speed
        # writes it
        rng = np.random.default_rng(5)
        x = np.concatenate([[0.0, -0.0, 1e-300, -800.0, 800.0, np.nan],
                            rng.standard_normal(1000) * 10.0])
        act = Activation(kind)
        want = act.value(x)
        out = np.full_like(x, 7.0)
        assert act.value(x, out=out) is out and out.tobytes() == want.tobytes()
        y = x.copy()
        assert act.value(y, out=y) is y and y.tobytes() == want.tobytes()

    def test_relu_derivative_at_kink_is_zero(self):
        assert Activation("relu").derivative(0.0) == 0.0

    def test_bounded_kinds_stay_in_unit_interval(self):
        rng = np.random.default_rng(42)
        x = rng.standard_normal(100_000) * 1e3
        for kind in ("tanh", "sigmoid"):
            act = Activation(kind)
            assert act.bounded
            assert np.all(np.abs(act.value(x)) <= 1.0)
        for kind in ("identity", "relu", "gcu"):
            assert not Activation(kind).bounded

    def test_parse_normalizes_case_and_space(self):
        assert Activation("  TANH ").kind == "tanh"
        assert Activation(" Relu") == Activation("relu")
        with pytest.raises(ConfigValueError, match="^activation must be one of .* got 'softplus'"):
            Activation(" SoftPlus")


def masked_sigmoid(x):
    """The sigmoid as first written, split by sign with boolean masks."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _same_bits(got, want):
    """Bit-for-bit equality; NaNs only need to sit at the same places (the
    mask form keeps a NaN's sign bit, exp(-|x|) clears it)."""
    nan = np.isnan(want)
    return (np.array_equal(np.isnan(got), nan)
            and np.array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64)))


class TestSigmoidWithoutMasks:
    SPECIAL = [0.0, -0.0, np.inf, -np.inf, 800.0, -800.0, 5e-324, -5e-324,
               np.nan, 1.0, -1.0, 36.0, -36.0, 710.0, -710.0, 745.5, -745.5]

    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1,
                    max_size=50))
    def test_bitwise_the_masked_formula(self, xs):
        x = np.array(xs, dtype=float)
        assert _same_bits(Activation("sigmoid").value(x), masked_sigmoid(x))

    def test_special_values_and_a_million_samples(self):
        rng = np.random.default_rng(7)
        for x in (np.array(self.SPECIAL),
                  rng.standard_normal(1_000_000) * rng.choice([1.0, 30.0, 800.0], 1_000_000)):
            assert _same_bits(Activation("sigmoid").value(x), masked_sigmoid(x))

    def test_scalar_in_zero_dim_out(self):
        for x in self.SPECIAL:
            got = Activation("sigmoid").value(x)
            assert got.shape == () and _same_bits(got, masked_sigmoid(x))


class TestBisect:
    @staticmethod
    def ends(below, residual, lo, hi):
        """bisect's result and the two ends it compared: its last two
        residual calls."""
        seen = []

        def recorded(x):
            seen.append(x)
            return residual(x)

        return bisect(below, recorded, lo, hi), seen[-2:]

    @pytest.mark.parametrize("residual, lo_wins", [(lambda x: 1.0, True),
                                                   (lambda x: x - 0.3, False)])
    def test_a_monotone_side_test(self, residual, lo_wins):
        # below changes between 0.3 and the float before it; a constant
        # residual ties the ends, so lo is taken
        x, (lo, hi) = self.ends(lambda x: x < 0.3, residual, 0.0, 1.0)
        assert (lo, hi) == (np.nextafter(0.3, 0.0), 0.3)
        assert x == (lo if lo_wins else hi)

    def test_a_non_monotone_residual(self):
        # (x - 1)(x - 2)(x - 3) on [0, 3.5] changes sign three times; the
        # first halving keeps [0, 1.75], and the ends close on the root 1
        def cubic(x):
            return (x - 1.0) * (x - 2.0) * (x - 3.0)

        x, (lo, hi) = self.ends(lambda x: cubic(x) < 0.0, cubic, 0.0, 3.5)
        assert np.nextafter(lo, math.inf) == hi
        assert (cubic(lo) < 0.0) != (cubic(hi) < 0.0)
        assert x == hi == 1.0 and abs(cubic(x)) < abs(cubic(lo))


class TestTimeGrid:
    def test_inconsistent_step_count_rejected(self):
        with pytest.raises(ValueError):
            TimeGrid(t_final=1.0, dt=0.3, n_steps=3)

    def test_from_step_rounds_to_integer_steps(self):
        tg = TimeGrid.from_step(1.0, 1e-2)
        assert tg.n_steps == 100
        assert_allclose(tg.dt, 1e-2, rtol=1e-12)

    @pytest.mark.parametrize("t_final, dt, key", [
        (1.0, 0.0, "dt"), (1.0, -0.01, "dt"), (1.0, float("nan"), "dt"),
        (1.0, float("inf"), "dt"), (0.0, 0.01, "t_final"), (float("inf"), 0.01, "t_final"),
        (1.0, "0.01", "dt"), (None, 0.01, "t_final"),
    ])
    def test_from_step_names_a_bad_value(self, t_final, dt, key):
        with pytest.raises(ValueError, match=f"^{key} must be"):
            TimeGrid.from_step(t_final, dt)

    def test_from_step_names_a_step_count_that_overflows(self):
        # t_final / dt = inf once made round() raise OverflowError
        with pytest.raises(ConfigValueError,
                           match=r"^dt = 1e-308 gives t_final / dt = inf steps$"):
            TimeGrid.from_step(1e308, 1e-308)

    def test_nodes_span_the_horizon(self):
        tg = TimeGrid.from_step(0.5, 0.05)
        nodes = tg.nodes
        assert nodes.shape == (11,)
        assert nodes[0] == 0.0
        assert_allclose(nodes[-1], 0.5, rtol=1e-14)

    def test_nodes_are_built_once_and_read_only(self):
        tg = TimeGrid.from_step(0.5, 0.05)
        nodes = tg.nodes
        assert tg.nodes is nodes
        assert np.array_equal(nodes, np.linspace(0.0, 0.5, 11))
        assert not nodes.flags.writeable
        with pytest.raises(ValueError):
            nodes[1] = 0.0
        # the cache is not a field: equality and hashing are unchanged
        fresh = TimeGrid.from_step(0.5, 0.05)
        assert fresh == tg and hash(fresh) == hash(tg)
        # a path sampled from the nodes themselves never hands them out
        path = ControlPath.from_functions(tg, lambda t: t, lambda t: t)
        assert not np.shares_memory(path.w, tg.nodes)
        assert not np.shares_memory(path.b, tg.nodes)


class TestControlPath:
    def test_constant_path_evaluates_everywhere(self):
        tg = TimeGrid.from_step(1.0, 0.1)
        c = ControlPath.constant(tg, w=0.0, b=0.37)
        for t in (0.0, 0.25, 0.731, 1.0):
            assert c.eval_b(t) == 0.37
            assert c.eval_w(t) == 0.0

    def test_linear_interpolation_between_nodes(self):
        tg = TimeGrid(t_final=1.0, dt=1.0, n_steps=1)
        c = ControlPath(tg, w=np.array([0.0, 0.0]), b=np.array([0.0, 1.0]))
        assert c.eval_b(0.5) == 0.5

    @given(st.integers(min_value=0, max_value=100))
    def test_node_values_reproduced_exactly(self, j):
        # sampled path must return is own node values without interpolation loss
        tg = TimeGrid.from_step(1.0, 1e-2)
        b_exact = lambda t: -5.0 * t**2 + t
        c = ControlPath.from_functions(tg, lambda t: 0.0 * t, b_exact)
        t = tg.nodes[j]
        assert c.eval_b(t) == b_exact(t)

    @pytest.mark.parametrize("kind", ["float", "float64", "0-d", "1-d"])
    def test_evaluation_is_bitwise_independent_of_the_time_type(self, kind):
        tg = TimeGrid.from_step(1.0, 1e-2)
        c = ControlPath.from_functions(tg, lambda t: np.sin(3.0 * t), lambda t: t**3 - t)
        times = [0.0, 0.123456789, 0.5, 0.98765, 1.0]
        wrap = {"float": float, "float64": np.float64, "0-d": np.array,
                "1-d": lambda t: np.array([t])}[kind]
        nodes = np.linspace(0.0, 1.0, 101)
        for t in times:
            assert np.array_equal(c.eval_w(wrap(t)), np.interp(wrap(t), nodes, c.w))
            assert np.array_equal(c.eval_b(wrap(t)), np.interp(wrap(t), nodes, c.b))
            assert float(np.ravel(c.eval_w(wrap(t)))[0]) == float(c.eval_w(t))
            assert float(np.ravel(c.eval_b(wrap(t)))[0]) == float(c.eval_b(t))

    @pytest.mark.parametrize("t_final", [1.0, 2.0, 0.5])
    def test_times_within_the_slack_clip_and_beyond_it_raise(self, t_final):
        tg = TimeGrid.from_step(t_final, t_final / 10)
        c = ControlPath.from_functions(tg, lambda t: 1.0 + t, lambda t: 2.0 - t)
        slack = 1e-12 * max(1.0, t_final)
        for t in (-0.5 * slack, np.float64(-0.5 * slack), np.array([-0.5 * slack])):
            assert np.all(c.eval_w(t) == c.w[0]) and np.all(c.eval_b(t) == c.b[0])
        for t in (t_final + 0.5 * slack, np.array([t_final + 0.5 * slack])):
            assert np.all(c.eval_w(t) == c.w[-1]) and np.all(c.eval_b(t) == c.b[-1])
        for t in (-2.0 * slack, t_final + 2.0 * slack, np.float64(t_final + 2.0 * slack),
                  np.array([0.5 * t_final, t_final + 2.0 * slack])):
            with pytest.raises(ValueError, match="outside control domain"):
                c.eval_w(t)
            with pytest.raises(ValueError, match="outside control domain"):
                c.eval_b(t)

    def test_a_nan_time_is_named(self):
        tg = TimeGrid.from_step(1.0, 0.1)
        c = ControlPath.from_functions(tg, lambda t: 1.0 + t, lambda t: 2.0 - t)
        for t in (math.nan, np.float64(math.nan), np.array([0.5, math.nan, 1.0])):
            for read in (c.eval_w, c.eval_b):
                with pytest.raises(ValueError, match="nan.*outside control domain"):
                    read(t)
        with pytest.raises(ValueError, match="outside control domain"):
            DriftSpec(c, Activation("tanh")).speed(np.linspace(-1.0, 1.0, 5), math.nan)

    def test_times_a_few_ulps_past_either_end_read_the_end_samples(self):
        tg = TimeGrid.from_step(1.0, 0.1)
        c = ControlPath.from_functions(tg, lambda t: np.sin(3.0 * t), lambda t: t**3 - t)
        before = -np.nextafter(0.0, 1.0) * np.arange(1, 4)
        after = np.array([np.nextafter(1.0, 2.0), np.nextafter(np.nextafter(1.0, 2.0), 2.0)])
        for t, end in ((before, 0), (after, -1)):
            assert np.array_equal(c.eval_w(t), np.full(t.size, c.w[end]))
            assert np.array_equal(c.eval_b(t), np.full(t.size, c.b[end]))
            for tk in t:
                assert c.eval_w(float(tk)) == c.w[end] and c.eval_b(float(tk)) == c.b[end]

    def test_evaluation_outside_horizon_rejected(self):
        tg = TimeGrid.from_step(1.0, 0.1)
        c = ControlPath.zero(tg)
        with pytest.raises(ValueError):
            c.eval_w(1.5)
        with pytest.raises(ValueError):
            c.eval_b(-0.2)

    def test_pinning(self):
        tg = TimeGrid.from_step(1.0, 0.25)
        c = ControlPath.constant(tg, w=0.3, b=-0.2)
        assert not (c.w[0] == 0.0 and c.b[0] == 0.0)
        p = c.pinned()
        assert p.w[0] == 0.0 and p.b[0] == 0.0
        assert np.all(p.w[1:] == 0.3)

    def test_c0_norm_and_distance(self):
        tg = TimeGrid.from_step(1.0, 0.5)
        a = ControlPath(tg, w=np.array([0.0, 0.1, -0.4]), b=np.array([0.0, 0.2, 0.3]))
        b = ControlPath.zero(tg)
        assert a.c0_norm() == 0.4
        assert a.c0_distance(b) == 0.4
        assert b.c0_distance(b) == 0.0

    def test_distance_requires_matching_grids(self):
        a = ControlPath.zero(TimeGrid.from_step(1.0, 0.5))
        b = ControlPath.zero(TimeGrid.from_step(1.0, 0.25))
        with pytest.raises(ValueError):
            a.c0_distance(b)

    def test_nonfinite_values_rejected(self):
        tg = TimeGrid.from_step(1.0, 0.5)
        with pytest.raises(ValueError):
            ControlPath(tg, w=np.array([0.0, np.nan, 0.0]), b=np.zeros(3))

    def test_samples_are_read_only_copies(self):
        tg = TimeGrid.from_step(1.0, 0.5)
        w, b = np.array([0.0, 0.1, -0.4]), np.array([0.0, 0.2, 0.3])
        c = ControlPath(tg, w, b)
        for mine, kept in ((w, c.w), (b, c.b)):
            assert not kept.flags.writeable and not np.shares_memory(mine, kept)
            with pytest.raises(ValueError):
                kept[1] = 1.0
            mine[1] = 9.0  # the caller's arrays stay theirs
        assert c.w[1] == 0.1 and c.b[1] == 0.2
        assert c.pinned().w.flags.writeable is False

    @given(st.integers(min_value=1, max_value=40),
           st.sampled_from([0.01, 0.05, 0.1, 1.0 / 3.0, 0.7]),
           st.data())
    def test_scalar_reads_are_bitwise_np_interp(self, n, dt, data):
        # the memoized value, on its first read and on every later one, is
        # np.interp's at every time a run reads
        tg = TimeGrid.from_step(n * dt, dt)
        finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
        w = np.array(data.draw(st.lists(finite, min_size=n + 1, max_size=n + 1)))
        b = np.array(data.draw(st.lists(finite, min_size=n + 1, max_size=n + 1)))
        T, slack = tg.t_final, 1e-12 * max(1.0, tg.t_final)
        times = [float(t) for t in tg.nodes] + [k * dt for k in range(n + 1)]
        times += [k * dt + 0.5 * dt for k in range(n)] + [T + 0.5 * slack, -0.0, 0.0]
        t = 0.0
        while t <= T + slack:  # times accumulated by repeated + dt
            times.append(t)
            t += dt
        for order in (times, times[::-1], [-0.0] + times):  # either zero read first
            c = ControlPath(tg, w, b)
            for _ in range(2):
                for t in order:
                    for got, samples in ((c.eval_w(t), w), (c.eval_b(t), b)):
                        want = np.interp(t, tg.nodes, samples)
                        assert np.float64(got).tobytes() == np.float64(want).tobytes()

    def test_repeated_scalar_reads_return_the_same_object(self):
        c = ControlPath.from_functions(TimeGrid.from_step(1.0, 0.1), np.sin, np.cos)
        for t in (0.0, 0.37, 0.1 + 0.2, 1.0):
            assert c.eval_w(t) is c.eval_w(t) and c.eval_b(t) is c.eval_b(t)
        assert c.eval_w(np.float64(0.37)) is c.eval_w(0.37)

    def test_bad_scalar_times_raise_after_valid_reads(self):
        c = ControlPath.from_functions(TimeGrid.from_step(1.0, 0.1), np.sin, np.cos)
        for t in (0.0, 0.5, 1.0):
            c.eval_w(t), c.eval_b(t)
        for t in (math.nan, np.float64(math.nan), -0.2, 1.5, math.inf):
            for _ in range(2):
                for read in (c.eval_w, c.eval_b):
                    with pytest.raises(ValueError, match="outside control domain"):
                        read(t)

    def test_array_reads_leave_the_memo_alone(self):
        c = ControlPath.from_functions(TimeGrid.from_step(1.0, 0.1), np.sin, np.cos)
        for t in (np.linspace(0.0, 1.0, 7), np.array(0.5), np.array([0.25]), 1):
            c.eval_w(t), c.eval_b(t)
        assert c._w_at == {} and c._b_at == {}
        c.eval_w(0.5)
        assert list(c._w_at) == [0.5] and c._b_at == {}
        times = np.array([0.5, 0.05])
        assert np.array_equal(c.eval_w(times), np.interp(times, c.grid.nodes, c.w))
        assert list(c._w_at) == [0.5]


class TestRunConfig:
    def good(self, **kw):
        base = dict(gamma_w=1e-3, gamma_b=1e-3, tol=1e-4, max_armijo=10,
                    cfl=0.45, domain=(-2.0, 3.0), n_cells=200, dimension=1)
        base.update(kw)
        return base

    def test_valid_config_accepted(self):
        RunConfig(**self.good())

    @pytest.mark.parametrize("bad", [
        dict(tol=0.0),
        dict(cfl=0.0),
        dict(cfl=1.5),
        dict(n_cells=7),
        dict(gamma_w=-1.0),
        dict(max_armijo=0),
        dict(dimension=0),
        dict(domain=(3.0, -2.0)),
        dict(domain=(0.0, np.inf)),
        dict(dimension=2),
    ])
    def test_invalid_fields_rejected(self, bad):
        with pytest.raises(ValueError):
            RunConfig(**self.good(**bad))

    @pytest.mark.parametrize("key, value, says", [
        ("max_armijo", 2.5, "an integer"), ("max_armijo", True, "an integer"),
        ("n_cells", 40.0, "an integer"), ("dimension", 1.0, "an integer"),
        ("tol", "1e-4", "a finite number"), ("cfl", None, "a finite number"),
    ])
    def test_a_value_of_the_wrong_type_is_named_as_the_file_reader_names_it(self, key, value,
                                                                            says):
        # a directly built config is checked as one read from a file
        with pytest.raises(ConfigValueError, match=rf"^run\.{key} must be {says}, got "
                                                   rf"{re.escape(repr(value))}$"):
            RunConfig(**self.good(**{key: value}))
        with pytest.raises(ConfigValueError, match=rf"^run\.{key} must be {says}, got "):
            RunConfig.from_dict({**RunConfig(**self.good()).to_dict(), key: value})

    @pytest.mark.parametrize("domain", [(-2, 3), [-2.0, 3]])
    def test_values_of_the_number_types_are_kept_as_the_fields_types(self, domain):
        cfg = RunConfig(**self.good(n_cells=np.int64(400), gamma_w=0, domain=domain))
        assert cfg.n_cells == 400 and type(cfg.n_cells) is int
        assert cfg.gamma_w == 0.0 and type(cfg.gamma_w) is float
        assert cfg.domain == (-2.0, 3.0) and all(type(v) is float for v in cfg.domain)
        assert json.loads(json.dumps(cfg.to_dict())) == cfg.to_dict()

    def test_a_domain_whose_width_overflows_is_refused(self):
        # b - a = inf made dx inf: a run wrote every artifact full of NaN and exited 0
        with pytest.raises(ConfigValueError, match=r"^run\.domain must be a finite interval "
                                                   r"\[a, b\] with a < b and a finite width"):
            RunConfig(**self.good(domain=(-1e308, 1e308)))
        RunConfig(**self.good(domain=(-1e308, 0.0)))

    def test_dict_round_trip(self):
        cfg = RunConfig(**self.good())
        assert RunConfig.from_dict(cfg.to_dict()) == cfg

    def test_missing_field_named_in_error(self):
        d = RunConfig(**self.good()).to_dict()
        del d["n_cells"]
        with pytest.raises(ValueError, match="n_cells"):
            RunConfig.from_dict(d)


class TestIsNumber:
    @pytest.mark.parametrize("integer", [False, True])
    def test_an_int_beyond_float_range_is_not_a_number(self, integer):
        assert not is_number(10**400, integer=integer)
        assert not is_number(-(10**400), integer=integer)
        assert is_number(2**1023, integer=integer)
