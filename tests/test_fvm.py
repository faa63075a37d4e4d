"""Finite-volume transport solver: reconstruction, fluxes, stepping, invariants."""

import logging
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

from mfrn import fvm
from mfrn.core import Activation, ControlPath, TimeGrid
from mfrn.fvm import (
    CFLViolationError,
    DensityField,
    DriftSpec,
    Grid1D,
    llf_flux,
    project_initial,
    solve_final_fields,
    solve_transport,
    _block_steps,
    _cweno3_faces,
    _cweno3_views,
    _limited_faces,
    _limiter_coefficients,
    _rhs,
    _stage_schedule,
)
from mfrn.measures import variance, moments, wasserstein1
from mfrn.scenarios import gaussian_density


def constant_speed(value, t_final=1.0, dt=0.5):
    tg = TimeGrid.from_step(t_final, dt)
    return DriftSpec(ControlPath.constant(tg, w=0.0, b=value), Activation("identity"))


def density_diagnostics(snapshots):
    """Mass drift and worst cell average over a forward trajectory."""
    mass0 = snapshots[0].mass
    return {
        "mass_drift": max(abs(s.mass - mass0) for s in snapshots),
        "min_average": min(float(np.min(s.averages)) for s in snapshots),
    }


def oracle_cweno3(a, b, c, eps=1e-6):
    """Textbook CWENO3 face values, written out independently of the solver."""
    beta_l = (b - a) ** 2
    beta_r = (c - b) ** 2
    beta_c = 13.0 / 3.0 * (a - 2 * b + c) ** 2 + 0.25 * (c - a) ** 2
    alpha = np.array([0.25 / (eps + beta_l) ** 2,
                      0.5 / (eps + beta_c) ** 2,
                      0.25 / (eps + beta_r) ** 2])
    wgt = alpha / alpha.sum()
    # candidate face values: left linear, center parabola, right linear
    lefts = np.array([b - 0.5 * (b - a),
                      b + (a - 2 * b + c) / 6.0 - 0.25 * (c - a),
                      b - 0.5 * (c - b)])
    rights = np.array([b + 0.5 * (b - a),
                       b + (a - 2 * b + c) / 6.0 + 0.25 * (c - a),
                       b + 0.5 * (c - b)])
    return float(wgt @ lefts), float(wgt @ rights)


def cweno3_faces(a, b, c, eps):
    """The solver's faces of the stencils (a, b, c), one a column of a
    three-cell array."""
    cells, work = np.stack([a, b, c]), np.empty((10, 2, a.size))
    left, right = _cweno3_faces(_cweno3_views(cells, work), eps)
    return left[0], right[0]


def reconstruct(stencil, eps=1e-6):
    """Solver face values (left, right) of one cell from its three-cell stencil."""
    left, right = cweno3_faces(*(np.array([v], dtype=float) for v in stencil), eps)
    return float(left[0]), float(right[0])


class TestReconstruction:
    def test_constant_data_reproduced(self):
        left, right = reconstruct([0.7, 0.7, 0.7])
        assert_allclose([left, right], [0.7, 0.7], atol=1e-14)

    def test_linear_data_exact(self):
        # linear profiles keep the ideal weights, faces land on the line
        left, right = reconstruct([-1.0, 0.0, 1.0])
        assert_allclose([left, right], [-0.5, 0.5], atol=1e-13)

    @pytest.mark.parametrize("stencil", [(0.0, 0.0, 1.0), (1.0, 0.3, 0.2),
                                         (-0.4, 0.9, 0.1)])
    def test_matches_independent_formula(self, stencil):
        got = reconstruct(stencil)
        want = oracle_cweno3(*stencil)
        assert_allclose(got, want, rtol=1e-14)


def reference_cweno3_faces(a, b, c, eps):
    """The reconstruction as first written, one fresh array per operation:
    the lean kernel must reproduce it bit for bit."""
    d_left = b - a
    d_right = c - b
    d2 = c - 2.0 * b + a
    is_left = d_left * d_left
    is_right = d_right * d_right
    is_center = (13.0 / 3.0) * d2 * d2 + 0.25 * (c - a) * (c - a)
    al = 0.25 / (eps + is_left) ** 2
    ac = 0.5 / (eps + is_center) ** 2
    ar = 0.25 / (eps + is_right) ** 2
    s = al + ac + ar
    wl, wc, wr = al / s, ac / s, ar / s
    half_sum = 0.25 * (c - a)
    pc_even = b + d2 / 6.0
    left = wl * (b - 0.5 * d_left) + wc * (pc_even - half_sum) + wr * (b - 0.5 * d_right)
    right = wl * (b + 0.5 * d_left) + wc * (pc_even + half_sum) + wr * (b + 0.5 * d_right)
    return left, right


def reference_limited_faces(uc, uL, uR, sL, sR, lam):
    """The positivity limiter as first written, with masks and errstate."""
    m = np.minimum(uL, uR)
    pos = uc > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        t_floor = np.where(uc - m > 0.0, uc / (uc - m), 0.0)
    theta = np.where(m < 0.0, np.where(pos, np.minimum(1.0, t_floor), 0.0), 1.0)
    uL1 = uc + theta * (uL - uc)
    uR1 = uc + theta * (uR - uc)
    out_l = lam * np.maximum(-sL, 0.0)
    out_r = lam * np.maximum(sR, 0.0)
    drain = out_l * uL1 + out_r * uR1
    s_out = out_l + out_r
    need = (drain > uc) & (uc >= 0.0) & (s_out < 1.0)
    # overflow silenced too: the quotient is formed where no cap is needed
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t_cap = (1.0 - s_out) * uc / (drain - s_out * uc)
    theta2 = np.clip(np.where(need, t_cap, 1.0), 0.0, 1.0)
    return uc + theta2 * (uL1 - uc), uc + theta2 * (uR1 - uc)


def coefficients(sL, sR, lam):
    """The limiter's speed-only terms, in arrays of their own."""
    shape = np.shape(sL)
    out = [np.empty(shape) for _ in range(4)] + [np.empty(shape, bool)]
    _limiter_coefficients(sL, sR, lam, out)
    return out


def limited(uc, uL, uR, sL, sR, lam):
    """The solver's limiter on cells with edge speeds sL, sR, into copies
    of the faces."""
    uL, uR = np.array(uL, dtype=float), np.array(uR, dtype=float)
    work = np.empty((6, uc.size)), np.empty((2, uc.size), bool)
    _limited_faces(uc, uL, uR, coefficients(sL, sR, lam), work)
    return uL, uR


def sweep_rhs(avg, grid, speed, limited=0, lam=None, work=None):
    """The solver's _rhs of the rows of avg under speed (cells and edges on
    axis 0, rows on axis 1), the first `limited` rows limited at lam, in
    work or a fresh workspace."""
    limiter = None
    if limited:
        limiter = [c.reshape(-1) for c in coefficients(speed[:-1, :limited],
                                                       speed[1:, :limited], lam)]
    if work is None:
        work = fvm._StageWork(grid, avg.shape[1], limited)
    return _rhs(avg, speed, limiter, work, np.empty(avg.shape))


def flux(u_minus, u_plus, speed):
    """llf_flux written into three slots of its own, of the operands'
    broadcast shape (0-d arrays for scalars)."""
    slots = np.empty((3, *np.broadcast_shapes(*map(np.shape, (u_minus, u_plus, speed)))))
    return llf_flux(u_minus, u_plus, speed, (slots[0, ...], slots[1, ...], slots[2, ...]))


def reference_rhs(avg, grid, speed, positivity_dt=None):
    """One stage's right-hand side as first written, from the two reference
    kernels above: concatenated ghosts and copied face arrays."""
    n = grid.n_cells
    padded = np.concatenate([np.zeros(2), avg, np.zeros(2)])
    left, right = reference_cweno3_faces(padded[:-2], padded[1:-1], padded[2:], grid.dx)
    if positivity_dt is not None:
        lf, rf = reference_limited_faces(avg, left[1 : n + 1], right[1 : n + 1],
                                      speed[:-1], speed[1:], positivity_dt / grid.dx)
        left, right = left.copy(), right.copy()
        left[1 : n + 1], right[1 : n + 1] = lf, rf
    f = flux(right[0 : n + 1], left[1 : n + 2], speed)
    return -(f[1:] - f[:-1]) / grid.dx, float(f[-1] - f[0])


def reference_ssp_rk3(u, dt, rhs):
    """The three-stage SSP Runge-Kutta combination as the textbook writes it;
    rhs(v, k) is the time derivative at stage k (times t, t + dt, t + dt/2)."""
    u1 = u + dt * rhs(u, 0)
    u2 = 0.75 * u + 0.25 * (u1 + dt * rhs(u1, 1))
    return (u + 2.0 * (u2 + dt * rhs(u2, 2))) / 3.0


def quiet(fn, *args, **kwargs):
    """fn(*args) with division by zero, invalid operations and overflow
    turned into errors (underflow to a subnormal or zero is harmless)."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(divide="warn", over="warn", invalid="warn", under="ignore"):
            return fn(*args, **kwargs)


# cell averages with exact zeros, negatives and repeats among them
_AVERAGE = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e-300, 0.5]),
    st.floats(min_value=-50.0, max_value=50.0, allow_subnormal=False),
)
# speeds whose outflow sums s_out = lam (max(-sL, 0) + max(sR, 0)) land
# below, exactly at and above 1 for the lam values below
_SPEED = st.one_of(
    st.sampled_from([-1.0, -0.5, -0.25, 0.0, 0.25, 0.5, 1.0]),
    st.floats(min_value=-2.0, max_value=2.0, allow_subnormal=False),
)
_LAM = st.sampled_from([0.25, 0.5, 0.8, 1.0, 2.0])


def _columns(*elements):
    """Arrays of 1 to 40 cells, one array per element strategy."""
    return st.lists(st.tuples(*elements), min_size=1, max_size=40).map(
        lambda rows: [np.array(col) for col in zip(*rows)]
    )


# one limiter input per cell: (uc, uL, uR, sL, sR)
_LIMITER_CELLS = _columns(_AVERAGE, _AVERAGE, _AVERAGE, _SPEED, _SPEED)


class TestLeanKernelsAreBitwiseTheFormulas:
    @given(_columns(_AVERAGE, _AVERAGE, _AVERAGE), st.sampled_from([1e-6, 0.025, 5.0 / 400, 1.0]))
    @example([np.array([0.0, 0.0, -1.0]), np.array([0.0, 1.0, 0.0]),
              np.array([0.0, 0.0, 2.0])], 0.025)
    def test_cweno3_faces(self, cols, eps):
        a, b, c = cols
        got = quiet(cweno3_faces, a, b, c, eps)
        want = reference_cweno3_faces(a, b, c, eps)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)

    @given(_LIMITER_CELLS, _LAM)
    @example([np.array([1.0, 0.0, -1.0, 2.0]), np.array([-0.5, -1.0, 1.0, 3.0]),
              np.array([2.0, 1.0, -2.0, 3.0]), np.array([-0.5, -1.0, 0.0, -1.0]),
              np.array([0.5, 1.0, 0.0, 1.0])], 1.0)
    # a floored cell at s_out = 0.5, 1 and 2; only the first can be capped
    @example([np.full(3, 1.0), np.full(3, -0.5), np.full(3, 9.0),
              np.array([-0.25, -0.5, -1.0]), np.array([0.25, 0.5, 1.0])], 1.0)
    def test_limited_faces(self, cells, lam):
        uc, uL, uR, sL, sR = cells
        got = quiet(limited, uc, uL, uR, sL, sR, lam)
        want = reference_limited_faces(uc, uL, uR, sL, sR, lam)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)

    def test_limited_faces_keep_their_signed_zeros(self):
        # array_equal calls -0.0 and 0.0 equal; these cells pin the bits.  The
        # cap's theta is -0.0 on cell 0 (uc == -0.0 still passes uc >= 0), +0.0
        # on cell 1 and exactly 1.0 on cell 3; cell 2 is floored to theta 0 and
        # cell 4 needs no limit (theta 1)
        uc = np.array([-0.0, 0.0, -0.0, 0.9636708728449709, 0.3])
        uL = np.array([2.0, 2.0, -1.0, 11.449954214444775, 0.1])
        uR = np.array([3.0, 3.0, 2.0, 0.4227169069454373, 0.5])
        sL = np.array([-0.5, -0.5, -0.5, -0.15052483042117748, 0.0])
        sR = np.array([0.5, 0.5, 0.5, 0.48221238819933654, 0.0])
        out_l, out_r = 0.5 * np.maximum(-sL, 0.0), 0.5 * np.maximum(sR, 0.0)
        s_out = out_l + out_r
        drain = out_l * uL + out_r * uR
        assert np.all((drain > uc)[[0, 1, 3]])  # the cap is needed there
        assert (1.0 - s_out[3]) * uc[3] / (drain[3] - s_out[3] * uc[3]) == 1.0
        lf, rf = quiet(limited, uc, uL, uR, sL, sR, 0.5)
        assert lf.tobytes() == np.array([-0.0, 0.0, 0.0, 11.449954214444775, 0.1]).tobytes()
        assert rf.tobytes() == np.array([-0.0, 0.0, 0.0, 0.4227169069454373, 0.5]).tobytes()
        for got, want in zip((lf, rf), reference_limited_faces(uc, uL, uR, sL, sR, 0.5)):
            assert got.tobytes() == want.tobytes()

    @given(st.lists(_AVERAGE, min_size=8, max_size=40), st.data(),
           st.sampled_from([None, 1e-2, 5e-2]))
    def test_stage_rhs(self, averages, data, positivity_dt):
        avg = np.array(averages)
        grid = Grid1D(-2.0, 3.0, avg.size)
        speed = np.array(data.draw(st.lists(_SPEED, min_size=avg.size + 1,
                                            max_size=avg.size + 1)))
        limited = int(positivity_dt is not None)
        du, out = quiet(sweep_rhs, avg[:, None], grid, speed[:, None], limited,
                        positivity_dt / grid.dx if limited else None)
        want_du, want_out = reference_rhs(avg, grid, speed, positivity_dt)
        assert du.shape == (avg.size, 1)
        assert np.array_equal(du[:, 0], want_du)
        assert out.tolist() == [want_out]


class TestStageWorkspace:
    @given(st.sampled_from([(1, 0), (1, 1), (2, 0), (2, 1), (2, 2), (3, 0), (3, 3)]),
           st.integers(min_value=8, max_value=16), st.data(), st.sampled_from([1e-2, 5e-2]))
    def test_a_reused_workspace_carries_nothing_over(self, rows_limited, cells, data, pos_dt):
        # A then B on one workspace: B is bitwise B on a fresh workspace and
        # the reference kernels, signed zeros included, so no where= mask,
        # theta or ghost row of A's stage leaks into B's
        rows, limited = rows_limited
        grid = Grid1D(-2.0, 3.0, cells)
        lam = pos_dt / grid.dx

        def draw(values, size):
            return np.array(data.draw(st.lists(st.tuples(*[values] * rows),
                                               min_size=size, max_size=size)))

        a, b = draw(_AVERAGE, cells), draw(_AVERAGE, cells)
        speed_a, speed_b = draw(_SPEED, cells + 1), draw(_SPEED, cells + 1)
        work = fvm._StageWork(grid, rows, limited)
        quiet(sweep_rhs, a, grid, speed_a, limited, lam, work)
        got_du, got_out = quiet(sweep_rhs, b, grid, speed_b, limited, lam, work)
        fresh_du, fresh_out = quiet(sweep_rhs, b, grid, speed_b, limited, lam)
        assert got_du.tobytes() == fresh_du.tobytes()
        assert got_out.tobytes() == fresh_out.tobytes()
        for r in range(rows):
            want_du, want_out = reference_rhs(b[:, r], grid, speed_b[:, r],
                                              pos_dt if r < limited else None)
            assert got_du[:, r].tobytes() == want_du.tobytes()
            assert got_out[r:r + 1].tobytes() == np.array([want_out]).tobytes()
        assert not work.padded[:2].any() and not work.padded[-2:].any()

    @pytest.mark.parametrize("rows, limited", [(1, 0), (1, 1), (2, 1), (9, 9)])
    def test_a_step_allocates_only_its_outflow_rates(self, rows, limited):
        # with the sweep's workspace and its output array given, one SSP-RK3
        # step allocates nothing of the grid's size: its outflow rates and
        # numpy's view objects only.  A cast through numpy's buffer (a bool
        # array into a float one) would take up to 8 KiB.  The step is the
        # first of its block, which holds both steps for one or two rows
        grid = Grid1D(-2.0, 3.0, 3200)
        tg = TimeGrid.from_step(4e-3, 2e-3)
        drifts = scaled_trials(tg, "tanh", lambda t: 0.3 + 0.0 * t, lambda t: 0.2 + t, rows)
        avg = np.repeat(project_initial(gaussian_density(0.3, 0.25), grid).averages[:, None],
                        rows, axis=1)
        work, out = fvm._StageWork(grid, rows, limited), np.empty_like(avg)
        lam = tg.dt / grid.dx if limited else None
        schedule = _stage_schedule(drifts, grid, 0.0, tg.dt, tg.n_steps, lam, limited)
        stages = next(schedule)[0][0]
        fvm._step(avg, tg.dt, stages, work, out)  # numpy's one-time set-up
        want = out.copy()
        tracemalloc.start()
        try:
            fvm._step(avg, tg.dt, stages, work, out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.tobytes() == want.tobytes()
        assert peak <= 8192 + 64 * rows < avg.nbytes

    @pytest.mark.parametrize("rows, limited", [(2, 1), (9, 9)])
    def test_the_prebuilt_views_are_views(self, rows, limited):
        # the limiter writes through flat views and the flux reads the faces
        # through slices, all built with the workspace: a reshape that
        # copied would drop the limiter's writes.  One limited row of two is
        # the strided case
        grid = Grid1D(-2.0, 3.0, 40)
        n = grid.n_cells
        work = fvm._StageWork(grid, rows, limited)
        left, right = work.faces[0], work.faces[1]
        for view, slot, cells in ((work.uc, work.padded, work.padded[2:-2, :limited]),
                                  (work.uL, left, left[1 : n + 1, :limited]),
                                  (work.uR, right, right[1 : n + 1, :limited])):
            assert view.shape == (n * limited,) and np.shares_memory(view, slot)
            slot.fill(0.0)
            view[...] = np.arange(1, view.size + 1)
            # cell-major, the rows varying fastest, and nothing outside them
            assert np.array_equal(cells, np.arange(1, view.size + 1).reshape(n, limited))
            assert np.count_nonzero(slot) == view.size
        assert np.shares_memory(work.inner, work.padded)
        assert all(np.shares_memory(v, work.padded) or np.shares_memory(v, work.faces)
                   for v in work.cweno)
        assert np.shares_memory(work.u_minus, right) and np.shares_memory(work.u_plus, left)
        for view, slot in zip(work.flux_out, work.flux):
            assert view.shape == slot.shape and np.shares_memory(view, slot)
        assert all(np.shares_memory(v, work.flux[0]) for v in
                   (work.flux_hi, work.flux_lo, work.flux_last, work.flux_first))


_aligned_slots = fvm._slots


def placed(k, shape, dtype=float, *, offset):
    """k C-contiguous slots like fvm._slots's, each starting offset bytes
    past a cache line instead of on one."""
    skip = offset // np.dtype(dtype).itemsize
    count = int(np.prod(shape))
    slots = _aligned_slots(k, (skip + count,), dtype)[:, skip:].reshape(k, *shape)
    assert all(s.ctypes.data % 64 == offset for s in slots if s.size)  # a view, not a copy
    return slots


def aligned(items):
    """Whether every array of items is C-contiguous and starts on a cache line."""
    return all(a.flags.c_contiguous and a.ctypes.data % 64 == 0 for a in items)


class TestAlignedStageMemory:
    @given(st.integers(min_value=1, max_value=12),
           st.lists(st.integers(min_value=0, max_value=9), max_size=3),
           st.sampled_from([float, bool]))
    @example(3, [4, 0, 2], bool)
    def test_slots_are_separate_aligned_arrays(self, k, shape, dtype):
        slots = fvm._slots(k, shape, dtype)
        assert slots.shape == (k, *shape) and slots.dtype == dtype
        assert aligned(slots[j, ...] for j in range(k))
        slots[...] = 0
        for j in range(k):
            # a write to slot j reaches all of it and nothing else
            slots[j, ...] = 1
            assert np.count_nonzero(slots) == np.count_nonzero(slots[j]) == slots[j].size
            slots[j, ...] = 0

    @pytest.mark.parametrize("cells", [203, 1601])
    def test_sweeps_compute_in_aligned_arrays(self, monkeypatch, cells):
        # a row of 203 or 1601 doubles is not whole lines, so consecutive
        # slots start on one only when each is padded.  A paired sweep (one
        # limited row and its adjoint) and a three-row final-field sweep:
        # every step's two states, its whole workspace and its stages'
        # speeds and limiter terms start on a cache line
        grid = Grid1D(-2.0, 3.0, cells)
        dt = 0.4 * grid.dx
        tg = TimeGrid.from_step(25 * dt, dt)
        drifts = scaled_trials(tg, "tanh", lambda t: 0.3 + 0.0 * t, lambda t: 0.2 + t, 3)
        f0 = project_initial(gaussian_density(0.3, 0.25), grid)
        lam0 = DensityField(grid, 2.0 * grid.centers - 1.0)
        seen, step = [], fvm._step

        def spy(avg, dt, stages, work, out):
            seen.append((avg, out, work, stages))
            return step(avg, dt, stages, work, out)

        monkeypatch.setattr(fvm, "_step", spy)
        for sweep in (lambda: solve_transport(f0, drifts[0], tg, adjoint=lam0),
                      lambda: solve_final_fields(f0, drifts, tg)):
            seen.clear()
            sweep()
            assert len(seen) == 25
            assert len({avg.ctypes.data for avg, *_ in seen}) == 2  # the states alternate
            for avg, out, work, stages in seen:
                assert aligned([avg, out, work.padded, *work.faces, *work.flux,
                                *work.limiter[0], *work.limiter[1], work.stage])
                for speed, limiter in stages:
                    assert aligned([speed, *limiter])

    @given(st.sampled_from([(1, 0), (1, 1), (2, 0), (2, 1), (2, 2), (3, 0), (3, 3)]),
           st.integers(min_value=8, max_value=40), st.data(), st.sampled_from([1e-2, 5e-2]))
    def test_a_stage_is_bitwise_the_same_at_every_placement(self, rows_limited, cells, data,
                                                            pos_dt):
        # numpy's loops may start differently off a cache line, but not
        # round differently: a stage's buffers, its inputs included, at each
        # 8-byte offset within a line give the same bits, signed zeros too
        rows, limited = rows_limited
        grid = Grid1D(-2.0, 3.0, cells)
        lam = pos_dt / grid.dx
        avg = data.draw(arrays(float, (cells, rows), elements=_AVERAGE))
        speed = data.draw(arrays(float, (cells + 1, rows), elements=_SPEED))
        results = set()
        for offset in range(0, 64, 8):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(fvm, "_slots", lambda k, shape, dtype=float: placed(
                    k, shape, dtype, offset=offset))
                a, out = fvm._slots(2, avg.shape)
                a[...] = avg
                s = fvm._slots(1, speed.shape)[0]
                s[...] = speed
                limiter = None
                if limited:
                    coefs = [*fvm._slots(4, (cells, limited)),
                             fvm._slots(1, (cells, limited), bool)[0]]
                    _limiter_coefficients(s[:-1, :limited], s[1:, :limited], lam, coefs)
                    limiter = [c.reshape(-1) for c in coefs]
                work = fvm._StageWork(grid, rows, limited)
                assert work.faces[0].ctypes.data % 64 == offset
                du, rate = quiet(_rhs, a, s, limiter, work, out)
            results.add((du.tobytes(), rate.tobytes()))
        assert len(results) == 1


# rounding allowance of the limiter's guarantees, relative to the cell's
# largest magnitude among uc, uL, uR: 8 ulps of 1 (at most 1 ulp was seen
# over 2e6 random cells)
_LIMITER_TOL = 8 * np.finfo(float).eps


class TestPositivityLimiter:
    @given(_LIMITER_CELLS, _LAM)
    def test_faces_nonnegative_and_outflow_capped(self, cells, lam):
        uc, uL, uR, sL, sR = cells
        lf, rf = quiet(limited, uc, uL, uR, sL, sR, lam)
        out_l = lam * np.maximum(-sL, 0.0)
        out_r = lam * np.maximum(sR, 0.0)
        guarded = (uc > 0.0) & (out_l + out_r < 1.0)
        tol = _LIMITER_TOL * np.maximum.reduce([np.abs(uc), np.abs(uL), np.abs(uR)])
        assert np.all((lf >= -tol)[guarded])
        assert np.all((rf >= -tol)[guarded])
        drain = out_l * lf + out_r * rf
        assert np.all((drain <= uc + tol)[guarded])

    @given(_LIMITER_CELLS, _LAM)
    def test_faces_needing_no_limit_come_back_unscaled(self, cells, lam):
        uc, uL, uR, sL, sR = cells
        lf, rf = quiet(limited, uc, uL, uR, sL, sR, lam)
        uL1, uR1 = uc + (uL - uc), uc + (uR - uc)
        out_l = lam * np.maximum(-sL, 0.0)
        out_r = lam * np.maximum(sR, 0.0)
        capped = ((out_l * uL1 + out_r * uR1 > uc) & (uc >= 0.0)
                  & (out_l + out_r < 1.0))
        free = (np.minimum(uL, uR) >= 0.0) & ~capped
        assert np.array_equal(lf[free], uL1[free])
        assert np.array_equal(rf[free], uR1[free])


class TestFlux:
    def test_consistency(self):
        assert flux(0.8, 0.8, -1.3) == -1.3 * 0.8
        assert flux(0.0, 0.0, 2.0) == 0.0

    def test_upwind_selection(self):
        # positive speed takes the left state
        assert flux(2.0, 0.0, 1.0) == 2.0
        assert flux(2.0, 0.0, -1.0) == 0.0


def one_row_rhs(avg, grid, speed):
    """The unlimited stage derivative of a single row (cells on axis 0)."""
    return sweep_rhs(avg[:, None], grid, speed[:, None])[0][:, 0]


class TestSemidiscreteRhs:
    def test_constant_field_constant_speed_interior_zero(self):
        grid = Grid1D(-2.0, 3.0, 64)
        field = DensityField(grid, np.full(64, 1.0))
        rhs = one_row_rhs(field.averages, grid, constant_speed(0.7).speed(grid.edges, 0.0))
        # zero-inflow ghosts perturb two cells per side; the interior is exact
        assert np.max(np.abs(rhs[2:-2])) <= 1e-13
        assert rhs.sum() <= 1e-13

    def test_smooth_data_third_order(self):
        """Spatial truncation error against the exact cell-average RHS."""
        errs = []
        for n in (100, 200, 400, 800):
            grid = Grid1D(0.0, 4.0, n)
            anti = lambda x: -(2.0 / np.pi) * np.cos(0.5 * np.pi * x)
            exact_avg = (anti(grid.edges[1:]) - anti(grid.edges[:-1])) / grid.dx
            field = DensityField(grid, exact_avg)
            rhs = one_row_rhs(field.averages, grid, constant_speed(1.0).speed(grid.edges, 0.0))
            point = lambda x: np.sin(0.5 * np.pi * x)
            exact_rhs = -(point(grid.edges[1:]) - point(grid.edges[:-1])) / grid.dx
            errs.append(np.max(np.abs(rhs - exact_rhs)[4:-4]))
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(orders >= 2.7)

    def test_forward_speed(self):
        tg = TimeGrid.from_step(1.0, 1e-2)
        c = ControlPath.from_functions(
            tg, lambda t: 0.3 * np.sin(np.pi * t), lambda t: 0.5 * t
        )
        act = Activation("tanh")
        fwd = DriftSpec(c, act)
        x = np.linspace(-2.0, 3.0, 11)
        for t in (0.0, 0.25, 1.0):
            want = act.value(float(c.eval_w(t)) * x + float(c.eval_b(t)))
            assert np.array_equal(fwd.speed(x, t), want)

    def test_time_reversed_speed(self):
        tg = TimeGrid.from_step(1.0, 1e-2)
        c = ControlPath.from_functions(
            tg, lambda t: 0.3 * np.sin(np.pi * t), lambda t: 0.5 * t
        )
        act = Activation("tanh")
        rev = DriftSpec(c, act, time_reversed=True)
        x = np.linspace(-2.0, 3.0, 11)
        for t in (0.0, 0.25, 1.0):
            tau = tg.t_final - t
            want = -act.value(float(c.eval_w(tau)) * x + float(c.eval_b(tau)))
            assert np.array_equal(rev.speed(x, t), want)

    @pytest.mark.parametrize("reversed_", [False, True])
    @pytest.mark.parametrize("kind", ["identity", "relu", "sigmoid", "tanh", "gcu"])
    def test_speed_into_out_is_bitwise_the_allocating_call(self, kind, reversed_):
        tg = TimeGrid.from_step(1.0, 1e-2)
        c = ControlPath.from_functions(
            tg, lambda t: 0.3 * np.sin(np.pi * t), lambda t: 0.5 * t
        )
        drift = DriftSpec(c, Activation(kind), time_reversed=reversed_)
        x = np.linspace(-2.0, 3.0, 11)
        for t in (0.25, np.array([0.0, 0.125, 0.25, 1.0])):
            want = drift.speed(x, t)
            out = np.full(want.shape, 7.0)
            assert drift.speed(x, t, out=out) is out
            assert out.tobytes() == want.tobytes()

    def test_time_reversed_rhs_equals_negated_reversed_controls(self):
        # for an odd activation the reversal is literally a control transform
        tg = TimeGrid.from_step(1.0, 1e-2)
        c = ControlPath.from_functions(
            tg, lambda t: 0.3 * np.sin(np.pi * t), lambda t: 0.5 * t
        )
        rev = DriftSpec(c, Activation("identity"), time_reversed=True)
        fwd = DriftSpec(
            ControlPath(tg, w=-c.w[::-1], b=-c.b[::-1]), Activation("identity")
        )
        grid = Grid1D(-2.0, 3.0, 100)
        field = project_initial(gaussian_density(0.3, 0.25), grid)
        for t in tg.nodes[::25]:
            a = one_row_rhs(field.averages, grid, rev.speed(grid.edges, float(t)))
            b = one_row_rhs(field.averages, grid, fwd.speed(grid.edges, float(t)))
            assert_allclose(a, b, rtol=1e-12, atol=1e-14)


class TestStepper:
    def test_zero_speed_step_is_identity(self):
        grid = Grid1D(-2.0, 3.0, 100)
        field = project_initial(gaussian_density(0.3, 0.25), grid)
        one_step = TimeGrid.from_step(1e-2, 1e-2)
        out = solve_transport(field, constant_speed(0.0), one_step, limit_positive=False)[-1]
        assert_allclose(out.averages, field.averages, rtol=1e-14)
        assert out.time == 1e-2

    def test_single_step_conserves_mass(self):
        grid = Grid1D(-2.0, 3.0, 200)
        field = project_initial(gaussian_density(0.3, 0.25), grid)
        tg = TimeGrid.from_step(1.0, 1e-2)
        drift = DriftSpec(
            ControlPath.constant(tg, w=0.3, b=0.1), Activation("tanh")
        )
        one_step = TimeGrid.from_step(1e-2, 1e-2)
        out = solve_transport(field, drift, one_step, limit_positive=False)[-1]
        assert abs(out.mass - field.mass) <= 1e-13

    def test_scalar_decay_single_step_value(self):
        dt = 0.1
        u = np.array([1.0])
        out = reference_ssp_rk3(u, dt, lambda v, k: -v)
        want = 1.0 - dt + dt**2 / 2.0 - dt**3 / 6.0
        assert_allclose(out[0], want, rtol=1e-15)

    def test_scalar_decay_third_order(self):
        errs = []
        for dt in (0.1, 0.05, 0.025):
            u = np.array([1.0])
            for _ in range(round(1.0 / dt)):
                u = reference_ssp_rk3(u, dt, lambda v, k: -v)
            errs.append(abs(u[0] - np.exp(-1.0)))
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(orders >= 2.9)


class TestTransportSolve:
    def test_unit_speed_translates_indicator(self):
        grid = Grid1D(-2.0, 3.0, 200)
        box = lambda lo, hi: (lambda x: ((x >= lo) & (x <= hi)).astype(float))
        f0 = project_initial(box(-0.75, -0.25), grid)
        tg = TimeGrid.from_step(1.0, 1e-2)
        snaps = solve_transport(f0, constant_speed(1.0, 1.0, 1e-2), tg)
        shifted = project_initial(box(0.25, 0.75), grid)
        assert wasserstein1(snaps[-1], shifted) <= 2 * grid.dx

    def test_zero_controls_leave_density_alone(self):
        grid = Grid1D(-2.0, 3.0, 100)
        f0 = project_initial(gaussian_density(0.3, 0.25), grid)
        tg = TimeGrid.from_step(1.0, 1e-2)
        drift = DriftSpec(ControlPath.zero(tg), Activation("tanh"))
        snaps = solve_transport(f0, drift, tg)
        assert len(snaps) == tg.n_steps + 1
        for s in (snaps[1], snaps[-1]):
            assert_allclose(s.averages, f0.averages, rtol=1e-13, atol=1e-300)

    def test_linear_drift_contracts_variance(self):
        """Speed -(x - mu) halves the variance at rate e^{-2t}, mean fixed."""
        mu, s = 0.5, 0.3
        grid = Grid1D(-2.0, 3.0, 400)
        f0 = project_initial(gaussian_density(mu, s), grid)
        tg = TimeGrid.from_step(0.5, 2.5e-3)
        drift = DriftSpec(
            ControlPath.constant(tg, w=-1.0, b=mu), Activation("identity")
        )
        f_T = solve_transport(f0, drift, tg)[-1]
        v_exact = s * s * np.exp(-2.0 * tg.t_final)
        assert abs(variance(f_T) - v_exact) / v_exact <= 5e-3
        assert abs(moments(f_T, 1) - moments(f0, 1)) <= 1e-10

    @pytest.mark.parametrize("case", ["box", "gaussian", "beta"])
    def test_mass_and_positivity_hold(self, case):
        grid = Grid1D(-2.0, 3.0, 200)
        tg = TimeGrid.from_step(1.0, 1e-2)
        if case == "box":
            f0 = project_initial(
                lambda x: ((x >= -0.75) & (x <= -0.25)).astype(float), grid
            )
            drift = constant_speed(1.0, 1.0, 1e-2)
        elif case == "gaussian":
            f0 = project_initial(gaussian_density(0.5, 0.2), grid)
            drift = DriftSpec(
                ControlPath.constant(tg, w=-0.25, b=0.25), Activation("identity")
            )
        else:
            f0 = project_initial(
                lambda x: np.where((x > 0) & (x < 1), np.clip(x, 0, 1) * (1 - np.clip(x, 0, 1)) ** 4, 0.0),
                grid,
            )
            drift = DriftSpec(
                ControlPath.from_functions(tg, lambda t: t, lambda t: -0.2 * t),
                Activation("sigmoid"),
            )
        snaps = solve_transport(f0, drift, tg)
        diag = density_diagnostics(snaps)
        assert diag["mass_drift"] <= 1e-10
        assert diag["min_average"] >= -1e-12

    def test_adjoint_solves_are_reproducible(self):
        # a forward solve in between must not perturb the reversed solve
        grid = Grid1D(-2.0, 3.0, 100)
        tg = TimeGrid.from_step(0.2, 1e-2)
        c = ControlPath.from_functions(
            tg, lambda t: 0.3 * np.sin(np.pi * t), lambda t: 0.5 * t
        )
        lam0 = DensityField(grid, 2.0 * grid.centers - 1.0)
        rev = DriftSpec(c, Activation("tanh"), time_reversed=True)
        first = solve_transport(lam0, rev, tg)
        f0 = project_initial(gaussian_density(0.3, 0.25), grid)
        solve_transport(f0, DriftSpec(c, Activation("tanh")), tg)
        second = solve_transport(lam0, rev, tg)
        for a, b in zip(first, second):
            assert np.array_equal(a.averages, b.averages)

    def test_speeds_evaluated_once_per_stage(self, monkeypatch):
        # one speed call a block covers its stage times in time order; a
        # block's end speed is the next block's start speed, read once
        times = []
        original = DriftSpec.speed

        def counted(self, x, t, out=None):
            times.append(np.array(t, copy=True))
            return original(self, x, t, out=out)

        monkeypatch.setattr(DriftSpec, "speed", counted)
        grid = Grid1D(-2.0, 3.0, 100)
        f0 = project_initial(gaussian_density(0.3, 0.25), grid)
        tg = TimeGrid.from_step(0.5, 1e-2)
        drift = DriftSpec(ControlPath.constant(tg, w=0.3, b=0.1), Activation("tanh"))
        solve_transport(f0, drift, tg)
        block = _block_steps(grid.n_cells + 1, 1)
        assert block == 20 and tg.n_steps == 50
        assert [t.size for t in times] == [2 * block + 1, 2 * block, 2 * (tg.n_steps - 2 * block)]
        want, t = [0.0], 0.0
        for _ in range(tg.n_steps):
            want += [t + 0.5 * tg.dt, t + tg.dt]
            t = t + tg.dt
        assert np.concatenate(times).tolist() == want

    @pytest.mark.parametrize("reversed_", [False, True], ids=["forward", "adjoint"])
    @pytest.mark.parametrize("act", ["identity", "relu", "sigmoid", "tanh", "gcu"])
    def test_solve_is_the_stepper_that_reads_every_stage(self, act, reversed_):
        # every stage reads its speeds by a scalar call and forms its
        # right-hand side by the reference kernels; forward solves limit the
        # faces, adjoint solves do not.  50 steps at 120 cells are four blocks
        grid = Grid1D(-2.0, 3.0, 120)
        tg = TimeGrid.from_step(0.5, 1e-2)
        c = ControlPath.from_functions(
            tg, lambda t: 0.4 * np.sin(3.0 * t), lambda t: t - 0.5
        )
        drift = DriftSpec(c, Activation(act), time_reversed=reversed_)
        if reversed_:
            f0 = DensityField(grid, 2.0 * grid.centers - 1.0)
        else:
            f0 = project_initial(lambda x: ((x > -0.5) & (x < 0.2)).astype(float), grid)
        snaps = solve_transport(f0, drift, tg)
        pos_dt = None if reversed_ else tg.dt
        u, t = f0.averages, f0.time
        for snap in snaps[1:]:
            speeds = [drift.speed(grid.edges, s) for s in (t, t + tg.dt, t + 0.5 * tg.dt)]
            u = reference_ssp_rk3(u, tg.dt,
                                  lambda v, k: reference_rhs(v, grid, speeds[k], pos_dt)[0])
            t = t + tg.dt
            assert snap.time == t
            assert snap.averages.tobytes() == u.tobytes()


    def test_hard_cfl_bound_raises_with_speed(self):
        grid = Grid1D(-2.0, 3.0, 200)
        f0 = project_initial(gaussian_density(0.3, 0.25), grid)
        tg = TimeGrid.from_step(1.0, 0.05)
        with pytest.raises(CFLViolationError, match="interface speed"):
            solve_transport(f0, constant_speed(1.0, 1.0, 0.05), tg)

    def test_configured_cfl_overrun_warns(self, caplog):
        grid = Grid1D(-2.0, 3.0, 200)
        f0 = project_initial(gaussian_density(0.3, 0.25), grid)
        tg = TimeGrid.from_step(0.1, 0.02)
        with caplog.at_level(logging.WARNING, logger="mfrn.fvm"):
            solve_transport(f0, constant_speed(1.0, 0.1, 0.02), tg)
        assert any("configured cfl" in r.getMessage() for r in caplog.records)

    def test_forward_solve_checks_itself(self, caplog):
        # unlimited, the box undershoots at its edges; a forward solve says
        # so whether or not it runs the limiter
        grid = Grid1D(-2.0, 3.0, 200)
        f0 = project_initial(lambda x: ((x >= -0.75) & (x <= -0.25)).astype(float), grid)
        tg = TimeGrid.from_step(0.5, 1e-2)
        with caplog.at_level(logging.WARNING, logger="mfrn.fvm"):
            snaps = solve_transport(f0, constant_speed(1.0, 0.5, 1e-2), tg,
                                    limit_positive=False)
        worst = density_diagnostics(snaps)["min_average"]
        assert worst < -1e-8
        said = [r.getMessage() for r in caplog.records]
        assert said == [f"forward solve produced cell average {worst:.3e} below -1e-8"]

    def test_adjoint_solve_is_not_checked(self, caplog):
        # the signed adjoint field is far below zero and loses mass through
        # the boundary; neither is a fault of a reversed solve
        grid = Grid1D(-2.0, 3.0, 200)
        tg = TimeGrid.from_step(0.5, 1e-2)
        lam0 = DensityField(grid, 2.0 * grid.centers - 1.0)
        drift = DriftSpec(ControlPath.constant(tg, w=0.0, b=1.0), Activation("identity"),
                          time_reversed=True)
        with caplog.at_level(logging.WARNING, logger="mfrn.fvm"):
            snaps = solve_transport(lam0, drift, tg)
        assert density_diagnostics(snaps)["min_average"] == pytest.approx(-4.975)
        assert abs(snaps[-1].mass - lam0.mass) > 1e-10
        assert caplog.records == []

    def test_a_reversed_solve_is_never_limited(self):
        # limit_positive asks for the limiter on a forward row only: the
        # signed adjoint field, well below zero here, is never clipped
        grid = Grid1D(-2.0, 3.0, 200)
        tg = TimeGrid.from_step(0.5, 1e-2)
        lam0 = DensityField(grid, 2.0 * grid.centers - 1.0)
        drift = DriftSpec(ControlPath.from_functions(tg, lambda t: 0.8 * np.sin(30.0 * t),
                                                     lambda t: 4.0 * t - 0.5),
                          Activation("tanh"), time_reversed=True)
        plain = solve_transport(lam0, drift, tg, limit_positive=False)
        assert density_diagnostics(plain)["min_average"] < -1.0
        _assert_same_snapshots(solve_transport(lam0, drift, tg, limit_positive=True), plain)
        _assert_same_snapshots(solve_transport(lam0, drift, tg), plain)

    def test_a_nan_forward_solve_fails_its_check(self, caplog):
        # NaN compares False both ways, so a check written as "drift > tol"
        # would pass it; both of the solve's checks name it instead
        grid = Grid1D(-2.0, 3.0, 200)
        avg = project_initial(gaussian_density(0.3, 0.25), grid).averages.copy()
        avg[100] = np.nan
        f0, tg = DensityField(grid, avg), TimeGrid.from_step(0.1, 1e-2)
        said, snaps = _warnings(
            caplog, lambda: solve_transport(f0, constant_speed(1.0, 0.1, 1e-2), tg))
        assert np.isnan(snaps[-1].averages).any()
        assert said == ["forward solve mass drift nan (net of boundary outflow) exceeds 1e-10",
                        "forward solve produced cell average nan below -1e-8"]


def _warnings(caplog, solve):
    """The fvm warnings a solve logs, sorted, and what it returned."""
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="mfrn.fvm"):
        out = solve()
    return sorted(r.getMessage() for r in caplog.records), out


def _assert_same_snapshots(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.time == b.time
        assert a.averages.tobytes() == b.averages.tobytes()


class TestPairedSweep:
    """A limited forward row and an adjoint row in one sweep are the two
    solves on their own."""

    @pytest.mark.parametrize("cells, n_steps", [(200, 23), (1100, 5)],
                             ids=["200-cells", "1100-cells"])
    @pytest.mark.parametrize("act", ["identity", "relu", "sigmoid", "tanh", "gcu"])
    def test_rows_are_the_solves(self, caplog, act, cells, n_steps):
        # 23 steps are two blocks of 10 and one of 3 at 200 cells, alone or
        # paired; at 1100 cells the 5 steps of a lone solve are blocks of 4
        # and 1, and those of the paired sweep blocks of 2, 2 and 1, so
        # each ends on a single step carried over from a full block
        lone, paired = _block_steps(cells + 1, 1), _block_steps(cells + 1, 2)
        assert (lone, paired) == ((10, 10) if cells == 200 else (4, 2))
        dt = 1e-2 if cells == 200 else 1e-3
        tg = TimeGrid.from_step(n_steps * dt, dt)
        c = ControlPath.from_functions(
            tg, lambda t: 0.8 * np.sin(30.0 * t), lambda t: 4.0 * t - 0.5
        )
        grid = Grid1D(-2.0, 3.0, cells)
        # the box's edges make the limiter act on the forward row
        f0 = project_initial(lambda x: ((x >= -0.75) & (x <= -0.25)).astype(float), grid)
        lam0 = DensityField(grid, 2.0 * grid.centers - 1.0)
        fwd = DriftSpec(c, Activation(act))
        rev = DriftSpec(c, Activation(act), time_reversed=True)
        said_f, want_f = _warnings(caplog, lambda: solve_transport(f0, fwd, tg))
        said_a, want_a = _warnings(caplog, lambda: solve_transport(lam0, rev, tg))
        said, (got_f, got_a) = _warnings(
            caplog, lambda: solve_transport(f0, fwd, tg, adjoint=lam0))
        _assert_same_snapshots(got_f, want_f)
        _assert_same_snapshots(got_a, want_a)
        assert said == sorted(said_f + said_a)

    def test_a_forward_row_past_the_hard_bound_fails_the_sweep(self):
        grid = Grid1D(-2.0, 3.0, 100)
        tg = TimeGrid.from_step(0.1, 1e-2)
        f0 = project_initial(gaussian_density(0.3, 0.25), grid)
        lam0 = DensityField(grid, 2.0 * grid.centers - 1.0)
        fast = DriftSpec(ControlPath.constant(tg, w=0.0, b=10.0), Activation("identity"))
        with pytest.raises(CFLViolationError, match="interface speed"):
            solve_transport(f0, fast, tg, adjoint=lam0)

    def test_an_adjoint_row_past_the_hard_bound_fails_the_sweep(self, monkeypatch):
        # 40 steps at 100 cells are two blocks of 20.  With b(t) = 20 t the
        # forward speed passes the hard bound (CFL 1.45) only in the second
        # block, reaching CFL 1.6 at its end; the adjoint speed -b(T - t)
        # passes it in the first
        grid = Grid1D(-2.0, 3.0, 100)
        assert _block_steps(grid.n_cells + 1, 1) == _block_steps(grid.n_cells + 1, 2) == 20
        tg = TimeGrid.from_step(0.4, 1e-2)
        f0 = project_initial(gaussian_density(0.3, 0.25), grid)
        lam0 = DensityField(grid, 2.0 * grid.centers - 1.0)
        fast = DriftSpec(ControlPath.from_functions(tg, lambda t: 0.0 * t, lambda t: 20.0 * t),
                         Activation("identity"))
        steps, step = [], fvm._step
        monkeypatch.setattr(fvm, "_step", lambda *args: steps.append(1) or step(*args))
        with pytest.raises(CFLViolationError, match="interface speed"):
            solve_transport(f0, fast, tg)
        assert len(steps) == 20
        steps.clear()
        with pytest.raises(CFLViolationError, match="interface speed"):
            solve_transport(f0, fast, tg, adjoint=lam0)
        assert steps == []

    def test_the_adjoint_row_starts_with_the_forward_row(self):
        grid = Grid1D(-2.0, 3.0, 100)
        tg = TimeGrid.from_step(0.1, 1e-2)
        f0 = project_initial(gaussian_density(0.3, 0.25), grid)
        fwd = DriftSpec(ControlPath.zero(tg), Activation("identity"))
        for lam0 in (DensityField(Grid1D(-2.0, 3.0, 50), np.zeros(50)),
                     DensityField(grid, np.zeros(100), time=0.5)):
            with pytest.raises(ValueError, match="adjoint row"):
                solve_transport(f0, fwd, tg, adjoint=lam0)

    def test_the_adjoint_row_reverses_a_forward_drift(self):
        grid = Grid1D(-2.0, 3.0, 100)
        tg = TimeGrid.from_step(0.1, 1e-2)
        lam0 = DensityField(grid, 2.0 * grid.centers - 1.0)
        rev = DriftSpec(ControlPath.zero(tg), Activation("identity"), time_reversed=True)
        with pytest.raises(ValueError, match="must be forward"):
            solve_transport(lam0, rev, tg, adjoint=lam0)


def scaled_trials(tg, act, w, b, rows=9):
    """Drifts of the controls (w, b) scaled by 1, 1/2, ..., like the trials
    of a line search."""
    c = ControlPath.from_functions(tg, w, b)
    return [DriftSpec(ControlPath(tg, 0.5**k * c.w, 0.5**k * c.b), Activation(act))
            for k in range(rows)]


class TestFinalFieldSweep:
    """Forward solves of several controls from one start, made as one sweep
    that keeps only the final fields, are the lone solves' last snapshots."""

    @pytest.mark.parametrize("cells", [40, 400])
    @pytest.mark.parametrize("act", ["identity", "tanh", "sigmoid"])
    def test_rows_are_the_lone_solves(self, caplog, act, cells):
        # 23 steps of 9 rows are blocks of 11, 11 and 1 at 40 cells and 23
        # blocks of 1 at 400.  The box's edges make the limiter act, and the
        # larger controls run past the configured CFL, so rows warn on their own
        grid = Grid1D(-2.0, 3.0, cells)
        dt = 0.6 * grid.dx
        tg = TimeGrid.from_step(23 * dt, dt)
        T = tg.t_final
        drifts = scaled_trials(tg, act, lambda t: 0.2 * np.sin(8.0 * t / T),
                               lambda t: 0.8 + 0.8 * t / T)
        f0 = project_initial(lambda x: ((x >= -0.75) & (x <= -0.25)).astype(float), grid)
        lone, said_lone = [], []
        for drift in drifts:
            said, snaps = _warnings(caplog, lambda: solve_transport(f0, drift, tg))
            said_lone += said
            lone.append(snaps[-1])
        said, finals = _warnings(caplog, lambda: solve_final_fields(f0, drifts, tg))
        assert len(finals) == len(drifts)
        for got, want in zip(finals, lone):
            assert got.time == want.time
            assert np.array_equal(got.averages, want.averages)
            assert got.averages.tobytes() == want.averages.tobytes()
        assert said == sorted(said_lone)
        assert any("exceeded configured cfl" in line for line in said)
        unlimited = solve_transport(f0, drifts[0], tg, limit_positive=False)[-1]
        assert not np.array_equal(unlimited.averages, finals[0].averages)

    def test_each_row_checks_itself(self, caplog):
        # a start with a negative average: every forward solve says so
        grid = Grid1D(-2.0, 3.0, 100)
        tg = TimeGrid.from_step(0.1, 1e-2)
        f0 = project_initial(gaussian_density(0.3, 0.25), grid)
        f0 = DensityField(grid, np.where(np.arange(100) == 30, -1e-6, f0.averages))
        drifts = scaled_trials(tg, "tanh", lambda t: 0.3 + 0.0 * t, lambda t: t, rows=4)
        said_lone = []
        for drift in drifts:
            said_lone += _warnings(caplog, lambda: solve_transport(f0, drift, tg))[0]
        said, _ = _warnings(caplog, lambda: solve_final_fields(f0, drifts, tg))
        assert len(said) == 4 and all("below -1e-8" in line for line in said)
        assert said == sorted(said_lone)

    @pytest.mark.parametrize("rows, steps, said", [
        ([(2.5, 0.0), (0.0, 30.0), (0.2, 0.0)], 13,
         "max interface speed 7.8 gives CFL number 1.56"),
        ([(0.0, 30.0), (0.0, -40.0)], 0, "max interface speed 8 gives CFL number 1.6"),
    ], ids=["later-block", "first-block"])
    def test_a_row_past_the_hard_bound_fails_the_sweep(self, caplog, monkeypatch, rows,
                                                       steps, said):
        # row (b0, s) has w = 0 and b(t) = b0 + s t.  30 steps of 3 rows at
        # 100 cells are blocks of 13, 13 and 4: the row b = 30 t passes the
        # hard bound in the second block, while b = 2.5 (CFL 0.5) is past
        # the configured CFL from the start.  2 rows are blocks of 20, and
        # b = -40 t passes the hard bound in the first.  The sweep takes the
        # steps of the blocks before, raises naming the failing row's
        # largest speed there, and logs no warning
        grid = Grid1D(-2.0, 3.0, 100)
        tg = TimeGrid.from_step(0.3, 1e-2)
        f0 = project_initial(gaussian_density(0.3, 0.25), grid)
        drifts = [DriftSpec(ControlPath.from_functions(tg, lambda t: 0.0 * t,
                                                       lambda t, b0=b0, s=s: b0 + s * t),
                            Activation("identity")) for b0, s in rows]
        taken, step = [], fvm._step
        monkeypatch.setattr(fvm, "_step", lambda *args: taken.append(1) or step(*args))
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="mfrn.fvm"), \
                pytest.raises(CFLViolationError, match=re.escape(said)):
            solve_final_fields(f0, drifts, tg)
        assert len(taken) == steps
        assert caplog.records == []

    def test_every_row_is_forward(self):
        grid = Grid1D(-2.0, 3.0, 100)
        tg = TimeGrid.from_step(0.1, 1e-2)
        f0 = project_initial(gaussian_density(0.3, 0.25), grid)
        rev = DriftSpec(ControlPath.zero(tg), Activation("identity"), time_reversed=True)
        with pytest.raises(ValueError, match="forward solve"):
            solve_final_fields(f0, [rev], tg)
        assert solve_final_fields(f0, [], tg) == []


def stage_by_stage_cfl(drift, grid, tg):
    """Each step's CFL number max(|speed|) * dt / dx over its three stage
    times, the speeds read by scalar calls."""
    nus, t = [], 0.0
    for _ in range(tg.n_steps):
        m = max(float(np.max(np.abs(drift.speed(grid.edges, s))))
                for s in (t, t + tg.dt, t + 0.5 * tg.dt))
        nus.append(m * tg.dt / grid.dx)
        t = t + tg.dt
    return nus


class TestBlockCFLCheck:
    """The CFL check runs once per block of steps, before any of them."""

    def test_a_block_past_the_hard_bound_takes_no_step(self, monkeypatch):
        # 30 steps at 100 cells are blocks of 20 and 10.  With b(t) = 30 t a
        # step's CFL number first passes the hard bound in step 24, inside
        # the second block; the solve takes the first block's 20 steps, then
        # raises naming the second block's largest speed, at t = 0.3
        grid = Grid1D(-2.0, 3.0, 100)
        assert _block_steps(grid.n_cells + 1, 1) == 20
        tg = TimeGrid.from_step(0.3, 1e-2)
        f0 = project_initial(gaussian_density(0.3, 0.25), grid)
        drift = DriftSpec(ControlPath.from_functions(tg, lambda t: 0.0 * t, lambda t: 30.0 * t),
                          Activation("identity"))
        nus = stage_by_stage_cfl(drift, grid, tg)
        assert max(nus[:24]) < fvm._CFL_HARD < nus[24]
        largest = float(np.max(np.abs(drift.speed(grid.edges, 0.3))))
        steps, step = [], fvm._step
        monkeypatch.setattr(fvm, "_step", lambda *args: steps.append(1) or step(*args))
        said = f"max interface speed {largest:.6g} gives CFL number {max(nus):.4g}"
        assert said == "max interface speed 9 gives CFL number 1.8"
        with pytest.raises(CFLViolationError, match=re.escape(said)):
            solve_transport(f0, drift, tg)
        assert len(steps) == 20

    # blocks of 20, 10, 4 and 4 steps alone, 20, 10, 2 and 2 paired
    @pytest.mark.parametrize("cells", [100, 200, 700, 1100])
    @pytest.mark.parametrize("kind", ["forward", "adjoint", "paired"])
    @pytest.mark.parametrize("peak", [6.5, 25.0], ids=["mid-time", "end"])
    def test_the_warned_cfl_number_is_the_largest_step_value(self, caplog, kind, cells,
                                                            peak):
        # the controls live on a grid of half steps, and b spikes at a step's
        # mid time or at T, which is where the adjoint row starts
        grid = Grid1D(-2.0, 3.0, cells)
        dt = 0.5 * grid.dx
        tg = TimeGrid.from_step(25 * dt, dt)
        c = ControlPath.from_functions(
            TimeGrid.from_step(25 * dt, 0.5 * dt), lambda t: 0.1 * np.sin(3.0 * t / tg.t_final),
            lambda t: 1.0 + 0.8 * np.exp(-(((t - peak * dt) / dt) ** 2)))
        fwd = DriftSpec(c, Activation("identity"))
        rev = DriftSpec(c, Activation("identity"), time_reversed=True)
        f0 = project_initial(gaussian_density(0.3, 0.25), grid)
        lam0 = DensityField(grid, 2.0 * grid.centers - 1.0)
        solve, drifts = {
            "forward": (lambda: solve_transport(f0, fwd, tg), [fwd]),
            "adjoint": (lambda: solve_transport(lam0, rev, tg), [rev]),
            "paired": (lambda: solve_transport(f0, fwd, tg, adjoint=lam0), [fwd, rev]),
        }[kind]
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="mfrn.fvm"):
            solve()
        warned = [r.args[1] for r in caplog.records
                  if "exceeded configured cfl" in r.getMessage()]
        want = [max(stage_by_stage_cfl(d, grid, tg)) for d in drifts]
        assert all(nu > 0.45 for nu in want)
        assert sorted(warned) == sorted(want)


class TestStageSchedule:
    @pytest.mark.parametrize("cells, n_steps", [(200, 47), (3200, 5)],
                             ids=["200-cells", "3200-cells"])
    @pytest.mark.parametrize("reversed_", [False, True], ids=["forward", "adjoint"])
    @pytest.mark.parametrize("act", ["identity", "relu", "sigmoid", "tanh", "gcu"])
    def test_rows_are_the_per_stage_formulas(self, monkeypatch, act, reversed_, cells,
                                             n_steps):
        # 47 steps of the two rows are four blocks of 10 and one of 7 at 200
        # cells; at 3200 cells 5 steps are two blocks of 2 and one of 1
        block = _block_steps(cells + 1, 2)
        assert (block, n_steps % block) == ((10, 7) if cells == 200 else (2, 1))
        dt = 2e-3 if cells == 3200 else 1e-2
        tg = TimeGrid.from_step(n_steps * dt, dt)
        c = ControlPath.from_functions(
            tg, lambda t: 0.8 * np.sin(30.0 * t), lambda t: 4.0 * t - 0.5
        )
        # row 0 in the given direction, row 1 in the other one
        drifts = [DriftSpec(c, Activation(act), time_reversed=rev)
                  for rev in (reversed_, not reversed_)]
        grid = Grid1D(-2.0, 3.0, cells)
        lam = None if reversed_ else dt / grid.dx
        calls = []
        original = DriftSpec.speed

        def counted(self, x, t, out=None):
            calls.append(t)
            return original(self, x, t, out=out)

        monkeypatch.setattr(DriftSpec, "speed", counted)
        # a block's rows are checked before the next block is drawn: the
        # schedule reuses its buffers from block to block
        t, sizes = 0.0, []
        for steps, peaks in _stage_schedule(drifts, grid, 0.0, dt, n_steps, lam):
            # the stage times the block adds, in time order: the first block
            # starts at its first node, a later one at its first mid (its
            # first node was the block before's last)
            maxima = [] if sizes else [[float(np.max(np.abs(original(d, grid.edges, t))))
                                        for d in drifts]]
            for stages in steps:
                wants = []
                for (speed, limiter), when in zip(stages, (t, t + dt, t + 0.5 * dt)):
                    want = [original(d, grid.edges, when) for d in drifts]
                    wants.append(want)
                    assert speed.shape == (cells + 1, 2)
                    for r in range(2):
                        assert speed[:, r].tobytes() == want[r].tobytes()
                    if lam is None:
                        assert limiter is None
                        continue
                    out_l = lam * np.maximum(-want[0][:-1], 0.0)
                    out_r = lam * np.maximum(want[0][1:], 0.0)
                    s_out = out_l + out_r
                    for got, ref in zip(limiter, (out_l, out_r, s_out, 1.0 - s_out,
                                                  s_out < 1.0)):
                        assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()
                maxima += [[float(np.max(np.abs(w[r]))) for r in range(2)]
                           for w in (wants[2], wants[1])]
                t = t + dt
            assert peaks == [max(m[r] for m in maxima) for r in range(2)]
            assert all(type(p) is float for p in peaks)
            sizes.append(len(steps))
        assert sizes == [block] * (n_steps // block) + [n_steps % block] * (n_steps % block > 0)
        assert len(calls) == 2 * len(sizes)

    @pytest.mark.parametrize("cells, rows", [(3200, 1), (400, 9)])
    @pytest.mark.parametrize("act", ["identity", "tanh"])
    def test_a_later_block_holds_no_fresh_array(self, act, cells, rows):
        # a drawn block's steps run while the sweep allocates its snapshots;
        # what the block holds meanwhile stays where the heap put it.  Each
        # drift's speeds are computed in a scratch of the solve and copied
        # into the table, so the array buffers a later block holds (numpy's
        # tracemalloc domain; the views' object headers are Python's) come
        # to less than one drift's speeds at one stage time; a fresh speed
        # array a block would hold two or more.  (numpy may buffer the speed
        # call's broadcast operands while it runs; those buffers are gone
        # when it returns.)  At 3200 cells 13 steps are blocks of 4, 4, 4
        # and 1; nine rows of 400 cells take one a block
        grid = Grid1D(-2.0, 3.0, cells)
        dt = 0.4 * grid.dx
        tg = TimeGrid.from_step(13 * dt, dt)
        drifts = scaled_trials(tg, act, lambda t: 0.3 + 0.0 * t, lambda t: 0.2 + t, rows)
        schedule = _stage_schedule(drifts, grid, 0.0, dt, tg.n_steps, dt / grid.dx, rows)
        sizes, held = [len(next(schedule)[0])], []
        arrays = [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)]
        tracemalloc.start()
        try:
            for steps, _ in schedule:
                sizes.append(len(steps))
                snapshot = tracemalloc.take_snapshot().filter_traces(arrays)
                held.append(sum(trace.size for trace in snapshot.traces))
        finally:
            tracemalloc.stop()
        assert sizes == ([4, 4, 4, 1] if rows == 1 else [1] * 13)
        assert max(held) < grid.edges.nbytes

    @pytest.mark.parametrize("rows, block", [(1, 10), (2, 10), (3, 6), (9, 2), (30, 1)])
    def test_more_rows_share_the_budget_of_two(self, rows, block):
        # at 200 cells one or two rows take blocks of 10 steps, and more rows
        # shorter ones, so that a block's tables stay within those of two
        # rows, down to a single step
        grid = Grid1D(-2.0, 3.0, 200)
        tg = TimeGrid.from_step(0.47, 1e-2)
        drifts = scaled_trials(tg, "tanh", lambda t: 0.0 * t, lambda t: t, rows)
        sizes = [len(steps) for steps, _ in
                 _stage_schedule(drifts, grid, 0.0, tg.dt, tg.n_steps, 0.5, rows)]
        assert sum(sizes) == tg.n_steps
        assert sizes[:-1] == [block] * (len(sizes) - 1) and sizes[-1] <= block
        assert _block_steps(grid.n_cells + 1, rows) == block

    @pytest.mark.parametrize("reversed_", [False, True], ids=["forward", "adjoint"])
    @pytest.mark.parametrize("act", ["identity", "relu", "sigmoid", "tanh", "gcu"])
    def test_a_row_of_times_is_the_scalar_calls(self, act, reversed_):
        tg = TimeGrid.from_step(1.0, 1e-2)
        c = ControlPath.from_functions(
            tg, lambda t: 3.0 * np.sin(7.0 * t), lambda t: 2.0 * t - 1.0
        )
        drift = DriftSpec(c, Activation(act), time_reversed=reversed_)
        x = Grid1D(-2.0, 3.0, 333).edges
        times = np.concatenate([np.linspace(0.0, 1.0, 41), [0.005, 0.995, 1.0]])
        rows = drift.speed(x, times)
        assert rows.shape == (times.size, x.size)
        for row, t in zip(rows, times):
            assert row.tobytes() == drift.speed(x, float(t)).tobytes()


class TestProjection:
    def test_constant_density_normalizes_to_uniform(self):
        grid = Grid1D(-2.0, 3.0, 64)
        field = project_initial(lambda x: 2.0, grid)
        assert_allclose(field.averages, np.full(64, 0.2), rtol=1e-14)

    def test_quartic_averages_exact_without_renormalization(self):
        # 3-point Gauss is exact through degree five
        grid = Grid1D(0.0, 1.0, 16)
        field = project_initial(lambda x: x**4, grid, renormalize=False)
        exact = (grid.edges[1:] ** 5 - grid.edges[:-1] ** 5) / (5.0 * grid.dx)
        assert_allclose(field.averages, exact, rtol=1e-12)

    def test_gaussian_mass_nearly_one_before_renormalization(self):
        grid = Grid1D(-2.0, 3.0, 400)
        field = project_initial(gaussian_density(1.0, 0.1), grid, renormalize=False)
        assert abs(field.mass - 1.0) <= 1e-8

    def test_nonfinite_density_rejected(self):
        grid = Grid1D(-2.0, 3.0, 64)
        with pytest.raises(ValueError, match="non-finite"):
            project_initial(lambda x: np.where(x > 0, np.inf, 1.0), grid)

    def test_zero_mass_rejected(self):
        grid = Grid1D(-2.0, 3.0, 64)
        with pytest.raises(ValueError, match="normalize"):
            project_initial(lambda x: np.zeros_like(x), grid)


class TestContainers:
    def test_grid_validation(self):
        with pytest.raises(ValueError, match="a < b"):
            Grid1D(1.0, -1.0, 64)
        with pytest.raises(ValueError, match="n_cells"):
            Grid1D(0.0, 1.0, 7)
        # a grid that cannot be represented names the value at fault
        for a, b in [(0.0, np.inf), (-np.inf, 1.0), (np.nan, 1.0), (0.0, np.nan),
                     ("a", 3.0), (None, 3.0)]:
            with pytest.raises(ValueError, match="finite bounds"):
                Grid1D(a, b, 10)
        # finite bounds whose width overflows would make dx inf
        with pytest.raises(ValueError, match=re.escape("width b - a, got [-1e+308, 1e+308]")):
            Grid1D(-1e308, 1e308, 10)
        # an integer beyond float range would make dx overflow
        for n in [10.5, 10.0, np.float64(10.0), True, "10", None, 10**400]:
            with pytest.raises(ValueError, match=re.escape(f"integer >= 8, got {n!r}")):
                Grid1D(0.0, 1.0, n)
        for n in [10, np.int64(10), np.int32(10), np.uint16(10)]:
            assert Grid1D(0.0, 1.0, n).centers.size == 10

    def test_grid_geometry(self):
        grid = Grid1D(0.0, 1.0, 10)
        assert grid.dx == 0.1
        assert_allclose(grid.centers[0], 0.05)
        assert_allclose(grid.edges[-1], 1.0)
        assert grid.edges.size == 11

    def test_edges_are_built_once_and_read_only(self):
        grid = Grid1D(-2.0, 3.0, 400)
        edges = grid.edges
        assert grid.edges is edges
        assert np.array_equal(edges, -2.0 + np.arange(401) * grid.dx)
        assert not edges.flags.writeable
        with pytest.raises(ValueError):
            edges[0] = 0.0
        fresh = Grid1D(-2.0, 3.0, 400)
        assert fresh == grid and hash(fresh) == hash(grid)

    def test_field_shape_checked(self):
        grid = Grid1D(0.0, 1.0, 10)
        with pytest.raises(ValueError, match="does not match"):
            DensityField(grid, np.zeros(9))

    def test_field_mass(self):
        grid = Grid1D(0.0, 1.0, 10)
        field = DensityField(grid, np.full(10, 3.0))
        assert_allclose(field.mass, 3.0, rtol=1e-15)
