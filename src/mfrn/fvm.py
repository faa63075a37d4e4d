"""Conservative finite-volume transport solver on a uniform 1-d grid.

Third-order compact central WENO reconstruction (three-cell stencil), local
Lax-Friedrichs interface flux, and the three-stage strong-stability-preserving
Runge-Kutta time stepper.  Boundary handling is zero-inflow: ghost cell
averages are zero, so compactly supported densities see no boundary effect and
anything advected across the boundary leaves the domain.

The step size is fixed by the caller's time grid.  Each block of steps
measures its largest interface speed before it runs: exceeding the hard
stability margin raises, naming the speed, while a solve that exceeded the
configured CFL number logs it once at its end (the scheme loses its nominal
non-oscillatory guarantee but remains linearly stable).

One stepping loop (_sweep) advances every row of a sweep and returns what
it computed, for two entry points.  solve_transport keeps every node's field
of a solve and, on request, of the adjoint of the same controls: training's
paired sweeps (its first iterate, and optim.reduced_cost(..., paired=True)
in its line searches), the scenarios' solves, the gradient checks and the
benchmark.  solve_final_fields keeps only the final fields of forward solves
of several controls from one start: a line search's other trials, and a lone
cost (optim.reduced_cost) as one row.  The rows' cell averages form one
array, cells on axis 0 and rows on axis 1, so every numpy call of a stage
serves every row and the stencil's shifted views stay contiguous.  Rows do
not interact, so each is bitwise its own solve.  The adjoint row's drift is
the first row's read in reversed time.  Each row has its own CFL check and
warning, the positivity limiter and the mass and sign checks apply to each
forward row, and a row past the hard margin fails the whole sweep.  The
forward rows lead, so the sweep counts them from its drifts, and it takes
the limiter's ratio dt / dx from its grids.

A sweep allocates its stage workspace once (_StageWork): every stage writes
its ghost-padded averages, faces, limiter terms, fluxes and derivative into
those arrays through out= arguments, so it allocates nothing the size of
the grid, and the states alternate between two arrays.  Fresh per-stage
temporaries would be freed to the heap top, trimmed and faulted in again.
Those arrays, the two states and the schedule's tables start on 64-byte
cache lines (_slots): a 3-operand add of 3200 doubles took 1.6 us there
and 2.7-3.0 us off a line, on a shared 2-vCPU x86-64 box.

The views a stage passes to the kernels are built with the workspace, and
those of the schedule's tables with the tables, so a stage slices nothing
and a block after the first holds no fresh array.  A block holds at least
four steps of a lone solve and two of a paired one (_block_steps).
"""

from __future__ import annotations

import functools
import itertools
import logging
import math
from dataclasses import dataclass

import numpy as np

from .core import Activation, ControlPath, TimeGrid, is_number

log = logging.getLogger(__name__)

# Nonlinear weight exponent of the third-order central WENO reconstruction.
CWENO_POWER = 2
# Ideal weights of the side linears and the central parabola.
_D_SIDE, _D_CENTER = 0.25, 0.5

# Hard stability margin for the fixed-step integrator, in CFL units.  The
# three-stage Runge-Kutta stepper with third-order upwind-biased fluxes is
# linearly stable up to roughly 1.6; beyond _CFL_HARD the step refuses to run.
_CFL_HARD = 1.45

# Edge values per block and row of a solve's stage schedule: the speeds of
# one or two rows are built _BLOCK_DOUBLES // (n_cells + 1) steps at a time,
# and at least 4 // rows and one (_block_steps).  More rows share the budget
# of two, so that a sweep's tables keep the size of a paired sweep's however
# many rows it has.
_BLOCK_DOUBLES = 2048

# Bytes of a cache line.  np.empty aligns to 16 bytes only, so where its
# arrays start within a line depends on the state of the heap.
_LINE = 64

# 3-point Gauss-Legendre rule on [-1/2, 1/2] (nodes scaled by cell width).
_GAUSS_NODES = np.array([-np.sqrt(3.0 / 5.0) / 2.0, 0.0, np.sqrt(3.0 / 5.0) / 2.0])
_GAUSS_WEIGHTS = np.array([5.0 / 18.0, 8.0 / 18.0, 5.0 / 18.0])


def _slots(k: int, shape, dtype=float) -> np.ndarray:
    """k C-contiguous arrays of the given shape and dtype, as one array of
    shape (k,) + shape, each starting on a 64-byte boundary: one line more
    than the slots need is allocated, the slots begin at its first aligned
    address and each is padded to whole lines.  Their contents are
    undefined, as np.empty's are."""
    dtype = np.dtype(dtype)
    strides, size = [], dtype.itemsize  # a slot's C strides, and its bytes
    for n in reversed(shape):
        strides.insert(0, size)
        size *= n
    stride = -(-size // _LINE) * _LINE
    raw = np.empty(k * stride + _LINE, np.uint8)
    start = -raw.ctypes.data % _LINE
    return np.ndarray((k, *shape), dtype, raw, start, (stride, *strides))


class CFLViolationError(RuntimeError):
    """Fixed time step exceeds the hard stability bound for the current speeds."""


@dataclass(frozen=True)
class Grid1D:
    a: float
    b: float
    n_cells: int

    def __post_init__(self) -> None:
        if not (is_number(self.a) and is_number(self.b) and self.a < self.b):
            raise ValueError(f"need finite bounds a < b, got [{self.a}, {self.b}]")
        if not math.isfinite(self.b - self.a):  # dx would be inf
            raise ValueError(f"need a finite width b - a, got [{self.a}, {self.b}]")
        if not (is_number(self.n_cells, integer=True) and self.n_cells >= 8):
            raise ValueError(f"n_cells must be an integer >= 8, got {self.n_cells!r}")

    @property
    def dx(self) -> float:
        return (self.b - self.a) / self.n_cells

    @property
    def centers(self) -> np.ndarray:
        return self.a + (np.arange(self.n_cells) + 0.5) * self.dx

    @functools.cached_property
    def edges(self) -> np.ndarray:
        # built once per grid and read-only: every RK stage reads the speeds here
        edges = self.a + np.arange(self.n_cells + 1) * self.dx
        edges.flags.writeable = False
        return edges


@dataclass(frozen=True)
class DensityField:
    """Cell averages of a scalar field at one instant.

    Forward solves carry probability densities (unit mass, near-nonnegative
    averages); adjoint solves reuse the same container for a signed field, so
    no sign or mass constraint is enforced here.
    """

    grid: Grid1D
    averages: np.ndarray
    time: float = 0.0

    def __post_init__(self) -> None:
        avg = np.asarray(self.averages, dtype=float)
        object.__setattr__(self, "averages", avg)
        if avg.shape != (self.grid.n_cells,):
            raise ValueError(
                f"averages shape {avg.shape} does not match grid with {self.grid.n_cells} cells"
            )

    @property
    def mass(self) -> float:
        return float(self.grid.dx * np.sum(self.averages))


@dataclass(frozen=True)
class DriftSpec:
    """Advection speed act(w(t) x + b(t)), optionally time reversed.

    This is the one velocity field of the package: the transport solver reads
    it at the cell edges, the particle integrators at the particle states.
    With time_reversed the speed is -act(w(T-t) x + b(T-t)): the sign flip and
    the control reversal together turn the solver into the one for the
    adjoint transport equation.
    """

    control: ControlPath
    activation: Activation
    time_reversed: bool = False

    def speed(self, x, t, out=None):
        """The speed at the points x at time t.  An array of times gives one
        row per time, and row k is bitwise the call at t[k]: the control
        interpolation and the activation work element by element.  With out
        (a float array of the result's shape) the speed is written there,
        bitwise the same as without; every step works in that one array."""
        tau = self.control.grid.t_final - t if self.time_reversed else t
        w = self.control.eval_w(tau)
        b = self.control.eval_b(tau)
        if isinstance(tau, np.ndarray) and tau.ndim:
            w, b = w[:, None], b[:, None]
        # asarray: a 0-d x makes a scalar product, which cannot be written to
        v = np.asarray(np.multiply(w, np.asarray(x, dtype=float), out=out))
        v += b
        self.activation.value(v, out=v)
        if self.time_reversed:
            np.negative(v, out=v)
        return v


def _cweno3_views(cells: np.ndarray, work: np.ndarray) -> tuple:
    """The views _cweno3_faces reads and writes, to be built once: the
    stencils' cells a, b, c of cells[1:-1] (consecutive cell averages on
    axis 0), the two shifted views whose difference is every neighbour
    difference, and the slots of work, a float array of shape
    (10, len(cells) - 1) + cells.shape[1:]: work[8] and work[9] with their
    first and last len(cells) - 2 rows, and the other eight without their
    last row.  The faces are written into work[0, :-1] and work[1, :-1],
    and the rest is scratch."""
    diff, side = work[8], work[9]
    return (cells[:-2], cells[1:-1], cells[2:], cells[1:], cells[:-1],
            diff, diff[:-1], diff[1:], side, side[:-1], side[1:], *work[:8, :-1])


def _cweno3_faces(views: tuple, eps: float):
    """Left and right face values of the CWENO3 reconstruction in each cell
    of cells[1:-1], from it and its two neighbours, given _cweno3_views(cells,
    work).  The solver passes eps = dx, so that smooth extrema keep the
    ideal weights under refinement.  Returns the two face views.

    Each cell's floating-point operations and their order are those of the
    formulas D / (eps + IS)**2 and sum(w * candidate face), so the result is
    bitwise theirs.  A difference of neighbours, the right one of a stencil
    and the left one of the next, is formed once, and so is its side weight:
    the two side weights share their ideal weight."""
    (a, b, c, hi, lo, diff, d_left, d_right, side, al, ar,
     left, right, d2, c_a, half_sum, ac, wl, wr) = views
    np.subtract(hi, lo, out=diff)      # b - a is diff[:-1], c - b diff[1:]
    # nonlinear weights D / (eps + IS)**CWENO_POWER; numpy squares in place
    # for the power 2 (x * x, bitwise), it does not call a float pow
    np.multiply(diff, diff, out=side)
    side += eps
    side **= CWENO_POWER
    np.divide(_D_SIDE, side, out=side)  # al is side[:-1], ar side[1:]
    diff *= 0.5                        # the half slopes from here
    np.multiply(2.0, b, out=d2)
    np.subtract(c, d2, out=d2)
    d2 += a                            # c - 2b + a
    np.subtract(c, a, out=c_a)
    np.multiply(0.25, c_a, out=half_sum)  # (c - a)/4, the parabola's odd face term
    np.multiply(13.0 / 3.0, d2, out=ac)
    ac *= d2
    c_a *= half_sum
    ac += c_a                          # + 0.25 (c - a)^2
    ac += eps
    ac **= CWENO_POWER
    np.divide(_D_CENTER, ac, out=ac)
    s = np.add(al, ac, out=c_a)
    s += ar
    np.divide(al, s, out=wl)
    ac /= s
    np.divide(ar, s, out=wr)

    d2 /= 6.0
    d2 += b                            # the parabola's face value without the odd term
    term = c_a                         # one candidate's weighted face at a time
    for face, sign in ((left, np.subtract), (right, np.add)):
        sign(b, d_left, out=face)
        face *= wl
        sign(d2, half_sum, out=term)
        term *= ac
        face += term
        sign(b, d_right, out=term)
        term *= wr
        face += term
    return left, right


def llf_flux(u_minus, u_plus, speed, out):
    """Local Lax-Friedrichs flux for the linear-in-u flux speed * u, written
    into the first of out's three float arrays of the flux's shape and
    returned; the other two are scratch.  The result is bitwise the
    formula's."""
    flux, total, spread = out
    np.multiply(0.5, speed, out=flux)
    flux *= np.add(u_minus, u_plus, out=total)
    np.abs(speed, out=spread)
    spread *= 0.5
    spread *= np.subtract(u_plus, u_minus, out=total)
    flux -= spread                     # 0.5 s (u- + u+) - 0.5 |s| (u+ - u-)
    return flux


def _limiter_coefficients(sL, sR, lam, out):
    """The positivity limiter's terms that depend on the speeds alone, for
    cells with edge speeds sL (left) and sR (right), written into the five
    arrays of ``out`` (four float, one bool): the outflow fractions
    out_l = lam max(-sL, 0) and out_r = lam max(sR, 0), their sum s_out,
    1 - s_out, and the mask s_out < 1."""
    out_l, out_r, s_out, rest, open_ = out
    np.maximum(np.negative(sL, out=out_l), 0.0, out=out_l)
    np.multiply(lam, out_l, out=out_l)
    np.maximum(sR, 0.0, out=out_r)
    np.multiply(lam, out_r, out=out_r)
    np.add(out_l, out_r, out=s_out)
    np.subtract(1.0, s_out, out=rest)
    np.less(s_out, 1.0, out=open_)


def _limited_faces(uc, uL, uR, coefs, work):
    """Scale face values toward their cell average so every Euler substep
    keeps nonnegative averages: faces are floored at zero, and the outgoing
    mass lam * (outflow speeds . faces) is capped by the cell content.
    Scaling toward the average is conservative and leaves resolved smooth
    data untouched (theta stays 1 there).  ``coefs`` are the cells'
    _limiter_coefficients.  The limited faces are written over uL and uR;
    work is a pair of sequences of arrays of uc's shape, six float ones and
    two bool ones, for the scratch."""
    out_l, out_r, s_out, rest, open_ = coefs
    (m, q, theta, uL1, uR1, drain), (floor, mask) = work
    np.minimum(uL, uR, out=m)
    np.less(m, 0.0, out=floor)
    # theta = min(1, uc / (uc - m)) on a positive cell with a negative face,
    # 0 on any other cell with one, 1 elsewhere.  uc - m >= uc > 0 there, so
    # the quotient is at most 1 after rounding too and needs no min
    theta.fill(1.0)
    np.copyto(theta, 0.0, where=floor)
    np.greater(uc, 0.0, out=mask)
    mask &= floor
    np.divide(uc, np.subtract(uc, m, out=q), out=theta, where=mask)
    for scaled, face in ((uL1, uL), (uR1, uR)):
        np.subtract(face, uc, out=scaled)
        scaled *= theta
        scaled += uc

    np.multiply(out_l, uL1, out=drain)
    drain += np.multiply(out_r, uR1, out=q)
    # cap only where it is needed and a scaling can actually achieve it
    np.greater(drain, uc, out=mask)
    mask &= np.greater_equal(uc, 0.0, out=floor)
    mask &= open_
    theta.fill(1.0)  # the first scaling is spent; its array is reused
    drain -= np.multiply(s_out, uc, out=q)
    np.divide(np.multiply(rest, uc, out=m), drain, out=theta, where=mask)
    # clip to [0, 1]; maximum(0.0, theta) keeps a -0.0 theta, as np.clip does,
    # at half np.clip's cost
    np.minimum(np.maximum(0.0, theta, out=theta), 1.0, out=theta)
    for scaled, face in ((uL1, uL), (uR1, uR)):
        np.subtract(scaled, uc, out=face)
        face *= theta
        face += uc


class _StageWork:
    """The arrays an SSP-RK3 stage computes in, allocated once a sweep for
    the grid's cells and `rows` rows, the first `limited` of them limited:
    the ghost-padded averages, whose two zero ghost rows at each end are
    written here and never again, the CWENO3 faces with their scratch, the
    flux with its scratch, the limiter's flat scratch, and a step's
    intermediate stage.

    The views a stage reads and writes are built here too, about forty of
    them; a stage that built them took 1.08-1.22 times as long, bitwise the
    same.  They are the padded interior a stage copies its averages into,
    the reconstruction's stencils and slots (_cweno3_views), the limited
    rows' averages and faces flat and cell-major, as the limiter takes
    them, the flux's two face inputs and its slots, and the flux's
    differences.  The limited rows are the first one or all of them, so
    reshape gives views, and the limiter writes through them: its many
    numpy calls run faster on 1-d arrays.  The limiter reads the averages
    from the padded interior, which holds them bit for bit."""

    def __init__(self, grid: Grid1D, rows: int, limited: int):
        n = grid.n_cells
        self.dx = grid.dx
        self.padded = _slots(1, (n + 4, rows))[0]
        self.padded.fill(0.0)
        self.faces = _slots(10, (n + 3, rows))
        self.flux = _slots(3, (n + 1, rows))
        size = n * limited
        self.limiter = tuple(_slots(6, (size,))), tuple(_slots(2, (size,), bool))
        self.stage = _slots(1, (n, rows))[0]
        self.inner = self.padded[2:-2]
        self.cweno = _cweno3_views(self.padded, self.faces)
        # physical cell j owns faces index j + 1 and edge speeds j, j + 1
        left, right = self.faces[0, :-1], self.faces[1, :-1]
        self.uc = self.inner[:, :limited].reshape(-1)
        self.uL = left[1 : n + 1, :limited].reshape(-1)
        self.uR = right[1 : n + 1, :limited].reshape(-1)
        # reconstruction k covers padded cell k+1; interface i has cell i-1
        # on its left (faces index i) and cell i on its right (faces index i+1)
        self.u_minus, self.u_plus = right[0 : n + 1], left[1 : n + 2]
        self.flux_out = tuple(self.flux)
        flux = self.flux[0]
        self.flux_hi, self.flux_lo = flux[1:], flux[:-1]
        self.flux_last, self.flux_first = flux[-1], flux[0]


def _rhs(avg: np.ndarray, speed: np.ndarray, limiter, work: _StageWork,
         out: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """d/dt of the rows' cell averages (cells on axis 0, rows on axis 1) under
    the conservative advection flux, given the rows' speeds at the n_cells + 1
    edges and, for a limited stage, the _limiter_coefficients of the leading
    rows, flat and cell-major (one entry a cell and limited row, the rows
    varying fastest); and the net rate at which each row's mass leaves
    through the boundary edges.  The derivative is written into out (not
    avg) and every intermediate into the sweep's work, so a stage allocates
    only the rows' outflow rates; what it reads of work it has written
    first, so nothing carries over from the stage before.  Every view it
    passes was built with the workspace, so a stage slices nothing."""
    np.copyto(work.inner, avg)  # between the zero-inflow ghosts
    _cweno3_faces(work.cweno, work.dx)
    if limiter is not None:
        _limited_faces(work.uc, work.uL, work.uR, limiter, work.limiter)
    llf_flux(work.u_minus, work.u_plus, speed, out=work.flux_out)
    np.subtract(work.flux_hi, work.flux_lo, out=out)
    np.negative(out, out=out)
    out /= work.dx
    return out, np.subtract(work.flux_last, work.flux_first)


def _block_steps(n_edges: int, rows: int) -> int:
    """Steps a block of the stage schedule holds for `rows` rows over
    n_edges edges, unless a solve's last block is shorter.  A block's fixed
    costs (its speed calls, the CFL check, the carried-over row) are spread
    over at least four steps of a lone solve and two of a paired one: the
    floor alone took the benchmark's 800- to 3200-cell sweep solves to 0.89
    of their time (geometric mean of six, one interpreter)."""
    return max(1, 4 // rows, 2 * _BLOCK_DOUBLES // (n_edges * max(2, rows)))


def _stage_schedule(drifts: list[DriftSpec], grid: Grid1D, t: float, dt: float,
                    n_steps: int, lam: float | None = None, limited: int = 1):
    """The SSP-RK3 stages of the solve, one block of steps at a time, as
    (steps, peaks).  steps lists each step of the block as its (start, end,
    mid) stages, at the times t, t + dt and t + dt/2, with t accumulated by
    repeated + dt.  A stage is (the speeds at the edges, one column per
    drift, and with lam the cells' _limiter_coefficients at the speeds of
    the first `limited` drifts, flat and cell-major as _rhs takes them, else
    None).  peaks holds, for each drift, the largest speed magnitude (a
    float) over the stage times the block adds: all of the first block's,
    and all of a later block's but its first node, which was the block
    before's last and counted there.

    The tables live in buffers allocated per solve: one speed call per drift
    covers the stage times a block adds, and the block's last node, with
    what was derived from it, is carried over as the next block's first.  So
    each drift of a solve of n steps is read at 2n + 1 times, in one call a
    block.  A block's stages are views of those buffers: they hold until the
    next block is drawn.

    A block after the first holds no fresh array while its steps run: each
    drift's speeds are computed in one scratch of the solve and copied into
    the table, and the tables' views (a stage's speeds and limiter terms, a
    full block's steps, the rows it carries over) are built with the
    tables.  A fresh speed array a block, once glibc's mmap threshold had
    risen above its size, was carved from the heap between the snapshots a
    sweep keeps: with four steps a block the benchmark's refinement solves
    peaked 3.5 MB higher in a fresh process.  The scratch is contiguous
    where a drift's rows in the table are not (the drifts interleave), so
    the speed call's loops run over one buffer: written straight into the
    table, a nine-row line search's solves took 1.10 times as long."""
    n_edges, rows = grid.n_cells + 1, len(drifts)
    block = min(n_steps, _block_steps(n_edges, rows))
    size = 2 * block + 1
    # buffers per solve, not per block: fresh tables for every block
    # fragment the heap
    speeds = _slots(size, (n_edges, rows))
    scratch = _slots(1, (size, n_edges))[0]
    coefs = []
    if lam is not None:
        coefs = [*(_slots(size, (n_edges - 1, limited)) for _ in range(4)),
                 _slots(size, (n_edges - 1, limited), bool)]
    # a stage's cells and rows on one axis, as views
    limiters = zip(*(c.reshape(size, -1) for c in coefs)) if coefs else itertools.repeat(None)
    stages = list(zip(speeds, limiters))
    full = list(zip(stages[:-1:2], stages[2::2], stages[1::2]))
    carry = [(table[0], table[-1]) for table in (speeds, *coefs)]

    times, done = [t], 0
    while done < n_steps:
        k = min(block, n_steps - done)
        for _ in range(k):
            times += (t + 0.5 * dt, t + dt)
            t = t + dt
        n_rows = 2 * k + 1
        new = slice(n_rows - len(times), n_rows)  # all rows but a carried one
        times, peaks = np.array(times), []
        for r, drift in enumerate(drifts):
            v = drift.speed(grid.edges, times, out=scratch[: len(times)])
            np.copyto(speeds[new, :, r], v)
            peaks.append(float(np.max(np.abs(v, out=v))))
        if coefs:
            # the limited drifts' speeds at the cells' left and right edges
            lead = speeds[new, :, :limited]
            _limiter_coefficients(lead[:, :-1], lead[:, 1:], lam, [c[new] for c in coefs])
        yield full[:k], peaks
        done += k
        if done < n_steps:  # only a full block has a next one
            for first, last in carry:
                np.copyto(first, last)
        times = []


def _step(avg: np.ndarray, dt: float, stages, work: _StageWork, out: np.ndarray):
    """One SSP-RK3 step through the schedule's (start, end, mid) stages: the
    advanced averages, written into out (not avg), and the rates at which
    each row's mass leaves through the boundary in the three stages.  The
    intermediate stages live in work, so a step allocates only those rates."""
    (s0, l0), (s1, l1), (s2, l2) = stages
    # the stepper's own weights, u_new = u + dt (L0/6 + L1/6 + 2 L2/3), as the
    # formulas avg + dt du, 0.75 avg + 0.25 (u1 + dt du) and
    # (avg + 2 (u2 + dt du)) / 3, worked operation for operation in place on
    # each derivative
    u1, o0 = _rhs(avg, s0, l0, work, work.stage)
    u1 *= dt
    u1 += avg
    du, o1 = _rhs(u1, s1, l1, work, out)  # out is free until the last stage
    du *= dt
    du += u1
    du *= 0.25
    u2 = np.multiply(0.75, avg, out=work.stage)  # u1 is spent
    u2 += du
    du, o2 = _rhs(u2, s2, l2, work, out)
    du *= dt
    du += u2
    du *= 2.0
    du += avg
    du /= 3.0
    return du, (o0, o1, o2)


def _sweep(starts: list[DensityField], drifts: list[DriftSpec], grid: TimeGrid, cfl: float,
           limit: bool = True,
           keep: bool = False) -> list[DensityField] | list[list[DensityField]]:
    """Advance row r from starts[r] under drifts[r], all rows in one SSP-RK3
    loop.  The forward rows lead: every row, or the first of a paired sweep,
    whose second row is its adjoint; a lone reversed row has none.  Return
    the forward rows' final fields.  With keep, return instead every row's
    fields at every node, start field first, one list a row; a step's fields
    are views of one fresh array.  The forward rows are checked, and with
    limit they are limited with the ratio dt / dx of the sweep's grids.
    Each row's CFL number is its schedule peak times dt / dx, a block at a
    time, and a block that takes any row past the hard CFL margin raises
    before its first step, naming that row's speed.

    The stages compute in one _StageWork, allocated here, and the state
    alternates between two arrays, so the loop's allocations per step are
    the kept fields' array and the rows' outflow rates."""
    space, dt = starts[0].grid, grid.dt
    lead = sum(not d.time_reversed for d in drifts)
    lam = dt / space.dx if limit and lead else None
    # the states alternate between two arrays, cells x rows
    state, spare = _slots(2, (space.n_cells, len(starts)))
    for r, f in enumerate(starts):
        state[:, r] = f.averages
    work = _StageWork(space, len(starts), lead if lam is not None else 0)
    worst_nu = [0.0] * len(starts)
    outflow = np.zeros(lead)  # mass each lead row has lost through the boundary
    low = state[:, :lead].copy()  # each cell's smallest average so far
    rows = [[f] for f in starts] if keep else None
    t = starts[0].time
    for steps, peaks in _stage_schedule(drifts, space, t, dt, grid.n_steps, lam, lead):
        # rounding is monotone: a row's peak gives the largest step CFL
        # number of the stage times the block adds
        for r, m in enumerate(peaks):
            nu = m * dt / space.dx
            if nu > _CFL_HARD:
                raise CFLViolationError(
                    f"time step dt={dt:g} unstable: max interface speed {m:.6g} gives "
                    f"CFL number {nu:.4g} > hard bound {_CFL_HARD} (configured cfl={cfl:g})"
                )
            worst_nu[r] = max(worst_nu[r], nu)
        rates = []  # the block's three stage outflow rates a step
        for stages in steps:
            spare, (state, rate) = state, _step(state, dt, stages, work, spare)
            t = t + dt
            if keep:
                # one fresh array of the step's rows, each row contiguous
                for averages, fields in zip(state.T.copy(), rows):
                    fields.append(DensityField(space, averages, t))
            if lead:
                rates.append(rate)
                np.minimum(low, state[:, :lead], out=low)
        if lead:
            o = np.array(rates)[..., :lead]
            # each step's outflow by the stepper's weights, added in step order
            outflow = sum(dt * (o[:, 0] / 6.0 + o[:, 1] / 6.0 + 2.0 * o[:, 2] / 3.0), outflow)
    for nu in worst_nu:
        # paths projected exactly onto the speed cap land at nu == cfl up to
        # roundoff; only a real excess is worth a warning
        if nu > cfl * (1.0 + 1e-9):
            log.warning(
                "transport solve exceeded configured cfl=%.3g (worst step CFL number %.4g); "
                "still inside the hard stability margin %.3g",
                cfl, nu, _CFL_HARD,
            )
    finals = [DensityField(space, row, t) for row in np.ascontiguousarray(state[:, :lead].T)]
    for f0, f_T, out, worst in zip(starts, finals, outflow.tolist(), np.min(low, axis=0).tolist()):
        # mass carried out through the zero-inflow boundary is not drift
        drift_mass = abs(f_T.mass - f0.mass + out)
        if not drift_mass <= 1e-10:  # a NaN fails both tests
            log.warning("forward solve mass drift %.3e (net of boundary outflow) "
                        "exceeds 1e-10", drift_mass)
        if not worst >= -1e-8:
            log.warning("forward solve produced cell average %.3e below -1e-8", worst)
    return rows if keep else finals


def solve_transport(
    f0: DensityField,
    drift: DriftSpec,
    grid: TimeGrid,
    cfl: float = 0.45,
    limit_positive: bool = True,
    adjoint: DensityField | None = None,
) -> list[DensityField] | tuple[list[DensityField], list[DensityField]]:
    """Snapshots of the field at every node of the time grid (n_steps + 1).

    A forward (not time-reversed) solve carries a probability density and
    checks itself: mass drift beyond 1e-10, net of what left through the
    boundary, or a cell average below -1e-8 in any snapshot is logged as a
    warning.  An adjoint solve is not checked; its field carries neither sign
    nor mass.

    limit_positive (on by default) guards a forward solve's averages against
    going negative via face scaling.  A time-reversed solve is never limited,
    whatever limit_positive says: its adjoint field is signed, not clipped.

    adjoint, a start field on the same grid and time, adds a second, never
    limited or checked row to the same sweep, with drift read in reversed
    time (drift itself must then be forward); the call then returns both
    rows' snapshots, each bitwise those of its own solve.  Each row logs its
    own CFL warning, and a row past the hard CFL bound fails the sweep.

    The speeds at the edges, their CFL check and the limiter's speed-only
    coefficients are built a block of steps ahead (_stage_schedule), and
    each block's CFL check runs before any of its steps.
    """
    starts, drifts = [f0], [drift]
    if adjoint is not None:
        if adjoint.grid != f0.grid or adjoint.time != f0.time:
            raise ValueError("the adjoint row must start on the grid and at the time of f0")
        if drift.time_reversed:
            raise ValueError("the adjoint row reverses drift, which must be forward")
        starts.append(adjoint)
        drifts.append(DriftSpec(drift.control, drift.activation, time_reversed=True))
    rows = _sweep(starts, drifts, grid, cfl, limit_positive, keep=True)
    return rows[0] if adjoint is None else tuple(rows)


def solve_final_fields(f0: DensityField, drifts: list[DriftSpec], grid: TimeGrid,
                       cfl: float = 0.45) -> list[DensityField]:
    """The last snapshot of solve_transport(f0, drift, grid, cfl) for each
    drift, all from one sweep that keeps only the final fields.

    Every drift must be forward.  Each row is limited and checked as that
    forward solve is, logs its own warnings and is bitwise its final field.
    A row past the hard CFL bound fails the whole sweep, as it fails its own
    solve.
    """
    if any(d.time_reversed for d in drifts):
        raise ValueError("every row of a final-field sweep is a forward solve")
    if not drifts:
        return []
    return _sweep([f0] * len(drifts), list(drifts), grid, cfl)


def project_initial(density, grid: Grid1D, renormalize: bool = True) -> DensityField:
    """Cell averages of a pointwise density by 3-point Gauss quadrature.

    With renormalize the averages are scaled to unit total mass, which is what
    forward solves start from; projection of signed data (adjoint initial
    condition) passes renormalize=False.
    """
    x = grid.centers[:, None] + _GAUSS_NODES[None, :] * grid.dx
    vals = np.broadcast_to(np.asarray(density(x), dtype=float), x.shape)
    if not np.all(np.isfinite(vals)):
        raise ValueError("density evaluated to a non-finite value during projection")
    avg = vals @ _GAUSS_WEIGHTS
    field = DensityField(grid, avg, 0.0)
    if renormalize:
        total = field.mass
        if total <= 0:
            raise ValueError(f"cannot normalize: projected mass is {total!r}")
        field = DensityField(grid, avg / total, 0.0)
    return field
