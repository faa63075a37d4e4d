"""Particle-level dynamics: the residual-network recursion and its ODE limit.

A depth-L network with identity skip connection and shared scalar controls is
the explicit Euler discretization of dx/dt = act(w(t) x + b(t)):
``resnet_forward`` is that recursion, its L + 1 layers the n_steps steps of
the controls' time grid, and ``ode_integrate`` solves the ODE itself with
RK4.  Both read the velocity field from ``fvm.DriftSpec.speed``, the same
field the transport solver advects with.  Particles are a plain float array
whose first axis indexes them.

``ode_integrate`` moves the particles in place, in blocks of _BLOCK_ROWS
rows, and writes every RK4 stage into five buffers of one block.  Five
128 KiB buffers stay in the L2 cache from stage to stage; whole-ensemble
buffers would hold 4 MiB at 1e5 particles and measured slower.  The
ensemble's copy and the five buffers start on 64-byte cache lines
(fvm._slots): a 3-operand add of 16384 doubles took 5.7 us there and
12.9-13.9 us off a line.
"""

from __future__ import annotations

import numpy as np

from .core import Activation, ControlPath, TimeGrid
from .fvm import DriftSpec, _slots

# Rows per block of an ensemble integration: 16384 one-dimensional particles
# make 128 KiB stage buffers, five of which fit in L2.
_BLOCK_ROWS = 16384


def resnet_forward(x0: np.ndarray, c: ControlPath, act: Activation) -> np.ndarray:
    """Output of the depth-L recursion started at x0 (any array shape).

    The controls' time grid holds the depth and the step: L = n_steps - 1
    and the layers read the controls at kappa * dt for kappa = 0..L.
    """
    drift = DriftSpec(c, act)
    dt = c.grid.dt
    x = np.asarray(x0, dtype=float).copy()
    for kappa in range(c.grid.n_steps):
        x = x + dt * drift.speed(x, kappa * dt)
    return x


def ode_integrate(
    ens: np.ndarray,
    c: ControlPath,
    act: Activation,
    dt: float,
    t_final: float,
) -> np.ndarray:
    """RK4 positions at t_final of the particles ens (a float array whose
    first axis indexes them) under dx/dt = act(w(t) x + b(t)); ens is left
    unchanged.

    Each block of _BLOCK_ROWS rows runs through all steps in place, its four
    stage speeds and the stage argument written into five buffers of one
    block, allocated once per call.  Whole-ensemble buffers would hold 4 MiB
    at 1e5 particles and leave the cache at every stage; a block's five stay
    resident.  Particles do not interact and every operation is elementwise
    with the same scalar controls, in the order of
    x + dt/6 (k1 + 2 k2 + 2 k3 + k4), so the result is bitwise that of all
    particles at once.
    """
    n = TimeGrid.from_step(t_final, dt).n_steps
    drift = DriftSpec(c, act)
    x = _slots(1, np.shape(ens))[0]
    x[...] = ens
    stages = _slots(5, x[:_BLOCK_ROWS].shape)
    for start in range(0, len(x), _BLOCK_ROWS):
        rows = x[start:start + _BLOCK_ROWS]
        k1, k2, k3, k4, y = stages[:, :len(rows)]
        for k in range(n):
            t = k * dt
            drift.speed(rows, t, out=k1)
            for prev, stage, h in ((k1, k2, 0.5 * dt), (k2, k3, 0.5 * dt), (k3, k4, dt)):
                np.multiply(prev, h, out=y)
                y += rows
                drift.speed(y, t + h, out=stage)
            k2 *= 2.0
            k1 += k2
            k3 *= 2.0
            k1 += k3
            k1 += k4
            k1 *= dt / 6.0
            rows += k1
    return x
