"""Mean-field training of one-dimensional residual networks.

The package couples a conservative transport solver (cell averages, central
WENO reconstruction, SSP time stepping) with an adjoint-based training loop
for the time-dependent weight and bias of the continuous network limit, plus
particle-level integrators and measure utilities for cross-checking the two
descriptions against each other.
"""

# Every layer loads with ``import mfrn``; the root re-exports no name.
from . import core, fvm, measures, optim, particle, scenarios  # noqa: F401

__version__ = "0.1.0"
