"""Mean-field training of one-dimensional residual networks.

The package couples a conservative transport solver (cell averages, central
WENO reconstruction, SSP time stepping) with an adjoint-based training loop
for the time-dependent weight and bias of the continuous network limit, plus
particle-level integrators and measure utilities for cross-checking the two
descriptions against each other.
"""

from .core import Activation, ControlPath, RunConfig, TimeGrid, activation
from .fvm import (
    CFLViolationError,
    DensityField,
    DriftSpec,
    Grid1D,
    llf_flux,
    project_initial,
    solve_transport,
)
from .measures import (
    EmpiricalMeasure,
    moments,
    particles_to_density,
    steady_state_support,
    variance,
    wasserstein1,
)
from .optim import (
    OptimState,
    SolverDivergenceError,
    TargetMeasure,
    adjoint_initial,
    armijo_search,
    control_gradient,
    gauss_seidel_train,
    identity_closed_form,
    identity_w_root,
    reduced_cost,
    tilde_loss,
)
from .particle import (
    ParticleEnsemble,
    ResNetConfig,
    ode_integrate,
    resnet_forward,
)
from .scenarios import (
    ConvergenceReport,
    ExactControlReport,
    Scenario,
    TrainingReport,
    run_convergence_study,
    run_exact_control,
    run_scenario,
    run_training,
    sample_from_density,
    scenario_from_config,
    scenario_to_config,
)

__version__ = "0.1.0"
