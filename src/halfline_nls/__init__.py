"""Solvers for the nonlinear Schrodinger equation on the half-line.

The package constructs solutions of

    i u_t + u_xx + lam * u * |u|**(alpha-1) = 0,   x > 0, 0 < t < T,
    u(x, 0) = phi(x),   u(0, t) = f(t),

by iterating an integral equation built from three explicit operators
(the free propagator, an inhomogeneous correction, and a boundary
forcing term), and cross-checks the result against an independent
finite-difference scheme.
"""

from .fractional import (
    EndpointWarning,
    frac_derivative,
    frac_fourier_path,
    frac_integral,
)
from .grids import (
    GridFunction,
    HalfLineGrid,
    SolutionField,
    SpatialGrid,
    TimeGrid,
    TimeSignal,
)
from .operators import (
    EdgeDecayWarning,
    boundary_forcing_freq,
    boundary_forcing_time,
    derivative_jump,
    free_group,
)
from .solver import (
    BlowupSuspected,
    CompatibilityError,
    IterationReport,
    ProblemSpec,
    SolverConfig,
    SupercriticalError,
    continue_solution,
    solve_ibvp,
)
from .verification import (
    CompareReport,
    FDConfig,
    compare_fields,
    convergence_study,
    crank_nicolson,
    mass_flux_balance,
)

__version__ = "0.1.0"

__all__ = [
    "BlowupSuspected",
    "CompareReport",
    "CompatibilityError",
    "EdgeDecayWarning",
    "EndpointWarning",
    "FDConfig",
    "GridFunction",
    "HalfLineGrid",
    "IterationReport",
    "ProblemSpec",
    "SolutionField",
    "SolverConfig",
    "SpatialGrid",
    "SupercriticalError",
    "TimeGrid",
    "TimeSignal",
    "boundary_forcing_freq",
    "boundary_forcing_time",
    "compare_fields",
    "continue_solution",
    "convergence_study",
    "crank_nicolson",
    "derivative_jump",
    "frac_derivative",
    "frac_fourier_path",
    "frac_integral",
    "free_group",
    "mass_flux_balance",
    "solve_ibvp",
]
