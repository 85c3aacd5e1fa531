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
    duhamel_field,
    free_group,
    free_group_field,
)
from .solver import (
    AdmissiblePair,
    BlowupSuspected,
    CompatibilityError,
    IterationReport,
    ProblemSpec,
    SolverConfig,
    SupercriticalError,
    admissible_pair,
    apply_lambda,
    blowup_monitor,
    compatibility_check,
    continue_solution,
    criticality,
    mixed_norm,
    solve_ibvp,
)
from .spectral import (
    boundary_value,
    extend_half_line,
    smooth_ramp,
    sobolev_norm,
    time_sobolev_norm,
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
    "AdmissiblePair",
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
    "admissible_pair",
    "apply_lambda",
    "blowup_monitor",
    "boundary_forcing_freq",
    "boundary_forcing_time",
    "boundary_value",
    "compare_fields",
    "compatibility_check",
    "continue_solution",
    "convergence_study",
    "crank_nicolson",
    "criticality",
    "derivative_jump",
    "duhamel_field",
    "extend_half_line",
    "frac_derivative",
    "frac_fourier_path",
    "frac_integral",
    "free_group",
    "free_group_field",
    "mass_flux_balance",
    "mixed_norm",
    "smooth_ramp",
    "sobolev_norm",
    "solve_ibvp",
    "time_sobolev_norm",
]
