"""Numerical construction and verification of finite-volume conformal
metrics with constant Q-curvature on even-dimensional Euclidean space.

The library solves the radial reduction of

    (-Delta)^m u = sign * (2m-1)! * e^{2mu}   on R^{2m},
    integral e^{2mu} dx = V,

for prescribed volume V and polynomial asymptotic profile P, by an
Anderson-accelerated iteration on a logarithmic-potential fixed-point
formulation, and certifies the result with independent diagnostics
(stencil PDE residual, quadrature volume, asymptotic fit, Pohozaev
balance).
"""

from .errors import (
    ConfigError,
    DimensionMismatch,
    GridMismatch,
    PolynomialFormatError,
    QcurvError,
    TailNotNegligible,
)
from .poly import (
    AdmissibilityVerdict,
    Polynomial,
    a3_counterexample,
    eval_many,
    eval_with_gradient,
    pm_membership,
    radial_derivative,
    radial_profile_coeffs,
)
from .potential import (
    Constants,
    KernelMatrix,
    RadialField,
    RadialGrid,
    ball_volume,
    constants,
    kernel_matrix,
    make_grid,
    potential_apply,
    ring_kernel_mean,
    sphere_area,
)
from .solver import (
    Problem,
    SolutionRecord,
    SolverConfig,
    build_problem,
    eval_radial_profile,
    solve_continuation,
    source_with_normalization,
    u0_density_field,
    u0_eval,
)
from .diagnostics import (
    DiagnosticsReport,
    PohozaevTerms,
    asymptotic_profile,
    build_report,
    conformal_volume,
    pde_residual,
    pohozaev_terms,
    radial_polyharmonic,
    record_pohozaev_terms,
    spherical_solution,
    tail_curvature_mass,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "QcurvError",
    "DimensionMismatch",
    "PolynomialFormatError",
    "GridMismatch",
    "ConfigError",
    "TailNotNegligible",
    # polynomials
    "Polynomial",
    "AdmissibilityVerdict",
    "eval_many",
    "eval_with_gradient",
    "radial_derivative",
    "pm_membership",
    "radial_profile_coeffs",
    "a3_counterexample",
    # the exact oracle and the composed stencil live in qcurv.diagnostics,
    # the background u0 and the radial profile's evaluation in qcurv.solver
    "spherical_solution",
    "u0_eval",
    "radial_polyharmonic",
    "eval_radial_profile",
    # potential: constants, grids and the log-potential
    "Constants",
    "constants",
    "RadialGrid",
    "RadialField",
    "KernelMatrix",
    "make_grid",
    "ring_kernel_mean",
    "kernel_matrix",
    "potential_apply",
    "sphere_area",
    "ball_volume",
    # solver: the config, the fixed-point map and the solve
    "SolverConfig",
    "SolutionRecord",
    "Problem",
    "build_problem",
    "solve_continuation",
    "u0_density_field",
    "source_with_normalization",
    # diagnostics: the checks and their finite-difference stencils
    "pde_residual",
    "conformal_volume",
    "asymptotic_profile",
    "PohozaevTerms",
    "pohozaev_terms",
    "record_pohozaev_terms",
    "tail_curvature_mass",
    "DiagnosticsReport",
    "build_report",
]
