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
    NormalizationOverflow,
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
)
from .geometry import (
    Constants,
    U0Profile,
    constants,
    eval_radial_profile,
    kelvin_identity_residual,
    kelvin_pullback,
    compact_blend,
    radial_polyharmonic,
    smooth_global,
    spherical_solution,
    u0_eval,
)
from .potential import (
    KernelMatrix,
    RadialField,
    RadialGrid,
    ball_volume,
    field_to_csv,
    kernel_matrix,
    make_grid,
    potential_apply,
    ring_kernel_mean,
    sphere_area,
)
from .solver import (
    SolutionRecord,
    SolverConfig,
    build_K,
    build_grid,
    normalization_cv,
    radial_profile_coeffs,
    solve_continuation,
    source_with_normalization,
    u0_density_field,
)
from .diagnostics import (
    DiagnosticsReport,
    ExpIntegrability,
    PohozaevTerms,
    asymptotic_profile,
    build_report,
    conformal_volume,
    exp_integrability_probe,
    pde_residual,
    pohozaev_defect,
    pohozaev_terms,
    record_pohozaev_terms,
    tail_curvature_mass,
    weighted_norm,
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
    "NormalizationOverflow",
    # polynomials
    "Polynomial",
    "AdmissibilityVerdict",
    "eval_many",
    "eval_with_gradient",
    "radial_derivative",
    "pm_membership",
    "a3_counterexample",
    # geometry
    "Constants",
    "constants",
    "spherical_solution",
    "U0Profile",
    "smooth_global",
    "compact_blend",
    "u0_eval",
    "kelvin_pullback",
    "kelvin_identity_residual",
    "radial_polyharmonic",
    "eval_radial_profile",
    # potential
    "RadialGrid",
    "RadialField",
    "KernelMatrix",
    "make_grid",
    "field_to_csv",
    "ring_kernel_mean",
    "kernel_matrix",
    "potential_apply",
    "sphere_area",
    "ball_volume",
    # solver
    "SolverConfig",
    "SolutionRecord",
    "solve_continuation",
    "build_grid",
    "build_K",
    "u0_density_field",
    "normalization_cv",
    "source_with_normalization",
    "radial_profile_coeffs",
    # diagnostics
    "pde_residual",
    "conformal_volume",
    "asymptotic_profile",
    "PohozaevTerms",
    "pohozaev_terms",
    "pohozaev_defect",
    "record_pohozaev_terms",
    "tail_curvature_mass",
    "weighted_norm",
    "ExpIntegrability",
    "exp_integrability_probe",
    "DiagnosticsReport",
    "build_report",
]
