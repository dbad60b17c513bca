"""Shared fixtures: the reference solves reused across test modules.

Each runs once per session: the two benchmarks at full resolution and a
coarse positive solve for unit tests that only need a converged record.
"""

import pytest

from qcurv import Polynomial, SolverConfig, constants, solve_continuation

SQUARE_PROFILE_4D = "1.0 * x1^2 + 1.0 * x2^2 + 1.0 * x3^2 + 1.0 * x4^2"


@pytest.fixture(scope="session")
def square_profile_4d() -> Polynomial:
    return Polynomial.from_text(SQUARE_PROFILE_4D)


@pytest.fixture(scope="session")
def benchmark_positive(square_profile_4d):
    """Converged m = 2 solve with positive curvature at half the critical
    volume, on the default grid."""
    cs = constants(2)
    config = SolverConfig(
        m=2, sign=1, volume=0.5 * cs.vol_sphere, profile=square_profile_4d
    )
    return solve_continuation(config)


@pytest.fixture(scope="session")
def benchmark_negative(square_profile_4d):
    """Converged m = 2 solve with negative curvature at twice the
    critical volume (supercritical), on the default grid."""
    cs = constants(2)
    config = SolverConfig(
        m=2, sign=-1, volume=2.0 * cs.vol_sphere, profile=square_profile_4d
    )
    return solve_continuation(config)


@pytest.fixture(scope="session")
def quick_positive(square_profile_4d):
    """Coarse (N = 512) version of the positive benchmark for unit tests
    that need a converged record but not full accuracy."""
    cs = constants(2)
    config = SolverConfig(
        m=2,
        sign=1,
        volume=0.5 * cs.vol_sphere,
        profile=square_profile_4d,
        n_intervals=512,
    )
    return solve_continuation(config)
