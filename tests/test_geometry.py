"""Tests for dimension constants, model solutions, the background profile,
and radial stencils."""

import math

import numpy as np
import pytest

from qcurv import (
    DimensionMismatch,
    GridMismatch,
    RadialField,
    constants,
    make_grid,
    radial_polyharmonic,
    spherical_solution,
    u0_eval,
)


# ----------------------------------------------------------------------
# constants
# ----------------------------------------------------------------------
def test_constants_closed_form_values():
    c1 = constants(1)
    assert c1.n == 2
    assert c1.vol_sphere == pytest.approx(4.0 * math.pi, rel=1e-15)
    assert c1.gamma_m == pytest.approx(2.0 * math.pi, rel=1e-15)

    c2 = constants(2)
    assert c2.n == 4
    assert c2.vol_sphere == pytest.approx(8.0 * math.pi**2 / 3.0, rel=1e-15)
    assert c2.gamma_m == pytest.approx(8.0 * math.pi**2, rel=1e-15)
    assert c2.factorial_2m_minus_1 == 6.0

    c3 = constants(3)
    assert c3.vol_sphere == pytest.approx(16.0 * math.pi**3 / 15.0, rel=1e-15)


def test_constants_internal_relations():
    for m in range(1, 7):
        c = constants(m)
        assert c.lambda_1 == pytest.approx(2.0 * c.gamma_m, rel=1e-15)
        assert c.gamma_m == pytest.approx(
            math.factorial(2 * m - 1) / 2.0 * c.vol_sphere, rel=1e-15
        )
        assert c.factorial_2m_minus_1 == float(math.factorial(2 * m - 1))


@pytest.mark.parametrize("bad", [0, 7, -1, 2.0])
def test_constants_rejects_out_of_range_m(bad):
    with pytest.raises(DimensionMismatch):
        constants(bad)


# ----------------------------------------------------------------------
# the explicit spherical family
# ----------------------------------------------------------------------
def test_spherical_solution_closed_form():
    r = np.array([0.0, 1.0, 3.0])
    u = spherical_solution(2, 1.0, r)
    np.testing.assert_allclose(
        u, math.log(2.0) - np.log1p(r**2), rtol=1e-15
    )
    assert spherical_solution(2, 0.5, 0.0) == pytest.approx(
        math.log(1.0), abs=1e-15
    )


def test_spherical_solution_scaling_covariance():
    rng = np.random.default_rng(7)
    r = rng.uniform(0.0, 20.0, size=50)
    for lam in (0.25, 1.0, 3.5):
        lhs = spherical_solution(3, lam, r)
        rhs = spherical_solution(3, 1.0, lam * r) + math.log(lam)
        np.testing.assert_allclose(lhs, rhs, atol=1e-13)


def test_spherical_solution_validates_inputs():
    with pytest.raises(DimensionMismatch):
        spherical_solution(0, 1.0, 1.0)
    with pytest.raises(DimensionMismatch):
        spherical_solution(2, 0.0, 1.0)
    with pytest.raises(DimensionMismatch):
        spherical_solution(2, -1.0, 1.0)
    with pytest.raises(DimensionMismatch):
        spherical_solution(2, 1.0, -0.5)


# ----------------------------------------------------------------------
# background profile
# ----------------------------------------------------------------------
def test_smooth_global_value_and_density_closed_forms():
    r = np.array([0.0, 0.5, 1.0, 10.0])
    value, density = u0_eval(2, r)
    np.testing.assert_allclose(value, 0.5 * np.log1p(r**2), rtol=1e-15)
    # (-Delta)^2 u0 at the origin is -(1/2) * 3! * 2^4 = -48.
    assert density[0] == pytest.approx(-48.0, rel=1e-15)
    np.testing.assert_allclose(
        density, -3.0 * (2.0 / (1.0 + r**2)) ** 4, rtol=1e-15
    )


def test_smooth_global_density_mass_is_minus_gamma():
    # The closed-form density integrates to exactly -gamma_m over R^{2m};
    # on the truncated default grid the quadrature must recover that mass
    # up to the tail of the r^{-4m} integrand.
    cs = constants(2)
    grid = make_grid(m=2, r_max=40.0, n_intervals=2048)
    _, density = u0_eval(2, grid.nodes)
    mass = float(grid.quad_weights @ density)
    assert mass == pytest.approx(-cs.gamma_m, rel=2e-4)


# The ids name the profile, as they did when a second one existed.
@pytest.mark.parametrize("m", [2, 3], ids=lambda m: f"smooth-global-{m}")
def test_profile_density_agrees_with_stencil_polyharmonic(m):
    # Independent check of the closed-form density: apply the
    # finite-difference (-Delta)^m to the profile values and compare on a
    # window away from the origin flags.  The grid resolution balances
    # truncation against rounding amplification in the 2m-th derivative.
    n_intervals = 2048 if m == 2 else 512
    grid = make_grid(m=m, r_max=2.0, n_intervals=n_intervals, map_kind="uniform")
    value, density = u0_eval(m, grid.nodes)
    stencil = radial_polyharmonic(RadialField(grid=grid, values=value), k=m)
    window = (grid.nodes > 0.2) & (grid.nodes < 0.9)
    assert window.sum() > 50
    dev = np.abs(stencil.values[window] - density[window])
    tol = 1e-4 if m == 2 else 1e-3
    assert dev.max() / np.abs(density[window]).max() < tol


def test_u0_eval_validates_inputs():
    with pytest.raises(DimensionMismatch, match="radius"):
        u0_eval(2, -1.0)
    for m in (0, 7):
        with pytest.raises(DimensionMismatch, match="m must be in 1..6"):
            u0_eval(m, 1.0)


# ----------------------------------------------------------------------
# radial polyharmonic stencils
# ----------------------------------------------------------------------
def test_polyharmonic_of_quadratic_is_exact():
    grid = make_grid(m=2, r_max=10.0, n_intervals=256)
    f = RadialField(grid=grid, values=grid.nodes**2)
    out = radial_polyharmonic(f, k=1)
    # -Delta r^2 = -2n everywhere, and the 3-point stencil is exact on
    # quadratics, including the origin rule.
    np.testing.assert_allclose(out.values[:-1], -2.0 * grid.n, rtol=1e-10)
    assert out.values[-1] == 0.0


def test_polyharmonic_squared_of_quartic():
    # Delta^2 r^4 = 8 n (n + 2); the composed stencil is second order, so
    # a modest uniform grid resolves it to high relative accuracy.
    grid = make_grid(m=2, r_max=2.0, n_intervals=1024, map_kind="uniform")
    f = RadialField(grid=grid, values=grid.nodes**4)
    out = radial_polyharmonic(f, k=2)
    expected = 8.0 * grid.n * (grid.n + 2.0)
    dev = np.abs(out.values[1:-2] - expected) / expected
    assert dev.max() < 1e-6
    # k = 2 zeroes the first node as well as the outermost two.
    assert out.values[0] == 0.0
    assert np.all(out.values[-2:] == 0.0)


def test_polyharmonic_is_linear():
    grid = make_grid(m=3, r_max=5.0, n_intervals=128)
    rng = np.random.default_rng(11)
    a = RadialField(grid=grid, values=rng.normal(size=grid.nodes.shape))
    b = RadialField(grid=grid, values=rng.normal(size=grid.nodes.shape))
    combo = RadialField(grid=grid, values=2.0 * a.values - 0.5 * b.values)
    out_a = radial_polyharmonic(a, k=2)
    out_b = radial_polyharmonic(b, k=2)
    out_c = radial_polyharmonic(combo, k=2)
    mask = slice(1, -2)
    np.testing.assert_allclose(
        out_c.values[mask],
        2.0 * out_a.values[mask] - 0.5 * out_b.values[mask],
        rtol=1e-10,
        atol=1e-8,
    )


def test_polyharmonic_validates_order():
    grid = make_grid(m=2, r_max=10.0, n_intervals=128)
    f = RadialField(grid=grid, values=np.zeros_like(grid.nodes))
    with pytest.raises(GridMismatch):
        radial_polyharmonic(f, k=0)
    with pytest.raises(GridMismatch):
        radial_polyharmonic(f, k=3)
