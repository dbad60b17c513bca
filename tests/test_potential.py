"""Tests for the radial grid, quadrature, ring kernel, and potential."""

import math

import numpy as np
import pytest

from qcurv import (
    GridMismatch,
    RadialField,
    ball_volume,
    constants,
    field_to_csv,
    kernel_matrix,
    make_grid,
    potential_apply,
    radial_polyharmonic,
    ring_kernel_mean,
    sphere_area,
    spherical_solution,
)
from qcurv.potential import (
    _hat_interval_weights,
    _ring_closed,
    _ring_panel_rule,
    gauss_legendre,
    potential_workspace,
)


@pytest.fixture(scope="module")
def wide_grid():
    return make_grid(m=2, r_max=60.0, n_intervals=1024)


@pytest.fixture(scope="module")
def wide_kernel(wide_grid):
    return kernel_matrix(wide_grid)


# ----------------------------------------------------------------------
# measure constants
# ----------------------------------------------------------------------
def test_sphere_area_closed_values():
    assert sphere_area(2) == pytest.approx(2.0 * math.pi, rel=1e-15)
    assert sphere_area(3) == pytest.approx(4.0 * math.pi, rel=1e-15)
    assert sphere_area(4) == pytest.approx(2.0 * math.pi**2, rel=1e-15)
    assert sphere_area(6) == pytest.approx(math.pi**3, rel=1e-15)


def test_ball_volume_closed_values():
    assert ball_volume(2, 3.0) == pytest.approx(9.0 * math.pi, rel=1e-15)
    assert ball_volume(3, 1.0) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-15)
    assert ball_volume(4, 2.0) == pytest.approx(
        math.pi**2 * 16.0 / 2.0, rel=1e-15
    )


# ----------------------------------------------------------------------
# grids and quadrature
# ----------------------------------------------------------------------
@pytest.mark.parametrize("map_kind", ["uniform", "sinh-clustered"])
def test_make_grid_invariants(map_kind):
    grid = make_grid(m=2, r_max=25.0, n_intervals=128, map_kind=map_kind)
    assert grid.nodes[0] == 0.0
    assert grid.nodes[-1] == 25.0
    assert grid.n_intervals == 128
    assert len(grid.nodes) == 129
    assert np.all(np.diff(grid.nodes) > 0)
    assert np.all(grid.quad_weights > 0)
    assert grid.quad_weights.sum() == pytest.approx(
        ball_volume(4, 25.0), rel=1e-10
    )


def test_sinh_grid_clusters_toward_origin():
    uni = make_grid(m=2, r_max=25.0, n_intervals=128, map_kind="uniform")
    cl = make_grid(m=2, r_max=25.0, n_intervals=128)
    assert cl.nodes[1] < uni.nodes[1] / 3.0
    stronger = make_grid(m=2, r_max=25.0, n_intervals=128, sinh_strength=6.0)
    assert stronger.nodes[1] < cl.nodes[1]


def test_make_grid_validates_inputs():
    with pytest.raises(GridMismatch):
        make_grid(m=0, r_max=10.0, n_intervals=128)
    with pytest.raises(GridMismatch):
        make_grid(m=2, r_max=1.0, n_intervals=128)
    with pytest.raises(GridMismatch):
        make_grid(m=2, r_max=10.0, n_intervals=32)
    with pytest.raises(GridMismatch):
        make_grid(m=2, r_max=10.0, n_intervals=128, map_kind="chebyshev")
    with pytest.raises(GridMismatch):
        make_grid(m=2, r_max=10.0, n_intervals=128, sinh_strength=0.0)
    with pytest.raises(GridMismatch, match="r_max"):
        make_grid(m=2, r_max=math.inf, n_intervals=128)
    with pytest.raises(GridMismatch, match="sinh_strength"):
        make_grid(m=2, r_max=10.0, n_intervals=128, sinh_strength=math.nan)
    # sinh(800) overflows a double; sinh_strength 250 at N = 2048 leaves
    # the innermost weights below the smallest double.
    with pytest.raises(GridMismatch, match="overflows"):
        make_grid(m=2, r_max=10.0, n_intervals=128, sinh_strength=800.0)
    with pytest.raises(GridMismatch, match="weights"):
        make_grid(m=2, r_max=40.0, n_intervals=2048, sinh_strength=250.0)


@pytest.mark.parametrize(
    "m, n_intervals, name",
    [(2.5, 512, "m"), (True, 512, "m"), (2, 512.5, "n_intervals"), (2, True, "n_intervals")],
)
def test_make_grid_refuses_a_non_integer_m_or_n_intervals(m, n_intervals, name):
    with pytest.raises(GridMismatch, match=f"^{name} must be an int"):
        make_grid(m, 40.0, n_intervals)



def test_quadrature_against_closed_form_integrals():
    grid = make_grid(m=2, r_max=10.0, n_intervals=1024)
    # integral of |x|^2 over the ball of radius 10 in R^4.
    got = float(grid.quad_weights @ grid.nodes**2)
    exact = sphere_area(4) * 10.0**6 / 6.0
    assert got == pytest.approx(exact, rel=1e-5)
    # Gaussian integral over R^4 (tail beyond r = 10 is ~1e-40).
    got = float(grid.quad_weights @ np.exp(-grid.nodes**2))
    assert got == pytest.approx(math.pi**2, rel=1e-4)


def test_partial_ball_weights_are_exact_and_complementary():
    grid = make_grid(m=2, r_max=10.0, n_intervals=256)
    idx = grid.nearest_index(3.0)
    within = grid.weights_within(idx)
    beyond = grid.weights_beyond(idx)
    assert np.all(within[idx + 1 :] == 0.0)
    assert within.sum() == pytest.approx(
        ball_volume(4, float(grid.nodes[idx])), rel=1e-12
    )
    np.testing.assert_array_equal(within + beyond, grid.quad_weights)
    for rule in (within, beyond):
        assert not rule.flags.writeable


def test_nearest_index_snaps_and_validates():
    grid = make_grid(m=2, r_max=10.0, n_intervals=256)
    idx = grid.nearest_index(3.0)
    assert abs(grid.nodes[idx] - 3.0) == np.min(np.abs(grid.nodes - 3.0))
    assert grid.nearest_index(0.0) == 0
    assert grid.nearest_index(10.0) == len(grid.nodes) - 1
    with pytest.raises(GridMismatch):
        grid.nearest_index(10.5)
    with pytest.raises(GridMismatch):
        grid.nearest_index(-0.1)


@pytest.mark.parametrize("map_kind", ["uniform", "sinh-clustered"])
def test_nearest_index_agrees_with_argmin_including_ties(map_kind):
    grid = make_grid(m=2, r_max=10.0, n_intervals=256, map_kind=map_kind)
    nodes = grid.nodes
    midpoints = 0.5 * (nodes[:-1] + nodes[1:])
    if map_kind == "uniform":
        # Dyadic spacing: every midpoint is an exact tie, which argmin
        # gives to the lower node.
        assert np.array_equal(midpoints - nodes[:-1], nodes[1:] - midpoints)
    rng = np.random.default_rng(5)
    radii = np.concatenate([nodes, midpoints, rng.uniform(0.0, 10.0, 500), [0.0, 10.0]])
    for r in radii:
        assert grid.nearest_index(float(r)) == int(np.argmin(np.abs(nodes - r)))


def test_partial_ball_weights_equal_their_complement_formula():
    grid = make_grid(m=3, r_max=10.0, n_intervals=256)
    q, last = grid.quad_weights, len(grid.nodes) - 1
    for idx in (0, 1, 2, 100, last - 1, last):
        within = np.zeros_like(q)
        if idx > 0:
            within[: idx + 1] = q[: idx + 1]
            if idx < last:
                a, b = float(grid.nodes[idx]), float(grid.nodes[idx + 1])
                within[idx] -= _hat_interval_weights(a, b, grid.n)[0]
        rules = (grid.weights_within(idx), grid.weights_beyond(idx))
        np.testing.assert_array_equal(rules[0], within)
        np.testing.assert_array_equal(rules[1], q - within)
        assert not any(rule.flags.writeable for rule in rules)


def test_ensure_same_accepts_equal_layout_and_rejects_others():
    a = make_grid(m=2, r_max=10.0, n_intervals=128)
    b = make_grid(m=2, r_max=10.0, n_intervals=128)
    a.ensure_same(b)  # identical construction, distinct objects
    c = make_grid(m=2, r_max=10.0, n_intervals=256)
    with pytest.raises(GridMismatch):
        a.ensure_same(c)


# ----------------------------------------------------------------------
# radial fields
# ----------------------------------------------------------------------
def test_radial_field_is_immutable_and_validated():
    grid = make_grid(m=2, r_max=10.0, n_intervals=128)
    f = RadialField(grid=grid, values=np.sin(grid.nodes))
    with pytest.raises(ValueError):
        f.values[0] = 1.0
    with pytest.raises(GridMismatch):
        RadialField(grid=grid, values=np.zeros(5))
    bad = np.zeros_like(grid.nodes)
    bad[3] = np.nan
    with pytest.raises(GridMismatch):
        RadialField(grid=grid, values=bad)


def test_field_csv_roundtrip(tmp_path):
    grid = make_grid(m=2, r_max=10.0, n_intervals=128)
    f = RadialField(grid=grid, values=np.exp(-grid.nodes) * math.pi)
    path = str(tmp_path / "field.csv")
    field_to_csv(f, path)
    table = np.loadtxt(path, delimiter=",", skiprows=1)
    # %.17g preserves doubles exactly through the text round-trip.
    np.testing.assert_array_equal(table[:, 0], grid.nodes)
    np.testing.assert_array_equal(table[:, 1], f.values)
    with open(path) as fh:
        assert fh.readline().strip() == "r,value"


# ----------------------------------------------------------------------
# ring kernel: numerical route against closed forms
# ----------------------------------------------------------------------
def test_ring_kernel_dimension_two_is_log_of_outer_radius():
    # In the plane, the angular mean of log|x - y| equals log max(s, r)
    # exactly (mean value property); the quadrature route must reproduce
    # it everywhere, including on the diagonal.
    for s, r in [(0.5, 2.0), (2.0, 0.5), (1.3, 1.3), (0.0, 2.0), (3.0, 3.0)]:
        got = ring_kernel_mean(2, s, r)
        assert got == pytest.approx(math.log(max(s, r)), abs=1e-12)


def test_ring_kernel_dimension_four_closed_form():
    # In R^4 the angular mean is log max + (min/max)^2 / 4.
    for s, r in [(0.5, 2.0), (2.0, 0.5), (1.0, 1.0), (0.0, 1.5), (4.0, 3.9)]:
        hi, lo = max(s, r), min(s, r)
        expected = math.log(hi) + 0.25 * (lo / hi) ** 2
        assert ring_kernel_mean(4, s, r) == pytest.approx(expected, abs=1e-10)


def test_ring_kernel_is_symmetric_in_its_radii():
    rng = np.random.default_rng(17)
    for _ in range(20):
        s, r = rng.uniform(0.01, 5.0, size=2)
        assert ring_kernel_mean(6, s, r) == pytest.approx(
            ring_kernel_mean(6, r, s), rel=1e-13
        )


def test_ring_kernel_validates_inputs():
    with pytest.raises(GridMismatch):
        ring_kernel_mean(3, 1.0, 2.0)
    with pytest.raises(GridMismatch):
        ring_kernel_mean(0, 1.0, 2.0)
    with pytest.raises(GridMismatch):
        ring_kernel_mean(4, -1.0, 2.0)
    with pytest.raises(GridMismatch):
        ring_kernel_mean(4, 0.0, 0.0)


# ----------------------------------------------------------------------
# closed-form ring kernel
# ----------------------------------------------------------------------
def test_ring_closed_is_exactly_symmetric_with_zero_origin_pair():
    grid = make_grid(m=2, r_max=5.0, n_intervals=128)
    closed = _ring_closed(4, grid.nodes[:, None], grid.nodes[None, :])
    np.testing.assert_array_equal(closed, closed.T)
    assert closed[0, 0] == 0.0


def test_ring_closed_matches_quadrature_route():
    grid = make_grid(m=3, r_max=5.0, n_intervals=128)
    idx = [1, 7, 40, 90, 128]
    for i in idx:
        for j in idx:
            s, r = float(grid.nodes[i]), float(grid.nodes[j])
            direct = ring_kernel_mean(6, s, r)
            assert float(_ring_closed(6, s, r)) == pytest.approx(direct, abs=1e-8)


# ----------------------------------------------------------------------
# semi-separable potential against a brute-force reference
# ----------------------------------------------------------------------
def _brute_force_potential(grid, f, quad_order=12):
    """-(1/gamma_m) sum_k sum_q Lambda_n(r_i, rho_kq) meas_kq fhat(rho_kq),
    with fhat the piecewise-linear interpolant of f and Gauss-Legendre
    points rho_kq on every interval: the dense contraction, row by row."""
    xg, wg = np.polynomial.legendre.leggauss(quad_order)
    a, b = grid.nodes[:-1, None], grid.nodes[1:, None]
    rho = 0.5 * (a + b) + 0.5 * (b - a) * xg
    meas = sphere_area(grid.n) * rho ** (grid.n - 1) * (0.5 * (b - a) * wg)
    lam = _ring_closed(grid.n, grid.nodes[:, None], rho.ravel()[None, :])
    integrand = (meas * np.interp(rho, grid.nodes, f)).ravel()
    return -(lam @ integrand) / constants(grid.m).gamma_m


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_potential_apply_matches_brute_force_reference(m):
    grid = make_grid(m=m, r_max=40.0, n_intervals=128)
    kern = kernel_matrix(grid)
    r = grid.nodes
    densities = {
        "gaussian": np.exp(-(r**2)),
        "random": np.random.default_rng(2014 + m).standard_normal(r.shape),
        "algebraic": (1.0 + r**2) ** (-2.0 * m),
    }
    for name, f in densities.items():
        got = potential_apply(kern, RadialField(grid=grid, values=f))
        ref = _brute_force_potential(grid, f)
        # Every row, the r = 0 row (Lambda = log rho) included.
        dev = np.max(np.abs(got.values - ref)) / np.max(np.abs(ref))
        assert dev <= 1e-13, f"{name}: relative deviation {dev:.3e}"


@pytest.mark.parametrize("n_intervals", [512, 2048])
@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_complex_prefix_sums_equal_two_real_cumsums(m, n_intervals):
    # One cumsum over the complex view of the paired moments must give the
    # exclusive prefix sums of the below-rows and the exclusive suffix sums
    # of the above-rows bit for bit as two real cumsum calls, each summed
    # smallest first.
    grid = make_grid(m=m, r_max=40.0, n_intervals=n_intervals)
    kern = kernel_matrix(grid)
    f = np.random.default_rng(m).standard_normal(grid.nodes.shape)
    workspace = potential_workspace(kern)
    potential_apply(kern, RadialField(grid=grid, values=f), workspace)
    sums = workspace[2]
    below = kern.hat_moments[..., 0] * f
    above = kern.hat_moments[..., 1][:, ::-1] * f  # back in node order
    expected_below = np.zeros_like(below)
    np.cumsum(below[:, :-1], axis=1, out=expected_below[:, 1:])
    expected_above = np.zeros_like(above)
    np.cumsum(above[:, :0:-1], axis=1, out=expected_above[:, -2::-1])
    np.testing.assert_array_equal(sums[..., 0], expected_below)
    np.testing.assert_array_equal(sums[..., 1][:, ::-1], expected_above)


def test_potential_apply_with_a_workspace_equals_one_without(wide_grid, wide_kernel):
    workspace = potential_workspace(wide_kernel)
    rng = np.random.default_rng(5)
    for _ in range(2):
        density = RadialField(
            grid=wide_grid, values=rng.standard_normal(wide_grid.nodes.shape)
        )
        reused = potential_apply(wide_kernel, density, workspace)
        np.testing.assert_array_equal(
            reused.values, potential_apply(wide_kernel, density).values
        )
        # The result owns its values: the next application does not touch it.
        assert not any(np.shares_memory(reused.values, a) for a in workspace)


# ----------------------------------------------------------------------
# potential operator
# ----------------------------------------------------------------------
def test_potential_reproduces_explicit_solution():
    # The curvature density of the explicit spherical solution, pushed
    # through the potential operator, must reproduce the solution itself
    # up to an additive constant (checked as a standard deviation).
    grid = make_grid(m=2, r_max=40.0, n_intervals=1024)
    kern = kernel_matrix(grid)
    u = spherical_solution(2, 1.0, grid.nodes)
    density = RadialField(grid=grid, values=6.0 * np.exp(4.0 * u))
    pot = potential_apply(kern, density)
    window = grid.nodes <= 20.0
    assert float(np.std((pot.values - u)[window])) < 1e-3


def test_potential_tail_slope_matches_density_mass(wide_grid, wide_kernel):
    # A density of discrete mass mu produces a -(mu / gamma_m) log r far
    # field; measure the log-slope between two tail radii.
    cs = constants(2)
    dens = RadialField(grid=wide_grid, values=np.exp(-wide_grid.nodes**2))
    mu = float(wide_grid.quad_weights @ dens.values)
    pot = potential_apply(wide_kernel, dens)
    i1 = wide_grid.nearest_index(30.0)
    i2 = wide_grid.nearest_index(55.0)
    slope = (pot.values[i2] - pot.values[i1]) / (
        math.log(wide_grid.nodes[i2]) - math.log(wide_grid.nodes[i1])
    )
    assert slope == pytest.approx(-mu / cs.gamma_m, rel=5e-3)


def test_polyharmonic_of_potential_recovers_density(wide_grid, wide_kernel):
    # (-Delta)^m inverts the potential construction: applying the stencil
    # operator to the potential of a smooth compact density returns that
    # density on the interior.
    dens = RadialField(grid=wide_grid, values=np.exp(-wide_grid.nodes**2))
    pot = potential_apply(wide_kernel, dens)
    back = radial_polyharmonic(pot, k=2)
    window = (wide_grid.nodes > 0.3) & (wide_grid.nodes < 2.0)
    assert window.sum() > 30
    dev = np.abs(back.values[window] - dens.values[window])
    assert dev.max() / dens.values.max() < 5e-3


def test_potential_apply_validates_dimensions(wide_grid, wide_kernel):
    other = make_grid(m=2, r_max=60.0, n_intervals=512)
    with pytest.raises(GridMismatch):
        potential_apply(
            wide_kernel, RadialField(grid=other, values=np.zeros_like(other.nodes))
        )


def test_quadrature_tables_are_shared_and_read_only():
    x, w = gauss_legendre(12)
    assert gauss_legendre(12)[0] is x
    ref_x, ref_w = np.polynomial.legendre.leggauss(12)
    np.testing.assert_array_equal(x, ref_x)
    np.testing.assert_array_equal(w, ref_w)
    rule = _ring_panel_rule(16)
    assert _ring_panel_rule(16) is rule
    for arr in (x, w) + rule:
        assert not arr.flags.writeable
