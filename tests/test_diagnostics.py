"""Tests for the independent solution checks: PDE residual, volume,
asymptotic fit, Pohozaev balance, weighted norms, and the report."""

import ast
import gc
import inspect
import json
import math
import weakref
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

import qcurv.diagnostics
import qcurv.solver
from qcurv import (
    GridMismatch,
    Polynomial,
    RadialField,
    SolverConfig,
    TailNotNegligible,
    asymptotic_profile,
    build_grid,
    build_report,
    conformal_volume,
    constants,
    exp_integrability_probe,
    make_grid,
    pde_residual,
    pohozaev_terms,
    record_pohozaev_terms,
    solve_continuation,
    sphere_area,
    spherical_solution,
    tail_curvature_mass,
    u0_density_field,
    u0_eval,
    weighted_norm,
)
from qcurv.diagnostics import _angular_moment, check_report_grid
from qcurv.potential import _STENCIL_ROWS, gauss_legendre
from test_solver import radial_polynomial


# ----------------------------------------------------------------------
# PDE residual
# ----------------------------------------------------------------------
@pytest.mark.parametrize("m, tol", [(2, 2e-4), (3, 1e-3)])
def test_pde_residual_vanishes_on_explicit_solution(m, tol):
    grid = make_grid(m, 10.0, 2048, map_kind="uniform")
    u = RadialField(grid=grid, values=spherical_solution(m, 1.0, grid.nodes))
    assert pde_residual(u, 1) < tol


def test_pde_residual_detects_perturbations():
    grid = make_grid(2, 10.0, 2048, map_kind="uniform")
    u = RadialField(
        grid=grid, values=spherical_solution(2, 1.0, grid.nodes) + 0.1
    )
    # A constant shift scales the curvature by e^{0.4} but not the
    # polyharmonic, so the residual jumps by orders of magnitude.
    assert pde_residual(u, 1) > 0.05


def test_pde_residual_validates_inputs():
    grid = make_grid(2, 10.0, 128)
    u = RadialField(grid=grid, values=np.zeros_like(grid.nodes))
    with pytest.raises(GridMismatch):
        pde_residual(u, 0)


# ----------------------------------------------------------------------
# conformal volume
# ----------------------------------------------------------------------
def test_conformal_volume_of_explicit_solution():
    cs = constants(2)
    grid = make_grid(2, 60.0, 2048, sinh_strength=4.0)
    u = RadialField(grid=grid, values=spherical_solution(2, 1.0, grid.nodes))
    volume, tail = conformal_volume(u)
    assert volume == pytest.approx(cs.vol_sphere, rel=1e-4)
    assert 0 < tail < 1e-6 * volume


def test_conformal_volume_rejects_uncertifiable_tails():
    grid = make_grid(2, 40.0, 1024)
    # Integrand ~ r^{-3.2}: not integrable in R^4, slope fit cannot
    # certify decay below -2m.
    slow = RadialField(grid=grid, values=-0.8 * np.log1p(grid.nodes))
    with pytest.raises(TailNotNegligible, match="cannot certify"):
        conformal_volume(slow)
    # Integrand ~ r^{-4.8}: integrable, but the truncated tail estimate
    # dwarfs the 1e-6 budget.
    heavy = RadialField(grid=grid, values=-1.2 * np.log1p(grid.nodes))
    with pytest.raises(TailNotNegligible, match="enlarge r_max"):
        conformal_volume(heavy)


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
@pytest.mark.parametrize(
    "n_intervals, sinh_strength", [(64, 10.0), (512, 3.0), (2048, 3.0), (8192, 1.0)]
)
def test_tail_slope_matches_polyfit(m, n_intervals, sinh_strength):
    # The tail certificate's log-log slope, from the layout's centred
    # weights, against np.polyfit over the node mask r >= 3 r_max / 4 (or
    # the last 8 nodes: 64 intervals at strength 10 leave 2 in the mask).
    # Over these grids the two agree to 20 eps relative at most.
    grid = make_grid(m, 60.0, n_intervals, sinh_strength=sinh_strength)
    u = -1.5 * np.log1p(grid.nodes**2) + 0.3 * np.sin(grid.nodes)
    integrand = np.exp(2 * m * u)
    select = grid.nodes >= 0.75 * grid.r_max
    if select.sum() < 8:
        select = np.zeros_like(select)
        select[-8:] = True
    expected = np.polyfit(np.log(grid.nodes[select]), np.log(integrand[select]), 1)[0]
    window, slope_weights = qcurv.diagnostics._layout(grid).tail_window()
    np.testing.assert_array_equal(np.arange(len(grid.nodes))[window], np.flatnonzero(select))
    slope = float(slope_weights @ np.log(integrand[window]))
    assert slope == pytest.approx(expected, rel=1e-13, abs=0.0)
    # The certificate's tail estimate reads that slope.
    _, tail = conformal_volume(RadialField(grid=grid, values=u))
    expected_tail = integrand[-1] * sphere_area(grid.n) * grid.r_max**grid.n / (
        -expected - 2.0 * m
    )
    assert tail == pytest.approx(expected_tail, rel=1e-12, abs=0.0)


def test_conformal_volume_degenerate_and_underflow_paths():
    grid = make_grid(2, 40.0, 1024)
    # Uniformly tiny profiles skip the certificate (volume is underflow
    # scale, there is no meaningful tail to certify).
    degen = RadialField(grid=grid, values=np.full_like(grid.nodes, -60.0))
    volume, tail = conformal_volume(degen)
    assert tail == 0.0
    assert volume == pytest.approx(
        math.exp(-240.0) * grid.quad_weights.sum(), rel=1e-12
    )
    # A Gaussian-type profile underflows the integrand in the window;
    # the tail is then below representable and reported as 0.
    gauss = RadialField(grid=grid, values=-grid.nodes**2)
    volume, tail = conformal_volume(gauss)
    assert tail == 0.0
    assert volume == pytest.approx((math.pi / 4.0) ** 2, rel=1e-3)


# ----------------------------------------------------------------------
# asymptotic fit
# ----------------------------------------------------------------------
def _fit_field(record):
    """u + P of a solve, as build_report forms it: -alpha u0 + v + c_v."""
    u0, _ = u0_eval(record.config.m, record.grid.nodes)
    return RadialField(
        grid=record.grid, values=record.v.values + record.c_v - record.alpha * u0
    )


def test_asymptotic_profile_recovers_synthetic_expansion():
    grid = make_grid(2, 40.0, 1024)
    r = grid.nodes.copy()
    r[0] = 1.0  # keep the origin value finite; it is far from the window
    # u = -1.5 log r - P + 0.7 with P = |x|^2: the fit reads u + P.
    u = -1.5 * np.log(r) - grid.nodes**2 + 0.7
    w = RadialField(grid=grid, values=u + grid.nodes**2)
    alpha, c, dev = asymptotic_profile(w)
    assert alpha == pytest.approx(1.5, abs=1e-10)
    assert c == pytest.approx(0.7, abs=1e-10)
    assert dev < 1e-10
    # An explicit window works too.
    alpha, _, _ = asymptotic_profile(w, fit_window=(8.0, 30.0))
    assert alpha == pytest.approx(1.5, abs=1e-10)
    # A far-field r^{-2} term (j < m = 2) is fitted, not folded into alpha.
    far = RadialField(grid=grid, values=w.values + 40.0 / r**2)
    alpha, c, dev = asymptotic_profile(far)
    assert alpha == pytest.approx(1.5, abs=1e-10)
    assert c == pytest.approx(0.7, abs=1e-10)
    assert dev < 1e-10


def test_asymptotic_profile_at_large_negative_volume():
    # sign -1, V = 100 vol(S^4), P = 0.5 |x|^2: a fit of -alpha log r + C
    # alone is off by 26 % here, the r^{-2} far field of the solution.
    config = SolverConfig(
        m=2,
        sign=-1,
        volume=100.0 * constants(2).vol_sphere,
        profile=Polynomial.from_text(
            "0.5 * x1^2 + 0.5 * x2^2 + 0.5 * x3^2 + 0.5 * x4^2"
        ),
        n_intervals=1024,
    )
    record = solve_continuation(config)
    assert record.converged
    alpha, _, _ = asymptotic_profile(_fit_field(record))
    assert abs(alpha - config.alpha) / abs(config.alpha) <= 1e-3


@pytest.mark.parametrize("fraction", [0.5, 0.95])
@pytest.mark.parametrize("m", [5, 6])
def test_alpha_fit_holds_for_top_degree_profiles(m, fraction):
    # P = |x|^{2m-2} reaches 1e10-1e13 in the fit window, so a fit of
    # u + P formed from u would cancel every digit of alpha (1.308 for 1
    # at m = 6); the report fits the solver's own pieces instead.
    config = SolverConfig(
        m=m,
        sign=1,
        volume=fraction * constants(m).vol_sphere,
        profile=radial_polynomial(2 * m, [0.0] * (m - 1) + [1.0]),
    )
    record = solve_continuation(config)
    assert record.converged
    assert build_report(record).alpha_fitted == pytest.approx(config.alpha, abs=1e-8)


def test_asymptotic_profile_with_no_polynomial():
    grid = make_grid(2, 40.0, 1024)
    r = grid.nodes.copy()
    r[0] = 1.0
    u = RadialField(grid=grid, values=2.0 * np.log(r) - 1.0)
    alpha, c, dev = asymptotic_profile(u)
    assert alpha == pytest.approx(-2.0, abs=1e-10)
    assert c == pytest.approx(-1.0, abs=1e-10)


def test_asymptotic_profile_validates_window():
    grid = make_grid(2, 40.0, 1024)
    u = RadialField(grid=grid, values=np.zeros_like(grid.nodes))
    with pytest.raises(GridMismatch, match="r >= 5"):
        asymptotic_profile(u, fit_window=(2.0, 20.0))
    with pytest.raises(GridMismatch, match="exceeds r_max"):
        asymptotic_profile(u, fit_window=(10.0, 50.0))
    with pytest.raises(GridMismatch, match="empty"):
        asymptotic_profile(u, fit_window=(20.0, 10.0))
    with pytest.raises(GridMismatch, match="need >= 20"):
        asymptotic_profile(u, fit_window=(20.0, 20.2))


# ----------------------------------------------------------------------
# Pohozaev balance
# ----------------------------------------------------------------------
def _spherical_balance_pieces(m: int):
    """The exact solution arranged as the solver decomposition with
    P = 0, V = vol(S^{2m}), alpha = 2: wbar = u + 2 u0 and
    log K = log (2m-1)! - 4m u0."""
    cs = constants(m)
    grid = make_grid(m, 10.0, 2048, map_kind="uniform")
    u = spherical_solution(m, 1.0, grid.nodes)
    u0_vals, _ = u0_eval(m, grid.nodes)
    wbar = RadialField(grid=grid, values=u + 2.0 * u0_vals)
    log_K = RadialField(
        grid=grid,
        values=math.log(cs.factorial_2m_minus_1) - 2 * m * 2.0 * u0_vals,
    )
    u0d = u0_density_field(grid)
    return wbar, log_K, u0d


@pytest.mark.parametrize("m, tol", [(2, 2e-4), (3, 1e-3)])
def test_pohozaev_balance_on_explicit_solution(m, tol):
    wbar, log_K, u0d = _spherical_balance_pieces(m)
    for R in (3.0, 5.0):
        terms = pohozaev_terms(wbar, 0.0, log_K, u0d, 1, 2.0, R)
        assert terms.defect < tol
        # Both sides are genuinely nonzero at these radii: the identity
        # is balancing something, not comparing zeros.
        assert abs(terms.lhs) > 0.1
    assert terms.radius == pytest.approx(5.0, abs=0.01)


def test_pohozaev_balance_detects_non_solutions():
    # Tilting the solution field breaks the balance by three orders of
    # magnitude: the identity is a property of solutions, not of the
    # quadrature.
    wbar, log_K, u0d = _spherical_balance_pieces(2)
    tilted = RadialField(grid=wbar.grid, values=wbar.values + 0.05 * wbar.grid.nodes)
    terms = pohozaev_terms(tilted, 0.0, log_K, u0d, 1, 2.0, 5.0)
    assert terms.defect > 1e-2


def test_pohozaev_terms_validate_radius():
    wbar, log_K, u0d = _spherical_balance_pieces(2)
    with pytest.raises(GridMismatch, match="too close"):
        pohozaev_terms(wbar, 0.0, log_K, u0d, 1, 2.0, 0.001)
    with pytest.raises(GridMismatch, match="too close"):
        pohozaev_terms(wbar, 0.0, log_K, u0d, 1, 2.0, 10.0)


@pytest.mark.parametrize("c_v", [math.nan, math.inf])
def test_pohozaev_terms_refuse_a_non_finite_c_v(c_v):
    wbar, log_K, u0d = _spherical_balance_pieces(2)
    with pytest.raises(GridMismatch, match="c_v must be finite"):
        pohozaev_terms(wbar, c_v, log_K, u0d, 1, 2.0, 5.0)


def test_pohozaev_on_benchmark_record(benchmark_positive):
    terms = record_pohozaev_terms(benchmark_positive, 20.0)
    assert terms.defect < 1e-3
    # Boundary terms decay with radius; the volume terms then balance
    # among themselves.
    far = record_pohozaev_terms(benchmark_positive, 30.0)
    assert abs(far.b1) < abs(terms.b1) + 1e-12
    assert far.volume_balance < 1e-3


def test_tail_curvature_mass_monotone_and_total(benchmark_positive):
    rec = benchmark_positive
    cs = constants(2)
    wbar = RadialField(grid=rec.grid, values=rec.v.values + rec.c_v)
    total = tail_curvature_mass(rec.log_K, wbar, 0.0)
    # The normalization pins the full-space curvature integral exactly.
    assert total == pytest.approx(rec.alpha * cs.gamma_m, rel=1e-12)
    # Restrict to radii where e^{log K + 4 wbar} has not underflowed
    # (K ~ e^{-4 r^2}).
    masses = [tail_curvature_mass(rec.log_K, wbar, R) for R in (0.0, 2.0, 4.0, 6.0, 8.0)]
    assert all(a > b for a, b in zip(masses, masses[1:]))
    assert masses[-1] > 0


# ----------------------------------------------------------------------
# weighted norms
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def norm_grid():
    return make_grid(2, 40.0, 4096, sinh_strength=4.0)


def test_weighted_norm_order_zero_oracle(norm_grid):
    om = sphere_area(4)
    f = RadialField(grid=norm_grid, values=np.exp(-norm_grid.nodes**2))
    got = weighted_norm(f, 0, -1.0)
    exact = math.sqrt(
        quad(
            lambda r: (1 + r * r) ** (-1.0) * math.exp(-2 * r * r) * om * r**3,
            0,
            40,
        )[0]
    )
    assert got == pytest.approx(exact, rel=1e-4)


def test_weighted_norm_order_one_oracle(norm_grid):
    om = sphere_area(4)
    f = RadialField(grid=norm_grid, values=np.exp(-norm_grid.nodes**2))
    got = weighted_norm(f, 1, -3.0)
    t0 = math.sqrt(
        quad(
            lambda r: (1 + r * r) ** (-3.0) * math.exp(-2 * r * r) * om * r**3,
            0,
            40,
        )[0]
    )
    a2 = _angular_moment(4, (2.0,))
    t1 = 4.0 * math.sqrt(
        a2
        * quad(
            lambda r: (1 + r * r) ** (-2.0)
            * (2 * r * math.exp(-r * r)) ** 2
            * r**3,
            0,
            40,
        )[0]
    )
    assert got == pytest.approx(t0 + t1, rel=1e-4)


def test_weighted_norm_order_two_oracle(norm_grid):
    # f = r^4: f'' = 12 r^2, f'/r = 4 r^2, anisotropic part 8 r^2; every
    # block reduces to closed 1-d integrals checked here with adaptive
    # quadrature (an independent integration route).
    om = sphere_area(4)
    f = RadialField(grid=norm_grid, values=norm_grid.nodes**4)
    got = weighted_norm(f, 2, -7.0)
    w0 = math.sqrt(
        quad(lambda r: (1 + r * r) ** (-7.0) * r**8 * om * r**3, 0, 40)[0]
    )
    a2 = _angular_moment(4, (2.0,))
    w1 = 4.0 * math.sqrt(
        a2 * quad(lambda r: (1 + r * r) ** (-6.0) * (4 * r**3) ** 2 * r**3, 0, 40)[0]
    )
    b2 = _angular_moment(4, (2.0, 2.0))
    w2_mixed = 6.0 * math.sqrt(
        b2
        * quad(lambda r: (1 + r * r) ** (-5.0) * (8 * r * r) ** 2 * r**3, 0, 40)[0]
    )

    def angular(r):
        return quad(
            lambda th: abs(8 * r * r * math.cos(th) ** 2 + 4 * r * r) ** 2
            * math.sin(th) ** 2
            * sphere_area(3),
            0,
            math.pi,
        )[0]

    w2_pure = 4.0 * math.sqrt(
        quad(
            lambda r: (1 + r * r) ** (-5.0) * angular(r) * r**3,
            0,
            40,
            limit=200,
        )[0]
    )
    assert got == pytest.approx(w0 + w1 + w2_mixed + w2_pure, rel=1e-4)


def test_weighted_norm_is_absolutely_homogeneous(norm_grid):
    f = RadialField(grid=norm_grid, values=np.exp(-norm_grid.nodes**2))
    g = RadialField(grid=norm_grid, values=2.5 * f.values)
    for k in (0, 1, 2):
        assert weighted_norm(g, k, -3.0) == pytest.approx(
            2.5 * weighted_norm(f, k, -3.0), rel=1e-12
        )


def test_weighted_norm_satisfies_triangle_inequality(norm_grid):
    rng = np.random.default_rng(23)
    a = RadialField(grid=norm_grid, values=rng.normal(size=norm_grid.nodes.shape))
    b = RadialField(grid=norm_grid, values=rng.normal(size=norm_grid.nodes.shape))
    s = RadialField(grid=norm_grid, values=a.values + b.values)
    for k in (0, 1, 2):
        assert weighted_norm(s, k, -3.0) <= (
            weighted_norm(a, k, -3.0) + weighted_norm(b, k, -3.0)
        ) * (1 + 1e-12)


def test_weighted_norm_validates_inputs(norm_grid):
    f = RadialField(grid=norm_grid, values=np.zeros_like(norm_grid.nodes))
    with pytest.raises(GridMismatch):
        weighted_norm(f, 3, -3.0)


# ----------------------------------------------------------------------
# exponential integrability probe
# ----------------------------------------------------------------------
def test_exp_probe_matches_direct_quadrature():
    grid = make_grid(2, 40.0, 512)
    v = RadialField(grid=grid, values=np.sin(grid.nodes) / (1 + grid.nodes))
    probe = exp_integrability_probe(v, 0.7, 20.0)
    idx = grid.nearest_index(20.0)
    direct = float(
        grid.weights_within(idx) @ np.exp(4.0 * 0.7 * np.abs(v.values))
    )
    assert probe.finite
    assert probe.value == pytest.approx(direct, rel=1e-13)
    assert probe.ratio == pytest.approx(
        direct / float(grid.nodes[idx]) ** 4, rel=1e-13
    )


def test_exp_probe_reports_overflow_as_infinite():
    grid = make_grid(2, 40.0, 512)
    v = RadialField(grid=grid, values=np.full_like(grid.nodes, 200.0))
    probe = exp_integrability_probe(v, 1.0, 20.0)
    assert not probe.finite
    assert probe.value == math.inf


def test_exp_probe_validates_inputs():
    grid = make_grid(2, 40.0, 512)
    v = RadialField(grid=grid, values=np.zeros_like(grid.nodes))
    with pytest.raises(GridMismatch):
        exp_integrability_probe(v, 0.0, 20.0)
    with pytest.raises(GridMismatch):
        exp_integrability_probe(v, 1.0, 41.0)
    with pytest.raises(GridMismatch):
        exp_integrability_probe(v, 1.0, 0.0)


# ----------------------------------------------------------------------
# aggregated report
# ----------------------------------------------------------------------
def test_build_report_on_quick_solve(quick_positive):
    report = build_report(quick_positive)
    assert report.pde_residual_max_rel < 1e-2
    assert report.volume_achieved == pytest.approx(
        report.volume_target, rel=5e-3
    )
    assert report.alpha_fitted == pytest.approx(1.0, rel=2e-2)
    assert report.pohozaev_defect_rel < 1e-2
    assert report.pohozaev_radius == pytest.approx(20.0, abs=0.1)
    radii = [r for r, _ in report.tail_mass]
    masses = [mass for _, mass in report.tail_mass]
    assert radii == sorted(radii)
    assert all(a >= b for a, b in zip(masses, masses[1:]))
    assert set(report.weighted_norms) == {
        "k=0,delta=-3,p=2",
        "k=1,delta=-3,p=2",
        "k=2,delta=-3,p=2",
    }
    assert all(v > 0 for v in report.weighted_norms.values())
    assert len(report.exp_integrability) == 2
    for payload in report.exp_integrability.values():
        assert payload["finite"] is True


def test_report_serializes_to_json_and_csv(quick_positive):
    report = build_report(quick_positive)
    data = json.loads(json.dumps(report.to_json_dict()))
    assert data["volume_target"] == report.volume_target
    assert len(data["tail_mass"]) == len(report.tail_mass)
    header, row = report.csv_header_and_row()
    names = header.split(",")
    values = row.split(",")
    assert len(names) == len(values) == 8
    assert names[0] == "pde_residual_max_rel"
    assert float(values[0]) == report.pde_residual_max_rel


# ----------------------------------------------------------------------
# the report's shared and windowed evaluations against full-grid formulas
# ----------------------------------------------------------------------
def _boundary_chain_on_the_full_grid(values, grid, idx):
    """At node idx, with every stencil applied to the whole grid: Delta^k
    of ``values`` for k = 0..m, their derivatives, then the same for
    g = x . grad ``values`` up to k = (m - 1) // 2, the order of the rows
    of the Pohozaev functional."""
    m, st = grid.m, grid.stencil
    w_iter = [np.array(values)]
    for _ in range(m):
        w_iter.append(st.laplacian(w_iter[-1], origin=True))
    g_iter = [grid.nodes * st.d1(values)]
    for _ in range((m - 1) // 2):
        g_iter.append(st.laplacian(g_iter[-1], origin=True))
    return (
        [arr[idx] for arr in w_iter]
        + [st.d1(arr)[idx] for arr in w_iter]
        + [arr[idx] for arr in g_iter]
        + [st.d1(arr)[idx] for arr in g_iter]
    )


def _boundary_chain_bounds(values, grid, idx):
    """How far the Pohozaev functional's rows at idx, applied to ``values``,
    may sit from :func:`_boundary_chain_on_the_full_grid`, row by row, and
    the rows' absolute sizes.

    Each quantity is the centre value of a chain of s <= m + 2 stencils
    and one multiplication by x.  A difference-form stencil takes at most
    9 roundings on a term and the x factor 1, so a chain is within 10 s u
    (u = eps / 2) of its exact value, relative to the same chain run with
    absolute coefficients on |values| (the size A).  The functional's
    entries are that chain run on unit vectors, and its matrix-vector
    product adds 2m + 3 roundings, so the two routes differ by at most
    (20 (m + 2) + 2m + 3) u A.  The windowed chains never reach the origin
    rule, whose nodes lie outside the window's dependence on its centre."""
    m, n = grid.m, grid.n
    lo, hi = idx - (m + 1), idx + m + 2
    table = grid.stencil.window(lo, hi)
    d1_rows = np.abs(table.d1_rows)
    lap_rows = np.abs(table.d2_rows) + (n - 1) / table.nodes[1:-1] * d1_rows

    def absolute(rows, size):
        out = np.zeros_like(size)
        out[1:-1] = rows[0] * (size[:-2] + size[1:-1]) + rows[1] * (
            size[2:] + size[1:-1]
        )
        return out

    w_size = [np.abs(values[lo:hi])]
    for _ in range(m):
        w_size.append(absolute(lap_rows, w_size[-1]))
    g_size = [table.nodes * absolute(d1_rows, w_size[0])]
    for _ in range((m - 1) // 2):
        g_size.append(absolute(lap_rows, g_size[-1]))
    centre = m + 1
    sizes = np.array(
        [arr[centre] for arr in w_size]
        + [absolute(d1_rows, arr)[centre] for arr in w_size]
        + [arr[centre] for arr in g_size]
        + [absolute(d1_rows, arr)[centre] for arr in g_size]
    )
    u = np.finfo(float).eps / 2.0
    return (20 * (m + 2) + 2 * m + 3) * u * sizes, sizes


def _boundary_terms_on_the_full_grid(v, r_snap, idx):
    """b1's curvature factor aside, the Pohozaev boundary terms with every
    stencil applied to the whole grid, as first written, and how far the
    functional's b2 and b3 may sit from them.

    b2 and b3 read wbar = v + c_v only through its derivatives, so the
    chain runs on v less its value at idx, the input the functional takes;
    a chain on wbar itself would carry the rounding of wbar's level, which
    c_v sets, and a bound on that would say little.  The bound carries
    each quantity's bound from :func:`_boundary_chain_bounds` through the
    products, with the sizes A in place of the values:
    |d(ab)| <= |da| A_b + A_a |db| + |da db|.  The products and the sum of
    m cross terms add 2 (m + 3) u of the sizes' products on either
    route."""
    grid = v.grid
    m, n = grid.m, grid.n
    om = sphere_area(n)
    variation = v.values - v.values[idx]
    at = _boundary_chain_on_the_full_grid(variation, grid, idx)
    bound, size = _boundary_chain_bounds(variation, grid, idx)
    g_count = (m - 1) // 2 + 1
    w_iter, w_prime = at[: m + 1], at[m + 1 : 2 * m + 2]
    g_iter, g_prime = at[2 * m + 2 : 2 * m + 2 + g_count], at[2 * m + 2 + g_count :]

    start = {"w": 0, "w'": m + 1, "g": 2 * m + 2, "g'": 2 * m + 2 + g_count}

    def row(part, k):
        """The bound and the size of row k of ``part``."""
        return bound[start[part] + k], size[start[part] + k]

    u = np.finfo(float).eps / 2.0
    if m % 2 == 0:
        half_power = w_iter[m // 2]
        d_half, a_half = row("w", m // 2)
    else:
        half_power = w_prime[(m - 1) // 2]
        d_half, a_half = row("w'", (m - 1) // 2)
    b2 = float(-m * om * r_snap**n * half_power**2)
    b2_bound = m * om * r_snap**n * (
        2.0 * a_half * d_half + d_half**2 + 2 * (m + 3) * u * a_half**2
    )
    cross = 0.0
    cross_bound = 0.0
    for j in range(m):
        parity_sign = (-1.0) ** (m + j)
        if j % 2 == 0:
            cross += parity_sign * g_iter[j // 2] * w_prime[m - 1 - j // 2]
            (da, sa), (db, sb) = row("g", j // 2), row("w'", m - 1 - j // 2)
        else:
            cross += parity_sign * g_prime[(j - 1) // 2] * w_iter[m - (j + 1) // 2]
            (da, sa), (db, sb) = row("g'", (j - 1) // 2), row("w", m - (j + 1) // 2)
        cross_bound += da * sb + sa * db + da * db + 2 * (m + 3) * u * sa * sb
    b3 = float(-2.0 * m * om * r_snap ** (n - 1) * cross)
    b3_bound = 2.0 * m * om * r_snap ** (n - 1) * cross_bound
    return (b2, b3), (b2_bound, b3_bound)


def _volume_terms_on_the_full_grid(rec, idx):
    """The Pohozaev volume terms t1, t2, t3 and b1 over a freshly built
    ball rule, as first written."""
    grid, config = rec.grid, rec.config
    w_in = grid.weights_within(idx)
    two_m = 2.0 * config.m
    k_e_w = config.sign * np.exp(rec.log_K.values + two_m * (rec.v.values + rec.c_v))
    x_grad_log_k = grid.nodes * grid.stencil.d1(rec.log_K.values)
    x_grad_w = grid.nodes * grid.stencil.d1(rec.v.values)
    r_snap = float(grid.nodes[idx])
    return (
        float(w_in @ (x_grad_log_k * k_e_w)),
        float(two_m * (w_in @ k_e_w)),
        float(-two_m * rec.alpha * (w_in @ (x_grad_w * rec.u0_density.values))),
        float(sphere_area(grid.n) * r_snap**grid.n * k_e_w[idx]),
    )


def _fit_by_lstsq(rec):
    """The report's alpha fit, by np.linalg.lstsq on a freshly built
    design over the node mask of [r_max/4, r_max/2], as first written."""
    grid = rec.grid
    r_lo, r_hi = grid.r_max / 4.0, grid.r_max / 2.0
    select = (grid.nodes >= r_lo) & (grid.nodes <= r_hi)
    r = grid.nodes[select]
    target = ((rec.v.values + rec.c_v) - rec.alpha * rec.u0.values)[select]
    decay = (r_lo / r) ** 2
    design = np.column_stack(
        [-np.log(r), np.ones_like(r)] + [decay**j for j in range(1, grid.m)]
    )
    coef, *_ = np.linalg.lstsq(design, target, rcond=None)
    deviation = float(np.max(np.abs(design @ coef - target)))
    return float(coef[0]), float(coef[1]), deviation


def _pure_block_by_angular_rule(aniso, ratio, n, p):
    """The angular integral of |aniso w1^2 + ratio|^p over S^{n-1} by the
    64-node rule, formed out of place."""
    x_gl, w_gl = gauss_legendre(64)
    theta = 0.5 * math.pi * (x_gl + 1.0)
    cos2 = np.cos(theta) ** 2
    ring = sphere_area(n - 1) * 0.5 * math.pi * w_gl * np.sin(theta) ** (n - 2)
    return (np.abs(aniso[:, None] * cos2[None, :] + ratio[:, None]) ** p) @ ring


def _pure_block_in_closed_form(aniso, ratio, n, p):
    """The same integral at p = 2 from the moments of w1^4, w1^2 and 1."""
    assert p == 2.0
    angular = _angular_moment(n, (4.0,)) * aniso**2
    angular += 2.0 * _angular_moment(n, (2.0,)) * aniso * ratio
    angular += _angular_moment(n, ()) * ratio**2
    return angular


def _weighted_norm_formula(f, k, delta, p, pure_block=_pure_block_by_angular_rule):
    """weighted_norm as first written: each order recomputes the lower
    ones, and the pure-second-derivative block is ``pure_block``."""
    grid = f.grid
    n, nodes = grid.n, grid.nodes
    w_full = grid.quad_weights
    w_radial = w_full / sphere_area(n)
    weight0 = (1.0 + nodes**2) ** (delta * p / 2.0)
    norm = float(w_full @ (weight0 * np.abs(f.values) ** p)) ** (1.0 / p)
    if k == 0:
        return norm
    f1 = grid.stencil.d1(f.values)
    weight1 = (1.0 + nodes**2) ** ((delta + 1.0) * p / 2.0)
    block1 = float(_angular_moment(n, (p,)) * (w_radial @ (weight1 * np.abs(f1) ** p)))
    norm += n * block1 ** (1.0 / p)
    if k == 1:
        return norm
    f2 = grid.stencil.d2(f.values)
    ratio = np.empty_like(f1)
    ratio[1:] = f1[1:] / nodes[1:]
    ratio[0] = f2[0]
    aniso = f2 - ratio
    weight2 = (1.0 + nodes**2) ** ((delta + 2.0) * p / 2.0)
    mixed = float(
        _angular_moment(n, (p, p)) * (w_radial @ (weight2 * np.abs(aniso) ** p))
    )
    norm += (n * (n - 1) / 2.0) * mixed ** (1.0 / p)
    pure = float(w_radial @ (weight2 * pure_block(aniso, ratio, n, p)))
    return norm + n * pure ** (1.0 / p)


@pytest.fixture(scope="module")
def report_records():
    """Solves for m = 2..6 and both signs at N = 512."""
    return [
        solve_continuation(
            SolverConfig(
                m=m,
                sign=sign,
                volume=(0.6 if sign == 1 else 2.5) * constants(m).vol_sphere,
                profile=Polynomial.from_text(
                    " + ".join(f"1.2 * x{i}^2" for i in range(1, 2 * m + 1))
                ),
                n_intervals=512,
            )
        )
        for m in (2, 3, 4, 5, 6)
        for sign in (1, -1)
    ]


def test_report_matches_its_full_grid_formulas(report_records):
    for rec in report_records:
        config, grid = rec.config, rec.grid
        report = build_report(rec)
        wbar = RadialField(grid=grid, values=rec.v.values + rec.c_v)
        # Tail masses: e^{log_K + 2m wbar} integrated beyond each radius.
        for r_snap, mass in report.tail_mass:
            w_out = grid.weights_beyond(grid.nearest_index(r_snap))
            curvature = np.exp(rec.log_K.values + 2 * config.m * wbar.values)
            assert mass == float(w_out @ curvature)
            assert mass == tail_curvature_mass(rec.log_K, wbar, r_snap)
        # The probes' exponents come from the source's L^1 mass.
        source_mass_l1 = float(
            grid.quad_weights
            @ np.abs(
                config.sign * np.exp(rec.log_K.values + 2 * config.m * wbar.values)
                + rec.alpha * rec.u0_density.values
            )
        )
        expected_probes = {}
        for scale in (0.5, 1.0):
            p_probe = scale * constants(config.m).gamma_m / source_mass_l1
            probe = exp_integrability_probe(rec.v, p_probe, grid.r_max / 2.0)
            expected_probes[f"p={p_probe:.6g}"] = {
                "finite": probe.finite,
                "value": probe.value,
                "ratio": probe.ratio,
            }
        assert report.exp_integrability == expected_probes
        # Weighted norms of order 0, 1, 2 from one pass, with the pure
        # block in closed form.
        for k in (0, 1, 2):
            expected = _weighted_norm_formula(
                rec.v, k, -3.0, 2.0, pure_block=_pure_block_in_closed_form
            )
            assert report.weighted_norms[f"k={k},delta=-3,p=2"] == expected
        # The alpha fit from the cached pseudo-inverse agrees with a fresh
        # lstsq.  Each of the two solves of the same least-squares problem
        # lands within about cond(design) eps |coef| of the exact
        # coefficients, since the residual is at rounding level (measured:
        # at most 0.51 of that with |coef| = |(alpha, C)|), and the
        # deviation moves by at most the design's largest row sum times it.
        alpha, c_fit, deviation = _fit_by_lstsq(rec)
        _, design, _ = qcurv.diagnostics._layout(grid).fit(
            grid.r_max / 4.0, grid.r_max / 2.0
        )
        bound = np.linalg.cond(design) * np.finfo(float).eps * math.hypot(alpha, c_fit)
        assert abs(report.alpha_fitted - alpha) <= min(bound, 1e-11 * abs(alpha))
        assert abs(report.C_fitted - c_fit) <= bound
        row_sum = float(np.max(np.sum(np.abs(design), axis=1)))
        assert abs(report.asymptotic_deviation - deviation) <= row_sum * bound
        # Pohozaev terms from the cached ball rule and the cached boundary
        # functional.
        for R in (3.0, 7.5, 20.0, 30.0):
            terms = record_pohozaev_terms(rec, R)
            idx = grid.nearest_index(R)
            assert (terms.t1, terms.t2, terms.t3, terms.b1) == (
                _volume_terms_on_the_full_grid(rec, idx)
            )
            expected, bound = _boundary_terms_on_the_full_grid(rec.v, terms.radius, idx)
            assert abs(terms.b2 - expected[0]) <= bound[0]
            assert abs(terms.b3 - expected[1]) <= bound[1]


@pytest.mark.parametrize("m", range(2, 7))
def test_pohozaev_functional_matches_the_chain_on_its_window(m):
    # The cached functional's rows, applied to a window's values, against
    # the chain of stencils run on the whole grid, within the bound of
    # _boundary_chain_bounds; the offset plays the part of c_v.
    diag = qcurv.diagnostics
    rng = np.random.default_rng(m)
    for kind in ("uniform", "sinh-clustered"):
        grid = make_grid(m, 40.0, 512, map_kind=kind)
        for R in (3.0, 20.0):
            idx = diag._pohozaev_index(grid, R)
            functional = diag._layout(grid).pohozaev_window(idx)
            assert functional.shape == (2 * (m + 1) + 2 * ((m - 1) // 2 + 1), 2 * m + 3)
            for offset in (0.0, 5.0):
                values = rng.normal(size=grid.nodes.shape) + offset
                got = functional @ values[idx - (m + 1) : idx + m + 2]
                expected = _boundary_chain_on_the_full_grid(values, grid, idx)
                bound, size = _boundary_chain_bounds(values, grid, idx)
                assert np.all(np.abs(got - expected) <= bound)
                # Delta^0 is the centre value itself.
                assert got[0] == values[idx]


def test_pohozaev_boundary_terms_do_not_depend_on_the_level_c_v(report_records):
    # wbar = v + c_v enters the boundary terms only through derivatives,
    # and the functional rounds on v's variation about the snapped node,
    # so b2 and b3 are the same bits for any c_v; a chain run on wbar
    # itself rounds on its level, which c_v sets.
    for rec in report_records:
        args = (rec.log_K, rec.u0_density, rec.config.sign, rec.alpha, 20.0)
        base = pohozaev_terms(rec.v, rec.c_v, *args)
        for shift in (-30.0, 3.0):
            moved = pohozaev_terms(rec.v, rec.c_v + shift, *args)
            assert (moved.b2, moved.b3) == (base.b2, base.b3)


def test_pure_block_in_closed_form_agrees_with_the_angular_rule(report_records):
    # At p = 2 the pure-second-derivative block is integrated over the
    # sphere in closed form; the 64-node rule it replaces agrees to 1e-13.
    for rec in report_records:
        grid, v = rec.grid, rec.v
        for delta in (-3.0, 0.5):
            closed = _weighted_norm_formula(v, 2, delta, 2.0, _pure_block_in_closed_form)
            by_rule = _weighted_norm_formula(v, 2, delta, 2.0)
            assert weighted_norm(v, 2, delta) == closed
            assert closed == pytest.approx(by_rule, rel=1e-13, abs=0.0)
        f1, f2 = grid.stencil.d1(v.values), grid.stencil.d2(v.values)
        ratio = np.append(f2[0], f1[1:] / grid.nodes[1:])
        aniso = f2 - ratio
        weight = grid.quad_weights * (1.0 + grid.nodes**2) ** -1.0
        blocks = [
            float(weight @ pure(aniso, ratio, grid.n, 2.0))
            for pure in (_pure_block_in_closed_form, _pure_block_by_angular_rule)
        ]
        assert blocks[0] == pytest.approx(blocks[1], rel=1e-13, abs=0.0)


def _sweep_design_configs():
    """The benchmark's ``sweep`` batch: one config per m = 2..6 and sign
    at N = 2048, V/vol(S^{2m}) and c of P = c |x|^2 at the centres of a
    5 x 5 Latin square over [0.3, 0.7] (sign +1) or [1, 3] (sign -1) and
    c in [0.5, 2]."""
    designs = {1: ((0.3, 0.7), (0, 2, 1, 4, 3)), -1: ((1.0, 3.0), (0, 3, 1, 4, 2))}
    for sign, ((lo, hi), strata) in designs.items():
        for i, (m, k) in enumerate(zip(range(2, 7), strata)):
            c = 0.5 + 1.5 * ((k + 0.5) / 5)
            yield {
                "schema_version": 2,
                "m": m,
                "sign": sign,
                "volume": (lo + (hi - lo) * ((i + 0.5) / 5)) * constants(m).vol_sphere,
                "profile": " + ".join(f"{c!r} * x{j}^2" for j in range(1, 2 * m + 1)),
                "n_intervals": 2048,
            }


def test_report_fit_reuses_the_cached_profile_coefficients(monkeypatch):
    # Loading and solving derive P's coefficients once, and the report
    # not at all: its fit reads the record's pieces -alpha u0 + v + c_v.
    calls = []
    read = qcurv.solver.radial_profile_coeffs

    def counted(P):
        calls.append(P)
        return read(P)

    monkeypatch.setattr(qcurv.solver, "radial_profile_coeffs", counted)
    for data in _sweep_design_configs():
        calls.clear()
        config = SolverConfig.from_json_dict(data)
        record = solve_continuation(config)
        assert len(calls) == 1
        report = build_report(record)
        assert len(calls) == 1
        fit = (report.alpha_fitted, report.C_fitted, report.asymptotic_deviation)
        assert fit == asymptotic_profile(_fit_field(record))


# ----------------------------------------------------------------------
# the report's per-grid layout
# ----------------------------------------------------------------------
_LAYOUT = (
    "fit",
    "pohozaev_window",
    "norm_weights",
    "weights_within",
    "weights_beyond",
    "nearest_index",
    "tail_window",
)


def _clear_layout():
    qcurv.diagnostics._layouts.clear()
    _angular_moment.cache_clear()


@pytest.fixture
def layout_builds():
    """Empty the report's layout store; the returned function counts the
    pieces of each kind built on a grid since (a cache miss is one build)."""
    _clear_layout()
    return lambda grid: {
        name: getattr(qcurv.diagnostics._layout(grid), name).cache_info().misses
        for name in _LAYOUT
    }


def test_report_on_a_cold_layout_equals_one_on_a_warm_layout(report_records):
    for rec in report_records:
        _clear_layout()
        cold = build_report(rec).to_json_dict()
        assert build_report(rec).to_json_dict() == cold


def test_each_layout_piece_is_built_once_per_grid(layout_builds):
    # r_max = 41.75 puts the probes' radius r_max/2 on another node than
    # the Pohozaev radius 20, so two ball rules are built.
    config = SolverConfig(
        m=2,
        sign=1,
        volume=0.5 * constants(2).vol_sphere,
        profile=Polynomial.from_text(" + ".join(f"x{i}^2" for i in range(1, 5))),
        r_max=41.75,
        n_intervals=512,
    )
    grid = build_grid(config)
    check_report_grid(grid)
    assert layout_builds(grid) == dict.fromkeys(_LAYOUT, 0) | {
        "fit": 1,
        "pohozaev_window": 1,
        "nearest_index": 1,
    }
    layout = qcurv.diagnostics._layout(grid)
    record = solve_continuation(config)
    assert record.grid is grid
    build_report(record)
    built = layout_builds(grid)
    assert built == {
        "fit": 1,
        "pohozaev_window": 1,
        "norm_weights": 1,
        "weights_within": 2,
        "weights_beyond": 5,
        "nearest_index": 6,
        "tail_window": 1,
    }
    other = solve_continuation(replace(config, sign=-1, volume=2.0 * config.volume))
    assert other.grid is grid
    build_report(other)
    build_report(record)
    assert layout_builds(grid) == built
    assert list(qcurv.diagnostics._layouts.items()) == [(grid, layout)]


def _layout_on_many_radii(grid):
    """Build every kind of layout piece on ``grid``, at more radii than a
    layout keeps rules for, and return the layout."""
    diag = qcurv.diagnostics
    field = RadialField(grid=grid, values=-2.0 * np.log1p(grid.nodes**2))
    check_report_grid(grid)
    weighted_norm(field, 2, -3.0)
    conformal_volume(field)
    for R in range(1, 2 * diag._NODES_PER_GRID):
        tail_curvature_mass(field, field, float(R))
        exp_integrability_probe(field, 0.1, float(R))
    return diag._layout(grid)


def test_a_layout_lives_exactly_as_long_as_its_grid():
    diag = qcurv.diagnostics
    _clear_layout()
    count = qcurv.solver._DISCRETIZATION_CACHE_SIZE + 2
    grids = [make_grid(2, 40.0, 128 + k) for k in range(count)]
    layouts = [_layout_on_many_radii(grid) for grid in grids]
    # Reading more grids than the solver keeps discretizations for drops
    # none of the layouts while their grids live.
    for grid, layout in zip(grids, layouts):
        assert diag._layout(grid) is layout
        for kind in ("nearest_index", "weights_within", "weights_beyond"):
            assert getattr(layout, kind).cache_info().currsize == diag._NODES_PER_GRID
        for kind in ("fit", "pohozaev_window", "norm_weights", "tail_window"):
            info = getattr(layout, kind).cache_info()
            assert 1 <= info.currsize <= diag._WINDOWS_PER_GRID
    assert len(diag._layouts) == count
    refs = [weakref.ref(obj) for obj in grids + layouts]
    gc.disable()
    try:
        del grid, layout, grids, layouts
        # Reference counting alone frees each grid and its layout.
        assert [ref() for ref in refs] == [None] * (2 * count)
        assert len(diag._layouts) == 0
    finally:
        gc.enable()


def test_a_held_record_is_reported_on_again_without_building():
    # Layout pieces are counted as they are built.  r_max = 39.5 keeps the
    # grids apart from those other tests solve on, so every layout here is
    # built, and binds the counting builders, while they are in place.
    diag = qcurv.diagnostics
    builds = []

    def counting(build):
        def counted(grid, *args):
            builds.append((build.__name__, grid.n_intervals))
            return build(grid, *args)

        return counted

    config = SolverConfig(
        m=2,
        sign=1,
        volume=0.5 * constants(2).vol_sphere,
        profile=Polynomial.from_text(" + ".join(f"x{i}^2" for i in range(1, 5))),
        r_max=39.5,
        n_intervals=128,
    )
    count = qcurv.solver._DISCRETIZATION_CACHE_SIZE + 2
    with pytest.MonkeyPatch.context() as patch:
        for name in ("_fit_layout", "_pohozaev_window"):
            patch.setattr(diag, name, counting(getattr(diag, name)))
        records = [
            solve_continuation(replace(config, n_intervals=128 + k))
            for k in range(count)
        ]
        reports = [build_report(rec) for rec in records]
        built = sorted(builds)
        assert len(built) == 2 * count
        # Every other grid has been reported on since the first record's.
        assert [build_report(rec) for rec in records] == reports
        assert sorted(builds) == built


def test_diagnostics_imports_nothing_from_the_solver_at_run_time():
    tree = ast.parse(inspect.getsource(qcurv.diagnostics))
    type_only = {
        id(node)
        for block in tree.body
        if isinstance(block, ast.If) and ast.unparse(block.test) == "TYPE_CHECKING"
        for stmt in block.body
        for node in ast.walk(stmt)
    }
    imported = []
    for node in ast.walk(tree):
        if id(node) in type_only:
            continue
        if isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
    assert ".potential" in imported
    assert not [name for name in imported if name.endswith("solver")]


def test_build_grid_and_the_solve_share_one_grid_owner():
    # One cache holds a config's grid for build_grid and the solve, so
    # building more grids than it keeps evicts the grid from both at once.
    config = SolverConfig(
        m=2,
        sign=1,
        volume=0.5 * constants(2).vol_sphere,
        profile=Polynomial.from_text(" + ".join(f"x{i}^2" for i in range(1, 5))),
        n_intervals=128,
    )
    solve_continuation(config)
    for k in range(1, qcurv.solver._DISCRETIZATION_CACHE_SIZE + 2):
        build_grid(replace(config, n_intervals=128 + k))
    record = solve_continuation(config)
    assert build_grid(config) is record.grid
    check_report_grid(build_grid(config))
    layouts = dict(qcurv.diagnostics._layouts)
    build_report(record)
    assert dict(qcurv.diagnostics._layouts) == layouts
    assert layouts[record.grid] is qcurv.diagnostics._layout(record.grid)


def test_layout_pieces_are_read_only(report_records):
    rec = report_records[0]
    grid = rec.grid
    build_report(rec)
    diag = qcurv.diagnostics
    layout = diag._layout(grid)
    idx = diag._pohozaev_index(grid, 20.0)
    _, design, pseudo_inverse = layout.fit(grid.r_max / 4.0, grid.r_max / 2.0)
    _, slope_weights = layout.tail_window()
    arrays = [design, pseudo_inverse, slope_weights, layout.pohozaev_window(idx)]
    arrays += [layout.weights_within(idx), layout.weights_beyond(idx)]
    arrays += layout.norm_weights(-3.0)
    arrays += [getattr(grid.stencil, name) for name in ("nodes",) + _STENCIL_ROWS]
    for array in arrays:
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[(0,) * array.ndim] = 1.0


_TRACED_LAYERS = (
    "pde_residual",
    "radial_polyharmonic",
    "conformal_volume",
    "asymptotic_profile",
    "record_pohozaev_terms",
)


def test_report_calls_each_traced_layer_once_through_the_module(
    monkeypatch, quick_positive
):
    # The benchmark times these layers by wrapping them where the report
    # looks them up; a report that stopped calling one would zero its
    # metric without failing anything else.
    calls = dict.fromkeys(_TRACED_LAYERS, 0)
    for name in _TRACED_LAYERS:
        layer = getattr(qcurv.diagnostics, name)

        def counted(*args, _name=name, _layer=layer, **kwargs):
            calls[_name] += 1
            return _layer(*args, **kwargs)

        monkeypatch.setattr(qcurv.diagnostics, name, counted)
    build_report(quick_positive)
    assert calls == dict.fromkeys(_TRACED_LAYERS, 1)
