"""Tests for the independent solution checks: PDE residual, volume,
asymptotic fit, Pohozaev balance, weighted norms, and the report."""

import gc
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
from qcurv.potential import _STENCIL_FACTORS, gauss_legendre
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
def _boundary_terms_on_the_full_grid(wbar, r_snap, idx):
    """b1's curvature factor aside, the Pohozaev boundary terms with every
    stencil applied to the whole grid, as first written."""
    grid = wbar.grid
    m, n, st = grid.m, grid.n, grid.stencil
    om = sphere_area(n)
    w_iter = [wbar.values.copy()]
    for _ in range(m):
        w_iter.append(st.laplacian(w_iter[-1], origin=True))
    g_iter = [grid.nodes * st.d1(wbar.values)]
    for _ in range((m - 1) // 2 + 1):
        g_iter.append(st.laplacian(g_iter[-1], origin=True))
    w_prime = [st.d1(arr) for arr in w_iter]
    g_prime = [st.d1(arr) for arr in g_iter]
    if m % 2 == 0:
        half_power = w_iter[m // 2][idx]
    else:
        half_power = w_prime[(m - 1) // 2][idx]
    b2 = float(-m * om * r_snap**n * half_power**2)
    cross = 0.0
    for j in range(m):
        parity_sign = (-1.0) ** (m + j)
        if j % 2 == 0:
            cross += parity_sign * g_iter[j // 2][idx] * w_prime[m - 1 - j // 2][idx]
        else:
            cross += parity_sign * g_prime[(j - 1) // 2][idx] * w_iter[m - (j + 1) // 2][idx]
    return b2, float(-2.0 * m * om * r_snap ** (n - 1) * cross)


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
        # The alpha fit from the cached design equals a fresh lstsq.
        fit = (report.alpha_fitted, report.C_fitted, report.asymptotic_deviation)
        assert fit == _fit_by_lstsq(rec)
        # Pohozaev terms from the cached ball rule and the cached window's
        # stencils.
        for R in (3.0, 7.5, 20.0, 30.0):
            terms = record_pohozaev_terms(rec, R)
            idx = grid.nearest_index(R)
            assert (terms.t1, terms.t2, terms.t3, terms.b1) == (
                _volume_terms_on_the_full_grid(rec, idx)
            )
            assert (terms.b2, terms.b3) == _boundary_terms_on_the_full_grid(
                wbar, terms.radius, idx
            )


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
)


def _clear_layout():
    qcurv.diagnostics._layout.cache_clear()
    _angular_moment.cache_clear()


@pytest.fixture
def layout_builds():
    """Empty the report's layout caches; the returned function counts the
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
    }
    other = solve_continuation(replace(config, sign=-1, volume=2.0 * config.volume))
    build_report(other)
    build_report(record)
    assert layout_builds(grid) == built
    assert qcurv.diagnostics._layout.cache_info().misses == 1


def test_layouts_are_kept_for_the_last_grids_and_older_grids_released():
    diag = qcurv.diagnostics
    _clear_layout()
    kept = diag._DISCRETIZATION_CACHE_SIZE
    grids = []
    for k in range(kept + 2):
        grid = make_grid(2, 40.0, 128 + k)
        field = RadialField(grid=grid, values=-np.log1p(grid.nodes**2))
        check_report_grid(grid)
        weighted_norm(field, 2, -3.0)
        # More radii than a layout keeps rules for.
        for R in range(1, 2 * diag._NODES_PER_GRID):
            tail_curvature_mass(field, field, float(R))
            exp_integrability_probe(field, 0.1, float(R))
        layout = diag._layout(grid)
        for kind in ("nearest_index", "weights_within", "weights_beyond"):
            assert getattr(layout, kind).cache_info().currsize == diag._NODES_PER_GRID
        grids.append(weakref.ref(grid))
    del grid, field, layout
    gc.collect()
    assert [ref() is None for ref in grids] == [True, True] + [False] * kept
    assert diag._layout.cache_info().currsize == kept


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
    misses = qcurv.diagnostics._layout.cache_info().misses
    build_report(record)
    assert qcurv.diagnostics._layout.cache_info().misses == misses


def test_layout_pieces_are_read_only(report_records):
    rec = report_records[0]
    grid = rec.grid
    build_report(rec)
    diag = qcurv.diagnostics
    layout = diag._layout(grid)
    idx = diag._pohozaev_index(grid, 20.0)
    _, design = layout.fit(grid.r_max / 4.0, grid.r_max / 2.0)
    table = layout.pohozaev_window(idx)
    arrays = [design, layout.weights_within(idx), layout.weights_beyond(idx)]
    arrays += layout.norm_weights(-3.0)
    arrays += [getattr(table, name) for name in ("nodes",) + _STENCIL_FACTORS]
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
