"""Tests for the independent solution checks: PDE residual, volume,
asymptotic fit, Pohozaev balance, weighted norms, and the report."""

import json
import math

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
    build_report,
    conformal_volume,
    constants,
    exp_integrability_probe,
    make_grid,
    pde_residual,
    pohozaev_terms,
    record_pohozaev_terms,
    smooth_global,
    solve_continuation,
    sphere_area,
    spherical_solution,
    tail_curvature_mass,
    u0_density_field,
    u0_eval,
    weighted_norm,
)
from qcurv.diagnostics import _angular_moment, _d1, _d2
from qcurv.geometry import _lap_radial
from qcurv.potential import gauss_legendre


# ----------------------------------------------------------------------
# PDE residual
# ----------------------------------------------------------------------
@pytest.mark.parametrize("m, tol", [(2, 2e-4), (3, 1e-3)])
def test_pde_residual_vanishes_on_explicit_solution(m, tol):
    grid = make_grid(m, 10.0, 2048, map_kind="uniform")
    u = RadialField(grid=grid, values=spherical_solution(m, 1.0, grid.nodes))
    assert pde_residual(u, m, 1) < tol


def test_pde_residual_detects_perturbations():
    grid = make_grid(2, 10.0, 2048, map_kind="uniform")
    u = RadialField(
        grid=grid, values=spherical_solution(2, 1.0, grid.nodes) + 0.1
    )
    # A constant shift scales the curvature by e^{0.4} but not the
    # polyharmonic, so the residual jumps by orders of magnitude.
    assert pde_residual(u, 2, 1) > 0.05


def test_pde_residual_validates_inputs():
    grid = make_grid(2, 10.0, 128)
    u = RadialField(grid=grid, values=np.zeros_like(grid.nodes))
    with pytest.raises(GridMismatch):
        pde_residual(u, 3, 1)
    with pytest.raises(GridMismatch):
        pde_residual(u, 2, 0)


# ----------------------------------------------------------------------
# conformal volume
# ----------------------------------------------------------------------
def test_conformal_volume_of_explicit_solution():
    cs = constants(2)
    grid = make_grid(2, 60.0, 2048, sinh_strength=4.0)
    u = RadialField(grid=grid, values=spherical_solution(2, 1.0, grid.nodes))
    volume, tail = conformal_volume(u, 2)
    assert volume == pytest.approx(cs.vol_sphere, rel=1e-4)
    assert 0 < tail < 1e-6 * volume


def test_conformal_volume_rejects_uncertifiable_tails():
    grid = make_grid(2, 40.0, 1024)
    # Integrand ~ r^{-3.2}: not integrable in R^4, slope fit cannot
    # certify decay below -2m.
    slow = RadialField(grid=grid, values=-0.8 * np.log1p(grid.nodes))
    with pytest.raises(TailNotNegligible, match="cannot certify"):
        conformal_volume(slow, 2)
    # Integrand ~ r^{-4.8}: integrable, but the truncated tail estimate
    # dwarfs the 1e-6 budget.
    heavy = RadialField(grid=grid, values=-1.2 * np.log1p(grid.nodes))
    with pytest.raises(TailNotNegligible, match="enlarge r_max"):
        conformal_volume(heavy, 2)


def test_conformal_volume_degenerate_and_underflow_paths():
    grid = make_grid(2, 40.0, 1024)
    # Uniformly tiny profiles skip the certificate (volume is underflow
    # scale, there is no meaningful tail to certify).
    degen = RadialField(grid=grid, values=np.full_like(grid.nodes, -60.0))
    volume, tail = conformal_volume(degen, 2)
    assert tail == 0.0
    assert volume == pytest.approx(
        math.exp(-240.0) * grid.quad_weights.sum(), rel=1e-12
    )
    # A Gaussian-type profile underflows the integrand in the window;
    # the tail is then below representable and reported as 0.
    gauss = RadialField(grid=grid, values=-grid.nodes**2)
    volume, tail = conformal_volume(gauss, 2)
    assert tail == 0.0
    assert volume == pytest.approx((math.pi / 4.0) ** 2, rel=1e-3)


def test_conformal_volume_checks_grid_dimension():
    grid = make_grid(3, 40.0, 128)
    u = RadialField(grid=grid, values=np.zeros_like(grid.nodes))
    with pytest.raises(GridMismatch):
        conformal_volume(u, 2)


# ----------------------------------------------------------------------
# asymptotic fit
# ----------------------------------------------------------------------
def test_asymptotic_profile_recovers_synthetic_expansion():
    grid = make_grid(2, 40.0, 1024)
    P = Polynomial.from_text(
        "1.0 * x1^2 + 1.0 * x2^2 + 1.0 * x3^2 + 1.0 * x4^2"
    )
    r = grid.nodes.copy()
    r[0] = 1.0  # keep the origin value finite; it is far from the window
    values = -1.5 * np.log(r) - grid.nodes**2 + 0.7
    u = RadialField(grid=grid, values=values)
    alpha, c, dev = asymptotic_profile(u, P)
    assert alpha == pytest.approx(1.5, abs=1e-10)
    assert c == pytest.approx(0.7, abs=1e-10)
    assert dev < 1e-10
    # An explicit window works too.
    alpha, _, _ = asymptotic_profile(u, P, fit_window=(8.0, 30.0))
    assert alpha == pytest.approx(1.5, abs=1e-10)
    # A far-field r^{-2} term (j < m = 2) is fitted, not folded into alpha.
    far = RadialField(grid=grid, values=values + 40.0 / r**2)
    alpha, c, dev = asymptotic_profile(far, P)
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
    alpha, _, _ = asymptotic_profile(record.u, config.profile)
    assert abs(alpha - config.alpha) / abs(config.alpha) <= 1e-3


def test_asymptotic_profile_with_no_polynomial():
    grid = make_grid(2, 40.0, 1024)
    r = grid.nodes.copy()
    r[0] = 1.0
    u = RadialField(grid=grid, values=2.0 * np.log(r) - 1.0)
    alpha, c, dev = asymptotic_profile(u, None)
    assert alpha == pytest.approx(-2.0, abs=1e-10)
    assert c == pytest.approx(-1.0, abs=1e-10)


def test_asymptotic_profile_validates_window():
    grid = make_grid(2, 40.0, 1024)
    u = RadialField(grid=grid, values=np.zeros_like(grid.nodes))
    with pytest.raises(GridMismatch, match="r >= 5"):
        asymptotic_profile(u, None, fit_window=(2.0, 20.0))
    with pytest.raises(GridMismatch, match="exceeds r_max"):
        asymptotic_profile(u, None, fit_window=(10.0, 50.0))
    with pytest.raises(GridMismatch, match="empty"):
        asymptotic_profile(u, None, fit_window=(20.0, 10.0))
    with pytest.raises(GridMismatch, match="need >= 20"):
        asymptotic_profile(u, None, fit_window=(20.0, 20.2))
    aniso = Polynomial.from_text("x1^2", dim=4)
    with pytest.raises(GridMismatch, match="radial"):
        asymptotic_profile(u, aniso)


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
    u0_vals, _ = u0_eval(smooth_global(m), grid.nodes)
    wbar = RadialField(grid=grid, values=u + 2.0 * u0_vals)
    log_K = RadialField(
        grid=grid,
        values=math.log(cs.factorial_2m_minus_1) - 2 * m * 2.0 * u0_vals,
    )
    u0d = u0_density_field(smooth_global(m), grid)
    return wbar, log_K, u0d


@pytest.mark.parametrize("m, tol", [(2, 2e-4), (3, 1e-3)])
def test_pohozaev_balance_on_explicit_solution(m, tol):
    wbar, log_K, u0d = _spherical_balance_pieces(m)
    for R in (3.0, 5.0):
        terms = pohozaev_terms(wbar, log_K, wbar, u0d, 1, 2.0, R)
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
    terms = pohozaev_terms(tilted, log_K, tilted, u0d, 1, 2.0, 5.0)
    assert terms.defect > 1e-2


def test_pohozaev_terms_validate_radius():
    wbar, log_K, u0d = _spherical_balance_pieces(2)
    with pytest.raises(GridMismatch, match="too close"):
        pohozaev_terms(wbar, log_K, wbar, u0d, 1, 2.0, 0.001)
    with pytest.raises(GridMismatch, match="too close"):
        pohozaev_terms(wbar, log_K, wbar, u0d, 1, 2.0, 10.0)


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
    got = weighted_norm(f, 0, -1.0, 2.0)
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
    got = weighted_norm(f, 1, -3.0, 2.0)
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
    got = weighted_norm(f, 2, -7.0, 2.0)
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
        assert weighted_norm(g, k, -3.0, 2.0) == pytest.approx(
            2.5 * weighted_norm(f, k, -3.0, 2.0), rel=1e-12
        )


def test_weighted_norm_satisfies_triangle_inequality(norm_grid):
    rng = np.random.default_rng(23)
    a = RadialField(grid=norm_grid, values=rng.normal(size=norm_grid.nodes.shape))
    b = RadialField(grid=norm_grid, values=rng.normal(size=norm_grid.nodes.shape))
    s = RadialField(grid=norm_grid, values=a.values + b.values)
    for k, p in ((0, 2.0), (1, 3.0), (2, 2.0)):
        assert weighted_norm(s, k, -3.0, p) <= (
            weighted_norm(a, k, -3.0, p) + weighted_norm(b, k, -3.0, p)
        ) * (1 + 1e-12)


def test_weighted_norm_validates_inputs(norm_grid):
    f = RadialField(grid=norm_grid, values=np.zeros_like(norm_grid.nodes))
    with pytest.raises(GridMismatch):
        weighted_norm(f, 3, -3.0, 2.0)
    with pytest.raises(GridMismatch):
        weighted_norm(f, 0, -3.0, 0.5)


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
    m, n, nodes = grid.m, grid.n, grid.nodes
    om = sphere_area(n)
    w_iter = [wbar.values.copy()]
    for _ in range(m):
        w_iter.append(_lap_radial(nodes, w_iter[-1], n))
    g_iter = [nodes * _d1(nodes, wbar.values)]
    for _ in range((m - 1) // 2 + 1):
        g_iter.append(_lap_radial(nodes, g_iter[-1], n))
    w_prime = [_d1(nodes, arr) for arr in w_iter]
    g_prime = [_d1(nodes, arr) for arr in g_iter]
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


def _weighted_norm_formula(f, k, delta, p):
    """weighted_norm as first written: each order recomputes the lower
    ones, and the angular integrand is formed out of place."""
    grid = f.grid
    n, nodes = grid.n, grid.nodes
    w_full = grid.quad_weights
    w_radial = w_full / sphere_area(n)
    weight0 = (1.0 + nodes**2) ** (delta * p / 2.0)
    norm = float(w_full @ (weight0 * np.abs(f.values) ** p)) ** (1.0 / p)
    if k == 0:
        return norm
    f1 = _d1(nodes, f.values)
    weight1 = (1.0 + nodes**2) ** ((delta + 1.0) * p / 2.0)
    block1 = float(_angular_moment(n, (p,)) * (w_radial @ (weight1 * np.abs(f1) ** p)))
    norm += n * block1 ** (1.0 / p)
    if k == 1:
        return norm
    f2 = _d2(nodes, f.values)
    ratio = np.empty_like(f1)
    ratio[1:] = f1[1:] / nodes[1:]
    ratio[0] = f2[0]
    aniso = f2 - ratio
    weight2 = (1.0 + nodes**2) ** ((delta + 2.0) * p / 2.0)
    mixed = float(
        _angular_moment(n, (p, p)) * (w_radial @ (weight2 * np.abs(aniso) ** p))
    )
    norm += (n * (n - 1) / 2.0) * mixed ** (1.0 / p)
    x_gl, w_gl = gauss_legendre(64)
    theta = 0.5 * math.pi * (x_gl + 1.0)
    cos2 = np.cos(theta) ** 2
    ring = sphere_area(n - 1) * 0.5 * math.pi * w_gl * np.sin(theta) ** (n - 2)
    pure_angular = (np.abs(aniso[:, None] * cos2[None, :] + ratio[:, None]) ** p) @ ring
    pure = float(w_radial @ (weight2 * pure_angular))
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
        # Weighted norms of order 0, 1, 2 from one pass.
        for k in (0, 1, 2):
            expected = _weighted_norm_formula(rec.v, k, -3.0, 2.0)
            assert report.weighted_norms[f"k={k},delta=-3,p=2"] == expected
            assert weighted_norm(rec.v, k, 0.5, 1.5) == _weighted_norm_formula(
                rec.v, k, 0.5, 1.5
            )
        # Pohozaev boundary terms from the windowed stencils.
        for R in (3.0, 7.5, 20.0, 30.0):
            terms = record_pohozaev_terms(rec, R)
            idx = grid.nearest_index(R)
            assert (terms.b2, terms.b3) == _boundary_terms_on_the_full_grid(
                wbar, terms.radius, idx
            )


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
    # Loading, solving and reporting derive P's coefficients once; the
    # fit from them equals the fit that re-derives them from P.
    calls = []
    read = qcurv.solver.radial_profile_coeffs

    def counted(P):
        calls.append(P)
        return read(P)

    for module in (qcurv.solver, qcurv.diagnostics):
        monkeypatch.setattr(module, "radial_profile_coeffs", counted)
    for data in _sweep_design_configs():
        calls.clear()
        config = SolverConfig.from_json_dict(data)
        record = solve_continuation(config)
        report = build_report(record)
        assert len(calls) == 1
        fit = (report.alpha_fitted, report.C_fitted, report.asymptotic_deviation)
        assert fit == asymptotic_profile(record.u, config.profile)
