"""Acceptance suite: the package's end-to-end correctness contract.

Nine checks, each printing one summary line (visible with ``pytest -s``):
closed-form spherical oracles across dimensions and scales, kernel and
potential exactness, the two benchmark solves with their hard diagnostic
gates, the solver's second-order convergence on those two configs, the
Pohozaev limit, the admissible-profile fixtures, and the
invariance/determinism properties every run relies on.
Tolerances are fixed; a failure here means the library regressed.
"""

import time

import numpy as np
import pytest

from qcurv import (
    Polynomial,
    RadialField,
    SolverConfig,
    a3_counterexample,
    build_problem,
    build_report,
    conformal_volume,
    constants,
    kernel_matrix,
    make_grid,
    pde_residual,
    pm_membership,
    potential_apply,
    radial_derivative,
    record_pohozaev_terms,
    ring_kernel_mean,
    solve_continuation,
    source_with_normalization,
    spherical_solution,
)

# Volume-certification grids per dimension: (r_max, n_intervals, sinh
# strength).  r_max is sized so the lambda = 0.5 tail (the slowest decay,
# ~ (2/(lambda R))^{2m} vol / 2m) stays below the certificate's 1e-6
# threshold with at least a 3x margin.
VOLUME_GRIDS = {1: (5000.0, 32768, 8.0), 2: (110.0, 16384, 4.0), 3: (36.0, 16384, 3.5)}


def test_spherical_solutions_satisfy_pde_and_volume_oracles():
    """The closed-form solutions solve the equation and carry the volume
    of the round sphere, for m in 1..3 and scales lambda in {0.5, 1, 2}."""
    start = time.perf_counter()
    worst_resid = 0.0
    worst_vol = 0.0
    for m in (1, 2, 3):
        cs = constants(m)
        r_max, n_intervals, strength = VOLUME_GRIDS[m]
        vol_grid = make_grid(m, r_max, n_intervals, sinh_strength=strength)
        for lam in (0.5, 1.0, 2.0):
            grid = make_grid(m, 10.0 / lam, 2048, map_kind="uniform")
            u = RadialField(grid=grid, values=spherical_solution(m, lam, grid.nodes))
            resid = pde_residual(u, 1)
            assert resid <= 1e-3, f"m={m}, lambda={lam}: residual {resid:.3e}"
            worst_resid = max(worst_resid, resid)

            u_vol = RadialField(
                grid=vol_grid, values=spherical_solution(m, lam, vol_grid.nodes)
            )
            volume, tail = conformal_volume(u_vol)
            rel = abs(volume - cs.vol_sphere) / cs.vol_sphere
            assert rel <= 1e-5, f"m={m}, lambda={lam}: volume rel err {rel:.3e}"
            assert 0.0 <= tail <= 1e-6 * volume
            worst_vol = max(worst_vol, rel)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(
        f"PASS spherical oracle: max residual {worst_resid:.3e} (gate 1e-3), "
        f"max volume rel err {worst_vol:.3e} (gate 1e-5), {elapsed:.2f}s"
    )


def test_ring_kernel_matches_log_closed_form_in_dimension_two():
    """In dimension 2 the spherical mean of log|x - y| is log max(s, r)
    exactly; the quadrature route must reproduce it to 1e-6 on a 100x100
    radius grid, diagonal included."""
    radii = np.linspace(0.05, 5.0, 100)
    start = time.perf_counter()
    worst = 0.0
    for s in radii:
        for r in radii:
            dev = abs(ring_kernel_mean(2, float(s), float(r)) - np.log(max(s, r)))
            worst = max(worst, dev)
    elapsed = time.perf_counter() - start
    assert worst <= 1e-6
    assert elapsed < 1.0
    print(f"PASS ring kernel n=2: max dev {worst:.3e} (gate 1e-6), {elapsed:.2f}s")


def test_log_potential_reproduces_spherical_solution():
    """Applying the log-potential operator to the spherical curvature
    density 6 e^{4u} returns u up to an additive constant (m = 2,
    N = 2048): node-wise std of the difference <= 1e-3 on r <= r_max/2."""
    start = time.perf_counter()
    grid = make_grid(2, 40.0, 2048)
    kernel = kernel_matrix(grid)
    u_sph = spherical_solution(2, 1.0, grid.nodes)
    pot = potential_apply(kernel, 6.0 * np.exp(4.0 * u_sph))
    window = grid.nodes <= 20.0
    std = float(np.std(pot[window] - u_sph[window]))
    elapsed = time.perf_counter() - start
    assert std <= 1e-3
    assert elapsed < 30.0
    print(f"PASS log potential: node std {std:.3e} (gate 1e-3), {elapsed:.2f}s")


def _gate_check(record, report, alpha_target):
    config = record.config
    assert record.converged
    assert record.final_update <= 1e-8
    volume_rel = abs(report.volume_achieved - config.volume) / config.volume
    assert volume_rel <= 5e-3
    assert abs(report.alpha_fitted - alpha_target) / abs(alpha_target) <= 0.02
    assert report.pde_residual_max_rel <= 5e-3
    assert report.pohozaev_defect_rel <= 1e-2
    assert 19.0 <= report.pohozaev_radius <= 21.0
    return volume_rel


def test_positive_curvature_benchmark_passes_all_gates(benchmark_positive):
    """m = 2, P = |x|^2, V = vol(S^4)/2 with sign +1: converges, hits the
    target volume, decays like alpha = 1, and satisfies the equation and
    the Pohozaev balance at R = 20."""
    report = build_report(benchmark_positive)
    volume_rel = _gate_check(benchmark_positive, report, 1.0)
    print(
        f"PASS positive benchmark: {benchmark_positive.iterations} iterations, "
        f"residual {report.pde_residual_max_rel:.3e}, volume rel {volume_rel:.1e}, "
        f"alpha {report.alpha_fitted:.5f}, defect {report.pohozaev_defect_rel:.1e}"
    )


def test_negative_curvature_supercritical_benchmark_passes_all_gates(
    benchmark_negative,
):
    """m = 2, P = |x|^2, V = 2 vol(S^4) with sign -1: the volume exceeds
    the positive-curvature bound, yet the solve converges with alpha = -4
    and the same diagnostic gates."""
    report = build_report(benchmark_negative)
    volume_rel = _gate_check(benchmark_negative, report, -4.0)
    print(
        f"PASS negative benchmark: {benchmark_negative.iterations} iterations, "
        f"residual {report.pde_residual_max_rel:.3e}, volume rel {volume_rel:.1e}, "
        f"alpha {report.alpha_fitted:.5f}, defect {report.pohozaev_defect_rel:.1e}"
    )


def test_solver_converges_at_second_order(square_profile_4d):
    """u(0) and the fitted C converge at second order on both benchmark
    configs: over N = 512, 1024, 2048 and 4096 the observed order
    log2(d_i / d_{i+1}) of successive differences d_i is 2 +- 0.1."""
    start = time.perf_counter()
    orders = []
    for sign, volume_ratio in ((1, 0.5), (-1, 2.0)):
        samples = []
        for n_intervals in (512, 1024, 2048, 4096):
            config = SolverConfig(
                m=2,
                sign=sign,
                volume=volume_ratio * constants(2).vol_sphere,
                profile=square_profile_4d,
                n_intervals=n_intervals,
            )
            record = solve_continuation(config)
            assert record.converged
            samples.append((record.u.values[0], build_report(record).C_fitted))
        d = np.diff(np.array(samples), axis=0)
        order = np.log2(d[:-1] / d[1:])
        assert np.all(np.abs(order - 2.0) <= 0.1), f"sign {sign}: orders {order}"
        orders.extend(order.ravel())
    elapsed = time.perf_counter() - start
    print(
        f"PASS second-order convergence: observed orders "
        f"{min(orders):.4f}..{max(orders):.4f} (gate 2 +- 0.1) for u(0) and C, "
        f"{elapsed:.2f}s"
    )


def test_pohozaev_volume_terms_balance_at_large_radius(benchmark_positive):
    """On the converged positive benchmark the three volume terms cancel
    to <= 1e-2 (relative to the largest term) at every probe radius, and
    the boundary terms decay monotonically toward the grid edge."""
    radii = (15.0, 20.0, 25.0, 30.0, 35.0)
    balances = []
    boundary_peaks = []
    for radius in radii:
        terms = record_pohozaev_terms(benchmark_positive, radius)
        balances.append(terms.volume_balance)
        boundary_peaks.append(max(abs(terms.b1), abs(terms.b2), abs(terms.b3)))
    assert all(balance <= 1e-2 for balance in balances)
    assert all(a > b for a, b in zip(boundary_peaks, boundary_peaks[1:]))
    print(
        f"PASS pohozaev limit: volume balance {max(balances):.3e} (gate 1e-2), "
        f"boundary peak {boundary_peaks[0]:.1e} -> {boundary_peaks[-1]:.1e} "
        f"over R = {radii[0]:g}..{radii[-1]:g}"
    )


def test_admissibility_accepts_quadratics_and_rejects_quartic_family():
    """Positive-definite diagonal quadratics are admissible profiles; the
    quartic family x1^2 - beta x1 x2^2 + x2^4 is rejected for beta near
    1.9 with the curve x = (a t^2, t) as witness, along which the radial
    derivative is (2a^2 - 3 beta a + 4) t^4 = -0.06 t^4 at a = 1.4."""
    rng = np.random.default_rng(97)
    coefficients = rng.uniform(0.2, 3.0, 4)
    quadratic = Polynomial.from_terms(
        4,
        [
            (tuple(2 if j == i else 0 for j in range(4)), float(coefficients[i]))
            for i in range(4)
        ],
    )
    verdict = pm_membership(quadratic)
    assert verdict.status == "Accepted"
    assert verdict.exponent is not None
    assert abs(verdict.exponent - 2.0) <= 1e-6

    for beta in (1.89, 1.9, 1.95):
        rejected = pm_membership(a3_counterexample(beta), m=3)
        assert rejected.status == "Rejected", f"beta={beta}: {rejected.status}"
        assert rejected.witness is not None and "curve" in rejected.witness

    curve_coef = 2.0 * 1.4**2 - 3.0 * 1.9 * 1.4 + 4.0
    assert curve_coef < 0.0
    assert abs(curve_coef + 0.06) <= 1e-12
    t = np.linspace(0.5, 4.0, 13)
    probe = np.column_stack([1.4 * t**2, t])
    values = np.array(
        [radial_derivative(a3_counterexample(1.9), point) for point in probe]
    )
    assert np.allclose(values, curve_coef * t**4, rtol=1e-12, atol=0.0)
    print(
        f"PASS admissibility fixtures: quadratic exponent {verdict.exponent:.6f}, "
        f"quartic family rejected for beta in {{1.89, 1.9, 1.95}}, "
        f"curve coefficient {curve_coef:.6f}"
    )


def test_normalization_shift_mass_identity_and_determinism(square_profile_4d):
    """The invariants every solve relies on: shifting the correction by s
    shifts c_v by -s exactly; the normalized curvature mass equals
    sign (2m-1)! V at every iterate of a half-damped fixed-point loop;
    reruns are bit-identical."""
    config = SolverConfig(
        m=2,
        sign=1,
        volume=0.5 * constants(2).vol_sphere,
        profile=square_profile_4d,
        n_intervals=256,
    )
    problem = build_problem(config)
    grid, log_K = problem.grid, problem.log_K
    kernel = kernel_matrix(grid)

    rng = np.random.default_rng(29)
    v = rng.uniform(-0.5, 0.5, len(grid.nodes))
    shift_dev = abs(
        source_with_normalization(problem, v + 0.37)[1]
        - (source_with_normalization(problem, v)[1] - 0.37)
    )
    assert shift_dev <= 1e-12

    target = config.sign * 6.0 * config.volume  # alpha * gamma_m
    iterate = np.zeros_like(grid.nodes)
    worst_mass = 0.0
    for _ in range(30):
        source, c_v = source_with_normalization(problem, iterate)
        mass = float(
            grid.quad_weights
            @ (config.sign * np.exp(log_K.values + 4.0 * (iterate + c_v)))
        )
        worst_mass = max(worst_mass, abs(mass - target) / abs(target))
        iterate = 0.5 * iterate + 0.5 * potential_apply(kernel, source)
    assert worst_mass <= 1e-10

    first = solve_continuation(config)
    second = solve_continuation(config)
    assert np.array_equal(first.u.values, second.u.values)
    assert np.array_equal(first.v.values, second.v.values)
    assert first.c_v == second.c_v
    assert first.history == second.history
    print(
        f"PASS invariance suite: shift dev {shift_dev:.1e} (gate 1e-12), "
        f"mass identity dev {worst_mass:.1e} over 30 iterates (gate 1e-10), "
        f"reruns bit-identical"
    )
