"""Tests for configuration validation and the fixed-point solver."""

import math
from dataclasses import replace

import numpy as np
import pytest

from qcurv import (
    ConfigError,
    NormalizationOverflow,
    Polynomial,
    RadialField,
    SolverConfig,
    U0Profile,
    build_K,
    build_grid,
    constants,
    eval_many,
    eval_radial_profile,
    kernel_matrix,
    normalization_cv,
    compact_blend,
    potential_apply,
    radial_profile_coeffs,
    solve_continuation,
    source_with_normalization,
    u0_density_field,
    u0_eval,
)

from conftest import SQUARE_PROFILE_4D


def quick_config(**overrides) -> SolverConfig:
    cs = constants(2)
    base = dict(
        m=2,
        sign=1,
        volume=0.5 * cs.vol_sphere,
        profile=Polynomial.from_text(SQUARE_PROFILE_4D),
        n_intervals=256,
    )
    base.update(overrides)
    return SolverConfig(**base)


# ----------------------------------------------------------------------
# radial re-expansion of profiles
# ----------------------------------------------------------------------
def test_radial_profile_coeffs_recognizes_powers_of_radius():
    sq = Polynomial.from_text(SQUARE_PROFILE_4D)
    np.testing.assert_array_equal(radial_profile_coeffs(sq), [0.0, 1.0])
    # (x1^2 + x2^2)^2 in dimension 2 is |x|^4.
    quartic = Polynomial.from_text("x1^4 + 2 * x1^2 x2^2 + x2^4")
    np.testing.assert_array_equal(radial_profile_coeffs(quartic), [0.0, 0.0, 1.0])
    shifted = Polynomial.from_text("3.0 + 0.5 * x1^2 + 0.5 * x2^2")
    np.testing.assert_array_equal(radial_profile_coeffs(shifted), [3.0, 0.5])


def test_radial_profile_coeffs_rejects_non_radial_polynomials():
    assert radial_profile_coeffs(Polynomial.from_text("x1^2", dim=4)) is None
    assert (
        radial_profile_coeffs(Polynomial.from_text("x1^2 + 2.0 * x2^2"))
        is None
    )
    # Cross terms with the wrong multinomial weight are not |x|^4.
    assert (
        radial_profile_coeffs(
            Polynomial.from_text("x1^4 + 1.9 * x1^2 x2^2 + x2^4")
        )
        is None
    )


def test_radial_profile_coeffs_zero_polynomial():
    out = radial_profile_coeffs(Polynomial.zero(4))
    np.testing.assert_array_equal(out, [0.0])


def test_eval_radial_profile_matches_pointwise_evaluation():
    rng = np.random.default_rng(3)
    P = Polynomial.from_text(
        "2.0 + 0.25 * x1^2 + 0.25 * x2^2 + 0.25 * x3^2 + 0.25 * x4^2"
    )
    coeffs = radial_profile_coeffs(P)
    pts = rng.normal(size=(30, 4))
    radii = np.linalg.norm(pts, axis=1)
    np.testing.assert_allclose(
        eval_radial_profile(coeffs, radii), eval_many(P, pts), rtol=1e-13
    )


# ----------------------------------------------------------------------
# configuration validation
# ----------------------------------------------------------------------
def test_config_defaults_resolve_u0_profile():
    cfg = quick_config()
    assert cfg.u0_profile is not None
    assert cfg.u0_profile.kind == "smooth-global"
    cfg.validate()


def test_config_alpha_is_twice_normalized_volume():
    cs = constants(2)
    assert quick_config().alpha == pytest.approx(1.0, rel=1e-15)
    cfg = quick_config(sign=-1, volume=2.0 * cs.vol_sphere)
    assert cfg.alpha == pytest.approx(-4.0, rel=1e-15)


def test_config_rejects_m_equal_one_with_explanation():
    cfg = quick_config(
        m=1, profile=Polynomial.from_text("x1^2 + x2^2"), volume=1.0
    )
    with pytest.raises(ConfigError, match="admissible class is empty"):
        cfg.validate()


def test_config_rejects_supercritical_volume_for_positive_sign():
    cs = constants(2)
    cfg = quick_config(volume=1.5 * cs.vol_sphere)
    with pytest.raises(ConfigError, match="vol"):
        cfg.validate()
    # The same volume is fine for sign = -1.
    quick_config(sign=-1, volume=1.5 * cs.vol_sphere).validate()


def test_config_rejects_inadmissible_profiles():
    # Degree above the 2m - 2 bound.
    deg4 = Polynomial.from_text(
        "x1^4 + 2 * x1^2 x2^2 + 2 * x1^2 x3^2 + 2 * x1^2 x4^2 + x2^4 "
        "+ 2 * x2^2 x3^2 + 2 * x2^2 x4^2 + x3^4 + 2 * x3^2 x4^2 + x4^4"
    )
    with pytest.raises(ConfigError, match="admissibility screen"):
        quick_config(profile=deg4).validate()
    # Non-radial profiles cannot feed the one-dimensional solver.
    aniso = Polynomial.from_text("x1^2 + x2^2 + x3^2 + 2.0 * x4^2")
    with pytest.raises(ConfigError, match="radial"):
        quick_config(profile=aniso).validate()
    # Wrong ambient dimension.
    with pytest.raises(ConfigError, match="dim"):
        quick_config(profile=Polynomial.from_text("x1^2 + x2^2")).validate()


@pytest.mark.parametrize(
    "overrides, fragment",
    [
        (dict(m=7), "m must be"),
        (dict(sign=0), "sign"),
        (dict(volume=-1.0), "volume must be positive"),
        (dict(tol=float("nan")), "tol"),
        (dict(tol=-1.0), "tol"),
        (dict(tol=0.0), "tol"),
        (dict(max_iter=0), "max_iter"),
        (dict(r_max=1.0), "r_max"),
        (dict(n_intervals=63), "n_intervals"),
        (dict(quad_order=3), "quad_order"),
        (dict(r_max=0.5), "r_max"),
        (dict(n_intervals=32), "n_intervals"),
        (dict(map_kind="log"), "map_kind"),
        (dict(quad_order=2), "quad_order"),
    ],
)
def test_config_rejects_bad_parameters(overrides, fragment):
    if "m" in overrides:
        overrides = dict(
            overrides,
            profile=Polynomial.from_text("x1^2", dim=2 * overrides["m"]),
        )
    with pytest.raises(ConfigError, match=fragment):
        quick_config(**overrides).validate()


def test_config_rejects_mismatched_u0_profile():
    cfg = quick_config(u0_profile=U0Profile.smooth_global(3))
    with pytest.raises(ConfigError, match="u0 profile"):
        cfg.validate()


# ----------------------------------------------------------------------
# JSON round-trip
# ----------------------------------------------------------------------
def test_config_json_roundtrip_preserves_everything():
    cfg = quick_config(
        u0_profile=compact_blend(2),
        r_max=30.0,
        map_kind="uniform",
        sinh_strength=2.5,
        tol=1e-9,
        max_iter=50,
        quad_order=8,
    )
    data = cfg.to_json_dict()
    assert data["schema_version"] == 2
    assert data["u0_profile"] == "compact-blend"
    assert SolverConfig.from_json_dict(data) == cfg


def test_config_v1_iteration_keys_are_dropped_on_load():
    v2 = quick_config().to_json_dict()
    v1 = dict(
        v2,
        schema_version=1,
        theta=0.4,
        t_schedule=[0.5, 1.0],
        v_schedule=None,
    )
    assert SolverConfig.from_json_dict(v1) == SolverConfig.from_json_dict(v2)
    for key, value in (("theta", 0.4), ("t_schedule", [1.0]), ("v_schedule", None)):
        with pytest.raises(ConfigError, match="unknown config keys"):
            SolverConfig.from_json_dict(dict(v2, **{key: value}))


def test_config_from_json_accepts_profile_text():
    data = quick_config().to_json_dict()
    data["profile"] = SQUARE_PROFILE_4D
    cfg = SolverConfig.from_json_dict(data)
    assert cfg.profile == Polynomial.from_text(SQUARE_PROFILE_4D)


def test_config_from_json_is_strict():
    good = quick_config().to_json_dict()
    bad = dict(good, frobnicate=1)
    with pytest.raises(ConfigError, match="unknown config keys"):
        SolverConfig.from_json_dict(bad)
    missing = dict(good)
    del missing["volume"]
    with pytest.raises(ConfigError, match="missing"):
        SolverConfig.from_json_dict(missing)
    stale = dict(good, schema_version=99)
    with pytest.raises(ConfigError, match="schema_version"):
        SolverConfig.from_json_dict(stale)
    with pytest.raises(ConfigError, match="u0_profile"):
        SolverConfig.from_json_dict(dict(good, u0_profile="mystery"))
    # Validation runs on load: a config that parses but violates a rule
    # is rejected.
    with pytest.raises(ConfigError, match="tol"):
        SolverConfig.from_json_dict(dict(good, tol=-1.0))
    with pytest.raises(ConfigError, match="r_max must be of type float"):
        SolverConfig.from_json_dict(dict(good, r_max="far"))


# ----------------------------------------------------------------------
# the pieces of the fixed-point map
# ----------------------------------------------------------------------
def test_u0_density_field_has_exact_discrete_mass():
    cfg = quick_config()
    grid = build_grid(cfg)
    cs = constants(2)
    dens = u0_density_field(cfg.u0_profile, grid)
    mass = float(grid.quad_weights @ dens.values)
    assert mass == pytest.approx(-cs.gamma_m, rel=1e-14)


def test_build_K_matches_closed_form():
    cfg = quick_config()
    grid = build_grid(cfg)
    K = build_K(cfg, grid)
    u0_vals, _ = u0_eval(cfg.u0_profile, grid.nodes)
    expected = 6.0 * np.exp(-4.0 * (grid.nodes**2 + cfg.alpha * u0_vals))
    np.testing.assert_allclose(K.values, expected, rtol=1e-13)
    # Positive near the origin; the far tail underflows to exactly 0.
    assert np.all(K.values >= 0) and K.values[0] == 6.0
    # Negative curvature flips the sign of every entry.
    cfg_neg = quick_config(sign=-1, volume=2.0 * constants(2).vol_sphere)
    K_neg = build_K(cfg_neg, build_grid(cfg_neg))
    assert np.all(K_neg.values <= 0) and K_neg.values[0] == -6.0


def test_build_K_guards_against_non_negligible_tail():
    # A very weak profile on a short domain leaves the curvature kernel
    # fat at r_max, which would alias the truncated tail into the solve.
    weak = Polynomial.from_text(
        "0.01 * x1^2 + 0.01 * x2^2 + 0.01 * x3^2 + 0.01 * x4^2"
    )
    cfg = quick_config(profile=weak, r_max=5.0)
    with pytest.raises(ConfigError, match="enlarge r_max"):
        build_K(cfg, build_grid(cfg))


def test_build_K_guards_against_overflow():
    # A hugely negative alpha turns -2m alpha u0 into an overflowing
    # exponent at large radii.
    cs = constants(2)
    cfg = quick_config(sign=-1, volume=150.0 * cs.vol_sphere)
    with pytest.raises(ConfigError, match="overflow"):
        build_K(cfg, build_grid(cfg))


def test_normalization_constant_pins_curvature_integral():
    cfg = quick_config()
    grid = build_grid(cfg)
    K = build_K(cfg, grid)
    rng = np.random.default_rng(5)
    v = RadialField(
        grid=grid, values=0.1 * rng.normal(size=grid.nodes.shape)
    )
    cv = normalization_cv(K, v, cfg)
    integral = float(
        grid.quad_weights @ (K.values * np.exp(4.0 * (v.values + cv)))
    )
    assert integral == pytest.approx(
        cfg.sign * 6.0 * cfg.volume, rel=1e-13
    )


def test_normalization_overflow_is_reported():
    cfg = quick_config()
    grid = build_grid(cfg)
    K = build_K(cfg, grid)
    huge = RadialField(grid=grid, values=np.full_like(grid.nodes, 300.0))
    with pytest.raises(NormalizationOverflow):
        normalization_cv(K, huge, cfg)


def test_source_term_has_zero_discrete_mass():
    cfg = quick_config()
    grid = build_grid(cfg)
    K = build_K(cfg, grid)
    u0d = u0_density_field(cfg.u0_profile, grid)
    rng = np.random.default_rng(6)
    v = RadialField(grid=grid, values=0.05 * rng.normal(size=grid.nodes.shape))
    S, _ = source_with_normalization(v, cfg, K, u0d)
    mass = float(grid.quad_weights @ S.values)
    assert abs(mass) < 1e-10 * constants(2).gamma_m


def test_potential_of_source_decays_in_the_tail():
    cfg = quick_config()
    grid = build_grid(cfg)
    kern = kernel_matrix(grid, cfg.quad_order)
    K = build_K(cfg, grid)
    u0d = u0_density_field(cfg.u0_profile, grid)
    v = RadialField(grid=grid, values=np.zeros_like(grid.nodes))
    S, _ = source_with_normalization(v, cfg, K, u0d)
    tv = potential_apply(kern, S, constants(2))
    # Zero discrete mass kills the log tail; what remains decays.
    assert abs(tv.values[-1]) < 0.02 * float(np.max(np.abs(tv.values)))


# ----------------------------------------------------------------------
# the full solve
# ----------------------------------------------------------------------
def test_solve_converges_and_reconstructs_solution():
    cfg = quick_config()
    rec = solve_continuation(cfg)
    assert rec.converged
    assert rec.failure_reason is None
    assert rec.final_update <= cfg.tol
    assert rec.iterations == len(rec.history)
    # u is assembled from its parts exactly.
    u0_vals, _ = u0_eval(cfg.u0_profile, rec.grid.nodes)
    p_vals = eval_radial_profile(
        radial_profile_coeffs(cfg.profile), rec.grid.nodes
    )
    expected_u = -rec.alpha * u0_vals - p_vals + rec.v.values + rec.c_v
    np.testing.assert_array_equal(rec.u.values, expected_u)
    # The recorded c_v is the normalization of the recorded v, and the
    # history ends on that iterate's (residual, c_v).
    assert rec.c_v == normalization_cv(rec.K, rec.v, cfg)
    assert rec.history[-1] == (rec.final_update, rec.c_v)


def test_solve_lands_on_the_fixed_point():
    cfg = quick_config()
    rec = solve_continuation(cfg)
    kern = kernel_matrix(rec.grid, cfg.quad_order)
    K = build_K(cfg, rec.grid)
    u0d = u0_density_field(cfg.u0_profile, rec.grid)
    S, _ = source_with_normalization(rec.v, cfg, K, u0d)
    tv = potential_apply(kern, S, constants(2))
    residual = float(np.max(np.abs(tv.values - rec.v.values)))
    assert residual == rec.final_update <= cfg.tol


def test_solve_is_deterministic():
    cfg = quick_config()
    a = solve_continuation(cfg)
    b = solve_continuation(cfg)
    np.testing.assert_array_equal(a.u.values, b.u.values)
    np.testing.assert_array_equal(a.v.values, b.v.values)
    assert a.c_v == b.c_v
    assert a.history == b.history


def test_solve_reports_iteration_exhaustion_as_failed_record():
    cfg = quick_config(max_iter=3)
    rec = solve_continuation(cfg)
    assert not rec.converged
    assert "max_iter = 3 exhausted" in rec.failure_reason
    assert rec.iterations == len(rec.history)
    assert np.all(np.isfinite(rec.u.values))


def test_solve_reports_divergence_as_failed_record(monkeypatch):
    monkeypatch.setattr("qcurv.solver._DIVERGENCE_GUARD", 1e-3)
    rec = solve_continuation(quick_config())
    assert not rec.converged
    assert "divergence guard" in rec.failure_reason
    assert rec.iterations == len(rec.history) == 1
    assert rec.final_update == rec.history[0][0] > 1e-3


def test_solve_reports_normalization_overflow_as_failed_record():
    # The first mixed step v = 0 + 0.5 (T 0) overflows the normalization
    # integral.
    cfg = SolverConfig(
        m=6,
        sign=-1,
        volume=30.0 * constants(6).vol_sphere,
        profile=Polynomial.from_text(
            " + ".join(f"2.0 * x{i}^2" for i in range(1, 13))
        ),
        n_intervals=1024,
    )
    rec = solve_continuation(cfg)
    assert not rec.converged
    assert "normalization overflow" in rec.failure_reason
    # The record holds the last iterate whose normalization succeeded.
    assert rec.iterations == len(rec.history) >= 1
    assert (rec.final_update, rec.c_v) == rec.history[-1]
    assert math.isfinite(rec.c_v)
    assert np.all(np.isfinite(rec.u.values))


def test_solve_rejects_a_curvature_kernel_that_cannot_be_normalized():
    # K stays finite, but its weighted integral at v = 0 overflows, so no
    # iterate exists to record.
    cfg = SolverConfig(
        m=6,
        sign=-1,
        volume=31.5 * constants(6).vol_sphere,
        profile=Polynomial.from_text(
            " + ".join(f"2.0 * x{i}^2" for i in range(1, 13))
        ),
        n_intervals=256,
    )
    with pytest.raises(ConfigError, match="cannot be normalized at v = 0"):
        solve_continuation(cfg)


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_solve_converges_near_the_critical_volume(m):
    # V = 0.99 vol(S^{2m}) with sign +1, P = |x|^2.
    cfg = SolverConfig(
        m=m,
        sign=1,
        volume=0.99 * constants(m).vol_sphere,
        profile=Polynomial.from_text(
            " + ".join(f"1.0 * x{i}^2" for i in range(1, 2 * m + 1))
        ),
        n_intervals=1024,
    )
    rec = solve_continuation(cfg)
    assert rec.converged, rec.failure_reason
    assert rec.final_update <= cfg.tol


def test_solve_validates_before_working():
    cfg = quick_config(tol=0.0)
    with pytest.raises(ConfigError):
        solve_continuation(cfg)


def test_solve_background_profile_independence(quick_positive):
    # The assembled u must not depend on which background carries the
    # log-singularity: smooth-global and compact-blend solves agree to the
    # level of the quadrature difference between their densities.
    cfg = replace(quick_positive.config, u0_profile=compact_blend(2))
    other = solve_continuation(cfg)
    assert other.converged
    dev = float(np.max(np.abs(other.u.values - quick_positive.u.values)))
    assert dev < 1e-3
