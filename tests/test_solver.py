"""Tests for configuration validation and the fixed-point solver."""

import contextlib
import dataclasses
import json
import math
from dataclasses import replace
from itertools import combinations_with_replacement

import numpy as np
import pytest

import qcurv.poly
import qcurv.potential
import qcurv.solver

from qcurv import (
    ConfigError,
    GridMismatch,
    Polynomial,
    SolutionRecord,
    SolverConfig,
    build_problem,
    build_report,
    constants,
    eval_many,
    eval_radial_profile,
    kernel_matrix,
    make_grid,
    pm_membership,
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
def test_config_alpha_is_twice_normalized_volume():
    cs = constants(2)
    assert quick_config().alpha == pytest.approx(1.0, rel=1e-15)
    cfg = quick_config(sign=-1, volume=2.0 * cs.vol_sphere)
    assert cfg.alpha == pytest.approx(-4.0, rel=1e-15)


def test_config_rejects_m_equal_one_with_explanation():
    with pytest.raises(ConfigError, match="admissible class is empty"):
        quick_config(m=1, profile=Polynomial.from_text("x1^2 + x2^2"), volume=1.0)


def test_config_rejects_supercritical_volume_for_positive_sign():
    cs = constants(2)
    with pytest.raises(ConfigError, match="vol"):
        quick_config(volume=1.5 * cs.vol_sphere)
    # The same volume is fine for sign = -1.
    quick_config(sign=-1, volume=1.5 * cs.vol_sphere).validate()


@pytest.mark.parametrize("volume", [1e308, 3e307], ids=["alpha", "curvature-mass"])
def test_config_refuses_a_volume_whose_alpha_or_curvature_mass_overflows(volume):
    # At m = 2, sign -1, alpha = -2 V / vol(S^4) overflows at V = 1e308; at
    # V = 3e307 alpha is finite but 3! V is not.  Both were once refused
    # only by the curvature tail check, the first as "weighted tail e^nan".
    with pytest.raises(ConfigError, match=r"^volume \S+ overflows alpha"):
        quick_config(sign=-1, volume=volume)


def test_config_rejects_inadmissible_profiles():
    # Degree above the 2m - 2 bound.
    deg4 = Polynomial.from_text(
        "x1^4 + 2 * x1^2 x2^2 + 2 * x1^2 x3^2 + 2 * x1^2 x4^2 + x2^4 "
        "+ 2 * x2^2 x3^2 + 2 * x2^2 x4^2 + x3^4 + 2 * x3^2 x4^2 + x4^4"
    )
    with pytest.raises(ConfigError, match="admissibility screen"):
        quick_config(profile=deg4)
    # Non-radial profiles cannot feed the one-dimensional solver.
    aniso = Polynomial.from_text("x1^2 + x2^2 + x3^2 + 2.0 * x4^2")
    with pytest.raises(ConfigError, match="radial"):
        quick_config(profile=aniso)


def test_validate_applies_the_degree_bound_before_the_radial_fit(monkeypatch):
    # x1^6 + x2^2 + x3^2 + x4^2 is neither radial nor of admissible degree
    # at m = 2; the degree decides.  A profile of high degree never reaches
    # the radial re-expansion, whose cost grows combinatorially with it.
    profile = Polynomial.from_text("x1^6 + x2^2 + x3^2 + x4^2")
    with pytest.raises(ConfigError, match="degree 6 exceeds the admissible bound"):
        quick_config(profile=profile)

    def refuse(P):
        raise AssertionError("the radial fit ran on an over-degree profile")

    monkeypatch.setattr(qcurv.solver, "radial_profile_coeffs", refuse)
    steep = Polynomial.from_text("x1^400 + x2^2 + x3^2 + x4^2")
    with pytest.raises(ConfigError, match="degree 400 exceeds"):
        quick_config(profile=steep)
    # Wrong ambient dimension.
    with pytest.raises(ConfigError, match="dim"):
        quick_config(profile=Polynomial.from_text("x1^2 + x2^2"))


def radial_polynomial(dim: int, coeffs) -> Polynomial:
    """sum_i coeffs[i] |x|^{2i} in ``dim`` variables, by multinomial expansion."""
    terms: dict[tuple[int, ...], float] = {}
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        for combo in combinations_with_replacement(range(dim), i):
            counts = [combo.count(j) for j in range(dim)]
            weight = math.factorial(i)
            for cnt in counts:
                weight //= math.factorial(cnt)
            key = tuple(2 * cnt for cnt in counts)
            terms[key] = terms.get(key, 0.0) + c * weight
    return Polynomial.from_terms(dim, list(terms.items()))


@pytest.fixture
def no_sampling_screen(monkeypatch):
    """Make any call into the sampling screen fail the test."""

    def refuse(*args, **kwargs):
        raise AssertionError("validate must not run the sampling screen")

    monkeypatch.setattr(qcurv.solver, "pm_membership", refuse)
    monkeypatch.setattr(qcurv.poly, "pm_membership", refuse)
    monkeypatch.setattr(qcurv.poly, "_radial_many", refuse)


def admissibility_cases(m: int):
    """(P, error fragment or None if admissible)."""
    dim = 2 * m
    top = m - 1  # highest admissible power of |x|^2
    cases = [
        ([0.0, 0.5], None),
        ([2.0] + [0.0] * (top - 1) + [1.0], None),
        ([0.0] * top + [-1.0], f"leading coefficient -1 of |x|^{2 * top}"),
        ([3.0], "constant polynomial"),
        ([0.0], "constant polynomial"),
        ([0.0] * (top + 1) + [1.0], f"degree {2 * m} exceeds the admissible bound"),
        ([0.0, 1.0] + [0.0] * (top - 1) + [1e-6], f"degree {2 * m} exceeds"),
    ]
    if top > 1:
        # Lower terms of either sign do not decide the verdict.
        cases.append(([0.0, -1.0] + [0.0] * (top - 2) + [1e-3], None))
        cases.append(([0.0, 1.0] + [0.0] * (top - 2) + [-1e-9], "is not positive"))
    cases = [(radial_polynomial(dim, coeffs), fragment) for coeffs, fragment in cases]
    # |x|^2 + 1e-13 x1^2 x2^{2m-2} passes as radial (the extra term is below
    # the radial fit's tolerance), but its degree 2m is still too high.
    tiny = ((2, 2 * m - 2) + (0,) * (dim - 2), 1e-13)
    square = radial_polynomial(dim, [0.0, 1.0])
    cases.append(
        (
            Polynomial.from_terms(dim, list(square.terms) + [tiny]),
            f"degree {2 * m} exceeds",
        )
    )
    return cases


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_validate_decides_radial_admissibility_in_closed_form(m, no_sampling_screen):
    for profile, fragment in admissibility_cases(m):
        fields = dict(m=m, volume=0.5 * constants(m).vol_sphere, profile=profile)
        if fragment is None:
            quick_config(**fields)
            continue
        with pytest.raises(ConfigError, match="admissibility screen") as info:
            quick_config(**fields)
        assert fragment in str(info.value), (profile.to_text(), str(info.value))


def _radial_profile_coeffs_by_expansion(P):
    """radial_profile_coeffs as first written: the candidate coefficients
    from the pure first-axis terms, then the full multinomial expansion
    compared with every stored term."""
    if P.is_zero:
        return np.zeros(1)
    cand = np.zeros(P.degree() // 2 + 1)
    for exps, coef in P.terms:
        active = [(j, e) for j, e in enumerate(exps) if e > 0]
        if len(active) == 1 and active[0][0] == 0 and active[0][1] % 2 == 0:
            cand[active[0][1] // 2] = coef
        if not active:
            cand[0] = coef
    expanded = dict(radial_polynomial(P.dim, cand).terms)
    stored = dict(P.terms)
    scale = max(abs(c) for c in stored.values())
    for key in set(expanded) | set(stored):
        if abs(expanded.get(key, 0.0) - stored.get(key, 0.0)) > 1e-12 * scale:
            return None
    return cand


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_radial_profile_fast_path_agrees_with_the_full_expansion(m, monkeypatch):
    dim = 2 * m
    last_quartic = (0,) * (dim - 1) + (4,)
    odd_pair = (1, 1) + (0,) * (dim - 2)

    def without_last_quartic(coeffs):
        terms = radial_polynomial(dim, coeffs).terms
        return Polynomial.from_terms(dim, [t for t in terms if t[0] != last_quartic])

    square = list(radial_polynomial(dim, [0.0, 1.0]).terms)
    cases = [(P, False) for P, _ in admissibility_cases(m)] + [
        # A degree missing a monomial: its weight 1 is far above the
        # tolerance, which refuses P without the expansion, then below it.
        (without_last_quartic([0.0, 1.0, 1.0]), False),
        (without_last_quartic([0.0, 1.0, 1e-13]), True),
        # An odd term below the tolerance, then above it.
        (Polynomial.from_terms(dim, square + [(odd_pair, 1e-13)]), False),
        (Polynomial.from_terms(dim, square + [(odd_pair, 1e-3)]), False),
    ]
    fallbacks = []
    full = qcurv.poly._profile_expansion_matches

    def counted(P, cand, tol):
        fallbacks.append(P)
        return full(P, cand, tol)

    monkeypatch.setattr(qcurv.poly, "_profile_expansion_matches", counted)
    for profile, expands in cases:
        fallbacks.clear()
        fast = radial_profile_coeffs(profile)
        expected = _radial_profile_coeffs_by_expansion(profile)
        assert (fast is None) == (expected is None), profile.to_text()
        if fast is not None:
            np.testing.assert_array_equal(fast, expected)
        # The full expansion runs only for a degree that lacks a monomial
        # and whose coefficient is within the tolerance, and not when a
        # stored term has already refused the profile.
        assert len(fallbacks) == int(expands)
    verdicts = [radial_profile_coeffs(P) is None for P, _ in cases[-4:]]
    assert verdicts == [True, False, False, True]


# The radial profiles poly-check and SolverConfig must decide alike: c|x|^2
# for every m, the shells whose -P peaks away from the origin, one that is
# negative up to r = 316, then one rejected by each rule.
ONE_DECISION_CASES = {
    **{f"square-m{m}": (m, [0.0, 0.75]) for m in range(2, 7)},
    "shell-x4-6x2-m3": (3, [0.0, -6.0, 1.0]),
    "shell-x4-20x2-m3": (3, [0.0, -20.0, 1.0]),
    "shell-x6-10x2-m4": (4, [0.0, -10.0, 0.0, 1.0]),
    "shell-x8-8x4-m5": (5, [0.0, 0.0, -8.0, 0.0, 1.0]),
    "shell-x4-1e5x2-m3": (3, [0.0, -1e5, 1.0]),
    "negative-square-m2": (2, [0.0, -1.0]),
    "constant-m2": (2, [3.0]),
    "over-degree-m2": (2, [0.0, 0.0, 1.0]),
}


@pytest.mark.parametrize(
    "m, coeffs", ONE_DECISION_CASES.values(), ids=ONE_DECISION_CASES.keys()
)
def test_poly_check_and_solver_config_make_one_decision(m, coeffs):
    profile = radial_polynomial(2 * m, coeffs)
    verdict = pm_membership(profile)
    assert verdict.samples_used == 0
    fields = dict(m=m, volume=0.5 * constants(m).vol_sphere, profile=profile)
    try:
        quick_config(**fields)
    except ConfigError as exc:
        assert verdict.status == "Rejected"
        assert str(exc) == (
            f"profile rejected by the admissibility screen: {verdict.witness}"
        )
    else:
        assert verdict.status == "Accepted", verdict


@pytest.mark.parametrize(
    "m, coeffs, constant",
    [
        (2, [0.0, 0.75], 1.5),  # g(t) = 1.5
        (3, [0.0, -6.0, 1.0], -8.0),  # g(t) = 4 - 12 t, least at t = 1
        (5, [0.0, 0.0, -8.0, 0.0, 1.0], -24.0),  # g(t) = 8 - 32 t^2
        (4, [0.0, 6.0, -3.0, 1.0], 3.0),  # g(t) = 6 - 12 t + 12 t^2, t = 1/2
    ],
)
def test_radial_verdict_states_the_exact_growth_bound(m, coeffs, constant):
    # With c_k the last nonzero coefficient, x . grad P / |x|^{2k} is
    # g(t) = sum_i 2 i c_i t^{k - i} at t = |x|^{-2}; the verdict's constant
    # is its least value over |x| >= 1.
    verdict = pm_membership(radial_polynomial(2 * m, coeffs))
    k = len(coeffs) - 1
    assert verdict.status == "Accepted"
    assert verdict.exponent == 2 * k
    assert verdict.constant == pytest.approx(constant, rel=1e-12)
    s = np.geomspace(1.0, 1e8, 20001)  # |x|^2
    ratio = sum(2 * i * c * s ** (i - k) for i, c in enumerate(coeffs))
    assert ratio.min() >= constant - 1e-12 * abs(constant)
    assert ratio.min() == pytest.approx(constant, abs=1e-5)


def test_validate_accepts_an_eventually_coercive_profile(no_sampling_screen):
    # r^4 - 1e6 r^2 at m = 3 is negative up to r = 1000, so the sampling
    # screen (radii up to 256) rejects it, yet x . grad P -> +infinity.
    profile = radial_polynomial(6, [0.0, -1e6, 1.0])
    quick_config(
        m=3, volume=0.5 * constants(3).vol_sphere, profile=profile
    ).validate()


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
        (dict(sinh_strength=0.0), "sinh_strength"),
        (dict(r_max=0.5), "r_max"),
        (dict(n_intervals=32), "n_intervals"),
        (dict(sinh_strength=-1.0), "sinh_strength"),
        (dict(sinh_strength=float("nan")), "sinh_strength"),
        (dict(r_max=float("inf")), "r_max must exceed 1 and be finite"),
        (dict(sign=-1, volume=float("inf")), "volume must be positive and finite"),
        (dict(tol=math.inf), "tol must be positive and finite, got inf"),
    ],
)
def test_config_rejects_bad_parameters(overrides, fragment):
    if "m" in overrides:
        overrides = dict(
            overrides,
            profile=Polynomial.from_text("x1^2", dim=2 * overrides["m"]),
        )
    with pytest.raises(ConfigError, match=fragment):
        quick_config(**overrides)


@pytest.mark.parametrize(
    "key, value",
    [
        ("r_max", 1.0),
        ("r_max", math.inf),
        ("n_intervals", 32),
        ("n_intervals", 2**20 + 1),
        ("n_intervals", 10**12),
        ("sinh_strength", -1.0),
        ("sinh_strength", 800.0),
    ],
)
def test_validate_reads_the_grid_rules_of_make_grid(key, value):
    # One statement of each grid rule: the config refuses exactly what
    # make_grid refuses, with its message, on construction and without
    # building a grid (sinh(800) overflows a double).
    grid_args = dict(m=2, r_max=40.0, n_intervals=512, sinh_strength=3.0)
    with pytest.raises(GridMismatch) as grid_error:
        make_grid(**{**grid_args, key: value})
    with pytest.raises(ConfigError) as config_error:
        quick_config(**{key: value})
    assert str(config_error.value) == f"cannot build the grid: {grid_error.value}"


def test_n_intervals_may_reach_its_bound():
    limit = qcurv.potential._MAX_INTERVALS
    assert quick_config(n_intervals=limit).n_intervals == limit == 2**20


@pytest.mark.parametrize(
    "key, value",
    [
        ("sign", True),
        ("volume", True),
        ("n_intervals", 512.0),
        ("max_iter", 3.5),
        ("volume", "1.0"),
        ("tol", "1e-8"),
        ("r_max", None),
        ("m", True),
    ],
)
def test_config_refuses_a_field_of_the_wrong_type(key, value):
    with pytest.raises(ConfigError, match=f"^{key} must be of type"):
        quick_config(**{key: value})


@pytest.mark.parametrize("sign, volume_ratio", [(1, 0.5), (-1, 2.0)])
@pytest.mark.parametrize("n_intervals", [256, 512, 1024, 2048, 4096])
def test_config_survives_a_json_round_trip(sign, volume_ratio, n_intervals):
    # The configs the acceptance tests solve.
    config = quick_config(
        sign=sign,
        volume=volume_ratio * constants(2).vol_sphere,
        n_intervals=n_intervals,
    )
    text = json.dumps(config.to_json_dict())
    assert SolverConfig.from_json_dict(json.loads(text)) == config


def test_one_op_validates_its_config_once(monkeypatch):
    # Construction validates; loading, solving and reporting add no pass.
    calls = []
    validate = SolverConfig.validate

    def counted(self):
        calls.append(self)
        return validate(self)

    data = quick_config().to_json_dict()
    monkeypatch.setattr(qcurv.solver.SolverConfig, "validate", counted)
    build_report(solve_continuation(SolverConfig.from_json_dict(data)))
    assert len(calls) == 1


# ----------------------------------------------------------------------
# JSON round-trip
# ----------------------------------------------------------------------
def test_config_json_roundtrip_preserves_everything():
    cfg = quick_config(
        r_max=30.0,
        sinh_strength=2.5,
        tol=1e-9,
        max_iter=50,
    )
    data = cfg.to_json_dict()
    assert data["schema_version"] == 2
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


def test_config_removed_keys_load_only_at_the_value_the_solver_uses():
    v2 = quick_config().to_json_dict()
    removed = {
        "map_kind": "sinh-clustered",
        "quad_order": 12,
        "u0_profile": "smooth-global",
    }
    assert not set(removed) & set(v2)
    for version in (1, 2):
        without = dict(v2, schema_version=version)
        expected = SolverConfig.from_json_dict(without)
        assert SolverConfig.from_json_dict(dict(without, **removed)) == expected
        for key, value in removed.items():
            assert SolverConfig.from_json_dict(dict(without, **{key: value})) == expected
    for key, value in (
        ("map_kind", "uniform"),
        ("quad_order", 8),
        ("u0_profile", "compact-blend"),
        ("u0_profile", "mystery"),
    ):
        with pytest.raises(ConfigError, match=f"the {key} setting was removed"):
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
    # Validation runs on load: a config that parses but violates a rule
    # is rejected.
    with pytest.raises(ConfigError, match="tol"):
        SolverConfig.from_json_dict(dict(good, tol=-1.0))
    with pytest.raises(ConfigError, match="r_max must be of type float"):
        SolverConfig.from_json_dict(dict(good, r_max="far"))


@pytest.mark.parametrize(
    "key, value",
    [
        ("m", 2.5),
        ("sign", 1.7),
        ("n_intervals", 512.9),
        ("max_iter", True),
        ("tol", True),
        ("volume", "13.1"),
        ("n_intervals", "512"),
        ("m", float("inf")),
        pytest.param("volume", 10**400, id="volume-beyond-float-range"),
    ],
)
def test_config_from_json_rejects_a_number_it_would_have_to_coerce(key, value):
    good = quick_config().to_json_dict()
    with pytest.raises(ConfigError, match=f"{key} must be of type"):
        SolverConfig.from_json_dict(dict(good, **{key: value}))


M_RULES = {
    0: "m must be an integer in 2..6, got 0",
    1: "m = 1 is not solvable: the admissible class is empty",
    600: "m must be an integer in 2..6, got 600",
}


@pytest.mark.parametrize("m", sorted(M_RULES))
def test_config_from_json_reads_m_before_parsing_a_text_profile(m):
    # A text profile is parsed in dimension 2m: the four-variable profile
    # would be refused for its variables (m = 0, 1) or its dim (m = 600)
    # before m's own rule was read.
    data = dict(quick_config().to_json_dict(), m=m, profile=SQUARE_PROFILE_4D)
    with pytest.raises(ConfigError) as error:
        SolverConfig.from_json_dict(data)
    assert str(error.value).startswith(M_RULES[m])


def test_config_from_json_loads_integral_floats_as_ints_and_ints_as_floats():
    good = quick_config().to_json_dict()
    loaded = SolverConfig.from_json_dict(
        dict(good, m=2.0, sign=1.0, n_intervals=256.0, max_iter=600.0, r_max=40)
    )
    assert loaded == SolverConfig.from_json_dict(good)
    for name in ("m", "sign", "n_intervals", "max_iter"):
        assert type(getattr(loaded, name)) is int
    assert type(loaded.r_max) is float


# ----------------------------------------------------------------------
# the pieces of the fixed-point map
# ----------------------------------------------------------------------
def test_u0_density_field_has_exact_discrete_mass():
    cfg = quick_config()
    grid = build_problem(cfg).grid
    cs = constants(2)
    dens = u0_density_field(grid)
    mass = float(grid.quad_weights @ dens.values)
    assert mass == pytest.approx(-cs.gamma_m, rel=1e-14)


def test_build_K_matches_closed_form():
    # The problem's log|K| is log 6 - 4 (P + alpha u0) for m = 2; the
    # sign of K is the config's sign.
    for cfg in (
        quick_config(),
        quick_config(sign=-1, volume=2.0 * constants(2).vol_sphere),
    ):
        problem = build_problem(cfg)
        grid, log_K = problem.grid, problem.log_K
        u0_vals, _ = u0_eval(cfg.m, grid.nodes)
        expected = math.log(6.0) - 4.0 * (grid.nodes**2 + cfg.alpha * u0_vals)
        np.testing.assert_allclose(log_K.values, expected, rtol=1e-14, atol=1e-14)
        # P and u0 vanish at the origin, so |K(0)| = 3! = 6 exactly.
        assert log_K.values[0] == math.log(6.0)


def test_build_K_reads_u0_from_the_config_discretization(monkeypatch):
    cfg = quick_config()
    build_problem(cfg)
    calls = []
    evaluate = qcurv.solver.u0_eval

    def counted(*args):
        calls.append(args)
        return evaluate(*args)

    monkeypatch.setattr(qcurv.solver, "u0_eval", counted)
    build_problem(cfg)
    assert calls == []


def test_a_new_grid_evaluates_u0_once(monkeypatch, kernel_builds):
    calls = []
    evaluate = qcurv.solver.u0_eval

    def counted(*args):
        calls.append(args)
        return evaluate(*args)

    monkeypatch.setattr(qcurv.solver, "u0_eval", counted)
    cfg = quick_config(n_intervals=320)
    problem = build_problem(cfg)
    assert len(calls) == 1
    # The values and the density both come from that one evaluation.
    values, density = evaluate(cfg.m, problem.grid.nodes)
    np.testing.assert_array_equal(problem.u0.values, values)
    np.testing.assert_array_equal(
        problem.u0_density.values, u0_density_field(problem.grid, density).values
    )


def test_build_K_guards_against_non_negligible_tail():
    # A very weak profile on a short domain leaves the curvature kernel
    # fat at r_max, which would alias the truncated tail into the solve.
    # The config's problem refuses it, so build_problem and the solve
    # both raise.
    weak = Polynomial.from_text(
        "0.01 * x1^2 + 0.01 * x2^2 + 0.01 * x3^2 + 0.01 * x4^2"
    )
    cfg = quick_config(profile=weak, r_max=5.0)
    for build in (build_problem, solve_continuation):
        with pytest.raises(ConfigError, match="enlarge r_max"):
            build(cfg)


@pytest.mark.parametrize(
    "overrides",
    [
        dict(sign=-1, volume=2.9e307, r_max=1e60),
        dict(profile=Polynomial.from_text(SQUARE_PROFILE_4D.replace("1.0", "1e300")), r_max=1e5),
    ],
    ids=["alpha-u0", "profile"],
)
def test_problem_refuses_an_overflowing_log_K_by_naming_r_max(overrides):
    # Both configs pass validate: alpha and (2m-1)! V are finite, and so
    # are P's coefficients, but alpha u0 or P overflows on the grid.  They
    # were refused as "weighted tail e^nan" and "field values must be
    # finite", after an overflow RuntimeWarning.
    cfg = quick_config(**overrides)
    for build in (build_problem, solve_continuation):
        with pytest.raises(ConfigError) as info:
            build(cfg)
        assert str(info.value) == (
            "log|K| is not finite on this grid (P or alpha u0 overflows "
            f"before r_max = {cfg.r_max:g}); lower r_max"
        )


def test_build_K_stays_finite_at_large_negative_volume():
    # alpha = -300 makes |K| grow like (1 + r^2)^{600} before the
    # e^{-4 r^2} decay takes over: max|K| = e^{2412} has no double, but
    # log|K| does, and the solve converges.
    cs = constants(2)
    cfg = quick_config(sign=-1, volume=150.0 * cs.vol_sphere)
    log_K = build_problem(cfg).log_K
    assert np.all(np.isfinite(log_K.values))
    assert float(np.max(log_K.values)) == pytest.approx(2412.16, abs=0.01)
    rec = solve_continuation(cfg)
    assert rec.converged, rec.failure_reason
    assert rec.iterations == 33


def test_normalization_constant_pins_curvature_integral():
    cfg = quick_config()
    problem = build_problem(cfg)
    grid, log_K = problem.grid, problem.log_K
    rng = np.random.default_rng(5)
    v = 0.1 * rng.normal(size=grid.nodes.shape)
    _, cv = source_with_normalization(problem, v)
    integral = float(
        grid.quad_weights @ (cfg.sign * np.exp(log_K.values + 4.0 * (v + cv)))
    )
    assert integral == pytest.approx(
        cfg.sign * 6.0 * cfg.volume, rel=1e-13
    )


def test_normalization_is_shift_covariant_at_large_v():
    # e^{2m v} = e^{1200} has no double; the log-sum-exp normalization
    # still gives c_v(300) = c_v(0) - 300.
    cfg = quick_config()
    problem = build_problem(cfg)
    zero = np.zeros_like(problem.grid.nodes)
    shift_dev = source_with_normalization(problem, zero + 300.0)[1] - (
        source_with_normalization(problem, zero)[1] - 300.0
    )
    assert abs(shift_dev) <= 1e-12


def test_source_term_has_zero_discrete_mass():
    cfg = quick_config()
    problem = build_problem(cfg)
    grid = problem.grid
    rng = np.random.default_rng(6)
    S, _ = source_with_normalization(problem, 0.05 * rng.normal(size=grid.nodes.shape))
    mass = float(grid.quad_weights @ S)
    assert abs(mass) < 1e-10 * constants(2).gamma_m


def test_potential_of_source_decays_in_the_tail():
    cfg = quick_config()
    problem = build_problem(cfg)
    grid = problem.grid
    S, _ = source_with_normalization(problem, np.zeros_like(grid.nodes))
    tv = potential_apply(kernel_matrix(grid), S)
    # Zero discrete mass kills the log tail; what remains decays.
    assert abs(tv[-1]) < 0.02 * float(np.max(np.abs(tv)))


def test_the_map_refuses_node_values_of_another_grid():
    # The two functions that make up T take node arrays with the object
    # that fixes their grid, and refuse an array of another shape.
    problem = build_problem(quick_config())
    size = len(problem.grid.nodes)
    for wrong in (np.zeros(size - 1), np.zeros(size + 1), np.zeros((2, size))):
        with pytest.raises(GridMismatch, match="the problem's grid"):
            source_with_normalization(problem, wrong)
        with pytest.raises(GridMismatch, match="the problem's grid"):
            problem.apply(wrong)
        with pytest.raises(GridMismatch, match="the kernel's grid"):
            potential_apply(problem.kernel, wrong)


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
    u0_vals, _ = u0_eval(cfg.m, rec.grid.nodes)
    p_vals = eval_radial_profile(
        radial_profile_coeffs(cfg.profile), rec.grid.nodes
    )
    expected_u = -rec.alpha * u0_vals - p_vals + rec.v.values + rec.c_v
    np.testing.assert_array_equal(rec.u.values, expected_u)
    # The recorded c_v is the normalization of the recorded v, and the
    # history ends on that iterate's (residual, c_v).
    assert rec.c_v == source_with_normalization(build_problem(cfg), rec.v.values)[1]
    assert rec.history[-1] == (rec.final_update, rec.c_v)


def test_solve_lands_on_the_fixed_point():
    cfg = quick_config()
    rec = solve_continuation(cfg)
    S, _ = source_with_normalization(build_problem(cfg), rec.v.values)
    tv = potential_apply(kernel_matrix(rec.grid), S)
    residual = float(np.max(np.abs(tv - rec.v.values)))
    assert residual == rec.final_update <= cfg.tol


def test_record_stores_what_the_solve_produced_and_derives_the_rest():
    assert [f.name for f in dataclasses.fields(SolutionRecord)] == [
        "config", "v", "u", "log_K", "u0_density", "u0", "history", "failure_reason"
    ]
    converged = solve_continuation(quick_config())
    failed = solve_continuation(quick_config(max_iter=2))
    assert converged.converged and not failed.converged
    for rec in (converged, failed):
        assert rec.grid is rec.v.grid
        assert rec.alpha == rec.config.alpha
        assert rec.c_v == rec.history[-1][1]
        assert rec.final_update == rec.history[-1][0]
        assert rec.iterations == len(rec.history)
        assert rec.converged is (rec.failure_reason is None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            rec.c_v = 0.0


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


def _negative_curvature_config(m, volume_ratio, c, n_intervals):
    """sign -1, V = volume_ratio vol(S^{2m}), P = c |x|^2."""
    return SolverConfig(
        m=m,
        sign=-1,
        volume=volume_ratio * constants(m).vol_sphere,
        profile=Polynomial.from_text(
            " + ".join(f"{c} * x{i}^2" for i in range(1, 2 * m + 1))
        ),
        n_intervals=n_intervals,
    )


def _assert_converged_record(rec):
    assert rec.converged, rec.failure_reason
    assert rec.final_update <= rec.config.tol
    assert (rec.final_update, rec.c_v) == rec.history[-1]
    assert np.all(np.isfinite(rec.u.values))


def test_solve_converges_where_the_first_step_overflowed():
    # In linear space the first mixed step v = 0.5 (T 0) overflowed the
    # normalization integral.
    rec = solve_continuation(_negative_curvature_config(6, 30.0, 2.0, 1024))
    _assert_converged_record(rec)
    assert rec.iterations == 16


def test_solve_converges_where_K_could_not_be_normalized():
    # In linear space K was finite but its weighted integral at v = 0
    # overflowed.
    rec = solve_continuation(_negative_curvature_config(6, 31.5, 2.0, 256))
    _assert_converged_record(rec)
    assert rec.iterations == 16


@pytest.mark.parametrize("volume_ratio", [60.0, 100.0, 200.0, 1000.0])
@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_solve_converges_at_large_negative_volume(m, volume_ratio):
    # Every one of these K's overflowed double precision in linear space.
    # The first residual grows like V (about 1e3 at 200 vol(S^{2m}), 7e3
    # at 1000), so an absolute divergence guard stopped these at
    # iteration 1.
    rec = solve_continuation(_negative_curvature_config(m, volume_ratio, 1.0, 512))
    _assert_converged_record(rec)


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


# V / vol(S^{2m}) from far inside to the edge of each sign's range.
REGIME_VOLUMES = {
    1: (0.05, 0.5, 0.9, 0.99, 0.999, 0.9999),
    -1: (0.5, 2.0, 8.0, 100.0, 300.0, 1000.0),
}


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_solve_converges_across_the_volume_range(m, sign):
    # P = c |x|^2, c in {0.5, 2}, N = 512.  At V = 1000 vol(S^{2m}) the
    # weak profile leaves |K| too large at r_max, which the tail guard
    # rejects before any iteration.
    for c in (0.5, 2.0):
        for ratio in REGIME_VOLUMES[sign]:
            cfg = replace(
                _negative_curvature_config(m, ratio, c, 512), sign=sign
            )
            if ratio == 1000.0 and c == 0.5:
                with pytest.raises(ConfigError, match="tail is not negligible"):
                    solve_continuation(cfg)
                continue
            rec = solve_continuation(cfg)
            assert rec.converged, (c, ratio, rec.failure_reason)
            assert rec.final_update <= cfg.tol


def test_solve_validates_before_working(kernel_builds):
    # An invalid config cannot be built, so no solve can start on one.
    with pytest.raises(ConfigError):
        solve_continuation(quick_config(tol=0.0))
    assert kernel_builds == []


# ----------------------------------------------------------------------
# the shared discretization
# ----------------------------------------------------------------------
@pytest.fixture
def kernel_builds(monkeypatch):
    """Empty the discretization cache and record every kernel assembly."""
    qcurv.solver._build_discretization.cache_clear()
    calls = []
    build = qcurv.solver.kernel_matrix

    def counted(grid):
        calls.append(grid)
        return build(grid)

    monkeypatch.setattr(qcurv.solver, "kernel_matrix", counted)
    yield calls
    qcurv.solver._build_discretization.cache_clear()


@pytest.mark.parametrize(
    "change",
    [
        {"volume": 0.3 * constants(2).vol_sphere},
        {"sign": -1},
        {"profile": Polynomial.from_text(SQUARE_PROFILE_4D.replace("1.0", "2.0"))},
    ],
    ids=["volume", "sign", "profile"],
)
def test_solves_on_one_grid_share_its_discretization(change, kernel_builds):
    first = solve_continuation(quick_config())
    second = solve_continuation(quick_config(**change))
    assert len(kernel_builds) == 1
    assert second.grid is first.grid
    assert second.u0_density is first.u0_density
    assert second.u0 is first.u0
    assert not second.u0.values.flags.writeable


@pytest.mark.parametrize(
    "change",
    [
        {"m": 3, "profile": Polynomial.from_text(
            " + ".join(f"1.0 * x{i}^2" for i in range(1, 7)))},
        {"r_max": 30.0},
        {"n_intervals": 320},
        {"sinh_strength": 2.5},
    ],
    ids=lambda change: next(iter(change)),
)
def test_each_key_field_gets_its_own_discretization(change, kernel_builds):
    first = solve_continuation(quick_config())
    cfg = quick_config(**change)
    second = solve_continuation(cfg)
    assert len(kernel_builds) == 2
    assert second.grid is not first.grid
    # build_problem would return the solve's own grid, so build one afresh.
    fresh = make_grid(cfg.m, cfg.r_max, cfg.n_intervals, sinh_strength=cfg.sinh_strength)
    assert fresh is not second.grid
    np.testing.assert_array_equal(second.grid.nodes, fresh.nodes)
    np.testing.assert_array_equal(second.grid.quad_weights, fresh.quad_weights)
    np.testing.assert_array_equal(
        second.u0_density.values, u0_density_field(fresh).values
    )


def test_warm_solve_is_bit_identical_to_cold(kernel_builds):
    cfg = quick_config()
    cold = solve_continuation(cfg)
    solve_continuation(quick_config(sign=-1, volume=2.0 * constants(2).vol_sphere))
    warm = solve_continuation(cfg)
    assert len(kernel_builds) == 1
    for name in ("v", "u", "log_K", "u0_density"):
        np.testing.assert_array_equal(
            getattr(warm, name).values, getattr(cold, name).values
        )
    assert (warm.c_v, warm.iterations, warm.history) == (
        cold.c_v, cold.iterations, cold.history
    )


def test_shared_discretization_is_read_only(kernel_builds):
    cfg = quick_config()
    problem = build_problem(cfg)
    grid, kernel = problem.grid, problem.kernel
    shared = (
        grid.nodes, grid.quad_weights, kernel.hat_moments, kernel.node_factors,
        kernel.diagonal, problem.u0_density.values, problem.u0.values,
        problem.p, problem.log_K.values, cfg.radial_coeffs,
    )
    for arr in shared:
        assert not arr.flags.writeable
    with pytest.raises(dataclasses.FrozenInstanceError):
        problem.grid = grid
    # The paired moments and factors: below- and above-rows side by side.
    paired_shape = (cfg.m, len(grid.nodes), 2)
    assert kernel.hat_moments.shape == kernel.node_factors.shape == paired_shape
    assert solve_continuation(cfg).grid is grid


def test_solves_leave_the_shared_problem_untouched(kernel_builds):
    # Two solves on one grid read the problem and its kernel and write
    # into neither; each evaluation of T owns its result.
    cfg = quick_config()
    problem = build_problem(cfg)
    kernel = problem.kernel
    shared = {
        "nodes": problem.grid.nodes,
        "quad_weights": problem.grid.quad_weights,
        "hat_moments": kernel.hat_moments,
        "node_factors": kernel.node_factors,
        "diagonal": kernel.diagonal,
        "u0_density": problem.u0_density.values,
        "u0": problem.u0.values,
        "p": problem.p,
        "log_K": problem.log_K.values,
        "background": problem.background,
    }
    before = {name: arr.copy() for name, arr in shared.items()}
    # The terms T reuses in every evaluation: alpha times u0's density and
    # the normalization's scalars, fixed when the problem is built.
    np.testing.assert_array_equal(
        problem.background, cfg.alpha * problem.u0_density.values
    )
    mass = constants(cfg.m).factorial_2m_minus_1 * cfg.volume
    scalars = (2.0 * cfg.m, math.log(mass), cfg.sign * mass)
    assert (problem.two_m, problem.log_mass, problem.signed_mass) == scalars
    for name in ("background", "two_m", "log_mass", "signed_mass", "config"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(problem, name, None)
    first = solve_continuation(cfg)
    second = solve_continuation(
        quick_config(sign=-1, volume=3.0 * constants(2).vol_sphere)
    )
    assert len(kernel_builds) == 1
    assert first.grid is second.grid is problem.grid
    for name, arr in shared.items():
        assert not arr.flags.writeable, name
        np.testing.assert_array_equal(arr, before[name], err_msg=name)
    assert (problem.two_m, problem.log_mass, problem.signed_mass) == scalars
    v = np.zeros_like(problem.grid.nodes)
    (one, _), (two, _) = problem.apply(v), problem.apply(v)
    np.testing.assert_array_equal(one, two)
    assert not np.shares_memory(one, two)
    for arr in [*shared.values(), v]:
        assert not np.shares_memory(one, arr)


def test_profile_coefficients_are_read_once_per_config(monkeypatch):
    calls = []
    read = qcurv.solver.radial_profile_coeffs

    def counted(P):
        calls.append(P)
        return read(P)

    data = quick_config().to_json_dict()
    monkeypatch.setattr(qcurv.solver, "radial_profile_coeffs", counted)
    cfg = SolverConfig.from_json_dict(data)
    solve_continuation(cfg)
    build_problem(cfg)
    assert len(calls) == 1


# ----------------------------------------------------------------------
# the Anderson history and the closing image step
# ----------------------------------------------------------------------
DEPTH = qcurv.solver._ANDERSON_DEPTH


def _pushed_history(pairs):
    history = qcurv.solver._AndersonHistory(len(pairs[0][0]))
    for f, g in pairs:
        history.push(f, g)
    return history


# Push counts: the fixed 3, 6, 7, 10 plus, whatever the depth, a ring
# one short of full, exactly full, wrapped once and wrapped twice
# (pushes - 1 differences = DEPTH - 1, DEPTH, DEPTH + 1, 2 * DEPTH + 1).
@pytest.mark.parametrize(
    "pushes", sorted({3, 6, 7, 10, DEPTH, DEPTH + 1, DEPTH + 2, 2 * DEPTH + 2})
)
def test_gram_coefficients_match_least_squares(pushes):
    # Random differences of length 257 are well conditioned; the ring
    # keeps the last DEPTH (or all, before it fills) at slot i % DEPTH.
    rng = np.random.default_rng(pushes)
    pairs = [(rng.normal(size=257), rng.normal(size=257)) for _ in range(pushes)]
    history = _pushed_history(pairs)
    diffs = [b[0] - a[0] for a, b in zip(pairs, pairs[1:])]
    kept = range(max(0, len(diffs) - DEPTH), len(diffs))
    assert history.count == len(kept)
    f = rng.normal(size=257)
    expected = np.linalg.lstsq(
        np.column_stack([diffs[i] for i in kept]), f, rcond=None
    )[0]
    gamma = history.coefficients(f)
    np.testing.assert_allclose(
        gamma[[i % DEPTH for i in kept]], expected, rtol=1e-8
    )
    # The running Gram matrix is the Gram matrix of the stored rows.
    stored = history.d_f[: history.count]
    np.testing.assert_allclose(
        np.array(history.gram)[: history.count, : history.count],
        stored @ stored.T,
        rtol=1e-12,
    )


@pytest.mark.parametrize("tilt, kept", [(1e-3, True), (1e-9, False)])
def test_nearly_collinear_history(tilt, kept):
    # The third difference is the first one tilted by `tilt`: the scaled
    # Gram matrix has reciprocal condition about tilt^2 / 4.  Above
    # _GRAM_RCOND = 1e-12 gamma still matches least squares; below it the
    # normal equations carry no digits of gamma and the history restarts.
    rng = np.random.default_rng(11)
    d1, d2, noise = (rng.normal(size=257) for _ in range(3))
    x0 = rng.normal(size=257)
    xs = np.cumsum([x0, d1, d2, d1 + tilt * noise], axis=0)
    history = _pushed_history([(x, 2.0 * x) for x in xs])
    assert history.count == 3
    f = rng.normal(size=257)
    gamma = history.coefficients(f)
    if kept:
        expected = np.linalg.lstsq(history.d_f[:3].T, f, rcond=None)[0]
        np.testing.assert_allclose(gamma, expected, rtol=1e-8)
        assert history.count == 3
    else:
        assert gamma is None
        assert history.count == 0


def test_repeated_difference_restarts_the_history():
    # Integer entries make every dot product exact, so the rows d, -d, d
    # give an exactly singular system whatever the BLAS summation order.
    rng = np.random.default_rng(3)
    x0 = rng.integers(-3, 4, size=129).astype(float)
    d = rng.integers(-3, 4, size=129).astype(float)
    history = _pushed_history([(x, 2.0 * x) for x in (x0, x0 + d, x0, x0 + d)])
    assert history.count == 3
    f, g = rng.normal(size=129), rng.normal(size=129)
    # The mixed step falls back to the plain image g and empties the
    # history; the next push starts again from the last pair.
    np.testing.assert_array_equal(history.mix(f, g), g)
    assert history.count == 0
    history.push(x0, x0)
    assert history.count == 1


# Decisions of the closed-form rule are compared with LAPACK's outside
# this factor around _GRAM_RCOND; eigvalsh itself places lambda_min to
# about eps ||A||, some 2e-4 of the threshold there.
GRAM_RCOND_BAND = 1.1


def _lapack_reciprocal_condition(history):
    """lambda_min / lambda_max of the Jacobi-scaled Gram matrix by
    np.linalg.eigvalsh; 0 for a zero difference."""
    gram = np.array(history.gram)[: history.count, : history.count]
    diag = gram.diagonal()
    if not diag.min() > 0:
        return 0.0
    scale = 1.0 / np.sqrt(diag)
    eig = np.linalg.eigvalsh(gram * np.outer(scale, scale))
    return eig[0] / eig[-1]


def _gram_cases(rng, k, n):
    """Seeded difference rows for a history of k: random, nearly collinear
    (one row, and for k = 3 also two rows, tilted off the first by 1e-2
    ... 1e-8 in half decades), exactly singular (integer rows, so every
    dot product is exact), and random at scales 1e-100 and 1e100.  With
    two tilted rows the two smaller eigenvalues are both small, where the
    trigonometric formula alone misplaces lambda_min by up to 1e-8: at
    tilts 3e-6 to 3e-5 that flipped the restart decision in 7 of 16
    seeded draws, so each such tilt takes three draws."""
    yield [rng.normal(size=n) for _ in range(k)]
    for scale in (1e-100, 1e100):
        yield [scale * rng.normal(size=n) for _ in range(k)]
    integers = [rng.integers(-3, 4, size=n).astype(float) for _ in range(2)]
    d, e = integers
    yield {1: [0.0 * d], 2: [d, -d], 3: [d, e, d + e]}[k]
    if k == 3:
        yield [d, -d, d]
    if k == 1:
        return
    for tilt in 10.0 ** -np.arange(2.0, 8.5, 0.5):
        base = rng.normal(size=n)
        others = [rng.normal(size=n) for _ in range(k - 2)]
        yield [base, *others, 2.0 * base + tilt * rng.normal(size=n)]
        for _ in range(3 if k == 3 else 0):
            yield [base] + [
                rng.uniform(-2.0, 2.0) * base + tilt * rng.normal(size=n)
                for _ in range(2)
            ]


@pytest.mark.parametrize("k", range(1, DEPTH + 1))
def test_closed_form_gram_algebra_matches_lapack(k):
    # The history's restart rule and gamma, computed in Python floats,
    # against eigvalsh for the rule and lstsq for gamma.  Where the
    # scaled Gram matrix has reciprocal condition above about 2e-4 the
    # normal equations carry 8 digits of gamma; below that they carry
    # about eps / rcond, as LAPACK's solve of the same equations does
    # (measured: at most 5e3 eps / rcond, for both).
    rng = np.random.default_rng(k)
    n = 257
    kept = restarted = 0
    for rows in _gram_cases(rng, k, n):
        xs = np.cumsum([np.zeros(n), *rows], axis=0)
        history = _pushed_history([(x, 2.0 * x) for x in xs])
        assert history.count == k
        stored = history.d_f[:k].copy()
        ratio = _lapack_reciprocal_condition(history)
        f = rng.normal(size=n)
        gamma = history.coefficients(f)
        outside_band = not (
            qcurv.solver._GRAM_RCOND / GRAM_RCOND_BAND
            < ratio
            < qcurv.solver._GRAM_RCOND * GRAM_RCOND_BAND
        )
        if outside_band:
            assert (gamma is not None) == (ratio >= qcurv.solver._GRAM_RCOND), ratio
        if gamma is None:
            assert history.count == 0
            restarted += 1
            continue
        expected = np.linalg.lstsq(stored.T, f, rcond=None)[0]
        rtol = max(1e-8, 1e4 * np.finfo(float).eps / ratio)
        assert np.max(np.abs(gamma - expected)) <= rtol * np.max(np.abs(expected))
        kept += 1
    assert kept >= 3 and restarted >= 1


def test_first_iterate_after_zero_is_the_image_of_zero(monkeypatch):
    # With no history the step is undamped: the second evaluation of T
    # is at T 0 itself, bit for bit.
    cfg = quick_config()
    iterates = []
    source = qcurv.solver.source_with_normalization

    def recording(problem, v):
        iterates.append(v)
        return source(problem, v)

    monkeypatch.setattr(qcurv.solver, "source_with_normalization", recording)
    rec = solve_continuation(cfg)
    assert rec.iterations > 2
    problem = build_problem(cfg)
    zero = np.zeros_like(problem.grid.nodes)
    S, _ = source_with_normalization(problem, zero)
    t_zero = potential_apply(kernel_matrix(problem.grid), S)
    np.testing.assert_array_equal(iterates[0], zero)
    np.testing.assert_array_equal(iterates[1], t_zero)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_iterate_raises_grid_mismatch(monkeypatch, bad):
    # The iterate and S(v) skip RadialField's checks; T v's field keeps
    # them, so a non-finite iterate still ends the solve with GridMismatch
    # (after a log-sum-exp warning for +inf), not with a record.
    mix = qcurv.solver._AndersonHistory.mix
    calls = []

    def poisoned(self, f, g):
        calls.append(None)
        v = mix(self, f, g).copy()
        if len(calls) == 3:
            v[7] = bad
        return v

    monkeypatch.setattr(qcurv.solver._AndersonHistory, "mix", poisoned)
    expect_warning = (
        pytest.warns(RuntimeWarning) if bad == math.inf else contextlib.nullcontext()
    )
    with expect_warning, pytest.raises(GridMismatch, match="must be finite"):
        solve_continuation(quick_config())
    assert len(calls) == 3


def test_zero_difference_restarts_the_history():
    x = np.linspace(-1.0, 1.0, 65)
    history = _pushed_history([(x, x), (x + 1.0, x), (x + 1.0, x)])
    assert history.count == 2
    assert history.coefficients(x) is None
    assert history.count == 0


@pytest.mark.parametrize(
    "config",
    [quick_config(), _negative_curvature_config(6, 30.0, 2.0, 512)],
    ids=["m=2,+1", "m=6,-1"],
)
def test_mixed_iterate_meeting_tol_on_the_last_iteration_converges(config):
    # With no evaluation left for the image step, the mixed iterate that
    # met tol is the record: converged, with its own residual and c_v.
    full = solve_continuation(config)
    first = next(i for i, (res, _) in enumerate(full.history) if res <= config.tol)
    assert 0 < first < full.iterations - 1
    rec = solve_continuation(replace(config, max_iter=first + 1))
    _assert_converged_record(rec)
    assert rec.iterations == first + 1
    assert rec.history == full.history[: first + 1]
    # One more allowed evaluation and the record is that iterate's image.
    rec = solve_continuation(replace(config, max_iter=first + 2))
    _assert_converged_record(rec)
    assert rec.iterations == first + 2


@pytest.mark.parametrize(
    "config",
    [
        quick_config(),
        quick_config(sign=-1, volume=3.0 * constants(2).vol_sphere),
        _negative_curvature_config(6, 30.0, 2.0, 512),
    ],
    ids=["m=2,+1", "m=2,-1", "m=6,-1"],
)
def test_converged_v_is_the_image_of_the_previous_iterate(monkeypatch, config):
    images = []
    apply = qcurv.solver.potential_apply

    def recording(kernel, density):
        out = apply(kernel, density)
        images.append(out)
        return out

    monkeypatch.setattr(qcurv.solver, "potential_apply", recording)
    rec = solve_continuation(config)
    _assert_converged_record(rec)
    assert len(images) == rec.iterations
    # An Anderson iterate met tol; the record holds T of it, evaluated once
    # more for its own residual and c_v.
    assert rec.history[-2][0] <= config.tol
    np.testing.assert_array_equal(rec.v.values, images[-2])
    assert rec.final_update == float(np.max(np.abs(images[-1] - rec.v.values)))
    assert rec.c_v == source_with_normalization(build_problem(config), rec.v.values)[1]


@pytest.mark.parametrize(
    "config",
    [quick_config(), quick_config(sign=-1, volume=3.0 * constants(2).vol_sphere)],
    ids=["m=2,+1", "m=2,-1"],
)
def test_each_iteration_calls_source_and_potential_once_through_the_module(
    monkeypatch, config
):
    # The benchmark's tracer counts these two calls where the solve looks
    # them up, in qcurv.solver's namespace, so the loop must make them
    # there, once per evaluation of T.
    calls = {"source_with_normalization": 0, "potential_apply": 0}

    def counted(name):
        original = getattr(qcurv.solver, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(qcurv.solver, name, counted(name))
    rec = solve_continuation(config)
    _assert_converged_record(rec)
    assert rec.iterations > 3
    assert calls == dict.fromkeys(calls, rec.iterations)


def _source_formula(v, config, log_K, u0_density):
    """The source S(v) and c_v for the node values ``v`` from one set of
    shifted exponentials, one temporary per operation."""
    two_m = 2.0 * config.m
    exponent = log_K.values + two_m * v
    top = float(np.max(exponent))
    shifted = np.exp(exponent - top)
    weighted = float(log_K.grid.quad_weights @ shifted)
    mass = constants(config.m).factorial_2m_minus_1 * config.volume
    cv = (math.log(mass) - (top + math.log(weighted))) / two_m
    values = shifted * (config.sign * mass / weighted)
    return values + config.alpha * u0_density.values, cv


def _two_exponential_curvature(v, config, log_K):
    """The curvature term sign e^{log|K| + 2m(v + c_v)} for the node values
    ``v``, exponentiated as written, after the log-sum-exp's own
    exponential for c_v."""
    two_m = 2.0 * config.m
    exponent = log_K.values + two_m * v
    top = float(np.max(exponent))
    log_integral = top + math.log(
        float(log_K.grid.quad_weights @ np.exp(exponent - top))
    )
    cv = (
        math.log(constants(config.m).factorial_2m_minus_1 * config.volume)
        - log_integral
    ) / two_m
    return config.sign * np.exp(log_K.values + two_m * (v + cv)), cv


def _potential_formula(moments, factors, f, gamma_m):
    """The semi-separable potential as first written, on the kernel's
    per-interval moments and undivided node factors."""
    per_interval = moments[0] * f[:-1] + moments[1] * f[1:]
    m = len(factors) // 2
    below_factors, above_factors = factors[:m], factors[m:]
    below = np.zeros_like(below_factors)
    above = np.zeros_like(above_factors)
    below[:, 1:] = np.cumsum(per_interval[:m], axis=1)
    above[:, :-1] = np.cumsum(per_interval[m:, ::-1], axis=1)[:, ::-1]
    values = np.sum(below_factors * below, axis=0) + np.sum(above_factors * above, axis=0)
    values /= -gamma_m
    return values


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_fixed_point_map_is_bit_identical_to_its_formulas(m, sign):
    cfg = _negative_curvature_config(m, 3.0, 1.3, 512)
    if sign == 1:
        cfg = replace(cfg, sign=1, volume=0.6 * constants(m).vol_sphere)
    problem = build_problem(cfg)
    grid, log_K = problem.grid, problem.log_K
    kern = kernel_matrix(grid)
    # The per-interval moments in one run over every interval, and the
    # undivided node factors unpaired into (2m, N + 1) rows.
    ((_, moments),) = qcurv.potential._moment_blocks(grid, grid.n_intervals)
    paired = qcurv.potential._node_factors(grid)
    factors = np.concatenate([paired[..., 0], paired[:, ::-1, 1]])
    gamma_m = constants(m).gamma_m
    u0d = u0_density_field(grid)
    rng = np.random.default_rng(m)
    for scale in (1e-3, 0.1, 3.0):
        v = scale * rng.normal(size=grid.nodes.shape)
        source, cv = source_with_normalization(problem, v)
        expected, expected_cv = _source_formula(v, cfg, log_K, u0d)
        assert cv == expected_cv
        np.testing.assert_array_equal(source, expected)
        # The node form sums the same terms in another grouping: folded
        # half-hats, factors divided by gamma_m before the products, the
        # diagonal term apart.  Each value is a sum of at most N + 2m + 8
        # rounded operations on every term, so either side is within
        # (N + 2m + 8) eps/2 of the exact sum of |term| at each node, and
        # the two within twice that.
        terms = np.abs(
            _potential_formula(
                np.abs(moments), np.abs(factors), np.abs(expected), gamma_m
            )
        )
        bound = (len(grid.nodes) + 2 * m + 8) * np.finfo(float).eps * terms
        potential = _potential_formula(moments, factors, expected, gamma_m)
        deviation = np.abs(potential_apply(kern, source) - potential)
        assert np.all(deviation <= bound)
        # The problem's map is those two formulas composed: the same c_v
        # and, bit for bit, the potential of the formula's source.
        image, image_cv = problem.apply(v)
        assert image_cv == expected_cv
        np.testing.assert_array_equal(image, potential_apply(kern, expected))
        assert np.all(np.abs(image - potential) <= bound)


@pytest.mark.parametrize(
    "sign, volume_ratio, c",
    [(1, 0.3, 1.3), (1, 0.99, 0.5), (-1, 3.0, 1.3), (-1, 100.0, 1.3), (-1, 1000.0, 2.0)],
)
@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_one_exponential_source_matches_the_two_exponential_formula(
    m, sign, volume_ratio, c
):
    # S(v) takes its curvature term from the log-sum-exp's exponentials
    # times (2m-1)! V / sum w e, where the formula it replaces
    # exponentiates log|K| + 2m(v + c_v) again.  The two differ by the
    # rounding of an exponent of size up to L = max|log K| + 2m max|v|
    # + 2m |c_v|, about eps L relative (measured: at most 0.9 eps (1 + L),
    # and L reaches 6e4 at alpha = -2000); c_v is the same arithmetic.
    cfg = _negative_curvature_config(m, volume_ratio, c, 512)
    cfg = replace(cfg, sign=sign)
    problem = build_problem(cfg)
    grid, log_K = problem.grid, problem.log_K
    background = cfg.alpha * u0_density_field(grid).values
    rng = np.random.default_rng(m)
    for scale in (0.0, 1e-3, 0.1, 3.0):
        v = scale * rng.normal(size=grid.nodes.shape)
        source, cv = source_with_normalization(problem, v)
        curvature, expected_cv = _two_exponential_curvature(v, cfg, log_K)
        assert cv == expected_cv
        size = (
            np.abs(log_K.values).max()
            + 2 * m * (np.abs(v).max() + abs(cv))
        )
        bound = 4.0 * np.finfo(float).eps * (1.0 + size)
        assert np.all(
            np.abs(source - (curvature + background))
            <= bound * (np.abs(curvature) + np.abs(background))
        )
