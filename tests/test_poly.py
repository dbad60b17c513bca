"""Tests for sparse polynomials and the coercivity screen."""

import json
import math
from itertools import combinations_with_replacement

import numpy as np
import pytest

import qcurv.poly

from qcurv import (
    DimensionMismatch,
    Polynomial,
    PolynomialFormatError,
    a3_counterexample,
    eval_many,
    eval_with_gradient,
    pm_membership,
    radial_derivative,
    radial_profile_coeffs,
)


# ----------------------------------------------------------------------
# canonical form and construction
# ----------------------------------------------------------------------
def test_from_terms_merges_and_sorts_graded_lex():
    P = Polynomial.from_terms(
        2, [((0, 2), 1.0), ((2, 0), 3.0), ((0, 2), 2.0), ((1, 0), -1.0)]
    )
    assert P.terms == (((1, 0), -1.0), ((0, 2), 3.0), ((2, 0), 3.0))


def test_from_terms_drops_tiny_coefficients():
    P = Polynomial.from_terms(1, [((2,), 1.0), ((1,), 1e-15)])
    assert P.terms == (((2,), 1.0),)
    # Exact cancellation also drops the term.
    Q = Polynomial.from_terms(1, [((2,), 1.0), ((2,), -1.0)])
    assert Q.is_zero


def test_raw_constructor_rejects_non_canonical_terms():
    with pytest.raises(PolynomialFormatError):
        Polynomial(dim=2, terms=(((2, 0), 1.0), ((1, 0), 1.0)))
    with pytest.raises(PolynomialFormatError):
        Polynomial(dim=1, terms=(((1,), 1.0), ((1,), 1.0)))


def test_constructor_rejects_nonpositive_dimension():
    with pytest.raises(DimensionMismatch):
        Polynomial(dim=0, terms=())
    with pytest.raises(DimensionMismatch):
        Polynomial.from_terms(0, [])


def test_a_parse_canonicalizes_its_terms_once(monkeypatch):
    calls = []
    canonical = qcurv.poly._canonical_terms

    def counted(dim, items):
        calls.append(dim)
        return canonical(dim, items)

    monkeypatch.setattr(qcurv.poly, "_canonical_terms", counted)
    text = " + ".join(f"1.2 * x{i}^2" for i in range(1, 5))
    P = Polynomial.from_text(text)
    assert len(calls) == 1
    # The same value as the checked constructor builds from those terms.
    assert P == Polynomial(dim=4, terms=P.terms)
    assert Polynomial.from_json_dict(P.to_json_dict()) == P


def test_zero_polynomial_properties():
    Z = Polynomial.zero(3)
    assert Z.is_zero
    assert Z.degree() == 0
    assert Z.to_text() == "0"
    assert np.all(eval_many(Z, np.ones((5, 3))) == 0.0)


def test_degree_is_total_degree():
    P = Polynomial.from_terms(2, [((1, 2), 1.0), ((2, 0), 1.0)])
    assert P.degree() == 3


# ----------------------------------------------------------------------
# text and JSON round-trips
# ----------------------------------------------------------------------
def test_text_roundtrip_is_bit_exact():
    P = Polynomial.from_terms(
        3,
        [
            ((2, 0, 0), 0.1),
            ((0, 1, 1), -7.25e-3),
            ((0, 0, 0), 1.0 / 3.0),
            ((1, 1, 2), np.pi),
        ],
    )
    Q = Polynomial.from_text(P.to_text(), dim=3)
    assert Q == P


def test_from_text_accepts_sugar():
    # Bare monomial, implicit coefficient, minus-sign sugar, e-notation.
    P = Polynomial.from_text("x1^2 - x2 + 2.5e-1 * x1 x2^3")
    expected = Polynomial.from_terms(
        2, [((2, 0), 1.0), ((0, 1), -1.0), ((1, 3), 0.25)]
    )
    assert P == expected


def test_from_text_repeated_factor_multiplies_exponents():
    assert Polynomial.from_text("x1 x1^2") == Polynomial.from_terms(
        1, [((3,), 1.0)]
    )


def test_from_text_infers_dimension():
    P = Polynomial.from_text("x3^2")
    assert P.dim == 3
    assert P.terms == (((0, 0, 2), 1.0),)
    # A pure constant still has dimension one.
    assert Polynomial.from_text("4.0").dim == 1


def test_from_text_dim_override_pads_or_rejects():
    P = Polynomial.from_text("x1^2", dim=4)
    assert P.dim == 4
    with pytest.raises(DimensionMismatch):
        Polynomial.from_text("x3^2", dim=2)


@pytest.mark.parametrize(
    "bad", ["", "  ", "x0^2", "x1^2 + frog", "x1^2.5", "1e999 * x1^2 + x2^2"]
)
def test_from_text_rejects_malformed_input(bad):
    with pytest.raises(PolynomialFormatError):
        Polynomial.from_text(bad)


def test_json_roundtrip_through_serialized_string():
    P = Polynomial.from_terms(2, [((2, 0), 1.0), ((0, 4), -0.125)])
    data = json.loads(json.dumps(P.to_json_dict()))
    assert Polynomial.from_json_dict(data) == P


def test_from_json_dict_rejects_malformed_payloads():
    with pytest.raises(PolynomialFormatError):
        Polynomial.from_json_dict({"dim": 2})
    with pytest.raises(PolynomialFormatError):
        Polynomial.from_json_dict({"dim": 2, "terms": [{"coef": 1.0}]})


def _square_json(dim=2, exps=(2, 0), coef=1.0):
    return {
        "dim": dim,
        "terms": [{"exps": list(exps), "coef": coef}, {"exps": [0, 2], "coef": 1.0}],
    }


@pytest.mark.parametrize(
    "payload, fragment",
    [
        (_square_json(exps=(2.5, 0)), "terms[0].exps[0] must be of type int, got 2.5"),
        (_square_json(exps=(True, 0)), "terms[0].exps[0] must be of type int, got True"),
        (_square_json(exps=("x", 0)), "terms[0].exps[0] must be of type int, got 'x'"),
        (_square_json(exps=("2", 0)), "terms[0].exps[0] must be of type int, got '2'"),
        (_square_json(coef=True), "terms[0].coef must be of type float, got True"),
        (_square_json(coef="a"), "terms[0].coef must be of type float, got 'a'"),
        (_square_json(coef=float("nan")), "coefficient of (2, 0) is nan"),
        (_square_json(dim=2.9), "dim must be of type int, got 2.9"),
        (_square_json(dim="four"), "dim must be of type int, got 'four'"),
        (_square_json(dim=True), "dim must be of type int, got True"),
    ],
    ids=[
        "fractional-exponent",
        "bool-exponent",
        "string-exponent",
        "numeric-string-exponent",
        "bool-coef",
        "string-coef",
        "nan-coef",
        "fractional-dim",
        "string-dim",
        "bool-dim",
    ],
)
def test_from_json_dict_refuses_a_value_it_would_have_to_coerce(payload, fragment):
    with pytest.raises(PolynomialFormatError) as info:
        Polynomial.from_json_dict(payload)
    assert str(info.value) == fragment


def test_from_json_dict_loads_integral_floats_and_integer_coefficients():
    P = Polynomial.from_json_dict(_square_json(dim=2.0, exps=(2.0, 0), coef=3))
    assert P == Polynomial.from_terms(2, [((2, 0), 3.0), ((0, 2), 1.0)])
    assert all(type(e) is int for exps, _ in P.terms for e in exps)
    assert all(type(c) is float for _, c in P.terms)


# ----------------------------------------------------------------------
# evaluation
# ----------------------------------------------------------------------
def test_eval_many_matches_naive_loop():
    rng = np.random.default_rng(41)
    P = Polynomial.from_terms(
        3, [((2, 0, 0), 1.5), ((1, 1, 0), -2.0), ((0, 0, 3), 0.25)]
    )
    pts = rng.normal(size=(40, 3))
    expected = np.array(
        [
            1.5 * x[0] ** 2 - 2.0 * x[0] * x[1] + 0.25 * x[2] ** 3
            for x in pts
        ]
    )
    np.testing.assert_allclose(eval_many(P, pts), expected, rtol=1e-14)


def test_eval_many_rejects_wrong_point_dimension():
    P = Polynomial.from_terms(2, [((2, 0), 1.0)])
    with pytest.raises(DimensionMismatch):
        eval_many(P, np.ones((4, 3)))


def test_gradient_matches_central_differences():
    rng = np.random.default_rng(42)
    P = Polynomial.from_terms(
        3, [((2, 1, 0), 1.0), ((0, 0, 4), -0.5), ((1, 1, 1), 2.0)]
    )
    h = 1e-6
    for _ in range(10):
        x = rng.normal(size=3)
        value, grad = eval_with_gradient(P, x)
        assert value == pytest.approx(float(eval_many(P, x)), rel=1e-14)
        for i in range(3):
            step = np.zeros(3)
            step[i] = h
            fd = (eval_many(P, x + step) - eval_many(P, x - step)) / (2 * h)
            assert grad[i] == pytest.approx(float(fd), rel=1e-7, abs=1e-7)


def test_gradient_is_exact_at_zero_coordinates():
    # d/dx1 of x1 * x2^2 at x1 = 0 must be x2^2, not nan or 0.
    P = Polynomial.from_terms(2, [((1, 2), 1.0)])
    _, grad = eval_with_gradient(P, np.array([0.0, 3.0]))
    assert grad[0] == 9.0
    assert grad[1] == 0.0


def test_gradient_requires_single_point():
    P = Polynomial.from_terms(2, [((2, 0), 1.0)])
    with pytest.raises(DimensionMismatch):
        eval_with_gradient(P, np.ones((4, 2)))


def test_radial_derivative_matches_gradient_dot_product():
    rng = np.random.default_rng(43)
    P = Polynomial.from_terms(
        4, [((2, 0, 0, 0), 1.0), ((0, 1, 0, 3), -0.7), ((1, 1, 1, 1), 0.3)]
    )
    for _ in range(10):
        x = rng.normal(size=4)
        _, grad = eval_with_gradient(P, x)
        assert radial_derivative(P, x) == pytest.approx(
            float(x @ grad), rel=1e-13
        )


@pytest.mark.parametrize("block", [qcurv.poly._RADIAL_BLOCK, 7])
def test_radial_many_matches_the_termwise_formula(block, monkeypatch):
    # |x|^4 in R^6 plus odd, mixed and constant terms, on points in the
    # positive orthant so that every term is positive and no sum cancels.
    terms = {}
    for combo in combinations_with_replacement(range(6), 2):
        counts = [combo.count(j) for j in range(6)]
        weight = math.factorial(2) // math.prod(map(math.factorial, counts))
        terms[tuple(2 * c for c in counts)] = float(weight)
    terms[(1, 3, 0, 0, 0, 0)] = 0.7
    terms[(0, 0, 1, 1, 1, 0)] = 0.3
    terms[(0,) * 6] = 2.0
    P = Polynomial.from_terms(6, terms.items())
    pts = np.random.default_rng(44).uniform(0.1, 3.0, size=(5, 11, 6))
    termwise = np.zeros(pts.shape[:-1])
    for exps, coef in P.terms:
        d = sum(exps)
        if d:
            termwise += d * coef * np.prod(pts ** np.asarray(exps), axis=-1)
    monkeypatch.setattr(qcurv.poly, "_RADIAL_BLOCK", block)
    got = qcurv.poly._radial_many(P, pts)
    assert got.shape == termwise.shape
    np.testing.assert_allclose(got, termwise, rtol=1e-14, atol=0.0)
    assert radial_derivative(P, pts[2, 3]) == pytest.approx(
        termwise[2, 3], rel=1e-14, abs=0.0
    )


# ----------------------------------------------------------------------
# coercivity screen
# ----------------------------------------------------------------------
def test_membership_accepts_positive_definite_quadratic():
    P = Polynomial.from_terms(
        4,
        [
            ((2, 0, 0, 0), 1.0),
            ((0, 2, 0, 0), 2.0),
            ((0, 0, 2, 0), 0.5),
            ((0, 0, 0, 2), 3.0),
        ],
    )
    verdict = pm_membership(P)
    assert verdict.status == "Accepted"
    assert verdict.witness is None
    # x . grad P = 2 P is exactly homogeneous of degree 2.
    assert verdict.exponent == pytest.approx(2.0, abs=1e-6)
    assert verdict.constant is not None and verdict.constant > 0
    # The certified bound must hold on fresh random samples too.
    rng = np.random.default_rng(44)
    pts = rng.normal(size=(200, 4)) * rng.uniform(1, 50, size=(200, 1))
    values = np.array([radial_derivative(P, x) for x in pts])
    norms = np.linalg.norm(pts, axis=1)
    assert np.all(values >= verdict.constant * norms**verdict.exponent - 1e-9)


def test_membership_rejects_degree_above_bound():
    # Degree 4 exceeds 2m - 2 = 2 for m = 2.
    P = Polynomial.from_terms(4, [((4, 0, 0, 0), 1.0)])
    verdict = pm_membership(P)
    assert verdict.status == "Rejected"
    assert "degree 4" in verdict.witness
    assert verdict.samples_used == 0


def test_membership_rejects_constants_and_zero():
    for P in (
        Polynomial.zero(4),
        Polynomial.from_terms(4, [((0, 0, 0, 0), 5.0)]),
    ):
        verdict = pm_membership(P)
        assert verdict.status == "Rejected"
        assert "constant" in verdict.witness


def test_membership_rejects_indefinite_quadratic_with_ray_witness():
    P = Polynomial.from_terms(
        4, [((2, 0, 0, 0), 1.0), ((0, 2, 0, 0), -1.0)]
    )
    verdict = pm_membership(P)
    assert verdict.status == "Rejected"
    assert "x . grad P" in verdict.witness


def test_membership_rejects_linear_polynomial():
    # x . grad P = x1 is negative along the -e1 ray.
    P = Polynomial.from_terms(4, [((1, 0, 0, 0), 1.0)])
    assert pm_membership(P).status == "Rejected"


def test_membership_inconclusive_when_sign_changes_at_small_radii():
    # x1^2 + x2^4 - 5 x2^2 grows eventually but x . grad P dips negative
    # near the origin, so no single power bound can be certified.
    P = Polynomial.from_terms(
        2, [((0, 2), -5.0), ((2, 0), 1.0), ((0, 4), 1.0)]
    )
    verdict = pm_membership(P, m=3)
    assert verdict.status == "Inconclusive"
    assert verdict.exponent is None


def test_membership_odd_dimension_requires_explicit_m():
    P = Polynomial.from_terms(3, [((2, 0, 0), 1.0)])
    with pytest.raises(DimensionMismatch):
        pm_membership(P)
    assert pm_membership(P, m=2).status == "Rejected"  # indefinite at x2, x3


@pytest.mark.parametrize(
    "text, m, status, witness",
    [
        ("x1^2", 2, "Accepted", None),
        ("x1^4", 3, "Accepted", None),
        (
            "-x1^2",
            2,
            "Rejected",
            "leading coefficient -1 of |x|^2 is not positive, so x . grad P "
            "tends to -infinity",
        ),
        ("x1", 2, "Rejected", "ray through (-1.0000) at r = 256: x . grad P = -256"),
    ],
)
def test_membership_screens_one_dimensional_polynomials(text, m, status, witness):
    # In dim 1 an even polynomial is radial and decided exactly.  Others are
    # sampled, and dim 1 has no bent-path family (no pair i != j): only
    # rays are sampled.
    P = Polynomial.from_text(text)
    verdict = pm_membership(P, m=m)
    assert verdict.status == status
    assert verdict.witness == witness
    radial = radial_profile_coeffs(P) is not None
    assert verdict.samples_used == (0 if radial else 64 * 9)  # 64 rays, 9 radii


def test_membership_validates_sampling_parameters():
    P = Polynomial.from_terms(2, [((2, 0), 1.0), ((0, 2), 1.0)])
    with pytest.raises(DimensionMismatch):
        pm_membership(P, m=0)


@pytest.mark.parametrize("dim, m", [(17, 3), (18, None)], ids=["dim17-m3", "dim18"])
def test_membership_refuses_dimensions_beyond_the_direction_set(dim, m):
    # The ray directions take one prime per coordinate from a 16-entry
    # table; a larger dimension is refused by name, not by a crash.
    P = Polynomial.from_text(f"x{dim}^2", dim=dim)
    with pytest.raises(DimensionMismatch, match="exceeds 16"):
        pm_membership(P, m=m)


@pytest.mark.parametrize(
    "build",
    [
        lambda: Polynomial.from_text("x1025^2"),
        lambda: Polynomial.from_text("x1^2", dim=1025),
        lambda: Polynomial.from_json_dict({"dim": 1025, "terms": []}),
        lambda: Polynomial.from_terms(1025, []),
        lambda: Polynomial.zero(1025),
    ],
    ids=["text", "text-dim", "json", "terms", "zero"],
)
def test_every_constructor_refuses_a_dimension_above_the_bound(build):
    with pytest.raises(DimensionMismatch, match=r"^dim must be in 1\.\.1024, got 1025$"):
        build()


def test_membership_screens_the_largest_covered_dimension():
    # 2 x1^2 makes P non-radial, so it is sampled; |x|^2 is decided exactly
    # in any dimension.
    P = Polynomial.from_text("2 * " + " + ".join(f"x{i}^2" for i in range(1, 17)))
    verdict = pm_membership(P)
    assert verdict.status == "Accepted"
    assert verdict.samples_used > 0
    assert verdict.exponent == pytest.approx(2.0, abs=0.1)
    square = Polynomial.from_text(" + ".join(f"x{i}^2" for i in range(1, 19)))
    exact = pm_membership(square)
    assert (exact.status, exact.exponent, exact.samples_used) == ("Accepted", 2.0, 0)


@pytest.mark.parametrize(
    "text, m, status, witness",
    [
        # x . grad P = 6 [x1^2 (x1^2 - 6e4)^2 + 1e7 x2^2]: its valley at
        # |x1| = 245 brings the sampled minimum down from r = 128 to 256.
        (
            "x1^6 - 180000 * x1^4 + 10800000000 * x1^2 + 30000000 * x2^2",
            4,
            "Rejected",
            "min x . grad P did not grow from r = 128",
        ),
        # x . grad P = x1^4 - 5000 x1^2 + 800 x2^2 is negative on the x1
        # axis out to |x1| = 70.7, so at r = 32 and 64, and positive from 128.
        (
            "0.25 * x1^4 - 2500 * x1^2 + 400 * x2^2",
            3,
            "Inconclusive",
            "minimum of x . grad P is not positive throughout the fitting window",
        ),
        # x . grad P = 6 [x1^2 ((x1^2 - 16384)^2 + 0.5) + 1e7 x2^2] dips to
        # 49152 at r = 128 on the x1 axis, below its minima at r = 32 and 64.
        (
            "x1^6 - 49152 * x1^4 + 805306369.5 * x1^2 + 30000000 * x2^2",
            4,
            "Inconclusive",
            "too flat to certify unbounded growth",
        ),
    ],
    ids=["min-did-not-grow", "tail-minimum-not-positive", "exponent-too-flat"],
)
def test_membership_reaches_each_sampled_verdict(text, m, status, witness):
    verdict = pm_membership(Polynomial.from_text(text), m=m)
    assert verdict.status == status
    assert witness in verdict.witness
    assert verdict.samples_used > 0


# ----------------------------------------------------------------------
# the bent-path counterexample family
# ----------------------------------------------------------------------
def test_counterexample_polynomial_structure():
    P = a3_counterexample(1.9)
    assert P.dim == 2
    assert P == Polynomial.from_text("x1^2 + x2^4 - 1.9 * x1 x2^2")
    Q = a3_counterexample(1.9, extra_dims=2)
    assert Q.dim == 4
    assert Q.degree() == 4


def test_counterexample_radial_derivative_along_bent_path():
    # On the curve x1 = c t^2, x2 = t the radial derivative is exactly
    # (2 c^2 - 3 beta c + 4) t^4; at c = 1.4, beta = 1.9 that is -0.06 t^4.
    P = a3_counterexample(1.9)
    for t in (1.0, 2.0, 5.0):
        x = np.array([1.4 * t**2, t])
        assert radial_derivative(P, x) == pytest.approx(
            -0.06 * t**4, rel=1e-9
        )


@pytest.mark.parametrize("beta", [1.89, 1.9, 1.95])
def test_counterexample_is_rejected_with_curve_witness(beta):
    verdict = pm_membership(a3_counterexample(beta, extra_dims=4))
    assert verdict.status == "Rejected"
    assert "curve" in verdict.witness
    # The same failure is caught when the 2-d polynomial is screened
    # against the degree bound of m = 3 directly.
    verdict2 = pm_membership(a3_counterexample(beta), m=3)
    assert verdict2.status == "Rejected"


def test_counterexample_below_critical_coupling_is_accepted():
    # For beta < sqrt(32)/3 ~ 1.8856 the radial derivative is a positive
    # definite quartic form and the screen certifies growth.
    verdict = pm_membership(a3_counterexample(1.0), m=3)
    assert verdict.status == "Accepted"
    assert verdict.constant > 0


@pytest.mark.parametrize("dim, degree", [(4, 2), (6, 4), (8, 6)])
def test_curve_points_are_the_sample_array_one_radius_at_a_time(dim, degree):
    # pm_membership holds one radius's curve points at a time; each slice
    # equals the whole (n_radii, n_curves, dim) array built the direct way.
    radii = np.array([1.0, 1.7, 4.0, 9.3])
    family = qcurv.poly._curve_family(dim, degree)
    whole = np.zeros((len(radii), len(family), dim))
    for q, (i, j, k, c) in enumerate(family):
        whole[:, q, i] = c * radii**k
        whole[:, q, j] = radii
    slices = list(qcurv.poly._curve_points(dim, family, radii))
    assert len(slices) == len(radii)
    for slot, pts in enumerate(slices):
        np.testing.assert_array_equal(pts, whole[slot])
