"""Sparse multivariate polynomials and the admissible profile class.

Asymptotic profiles of the metrics handled by this package carry a
polynomial part ``P`` in ``n = 2m`` variables that must satisfy two
structural constraints:

* ``deg P <= 2m - 2``, and
* the radial derivative ``x . grad P`` grows without bound along every
  path to infinity.

This module states those rules once.  A radial ``P`` (a polynomial in
|x|^2) is decided exactly, and the solver's configuration check and
:func:`pm_membership` read that one decision.  Membership of a non-radial
``P`` is not decidable by finite sampling, so :func:`pm_membership`
screens it and returns a three-way verdict: ``accepted`` verdicts carry
an empirical lower bound ``x . grad P >= c * |x|^a`` valid on every
sampled point, ``rejected`` verdicts name what the samples showed at the
two largest radii, 128 and 256 (a sample path on which the radial
derivative was <= 0, or a minimum over the samples that did not grow),
and anything the heuristics cannot settle is ``inconclusive``.  A
sampled rejection is evidence, not proof: growth that sets in beyond
r = 256 is missed, as for ``0.25 x1^4 - 50000 x1^2 + x2^2`` at m = 3,
whose ``x . grad P`` tends to +inf along every path.

Polynomials are stored sparsely as ``(exponent_vector, coefficient)``
terms in graded lexicographic order, which makes the text and JSON
serializations canonical: parsing a polynomial's own serialization
reproduces it bit for bit.
"""

from __future__ import annotations

import math
import numbers
import re
from dataclasses import dataclass
from itertools import combinations_with_replacement
from typing import Iterable, Sequence

import numpy as np
from scipy.special import ndtri

from .errors import DimensionMismatch, PolynomialFormatError, QcurvError

# Coefficients whose magnitude falls below this threshold are treated as
# exact zeros when terms are canonicalized.
COEF_DROP_TOL = 1e-14

# A fitted growth exponent below this value is too flat to certify growth.
_MIN_GROWTH_EXPONENT = 0.05

# Points per block in _radial_many, bounding its cached coordinate powers.
_RADIAL_BLOCK = 1 << 16

# Ray directions per radius of the sampling screen, and its radii.  The
# directions spiral over the square roots of one prime per coordinate, so
# the screen covers at most len(_PRIMES) dimensions.
_DIRECTION_COUNT = 64
_SAMPLE_RADII = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)
_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)


def json_number(
    name: str, kind: str, value, error: type[QcurvError] = PolynomialFormatError
) -> int | float:
    """A JSON number as ``kind``: an ``int`` takes an integer or an
    integral float such as 2.0, a ``float`` any number a float can hold.
    Bools, strings, non-integral values for an ``int`` and integers too
    large for a ``float`` raise ``error`` naming ``name``; they are never
    coerced into a different value."""
    ok = isinstance(value, numbers.Real) and not isinstance(value, bool)
    try:
        if ok and kind == "float":
            return float(value)
        if ok and (isinstance(value, numbers.Integral) or float(value).is_integer()):
            return int(value)
    except OverflowError:
        pass
    raise error(f"{name} must be of type {kind}, got {value!r}")


def _canonical_terms(
    dim: int, items: Iterable[tuple[Sequence[int], float]]
) -> tuple[tuple[tuple[int, ...], float], ...]:
    """Merge duplicate exponent vectors, drop negligible coefficients and
    sort graded-lexicographically (total degree first, then exponents)."""
    acc: dict[tuple[int, ...], float] = {}
    for exps, coef in items:
        e = tuple(map(int, exps))
        if len(e) != dim:
            raise DimensionMismatch(
                f"exponent vector {e} has length {len(e)}, expected {dim}"
            )
        if min(e) < 0:
            raise PolynomialFormatError(f"negative exponent in {e}")
        c = float(coef)
        if not math.isfinite(c):
            raise PolynomialFormatError(f"coefficient of {e} is {c!r}")
        acc[e] = acc.get(e, 0.0) + c
    kept = [(e, c) for e, c in acc.items() if abs(c) >= COEF_DROP_TOL]
    kept.sort(key=lambda t: (sum(t[0]), t[0]))
    return tuple(kept)


# Polynomial.from_text's patterns: signed terms, where '+'/'-' inside a
# float exponent (1e-3) follows an 'e'/'E' and does not split a term; one
# term; and one factor x<i>^<e> of a term's monomial.
_TERM_SPLIT_RE = re.compile(r"[+-]?[^+-]*(?:(?<=[eE])[+-][^+-]*)*")
_TERM_RE = re.compile(
    r"^(?P<sign>[+-])?"
    r"(?P<coef>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)?"
    r"(?P<mono>(?:x\d+(?:\^\d+)?)*)$"
)
_FACTOR_RE = re.compile(r"x(\d+)(?:\^(\d+))?")


# The largest dimension any constructor accepts: far above the solver's
# 2m <= 12 and the sampling screen's 16, and small enough that a text
# naming x<huge> cannot ask for a huge exponent vector.
MAX_DIM = 1024


def _check_dim(dim: int) -> None:
    if not 1 <= dim <= MAX_DIM:
        raise DimensionMismatch(f"dim must be in 1..{MAX_DIM}, got {dim}")


@dataclass(frozen=True)
class Polynomial:
    """A sparse polynomial in ``dim`` variables.

    ``terms`` is a tuple of ``(exponents, coefficient)`` pairs in graded
    lexicographic order with no duplicate exponent vectors and no
    coefficient smaller than :data:`COEF_DROP_TOL` in magnitude.  Use
    :meth:`from_terms` (or the parsers) rather than the raw constructor so
    the canonical form is established for you.
    """

    dim: int
    terms: tuple[tuple[tuple[int, ...], float], ...]

    def __post_init__(self):
        _check_dim(self.dim)
        if self.terms != _canonical_terms(self.dim, self.terms):
            raise PolynomialFormatError(
                "terms are not in canonical (graded-lex, merged) form; "
                "construct via Polynomial.from_terms"
            )

    # ------------------------------------------------------------------
    # construction / serialization
    # ------------------------------------------------------------------
    @classmethod
    def from_terms(
        cls, dim: int, items: Iterable[tuple[Sequence[int], float]]
    ) -> "Polynomial":
        """The polynomial of ``items``, canonicalized once: the terms are
        canonical by construction, so the raw constructor's check, which
        would canonicalize them again, is not run."""
        _check_dim(dim)
        poly = object.__new__(cls)
        object.__setattr__(poly, "dim", dim)
        object.__setattr__(poly, "terms", _canonical_terms(dim, items))
        return poly

    @classmethod
    def zero(cls, dim: int) -> "Polynomial":
        return cls(dim=dim, terms=())

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; the zero polynomial reports degree 0."""
        if not self.terms:
            return 0
        return max(sum(e) for e, _ in self.terms)

    def to_text(self) -> str:
        """Render as ``coef * x1^e1 x2^e2 + ...`` with ``repr`` floats, so
        that :meth:`from_text` round-trips bit for bit."""
        if not self.terms:
            return "0"
        parts = []
        for exps, coef in self.terms:
            factors = [
                f"x{i + 1}^{e}" for i, e in enumerate(exps) if e > 0
            ]
            body = f"{abs(coef)!r}"
            if factors:
                body += " * " + " ".join(factors)
            if not parts:
                parts.append(body if coef >= 0 else f"-{body}")
            else:
                parts.append(("+ " if coef >= 0 else "- ") + body)
        return " ".join(parts)

    @classmethod
    def from_text(cls, text: str, dim: int | None = None) -> "Polynomial":
        """Parse the format produced by :meth:`to_text`.

        Whitespace is ignored, ``- c * ...`` is accepted as sugar for a
        negative coefficient, and a bare monomial (``x1^2``) gets an
        implicit coefficient of 1.  ``dim`` defaults to the largest
        variable index that appears.
        """
        s = text.strip()
        if not s:
            raise PolynomialFormatError("empty polynomial text")
        compact = s.replace(" ", "").replace("*", "")
        pieces = [p for p in _TERM_SPLIT_RE.findall(compact) if p]
        items: list[tuple[list[int], float]] = []
        max_index = 0
        for piece in pieces:
            m = _TERM_RE.match(piece)
            if not m or (m.group("coef") is None and not m.group("mono")):
                raise PolynomialFormatError(f"cannot parse term {piece!r}")
            coef_text = m.group("coef")
            coef = 1.0 if coef_text is None else float(coef_text)
            if m.group("sign") == "-":
                coef = -coef
            exps: dict[int, int] = {}
            for idx_text, pow_text in _FACTOR_RE.findall(m.group("mono")):
                idx = int(idx_text)
                if idx < 1:
                    raise PolynomialFormatError(
                        f"variable index must be >= 1 in {piece!r}"
                    )
                exps[idx - 1] = exps.get(idx - 1, 0) + (
                    int(pow_text) if pow_text else 1
                )
                max_index = max(max_index, idx)
            items.append((exps, coef))
        if dim is None:
            dim = max(max_index, 1)
        elif max_index > dim:
            raise DimensionMismatch(
                f"text references x{max_index} but dim = {dim}"
            )
        _check_dim(dim)
        terms = []
        for exps, coef in items:
            vec = [0] * dim
            for i, e in exps.items():
                vec[i] = e
            terms.append((vec, coef))
        return cls.from_terms(dim, terms)

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "terms": [
                {"exps": list(exps), "coef": coef} for exps, coef in self.terms
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "Polynomial":
        """Load the form of :meth:`to_json_dict`.  ``dim`` and each
        exponent take an integer or an integral float, each coefficient a
        number (:func:`json_number`)."""
        items = []
        try:
            dim = json_number("dim", "int", data["dim"])
            for i, term in enumerate(data["terms"]):
                exps = [
                    json_number(f"terms[{i}].exps[{j}]", "int", e)
                    for j, e in enumerate(term["exps"])
                ]
                coef = json_number(f"terms[{i}].coef", "float", term["coef"])
                items.append((exps, coef))
        except (KeyError, TypeError) as exc:
            raise PolynomialFormatError(f"malformed polynomial JSON: {exc}")
        return cls.from_terms(dim, items)


# ----------------------------------------------------------------------
# evaluation
# ----------------------------------------------------------------------
def _as_points(P: Polynomial, x) -> np.ndarray:
    pts = np.asarray(x, dtype=float)
    if pts.shape[-1] != P.dim:
        raise DimensionMismatch(
            f"points have dimension {pts.shape[-1]}, polynomial has {P.dim}"
        )
    return pts


def eval_many(P: Polynomial, x) -> np.ndarray:
    """Evaluate ``P`` at an array of points of shape ``(..., dim)``."""
    pts = _as_points(P, x)
    out = np.zeros(pts.shape[:-1])
    for exps, coef in P.terms:
        out += coef * np.prod(pts ** np.asarray(exps), axis=-1)
    return out


def eval_with_gradient(P: Polynomial, x) -> tuple[float, np.ndarray]:
    """Evaluate ``P`` and its gradient at a single point.

    Each term contributes ``coef * prod_j x_j^{e_j}`` to the value and
    ``coef * e_i * x^(e - delta_i)`` to gradient slot ``i``; the reduced
    monomials are formed explicitly so zero coordinates are handled
    exactly.
    """
    pts = _as_points(P, x)
    if pts.ndim != 1:
        raise DimensionMismatch("eval_with_gradient expects a single point")
    value = 0.0
    grad = np.zeros(P.dim)
    for exps, coef in P.terms:
        powers = pts ** np.asarray(exps)
        value += coef * float(np.prod(powers))
        for i, e in enumerate(exps):
            if e == 0:
                continue
            reduced = coef * e * pts[i] ** (e - 1)
            for j, ej in enumerate(exps):
                if j != i:
                    reduced *= powers[j]
            grad[i] += reduced
    return value, grad


def radial_derivative(P: Polynomial, x) -> float:
    """``x . grad P(x)`` via the Euler identity: a term of total degree d
    contributes ``d * coef * x^e``, exactly."""
    return float(_radial_many(P, x))


def _radial_many(P: Polynomial, x) -> np.ndarray:
    """``x . grad P`` at an array of points of shape ``(..., dim)``.

    Points are taken in blocks of ``_RADIAL_BLOCK``; within a block each
    coordinate power ``x_j^e`` is formed once and shared by every term
    that uses it, and a term multiplies only its nonzero-exponent factors.
    """
    pts = _as_points(P, x)
    flat = pts.reshape(-1, P.dim)
    out = np.zeros(len(flat))
    terms = [(exps, sum(exps) * coef) for exps, coef in P.terms if sum(exps) > 0]
    for start in range(0, len(flat), _RADIAL_BLOCK):
        cols = np.ascontiguousarray(flat[start : start + _RADIAL_BLOCK].T)
        powers: dict[tuple[int, int], np.ndarray] = {}
        acc = out[start : start + _RADIAL_BLOCK]
        for exps, weight in terms:
            monomial = None
            for j, e in enumerate(exps):
                if e == 0:
                    continue
                factor = powers.get((j, e))
                if factor is None:
                    factor = powers[(j, e)] = cols[j] ** e
                monomial = factor if monomial is None else monomial * factor
            acc += weight * monomial
    return out.reshape(pts.shape[:-1])


# ----------------------------------------------------------------------
# radial profiles and the admissibility rules
# ----------------------------------------------------------------------
def radial_profile_coeffs(P: Polynomial) -> np.ndarray | None:
    """If P is a polynomial in |x|^2, return the coefficients c with
    P = sum_i c[i] |x|^{2i}; otherwise return None.

    The candidate coefficients are read off the pure first-axis terms
    (the coefficient of x_1^{2i} in sum c_i |x|^{2i} is c_i) and then
    verified against every stored term: by the multinomial theorem the
    monomial x^{2k} with |k| = i has coefficient c_i i! / prod_j k_j!, and
    a monomial with an odd exponent has none.  A degree whose candidate
    is nonzero but which lacks some of its C(dim + i - 1, i) monomials
    refuses P if |c_i| (their least expected size) is above the
    tolerance, else they are checked by the full re-expansion
    (:func:`_profile_expansion_matches`).
    """
    if P.is_zero:
        return np.zeros(1)
    half_deg = P.degree() // 2
    values = [0.0] * (half_deg + 1)
    exponents = []  # each term's nonzero exponents
    for exps, coef in P.terms:
        nonzero = [e for e in exps if e]
        exponents.append(nonzero)
        if not nonzero:
            values[0] = coef
        elif len(nonzero) == 1 and exps[0] and exps[0] % 2 == 0:
            values[exps[0] // 2] = coef
    tol = 1e-12 * max(abs(c) for _, c in P.terms)
    stored_per_degree = [0] * (half_deg + 1)
    for nonzero, (_, coef) in zip(exponents, P.terms):
        expected = 0.0
        if all(e % 2 == 0 for e in nonzero):
            i = sum(nonzero) // 2
            if values[i] != 0.0:
                stored_per_degree[i] += 1
                expected = values[i] * _multinomial(i, nonzero)
        if abs(expected - coef) > tol:
            return None
    incomplete = [
        c
        for i, c in enumerate(values)
        if c != 0.0 and stored_per_degree[i] < math.comb(P.dim + i - 1, i)
    ]
    if any(abs(c) > tol for c in incomplete):
        return None
    cand = np.array(values)
    if not incomplete or _profile_expansion_matches(P, cand, tol):
        return cand
    return None


def _multinomial(i: int, exps) -> int:
    """i! / prod_j (exps[j] / 2)!, for even ``exps`` summing to 2i."""
    weight = math.factorial(i)
    for e in exps:
        weight //= math.factorial(e // 2)
    return weight


def _profile_expansion_matches(P: Polynomial, cand: np.ndarray, tol: float) -> bool:
    """Whether every term of sum_i cand[i] |x|^{2i}, expanded monomial by
    monomial, and every stored term of P agree within ``tol``."""
    expanded: dict[tuple[int, ...], float] = {}
    for i, c in enumerate(cand):
        if c == 0.0:
            continue
        for combo in combinations_with_replacement(range(P.dim), i):
            counts = [0] * P.dim
            for j in combo:
                counts[j] += 1
            vec = tuple(2 * cnt for cnt in counts)
            expanded[vec] = expanded.get(vec, 0.0) + c * _multinomial(i, vec)
    stored = dict(P.terms)
    return all(
        abs(expanded.get(key, 0.0) - stored.get(key, 0.0)) <= tol
        for key in set(expanded) | set(stored)
    )


def degree_bound_violation(P: Polynomial, m: int) -> str | None:
    """The violated rule deg P <= 2m - 2, or None."""
    degree = P.degree()
    if degree > 2 * m - 2:
        return f"degree {degree} exceeds the admissible bound 2m - 2 = {2 * m - 2}"
    return None


def radial_admissibility_violation(coeffs: np.ndarray) -> str | None:
    """Decide admissibility of a radial profile P = sum_i c_i s^i,
    s = |x|^2, within the degree bound, exactly; return the violated rule,
    or None if P is admissible.

    x . grad P = sum_i 2 i c_i s^i is a polynomial in s, so with k the
    index of the last nonzero coefficient it tends to +infinity iff
    k >= 1 and c_k > 0.
    """
    nonzero = np.flatnonzero(coeffs)
    k = int(nonzero[-1]) if nonzero.size else 0
    if k == 0:
        return "x . grad P vanishes identically (constant polynomial)"
    if not coeffs[k] > 0:
        return (
            f"leading coefficient {coeffs[k]:.6g} of |x|^{2 * k} is not "
            "positive, so x . grad P tends to -infinity"
        )
    return None


def _radial_verdict(coeffs: np.ndarray) -> AdmissibilityVerdict:
    """The exact verdict on P = sum_i c_i |x|^{2i}.  With c_k the last
    nonzero coefficient, x . grad P / |x|^{2k} = g(t) = sum_i 2 i c_i
    t^{k - i} at t = |x|^{-2}, so the constant is g's least value on
    [0, 1]: at an end or at a critical point (clipped into [0, 1])."""
    rule = radial_admissibility_violation(coeffs)
    if rule is not None:
        return AdmissibilityVerdict(status="Rejected", witness=rule, samples_used=0)
    k = int(np.flatnonzero(coeffs)[-1])
    g = np.polynomial.Polynomial([2 * i * coeffs[i] for i in range(k, 0, -1)])
    critical = np.clip(g.deriv().roots().real, 0.0, 1.0)
    return AdmissibilityVerdict(
        status="Accepted",
        witness=None,
        samples_used=0,
        exponent=float(2 * k),
        constant=float(min(g(np.concatenate(([0.0, 1.0], critical))))),
    )


# ----------------------------------------------------------------------
# coercivity screening
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AdmissibilityVerdict:
    """Outcome of :func:`pm_membership`.

    ``status`` is ``"Accepted"``, ``"Rejected"`` or ``"Inconclusive"``.
    Accepted verdicts fill ``exponent``/``constant`` with the largest c
    such that ``x . grad P >= c * |x|^exponent`` on |x| >= 1: exactly for
    a radial P, with exponent 2k for its last nonzero c_k (c <= 0 for a
    shell), else over every sample, with a fitted exponent.  Rejected
    verdicts fill ``witness`` with the violated rule, or for a sampled P
    with what was seen at the radii 128 and 256: a path on which
    x . grad P was <= 0, or a minimum that did not grow, which is
    evidence, not proof.  Only a non-radial P can be Inconclusive.
    ``samples_used`` counts radial-derivative evaluations, 0 for an exact
    verdict.
    """

    status: str
    witness: str | None
    samples_used: int
    exponent: float | None = None
    constant: float | None = None


def _direction_set(dim: int) -> np.ndarray:
    """Deterministic, roughly equidistributed unit directions: the 2*dim
    signed coordinate axes plus a low-discrepancy Gaussian spiral, 64 in
    all for dim <= 16."""
    axes = np.vstack([np.eye(dim), -np.eye(dim)])
    alphas = np.sqrt(np.array(_PRIMES[:dim], dtype=float))
    k = np.arange(1, _DIRECTION_COUNT - 2 * dim + 1)[:, None]
    u = np.mod(k * alphas[None, :] + 0.5, 1.0)
    z = ndtri(np.clip(u, 1e-12, 1.0 - 1e-12))
    norms = np.linalg.norm(z, axis=1, keepdims=True)
    return np.vstack([axes, z / norms])


def _curve_family(
    dim: int, degree: int
) -> list[tuple[int, int, int, float]]:
    """Descriptors (i, j, k, c) of the curve family  x_i = c t^k, x_j = t,
    other coordinates zero, for all ordered pairs (i, j), bend exponents
    k = 2..max(2, degree) and a coefficient grid c = 0.05..4.00."""
    ks = range(2, max(2, degree) + 1)
    cs = 0.05 * np.arange(1, 81)
    return [
        (i, j, k, float(c))
        for i in range(dim)
        for j in range(dim)
        if i != j
        for k in ks
        for c in cs
    ]


def _curve_points(
    dim: int, descriptors: list[tuple[int, int, int, float]], radii: np.ndarray
):
    """The points of the curve family at each radius t, one
    ``(n_curves, dim)`` array per radius, so that only one radius's points
    are held at a time.  An empty family (dim 1 has no pair i != j)
    gives an empty array per radius."""
    if not descriptors:
        yield from (np.zeros((0, dim)) for _ in radii)
        return
    i, j, k, c = (np.array(col) for col in zip(*descriptors))
    rows = np.arange(len(descriptors))
    powers = np.array([radii**e for e in range(k.max() + 1)])
    for slot, t in enumerate(radii):
        pts = np.zeros((len(descriptors), dim))
        pts[rows, i] = c * powers[k, slot]
        pts[rows, j] = t
        yield pts


def pm_membership(P: Polynomial, m: int | None = None) -> AdmissibilityVerdict:
    """Decide, or screen, ``P``'s membership in the admissible profile class.

    ``m`` defaults to ``P.dim // 2`` (the dimension must then be even);
    passing ``m`` explicitly lets low-dimensional polynomials be screened
    against the degree bound of a larger context.

    After the degree bound, a radial ``P`` gets the exact verdict that
    :class:`~qcurv.solver.SolverConfig` reads.  A non-radial ``P``, of
    dim at most 16, is screened: ``x . grad P`` is evaluated at the radii
    1, 2, 4, ..., 256 along 64 straight rays (the signed axes plus a
    low-discrepancy direction set) and along the bent-path family
    ``x_i = c t^k, x_j = t``, which catches polynomials whose radial
    derivative is coercive on every ray yet unbounded below along a
    curved path.  The minimum over all samples at each radius must be
    positive and growing; a power law is then fitted over the last four
    radii to certify ``x . grad P >= c |x|^a`` on the sampled set.
    """
    if m is None:
        if P.dim % 2 != 0:
            raise DimensionMismatch(
                f"dim = {P.dim} is odd; pass m explicitly to screen "
                "against a chosen degree bound"
            )
        m = P.dim // 2
    if m < 1:
        raise DimensionMismatch(f"m must be >= 1, got {m}")
    rule = degree_bound_violation(P, m)
    if rule is not None:
        return AdmissibilityVerdict(status="Rejected", witness=rule, samples_used=0)
    coeffs = radial_profile_coeffs(P)
    if coeffs is not None:
        return _radial_verdict(coeffs)
    if P.dim > len(_PRIMES):
        raise DimensionMismatch(
            f"dim = {P.dim} exceeds {len(_PRIMES)}, the largest dimension "
            "the sampling screen covers"
        )

    radii_arr = np.asarray(_SAMPLE_RADII)
    dirs = _direction_set(P.dim)
    curve_desc = _curve_family(P.dim, P.degree())
    n_rays = dirs.shape[0]
    # Rays then curves, one radius at a time: only the values and norms
    # of the whole sample set are kept, never its points.
    values = np.empty((len(radii_arr), n_rays + len(curve_desc)))
    norms = np.empty_like(values)
    curves = _curve_points(P.dim, curve_desc, radii_arr)
    for slot, curve_pts in enumerate(curves):
        for pts, cols in (
            (radii_arr[slot] * dirs, slice(None, n_rays)),
            (curve_pts, slice(n_rays, None)),
        ):
            values[slot, cols] = _radial_many(P, pts)
            norms[slot, cols] = np.linalg.norm(pts, axis=-1)

    def verdict(status: str, witness=None, **bound) -> AdmissibilityVerdict:
        return AdmissibilityVerdict(status, witness, values.size, **bound)

    def describe(slot: int, idx: int) -> str:
        val = values[slot, idx]
        if idx < n_rays:
            d = ", ".join(f"{c:.4f}" for c in dirs[idx])
            return (
                f"ray through ({d}) at r = {radii_arr[slot]:g}: "
                f"x . grad P = {val:.6g}"
            )
        i, j, k, c = curve_desc[idx - n_rays]
        return (
            f"curve x{i + 1} = {c:g}*t^{k}, x{j + 1} = t at "
            f"t = {radii_arr[slot]:g}: x . grad P = {val:.6g}"
        )

    minima = values.min(axis=1)
    # Rejection: x . grad P <= 0 on some sample at the two largest radii,
    # or a minimum that did not grow between them.  This is what was seen
    # at r = 128 and 256, not a proof: 0.25 x1^4 - 50000 x1^2 + x2^2 at
    # m = 3 is rejected on a ray at r = 256, though its x . grad P is
    # positive wherever |x1| > 317 and tends to +inf along every path.
    last_two = values[-2:, :]
    if last_two.min() <= 0.0:
        slot, idx = np.unravel_index(np.argmin(last_two), last_two.shape)
        return verdict("Rejected", describe(len(radii_arr) - 2 + slot, int(idx)))
    if minima[-1] <= minima[-2]:
        return verdict(
            "Rejected",
            f"min x . grad P did not grow from r = {radii_arr[-2]:g} "
            f"({minima[-2]:.6g}) to r = {radii_arr[-1]:g} "
            f"({minima[-1]:.6g}); minimizer: "
            + describe(-1, int(np.argmin(values[-1]))),
        )
    tail_min = minima[-4:]
    if np.any(tail_min <= 0.0):
        return verdict(
            "Inconclusive",
            "minimum of x . grad P is not positive throughout the fitting window",
        )
    slope, _ = np.polyfit(np.log(radii_arr[-4:]), np.log(tail_min), 1)
    if slope < _MIN_GROWTH_EXPONENT:
        return verdict(
            "Inconclusive",
            f"fitted growth exponent {slope:.3g} is too flat to "
            "certify unbounded growth",
        )
    # Largest constant making  x . grad P >= c |x|^slope  hold on every
    # sample (norms are >= 1 because the radii are, never zero).
    c_bound = float((values / norms**slope).min())
    if c_bound <= 0.0:
        return verdict(
            "Inconclusive",
            "x . grad P changes sign at small radii; no single power "
            "bound covers all samples",
        )
    return verdict("Accepted", exponent=float(slope), constant=c_bound)


def a3_counterexample(beta: float, extra_dims: int = 0) -> Polynomial:
    """The bent-path counterexample  x1^2 + x2^4 - beta * x1 * x2^2,
    optionally extended by ``+ x3^2 + ...`` into a higher dimension.

    Its radial derivative is  2 x1^2 + 4 x2^4 - 3 beta x1 x2^2, which can
    be written as  2 (x1 - 3 beta x2^2 / 4)^2 + (4 - 9 beta^2 / 8) x2^4.
    For beta between sqrt(32)/3 ~ 1.8856 and 2 the polynomial itself is
    positive definite and its radial derivative grows along every straight
    ray, yet tends to minus infinity along the curve  x1 = c t^2, x2 = t
    for c near 3 beta / 4 -- exactly the failure mode the bent-path
    samples in :func:`pm_membership` are there to catch.
    """
    dim = 2 + int(extra_dims)

    def vec(*pairs: tuple[int, int]) -> list[int]:
        v = [0] * dim
        for index, exponent in pairs:
            v[index] = exponent
        return v

    terms = [
        (vec((0, 2)), 1.0),
        (vec((1, 4)), 1.0),
        (vec((0, 1), (1, 2)), -float(beta)),
    ]
    for extra in range(2, dim):
        terms.append((vec((extra, 2)), 1.0))
    return Polynomial.from_terms(dim, terms)
