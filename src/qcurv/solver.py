"""Constructive solver for prescribed-volume conformal metrics.

The target equation on R^{2m} is

    (-Delta)^m u = sign * (2m-1)! * e^{2mu},
    V = integral e^{2mu} dx  prescribed,
    u(x) = -alpha log|x| - P(x) + C + o(1),   alpha = sign * 2V / vol(S^{2m}).

Writing u = -alpha u0 - P + v + c_v, with u0 the background profile of
:mod:`qcurv.geometry`, turns it into a fixed-point problem for the
correction v:

    v = T v,      T v = potential of  S(v),
    S(v) = sign e^{log|K| + 2m (v + c_v)} + alpha (-Delta)^m u0,
    log|K| = log (2m-1)! - 2m P - 2m alpha u0,

where the normalization constant c_v (:func:`normalization_cv`) makes the
curvature integral match the prescribed volume, which is exactly the
condition that S(v) has zero discrete mass, so its potential decays.
The curvature factor is held as log|K| and c_v is taken by log-sum-exp:
for sign -1, |K| grows like (1 + r^2)^{m |alpha|} and leaves double
precision at large V, while every normalized term of S(v) stays bounded
by (2m-1)! V over its quadrature weight.  The log-sum-exp's shifted
exponentials are the curvature term up to a scalar, so S(v) costs one
exponential.

The fixed point is reached by undamped Anderson acceleration of depth 3
on v -> T v (Walker & Ni, SIAM J. Numer. Anal. 49, 2011; local
convergence for contractive maps: Toth & Kelley, SIAM J. Numer. Anal. 53,
2015), stopped on the residual ||T v - v||_inf.  The mixing coefficients
solve the 3 x 3 normal equations of a Gram matrix updated one row per
iteration, in Python floats: its extreme eigenvalues in closed form
(trigonometric for the largest, the pivots' determinant for the
smallest) and a Cholesky factorization.  A (nearly) singular Gram
matrix restarts the history; once a mixed iterate meets the tolerance,
the solve takes the plain step v <- T v and keeps that iterate if its
own residual does, so a converged record is one evaluation of T.
Divergence is judged relative to the first residual, which grows like V.
Convergence is empirical; non-convergence is a first-class reported
outcome, never silent.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np

from .errors import ConfigError, DimensionMismatch, GridMismatch, PolynomialFormatError
from .geometry import eval_radial_profile, u0_eval
# Not called here: perfbench counts sampling-screen calls through
# qcurv.solver.pm_membership (now 0 per op).
from .poly import Polynomial, json_number, pm_membership  # noqa: F401
from .potential import (
    KernelMatrix,
    RadialField,
    RadialGrid,
    constants,
    kernel_matrix,
    make_grid,
    potential_apply,
    potential_workspace,
)

_DIVERGENCE_GUARD = 1e3
_ANDERSON_DEPTH = 3
# _gram_solve solves the normal equations of at most 3 differences: its
# eigenvalues are in closed form for a 3 x 3 matrix.
if not 1 <= _ANDERSON_DEPTH <= 3:
    raise ValueError(f"_ANDERSON_DEPTH must be 1, 2 or 3, got {_ANDERSON_DEPTH}")
# Smallest reciprocal condition of the scaled Gram matrix kept for gamma.
_GRAM_RCOND = 1e-12
_SCHEMA_VERSION = 2
# Grids whose discretization (_discretization) is kept for reuse.
_DISCRETIZATION_CACHE_SIZE = 8
# Schema-v1 keys that chose the iteration path rather than the problem;
# v1 files still load, with these dropped.
_V1_ITERATION_KEYS = frozenset({"theta", "t_schedule", "v_schedule"})
# Removed settings of the method and the one value (the old default) each
# still loads at; any other value would change the solve silently.
_REMOVED_KEYS = {
    "map_kind": "sinh-clustered",
    "quad_order": 12,
    "u0_profile": "smooth-global",
}


# ----------------------------------------------------------------------
# radial-polynomial helpers
# ----------------------------------------------------------------------
def radial_profile_coeffs(P: Polynomial) -> np.ndarray | None:
    """If P is a polynomial in |x|^2, return the coefficients c with
    P = sum_i c[i] |x|^{2i}; otherwise return None.

    The candidate coefficients are read off the pure first-axis terms
    (the coefficient of x_1^{2i} in sum c_i |x|^{2i} is c_i) and then
    verified against every stored term: by the multinomial theorem the
    monomial x^{2k} with |k| = i has coefficient c_i i! / prod_j k_j!, and
    a monomial with an odd exponent has none.  Each degree whose
    candidate is nonzero must also store all of its C(dim + i - 1, i)
    monomials; if one falls short, the missing monomials are checked by
    the full re-expansion (:func:`_profile_expansion_matches`).
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
    complete = all(
        c == 0.0 or stored_per_degree[i] == math.comb(P.dim + i - 1, i)
        for i, c in enumerate(values)
    )
    cand = np.array(values)
    if complete or _profile_expansion_matches(P, cand, tol):
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


def _radial_admissibility_violation(coeffs: np.ndarray) -> str | None:
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


# ----------------------------------------------------------------------
# configuration
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SolverConfig:
    """Description of one solve, validated on construction (:meth:`validate`).

    ``volume`` is the prescribed conformal volume V; ``profile`` the
    asymptotic polynomial P (must be a function of |x|^2 and pass the
    admissibility screen); ``r_max``, ``n_intervals`` and
    ``sinh_strength`` fix the grid; ``tol`` bounds the fixed-point
    residual ||T v - v||_inf at which the solve stops; ``max_iter`` caps
    the total iterations.  The background u0 = (1/2) log(1 + r^2) is
    fixed by m.
    """

    m: int
    sign: int
    volume: float
    profile: Polynomial
    r_max: float = 40.0
    n_intervals: int = 2048
    sinh_strength: float = 3.0
    tol: float = 1e-8
    max_iter: int = 600

    @functools.cached_property
    def alpha(self) -> float:
        return self.sign * 2.0 * self.volume / constants(self.m).vol_sphere

    @functools.cached_property
    def _curvature_mass(self) -> float:
        """(2m-1)! V, the curvature integral sum w |K| e^{2m(v + c_v)}."""
        return constants(self.m).factorial_2m_minus_1 * self.volume

    @functools.cached_property
    def _log_curvature_mass(self) -> float:
        return math.log(self._curvature_mass)

    @functools.cached_property
    def radial_coeffs(self) -> np.ndarray | None:
        """:func:`radial_profile_coeffs` of ``profile``, read-only and
        computed once per config."""
        coeffs = radial_profile_coeffs(self.profile)
        if coeffs is not None:
            coeffs.flags.writeable = False
        return coeffs

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Raise ConfigError naming the violated rule, or return None.

        Types come first: an ``int`` field holds an int and a ``float``
        field an int or float, and neither holds a bool."""
        for f in dataclasses.fields(self):
            kinds = {"int": int, "float": (int, float)}.get(f.type)
            value = getattr(self, f.name)
            if kinds and (isinstance(value, bool) or not isinstance(value, kinds)):
                raise ConfigError(f"{f.name} must be of type {f.type}, got {value!r}")
        if self.m == 1:
            raise ConfigError(
                "m = 1 is not solvable: the admissible class is empty, "
                "since deg P <= 2m - 2 = 0 forces P constant and then "
                "x . grad P vanishes identically instead of growing"
            )
        if self.m < 2 or self.m > 6:
            raise ConfigError(f"m must be an integer in 2..6, got {self.m}")
        if self.sign not in (1, -1):
            raise ConfigError(f"sign must be +1 or -1, got {self.sign}")
        cs = constants(self.m)
        if not 0 < self.volume < math.inf:
            raise ConfigError(f"volume must be positive and finite, got {self.volume}")
        if self.sign == 1 and self.volume >= cs.vol_sphere:
            raise ConfigError(
                "sign = +1 requires V ∈ (0, vol(S^{2m})) = "
                f"(0, {cs.vol_sphere:.6g}); got V = {self.volume:.6g}"
            )
        if self.profile.dim != 2 * self.m:
            raise ConfigError(
                f"profile has dim {self.profile.dim}, expected {2 * self.m}"
            )
        # The degree bound is read off P itself, before the radial
        # re-expansion, whose cost grows combinatorially with the degree;
        # terms below the radial fit's tolerance still count.
        degree = self.profile.degree()
        if degree > 2 * self.m - 2:
            raise ConfigError(
                "profile rejected by the admissibility screen: degree "
                f"{degree} exceeds the admissible bound 2m - 2 = {2 * self.m - 2}"
            )
        coeffs = self.radial_coeffs
        if coeffs is None:
            raise ConfigError(
                "profile must be radial (a polynomial in |x|^2) for the "
                "one-dimensional solver"
            )
        rule = _radial_admissibility_violation(coeffs)
        if rule is not None:
            raise ConfigError(f"profile rejected by the admissibility screen: {rule}")
        if not self.tol > 0:
            raise ConfigError(f"tol must be positive, got {self.tol}")
        if self.max_iter < 1:
            raise ConfigError(f"max_iter must be >= 1, got {self.max_iter}")
        if not 1 < self.r_max < math.inf:
            raise ConfigError(f"r_max must exceed 1 and be finite, got {self.r_max}")
        if self.n_intervals < 64:
            raise ConfigError(f"n_intervals must be >= 64, got {self.n_intervals}")
        if not 0 < self.sinh_strength < math.inf:
            raise ConfigError(
                f"sinh_strength must be positive and finite, got {self.sinh_strength}"
            )

    # ------------------------------------------------------------------
    def to_json_dict(self) -> dict:
        data = {"schema_version": _SCHEMA_VERSION}
        for f in dataclasses.fields(self):
            data[f.name] = getattr(self, f.name)
        data["profile"] = self.profile.to_json_dict()
        return data

    @classmethod
    def from_json_dict(cls, data: dict) -> "SolverConfig":
        """Load a schema-v2 dict, or a v1 dict with its iteration-path keys
        dropped; the known keys and defaults are the dataclass fields.  A
        removed setting's key is dropped if it holds the value the solver
        uses and refused otherwise."""
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
        version = data.get("schema_version")
        if version not in (1, _SCHEMA_VERSION):
            raise ConfigError(
                f"schema_version must be 1 or {_SCHEMA_VERSION}, got {version!r}"
            )
        fields = {f.name: f for f in dataclasses.fields(cls)}
        known = set(fields) | {"schema_version"} | set(_REMOVED_KEYS)
        if version == 1:
            known |= _V1_ITERATION_KEYS
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for name, kept in _REMOVED_KEYS.items():
            if name in data and data[name] != kept:
                raise ConfigError(
                    f"the {name} setting was removed; a config may hold it "
                    f"only at {kept!r}, got {data[name]!r}"
                )
        values = {}
        for name, f in fields.items():
            if name in data:
                values[name] = data[name]
            elif f.default is dataclasses.MISSING:
                raise ConfigError(f"config is missing the {name!r} key")
        for name, value in values.items():
            kind = fields[name].type
            if kind in ("int", "float"):
                values[name] = json_number(name, kind, value, ConfigError)
        m = values["m"]
        try:
            if isinstance(values["profile"], str):
                values["profile"] = Polynomial.from_text(values["profile"], dim=2 * m)
            else:
                values["profile"] = Polynomial.from_json_dict(values["profile"])
        except (PolynomialFormatError, DimensionMismatch) as exc:
            raise ConfigError(f"profile: {exc}") from exc
        return cls(**values)


# ----------------------------------------------------------------------
# pieces of the fixed-point map
# ----------------------------------------------------------------------
def build_grid(config: SolverConfig) -> RadialGrid:
    """The grid of the config's discretization, the object
    :func:`solve_continuation` solves on; its kernel and u0 come with it."""
    return _discretization(config)[0]


def u0_density_field(
    grid: RadialGrid, density: np.ndarray | None = None
) -> RadialField:
    """The polyharmonic density of u0 = (1/2) log(1 + r^2) on the grid,
    rescaled so its discrete mass is exactly -gamma_m; ``density`` is
    :func:`~qcurv.geometry.u0_eval`'s density at the grid's nodes, for a
    caller that already holds it.

    The analytic mass is -gamma_m; truncation at R_max and quadrature
    leave a relative defect ~1e-6 that would otherwise reappear as a
    spurious log drift in the potential's tail, so the rescaling pins the
    discrete mass instead.  The density is negative at every node and the
    weights are positive, so the rescaling factor is always positive.
    """
    cs = constants(grid.m)
    if density is None:
        _, density = u0_eval(grid.m, grid.nodes)
    mass = float(grid.quad_weights @ density)
    return RadialField(grid=grid, values=density * (-cs.gamma_m / mass))


def _discretization(
    config: SolverConfig,
) -> tuple[RadialGrid, KernelMatrix, RadialField, np.ndarray]:
    """The config's grid, kernel moments, u0 density and u0 node values:
    the one place a config's grid is chosen.  They depend only on
    (m, r_max, n_intervals, sinh_strength), not on V, the sign or P, so
    every config with the same key shares them, read-only."""
    return _build_discretization(
        config.m, config.r_max, config.n_intervals, config.sinh_strength
    )


@functools.lru_cache(maxsize=_DISCRETIZATION_CACHE_SIZE, typed=True)
def _build_discretization(
    m: int, r_max: float, n_intervals: int, sinh_strength: float
) -> tuple[RadialGrid, KernelMatrix, RadialField, np.ndarray]:
    try:
        grid = make_grid(m, r_max, n_intervals, sinh_strength=sinh_strength)
    except GridMismatch as exc:
        raise ConfigError(f"cannot build the grid: {exc}") from exc
    kernel = kernel_matrix(grid)
    u0_vals, density = u0_eval(m, grid.nodes)
    u0_density = u0_density_field(grid, density)
    u0_vals.flags.writeable = False
    return grid, kernel, u0_density, u0_vals


def _curvature_factor(
    config: SolverConfig,
    grid: RadialGrid,
    p_vals: np.ndarray,
    u0_vals: np.ndarray,
) -> RadialField:
    cs = constants(config.m)
    log_k = math.log(cs.factorial_2m_minus_1) - 2.0 * config.m * (
        p_vals + config.alpha * u0_vals
    )
    log_tail = log_k[-1] + math.log(grid.quad_weights[-1])
    log_peak = float(np.max(log_k))
    if not log_tail < math.log(1e-12) + log_peak:
        raise ConfigError(
            "curvature kernel tail is not negligible at r_max (weighted "
            f"tail e^{log_tail - log_peak:.3f} of max|K|); enlarge r_max"
        )
    return RadialField(grid=grid, values=log_k)


def build_K(config: SolverConfig, grid: RadialGrid) -> RadialField:
    """log|K| = log (2m-1)! - 2m P - 2m alpha u0 on the grid's nodes; K
    itself is sign e^{log|K|}.  Always finite.  Guards that the weighted
    tail value |K_N| w_N is below 1e-12 of max|K|.  ``grid`` must be the
    config's grid (GridMismatch otherwise), whose u0 values the config's
    discretization holds."""
    own_grid, _, _, u0_vals = _discretization(config)
    grid.ensure_same(own_grid)
    p_vals = eval_radial_profile(config.radial_coeffs, grid.nodes)
    return _curvature_factor(config, grid, p_vals, u0_vals)


def _shifted_exponentials(
    log_K: RadialField, v: RadialField, two_m: float
) -> tuple[np.ndarray, float, float]:
    """e_i = exp(log|K_i| + 2m v_i - top), with top the largest exponent,
    together with top and the weighted sum sum w_i e_i, which lies in
    [min w, sum w]; e is a fresh array."""
    log_K.grid.ensure_same(v.grid)
    e = two_m * v.values
    e += log_K.values
    top = float(e.max())
    e -= top
    np.exp(e, out=e)
    return e, top, float(log_K.grid.quad_weights @ e)


def _cv(log_mass: float, top: float, total: float, two_m: float) -> float:
    """c_v from log((2m-1)! V) and the log-sum-exp pieces top and
    sum w e."""
    return (log_mass - (top + math.log(total))) / two_m


def normalization_cv(
    log_K: RadialField, v: RadialField, config: SolverConfig
) -> float:
    """c_v = (log((2m-1)! V) - LSE_i(log w_i + log|K_i| + 2m v_i)) / 2m.

    With this constant the discrete curvature integral
    sum w_i K_i e^{2m(v_i + c_v)} equals alpha * gamma_m exactly (same
    quadrature, exact arithmetic) — the zero-mass condition for S(v).
    The log-sum-exp shifts by the largest log|K_i| + 2m v_i, so the
    weighted sum it takes the log of lies in [min w, sum w] and c_v is
    finite for every finite log|K| and v.  :func:`source_with_normalization`
    takes its c_v from the same arithmetic, bit for bit.
    """
    two_m = 2.0 * config.m
    _, top, total = _shifted_exponentials(log_K, v, two_m)
    return _cv(config._log_curvature_mass, top, total, two_m)


def source_with_normalization(
    v: RadialField,
    config: SolverConfig,
    log_K: RadialField,
    u0_density: RadialField,
) -> tuple[RadialField, float]:
    """S(v) = sign e^{log|K| + 2m(v + c_v)} + alpha (-Delta)^m u0
    (rescaled density), together with the c_v that produced it (they
    must be paired for the mass identity to hold exactly).

    The curvature term is formed from the log-sum-exp's own shifted
    exponentials e_i = exp(log|K_i| + 2m v_i - top): since
    e^{2m c_v} = (2m-1)! V / (e^top sum w e),

        S(v) = sign e ((2m-1)! V / sum w e) + alpha (-Delta)^m u0,

    one exponential per evaluation.  Zero discrete mass by construction:
    the K term integrates to +alpha*gamma_m through the normalization, the
    density term to -alpha*gamma_m through its rescaling, so the potential
    T v of S(v) decays at the tail.  For finite v every term is bounded,
    by (2m-1)! V over its quadrature weight, so S(v) is not re-checked for
    finiteness; a non-finite v gives a non-finite S(v).
    """
    log_K.grid.ensure_same(u0_density.grid)
    two_m = 2.0 * config.m
    values, top, total = _shifted_exponentials(log_K, v, two_m)
    values *= config.sign * config._curvature_mass / total
    values += config.alpha * u0_density.values
    return (
        RadialField._unchecked(v.grid, values),
        _cv(config._log_curvature_mass, top, total, two_m),
    )


# ----------------------------------------------------------------------
# the solve
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SolutionRecord:
    """Everything a solve produced.

    ``u`` reconstructs exactly as -alpha*u0 - P + v + c_v at every node.
    ``history`` holds per-iteration pairs (residual ||T v - v||_inf, c_v),
    one per evaluation of T, the closing image step included;
    ``final_update`` is the residual of the recorded ``v`` and
    ``history[-1] == (final_update, c_v)``.  A converged ``v`` is T of the
    previous entry's iterate (or v = 0 if T 0 already met ``tol``): one
    potential evaluation, paired with its own c_v, not an Anderson
    extrapolation.  The one exception is a mixed iterate that meets
    ``tol`` on iteration ``max_iter``: with no evaluation left for its
    image, it is recorded as it is, converged.
    ``log_K`` is log|K| (K = sign e^{log_K});
    ``u0`` holds the background's node values, shared by the grid's solves;
    ``failure_reason`` is None for converged runs and names the cause
    (max_iter or the divergence guard) otherwise.
    """

    config: SolverConfig
    grid: RadialGrid
    v: RadialField
    c_v: float
    u: RadialField
    log_K: RadialField
    u0_density: RadialField
    u0: RadialField
    alpha: float
    iterations: int
    history: tuple[tuple[float, float], ...]
    converged: bool
    final_update: float
    failure_reason: str | None = None


def _gram_solve(
    gram: list[list[float]], rhs: list[float]
) -> tuple[float, float, float] | None:
    """gamma with G gamma = rhs for a 3 x 3 Gram matrix G = ``gram``, in
    Python floats; None when the Jacobi-scaled matrix
    A = D^{-1/2} G D^{-1/2} (D = diag G, so diag A is 1 up to rounding) is
    singular or nearly so.

    A is factored as L diag(d) L^T, Cholesky without square roots; a pivot
    d_i that is not positive means A is not numerically positive definite.
    Otherwise G is kept when lambda_min(A) >= ``_GRAM_RCOND`` lambda_max(A),
    with both eigenvalues in closed form.  lambda_max comes from the
    trigonometric formula for a symmetric 3 x 3 matrix (Smith, Comm. ACM 4,
    1961).  The two smaller eigenvalues are the roots of x^2 - s x + P with
    s = tr A - lambda_max and P = det A / lambda_max, det A being the
    product of the pivots, and lambda_min is the smaller root
    2P / (s + sqrt(s^2 - 4P)).  Taking lambda_min from det A rather than
    from the trigonometric formula keeps its error near eps ||A||, as in a
    LAPACK eigensolver, also where the two smaller eigenvalues nearly
    coincide and arccos would lose half their digits.

    A history of k < 3 differences is passed padded with the identity and
    with zeros in ``rhs``: tr A = k puts lambda_min <= 1 <= lambda_max, so
    the padding's unit eigenvalues move neither extreme, and gamma's
    padded entries come out 0.
    """
    (g00, g01, g02), (_, g11, g12), (_, _, g22) = gram
    if not (g00 > 0 and g11 > 0 and g22 > 0):
        return None
    s0, s1, s2 = 1.0 / math.sqrt(g00), 1.0 / math.sqrt(g11), 1.0 / math.sqrt(g22)
    a00, a11, a22 = g00 * (s0 * s0), g11 * (s1 * s1), g22 * (s2 * s2)
    a01, a02, a12 = g01 * (s0 * s1), g02 * (s0 * s2), g12 * (s1 * s2)
    l10 = a01 / a00
    l20 = a02 / a00
    d1 = a11 - l10 * a01
    if not d1 > 0:
        return None
    c21 = a12 - l20 * a01
    l21 = c21 / d1
    d2 = a22 - l20 * a02 - l21 * c21
    if not d2 > 0:
        return None
    trace = a00 + a11 + a22
    q = trace / 3.0
    b00, b11, b22 = a00 - q, a11 - q, a22 - q
    p = math.sqrt(
        (b00 * b00 + b11 * b11 + b22 * b22 + 2.0 * (a01 * a01 + a02 * a02 + a12 * a12))
        / 6.0
    )
    lam_max = q
    if p > 0:
        det_b = (
            b00 * (b11 * b22 - a12 * a12)
            - a01 * (a01 * b22 - a12 * a02)
            + a02 * (a01 * a12 - b11 * a02)
        )
        # det(A - qI) / (2 p^3), divided step by step so p^3 cannot underflow.
        r = min(1.0, max(-1.0, det_b / (2.0 * p) / p / p))
        lam_max += 2.0 * p * math.cos(math.acos(r) / 3.0)
    s = trace - lam_max
    prod = a00 * d1 * d2 / lam_max
    denom = s + math.sqrt(max(s * s - 4.0 * prod, 0.0))
    if not (denom > 0 and 2.0 * prod / denom >= _GRAM_RCOND * lam_max):
        return None
    y0, y1, y2 = rhs[0] * s0, rhs[1] * s1, rhs[2] * s2
    z1 = y1 - l10 * y0
    x2 = (y2 - l20 * y0 - l21 * z1) / d2
    x1 = z1 / d1 - l21 * x2
    x0 = y0 / a00 - l10 * x1 - l20 * x2
    return x0 * s0, x1 * s1, x2 * s2


# The Gram matrix of an empty history, padded to order 3 (see _gram_solve).
_EMPTY_GRAM = np.eye(3)
_EMPTY_GRAM.flags.writeable = False


class _AndersonHistory:
    """The last ``_ANDERSON_DEPTH`` differences of f = T v - v and of
    g = T v between consecutive iterates, kept in place.

    ``d_f`` and ``d_g`` are ring buffers of rows; ``gram[:count, :count]``
    holds the dot products of the ``d_f`` rows, one row and column
    refreshed per push, and the rest of the 3 x 3 ``gram`` is the
    identity.  So the least-squares problem min ||f - d_f^T gamma||_2 is
    solved through its ``count`` x ``count`` normal equations instead of
    an (N+1) x ``count`` factorization, and those are scaled, tested and
    solved in Python floats by :func:`_gram_solve`: closed-form extreme
    eigenvalues and a Cholesky factorization, with no LAPACK call.  Row
    order does not matter: gamma weights each stored difference by its
    slot.
    """

    def __init__(self, size: int) -> None:
        self.d_f = np.empty((_ANDERSON_DEPTH, size))
        self.d_g = np.empty((_ANDERSON_DEPTH, size))
        self.gram = _EMPTY_GRAM.copy()
        self.count = 0
        self._next = 0
        self._f_prev = self._g_prev = None

    def push(self, f: np.ndarray, g: np.ndarray) -> None:
        """Store the differences to the previous (f, g), overwriting the
        oldest pair once the buffers are full; f and g are kept, not
        copied, so the caller must not modify them afterwards."""
        if self._f_prev is not None:
            slot = self._next
            np.subtract(f, self._f_prev, out=self.d_f[slot])
            np.subtract(g, self._g_prev, out=self.d_g[slot])
            self._next = (slot + 1) % _ANDERSON_DEPTH
            self.count = min(self.count + 1, _ANDERSON_DEPTH)
            row = self.d_f[: self.count] @ self.d_f[slot]
            self.gram[slot, : self.count] = row
            self.gram[: self.count, slot] = row
        self._f_prev, self._g_prev = f, g

    def restart(self) -> None:
        """Drop every stored difference; the next push starts afresh from
        the last (f, g)."""
        self.count = 0
        self._next = 0
        self.gram[...] = _EMPTY_GRAM

    def coefficients(self, f: np.ndarray) -> np.ndarray | None:
        """gamma = argmin ||f - d_f^T gamma||_2 from the normal equations
        scaled by the Gram diagonal (Jacobi, so their diagonal is 1 up to
        rounding), or None after restarting the history when they are
        singular or nearly so: a zero or repeated difference, or a
        history whose scaled Gram matrix has reciprocal condition
        lambda_min / lambda_max below ``_GRAM_RCOND``.  The normal
        equations square the condition of d_f, so such a history would
        give gamma dominated by rounding."""
        k = self.count
        if k == 0:
            return None
        rhs = (self.d_f[:k] @ f).tolist() + [0.0] * (3 - k)
        gamma = _gram_solve(self.gram.tolist(), rhs)
        if gamma is None:
            self.restart()
            return None
        return np.array(gamma[:k])

    def mix(self, f: np.ndarray, g: np.ndarray) -> np.ndarray:
        """The next iterate g - d_g^T gamma; the image g itself, not a
        copy, with no usable history."""
        gamma = self.coefficients(f)
        if gamma is None:
            return g
        return g - gamma @ self.d_g[: self.count]


def solve_continuation(config: SolverConfig) -> SolutionRecord:
    """Anderson-accelerated fixed-point iteration on v -> T v from v = 0.

    Each iteration evaluates g = T v and f = g - v.  The next iterate
    mixes the last ``_ANDERSON_DEPTH`` = 3 differences of f and of g,
    undamped (Walker & Ni 2011, Toth & Kelley 2015):

        v <- g - dG gamma,
        gamma = argmin ||f - dF gamma||_2,

    where gamma solves the Jacobi-scaled 3 x 3 normal equations on a
    running Gram matrix of the f-differences (:class:`_AndersonHistory`,
    in closed form by :func:`_gram_solve`).
    With no usable history, on the first step and whenever a singular or
    nearly singular system (a repeated or nearly collinear difference,
    reciprocal condition below ``_GRAM_RCOND`` = 1e-12) restarts it, the
    step is the plain image v <- g.

    The stop test is the residual ||f||_inf <= ``tol``.  When a mixed
    iterate meets it, the solve takes the plain step v <- T v
    and tests that iterate's own residual, so the recorded v is a single
    potential evaluation paired with its own c_v rather than an
    extrapolation that multiplies rounding by |gamma|; if the image
    misses ``tol``, iteration continues from it.  Every evaluation of T,
    the image step included, counts as one iteration; a mixed iterate
    that meets ``tol`` on iteration ``max_iter`` is kept as converged.

    Exhausting ``max_iter`` iterations and a residual above
    ``_DIVERGENCE_GUARD`` times the first residual both return a record
    with ``converged = False`` and the cause in ``failure_reason``,
    assembled from the last evaluated iterate.  The guard is relative
    because the first residual grows like V.

    The grid, kernel moments and u0 come from the config's shared
    discretization, the one :func:`build_grid` reads; the last
    ``_DISCRETIZATION_CACHE_SIZE`` = 8 are kept.  log|K| is built per
    config, and the potential's scratch arrays once per solve.
    """
    grid, kernel, u0_density, u0_vals = _discretization(config)
    p_vals = eval_radial_profile(config.radial_coeffs, grid.nodes)
    log_K = _curvature_factor(config, grid, p_vals, u0_vals)

    v_values = np.zeros_like(grid.nodes)
    workspace = potential_workspace(kernel)
    history: list[tuple[float, float]] = []
    anderson = _AndersonHistory(len(grid.nodes))
    mixed = False
    failure_reason = None
    for _ in range(config.max_iter):
        # RadialField's checks run once per iteration, on T v's field; a
        # non-finite iterate (possible only by overflow) still ends the
        # solve with GridMismatch, there or when the record is built.
        v_field = RadialField._unchecked(grid, v_values)
        source, cv = source_with_normalization(v_field, config, log_K, u0_density)
        g = potential_apply(kernel, source, workspace).values
        f = g - v_values
        residual = float(np.abs(f).max())
        history.append((residual, cv))
        v_kept = v_values
        # A mixed iterate that meets tol is followed by its image, unless
        # the cap leaves no evaluation for it.
        if residual <= config.tol and (
            not mixed or len(history) == config.max_iter
        ):
            break
        if not residual <= _DIVERGENCE_GUARD * history[0][0]:
            failure_reason = (
                f"residual {residual:.3e} exceeded the divergence guard "
                f"{_DIVERGENCE_GUARD:g} x the first residual "
                f"{history[0][0]:.3e} at iteration {len(history)}"
            )
            break
        anderson.push(f, g)
        mixed = residual > config.tol
        v_values = anderson.mix(f, g) if mixed else g
    else:
        failure_reason = (
            f"max_iter = {config.max_iter} exhausted "
            f"(last residual {history[-1][0]:.3e})"
        )
    residual, cv = history[-1]

    u_vals = -config.alpha * u0_vals - p_vals + v_kept + cv
    return SolutionRecord(
        config=config,
        grid=grid,
        v=RadialField(grid=grid, values=v_kept),
        c_v=cv,
        u=RadialField(grid=grid, values=u_vals),
        log_K=log_K,
        u0_density=u0_density,
        u0=RadialField(grid=grid, values=u0_vals),
        alpha=config.alpha,
        iterations=len(history),
        history=tuple(history),
        converged=failure_reason is None,
        final_update=residual,
        failure_reason=failure_reason,
    )
