"""Constructive solver for prescribed-volume conformal metrics.

The target equation on R^{2m} is

    (-Delta)^m u = sign * (2m-1)! * e^{2mu},
    V = integral e^{2mu} dx  prescribed,
    u(x) = -alpha log|x| - P(x) + C + o(1),   alpha = sign * 2V / vol(S^{2m}).

Writing u = -alpha u0 - P + v + c_v, with u0 = (1/2) log(1 + r^2) the
background profile (:func:`u0_eval`), turns it into a fixed-point problem
for the correction v:

    v = T v,      T v = potential of  S(v),
    S(v) = sign e^{log|K| + 2m (v + c_v)} + alpha (-Delta)^m u0,
    log|K| = log (2m-1)! - 2m P - 2m alpha u0,

where c_v, computed with S(v) by :func:`source_with_normalization`, makes the
curvature integral match the prescribed volume, which is exactly the
condition that S(v) has zero discrete mass, so its potential decays.
T is :meth:`Problem.apply`, on arrays of node values: :func:`build_problem`
fixes a config's grid, kernel and log|K| and the terms that every
evaluation reuses, and each evaluation is one call of
:func:`source_with_normalization` and one of
:func:`~qcurv.potential.potential_apply`.
u0 (:func:`u0_eval`) and P's node values (:func:`eval_radial_profile`)
are built here; no finite difference enters T (they are the checks', in
:mod:`qcurv.diagnostics`).
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
The loop wraps no array in a field: the record's fields are checked once,
when it is built.  Convergence is empirical; non-convergence is a
first-class reported outcome, never silent.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionMismatch, GridMismatch, PolynomialFormatError
# pm_membership is not called here: perfbench counts sampling-screen calls
# through qcurv.solver.pm_membership (now 0 per op).
from .poly import (  # noqa: F401
    Polynomial,
    degree_bound_violation,
    json_number,
    pm_membership,
    radial_admissibility_violation,
    radial_profile_coeffs,
)
from .potential import (
    KernelMatrix,
    RadialField,
    RadialGrid,
    check_grid_parameters,
    constants,
    kernel_matrix,
    make_grid,
    potential_apply,
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
# Grids whose discretization (_build_discretization) is kept for reuse.  An
# entry holds the grid, its KernelMatrix and two node fields: (4m + 5)(N + 1)
# floats, 243 MB at m = 6 and N = 2**20 (the kernel alone 210 MB), so eight
# entries at that size hold 1.9 GB.
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
    def radial_coeffs(self) -> np.ndarray | None:
        """:func:`radial_profile_coeffs` of ``profile``, read-only and
        computed once per config."""
        coeffs = radial_profile_coeffs(self.profile)
        if coeffs is not None:
            coeffs.flags.writeable = False
        return coeffs

    def __post_init__(self) -> None:
        self.validate()

    @staticmethod
    def _check_m(m: int) -> None:
        """Raise ConfigError unless the int ``m`` is in 2..6; m = 1 with
        the reason it is refused."""
        if m == 1:
            raise ConfigError(
                "m = 1 is not solvable: the admissible class is empty, "
                "since deg P <= 2m - 2 = 0 forces P constant and then "
                "x . grad P vanishes identically instead of growing"
            )
        if m < 2 or m > 6:
            raise ConfigError(f"m must be an integer in 2..6, got {m}")

    def validate(self) -> None:
        """Raise ConfigError naming the violated rule, or return None.

        Types come first: an ``int`` field holds an int and a ``float``
        field an int or float, and neither holds a bool."""
        for f in dataclasses.fields(self):
            kinds = {"int": int, "float": (int, float)}.get(f.type)
            value = getattr(self, f.name)
            if kinds and (isinstance(value, bool) or not isinstance(value, kinds)):
                raise ConfigError(f"{f.name} must be of type {f.type}, got {value!r}")
        self._check_m(self.m)
        if self.sign not in (1, -1):
            raise ConfigError(f"sign must be +1 or -1, got {self.sign}")
        cs = constants(self.m)
        if not 0 < self.volume < math.inf:
            raise ConfigError(f"volume must be positive and finite, got {self.volume}")
        if not (math.isfinite(self.alpha) and math.isfinite(self._curvature_mass)):
            raise ConfigError(f"volume {self.volume:g} overflows alpha or (2m-1)! V")
        if self.sign == 1 and self.volume >= cs.vol_sphere:
            raise ConfigError(
                "sign = +1 requires V ∈ (0, vol(S^{2m})) = "
                f"(0, {cs.vol_sphere:.6g}); got V = {self.volume:.6g}"
            )
        if self.profile.dim != 2 * self.m:
            raise ConfigError(
                f"profile has dim {self.profile.dim}, expected {2 * self.m}"
            )
        # The degree bound comes before the radial re-expansion, whose
        # cost grows combinatorially with the degree.
        rule = degree_bound_violation(self.profile, self.m)
        if rule is None:
            if self.radial_coeffs is None:
                raise ConfigError(
                    "profile must be radial (a polynomial in |x|^2) for the "
                    "one-dimensional solver"
                )
            rule = radial_admissibility_violation(self.radial_coeffs)
        if rule is not None:
            raise ConfigError(f"profile rejected by the admissibility screen: {rule}")
        if not 0 < self.tol < math.inf:
            raise ConfigError(f"tol must be positive and finite, got {self.tol}")
        if self.max_iter < 1:
            raise ConfigError(f"max_iter must be >= 1, got {self.max_iter}")
        try:
            check_grid_parameters(
                self.m, self.r_max, self.n_intervals, self.sinh_strength
            )
        except GridMismatch as exc:
            raise ConfigError(f"cannot build the grid: {exc}") from exc

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
        # A text profile is parsed in dimension 2m, so m's rule comes first.
        m = values["m"]
        cls._check_m(m)
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
def eval_radial_profile(coeffs, r) -> np.ndarray:
    """sum_i coeffs[i] r^{2i}, by Horner's rule in r^2."""
    rr = np.asarray(r, dtype=float)
    return np.polynomial.polynomial.polyval(rr * rr, coeffs)


def u0_eval(m: int, r):
    """Value and polyharmonic density of the background profile
    u0 = (1/2) log(1 + r^2), which is smooth and equals log r + o(1) at
    infinity.

    Returns ``(u0(r), ((-Delta)^m u0)(r))``, vectorized over ``r``; the
    density -(1/2)(2m-1)! (2/(1+r^2))^{2m} has total mass exactly -gamma_m,
    the Green constant of (-Delta)^m log(1/|x|)
    (:func:`~qcurv.potential.constants`).
    """
    factorial = constants(m).factorial_2m_minus_1
    rr = np.asarray(r, dtype=float)
    if np.any(rr < 0):
        raise DimensionMismatch("radius must be nonnegative")
    value = 0.5 * np.log1p(rr * rr)
    density = (
        -0.5
        * factorial
        * (2.0 / (1.0 + rr * rr)) ** (2 * m)
    )
    if np.isscalar(r):
        return float(value), float(density)
    return value, density


def u0_density_field(
    grid: RadialGrid, density: np.ndarray | None = None
) -> RadialField:
    """The polyharmonic density of u0 = (1/2) log(1 + r^2) on the grid,
    rescaled so its discrete mass is exactly -gamma_m; ``density`` is
    :func:`u0_eval`'s density at the grid's nodes, for a
    caller that already holds it.

    The analytic mass is -gamma_m; truncation at R_max and quadrature
    leave a relative defect that is O(h^2) in the grid spacing (on
    r_max = 40 grids at N = 512 / 2048 / 8192: 6e-4 / 4e-5 / 1e-6 at
    m = 2, 7e-3 / 4e-4 / 3e-5 at m = 6).  It would otherwise reappear as
    a spurious log drift in the potential's tail, so the rescaling pins
    the discrete mass instead.  The density is negative at every node
    and the weights are positive, so the rescaling factor is always
    positive.
    """
    cs = constants(grid.m)
    if density is None:
        _, density = u0_eval(grid.m, grid.nodes)
    mass = float(grid.quad_weights @ density)
    return RadialField(grid=grid, values=density * (-cs.gamma_m / mass))


@dataclass(frozen=True)
class Problem:
    """One config's problem and its fixed-point map v -> T v, built only by
    :func:`build_problem` from ``config``.  The grid, kernel, u0's rescaled
    density and u0 depend only on (m, r_max, n_intervals, sinh_strength),
    so configs with the same key share them, read-only.  ``p`` is P at the
    nodes and ``log_K`` is log|K| = log (2m-1)! - 2m P - 2m alpha u0, so
    K = sign e^{log_K}.  What T reuses in every evaluation is held here
    once, read-only: ``background`` is alpha times u0's rescaled density,
    and ``two_m``, ``log_mass`` and ``signed_mass`` are 2m,
    log((2m-1)! V) and sign (2m-1)! V."""

    config: SolverConfig
    grid: RadialGrid
    kernel: KernelMatrix
    u0_density: RadialField
    u0: RadialField
    p: np.ndarray
    log_K: RadialField
    background: np.ndarray
    two_m: float
    log_mass: float
    signed_mass: float

    def apply(self, v: np.ndarray) -> tuple[np.ndarray, float]:
        """(T v, c_v) for the node values ``v``: the potential of S(v), a
        new array, and the c_v paired with S(v), through one call each of
        :func:`source_with_normalization` and
        :func:`~qcurv.potential.potential_apply`.  Raises GridMismatch
        when ``v`` does not have the grid's shape."""
        source, cv = source_with_normalization(self, v)
        return potential_apply(self.kernel, source), cv


def build_problem(config: SolverConfig) -> Problem:
    """The config's problem: the one place a config becomes a grid, a
    kernel, u0 and log|K|.  Raises ConfigError when no grid can be built,
    when P or log|K| overflows at a node, or when the weighted tail value
    |K_N| w_N is not below 1e-12 of max|K|."""
    grid, kernel, u0_density, u0 = _build_discretization(
        config.m, config.r_max, config.n_intervals, config.sinh_strength
    )
    try:
        with np.errstate(over="raise", invalid="raise"):
            p_vals = eval_radial_profile(config.radial_coeffs, grid.nodes)
            log_k = math.log(
                constants(config.m).factorial_2m_minus_1
            ) - 2.0 * config.m * (p_vals + config.alpha * u0.values)
    except FloatingPointError as exc:
        raise ConfigError(
            "log|K| is not finite on this grid (P or alpha u0 overflows "
            f"before r_max = {config.r_max:g}); lower r_max"
        ) from exc
    log_tail = log_k[-1] + math.log(grid.quad_weights[-1])
    log_peak = float(np.max(log_k))
    if not log_tail < math.log(1e-12) + log_peak:
        raise ConfigError(
            "curvature kernel tail is not negligible at r_max (weighted "
            f"tail e^{log_tail - log_peak:.3f} of max|K|); enlarge r_max"
        )
    background = config.alpha * u0_density.values
    for arr in (p_vals, background):
        arr.flags.writeable = False
    mass = config._curvature_mass
    return Problem(
        config, grid, kernel, u0_density, u0, p_vals, RadialField(grid, log_k),
        background, 2.0 * config.m, math.log(mass), config.sign * mass,
    )


@functools.lru_cache(maxsize=_DISCRETIZATION_CACHE_SIZE, typed=True)
def _build_discretization(
    m: int, r_max: float, n_intervals: int, sinh_strength: float
) -> tuple[RadialGrid, KernelMatrix, RadialField, RadialField]:
    try:
        grid = make_grid(m, r_max, n_intervals, sinh_strength=sinh_strength)
    except GridMismatch as exc:
        raise ConfigError(f"cannot build the grid: {exc}") from exc
    kernel = kernel_matrix(grid)
    u0_vals, density = u0_eval(m, grid.nodes)
    return grid, kernel, u0_density_field(grid, density), RadialField(grid, u0_vals)


def source_with_normalization(
    problem: Problem, v: np.ndarray
) -> tuple[np.ndarray, float]:
    """S(v) = sign e^{log|K| + 2m(v + c_v)} + alpha (-Delta)^m u0
    (rescaled density) for the node values ``v`` of the problem's grid,
    as a new array, together with the c_v that produced it (they must be
    paired for the mass identity to hold exactly); the one place c_v is
    computed.  Raises GridMismatch when ``v`` does not have the grid's
    shape.

        c_v = (log((2m-1)! V) - LSE_i(log w_i + log|K_i| + 2m v_i)) / 2m

    makes the discrete curvature integral sum w_i K_i e^{2m(v_i + c_v)}
    equal alpha * gamma_m exactly (same quadrature, exact arithmetic).
    The log-sum-exp shifts by top, the largest log|K_i| + 2m v_i, so the
    weighted sum of the shifted exponentials
    e_i = exp(log|K_i| + 2m v_i - top) lies in [min w, sum w] and c_v is
    finite for every finite log|K| and v.  Since
    e^{2m c_v} = (2m-1)! V / (e^top sum w e),

        S(v) = sign e ((2m-1)! V / sum w e) + alpha (-Delta)^m u0,

    one exponential per evaluation.  Zero discrete mass by construction:
    the K term integrates to +alpha*gamma_m through the normalization, the
    density term to -alpha*gamma_m through its rescaling, so the potential
    T v of S(v) decays at the tail.  For finite v every term is bounded,
    by (2m-1)! V over its quadrature weight, so S(v) is not checked for
    finiteness; a non-finite v gives a non-finite S(v).
    """
    if v.shape != problem.background.shape:
        raise GridMismatch(
            f"v has shape {v.shape}, the problem's grid {problem.background.shape}"
        )
    two_m = problem.two_m
    values = two_m * v
    values += problem.log_K.values
    top = float(values.max())
    values -= top
    np.exp(values, out=values)
    total = float(problem.grid.quad_weights @ values)
    cv = (problem.log_mass - (top + math.log(total))) / two_m
    values *= problem.signed_mass / total
    values += problem.background
    return values, cv


# ----------------------------------------------------------------------
# the solve
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SolutionRecord:
    """Everything a solve produced, built only by :func:`solve_continuation`.
    ``grid``, ``alpha``, ``c_v``, ``final_update``, ``iterations`` and
    ``converged`` are read-only properties derived from the fields.

    ``u`` reconstructs exactly as -alpha*u0 - P + v + c_v at every node.
    ``history`` holds per-iteration pairs (residual ||T v - v||_inf, c_v),
    one per evaluation of T, the closing image step included; the last
    pair, (``final_update``, ``c_v``), is the recorded ``v``'s.  A
    converged ``v`` is T of the previous entry's iterate (or v = 0 if
    T 0 already met ``tol``): one potential evaluation, paired with its
    own c_v, not an Anderson extrapolation.  The one exception is a mixed
    iterate that meets ``tol`` on iteration ``max_iter``: with no
    evaluation left for its image, it is recorded as it is, converged.
    ``log_K`` is log|K| (K = sign e^{log_K}); ``u0_density`` the source's
    rescaled u0 density; ``u0`` the background's node values, shared by
    the grid's solves; ``failure_reason`` is None for converged runs and
    names the cause (max_iter or the divergence guard) otherwise.
    """

    config: SolverConfig
    v: RadialField
    u: RadialField
    log_K: RadialField
    u0_density: RadialField
    u0: RadialField
    history: tuple[tuple[float, float], ...]
    failure_reason: str | None

    @property
    def grid(self) -> RadialGrid:
        return self.v.grid

    @property
    def alpha(self) -> float:
        return self.config.alpha

    @property
    def c_v(self) -> float:
        return self.history[-1][1]

    @property
    def final_update(self) -> float:
        return self.history[-1][0]

    @property
    def iterations(self) -> int:
        return len(self.history)

    @property
    def converged(self) -> bool:
        return self.failure_reason is None


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


def _identity_gram() -> list[list[float]]:
    """The Gram matrix of an empty history, padded to order 3 (see
    :func:`_gram_solve`)."""
    return [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]


class _AndersonHistory:
    """The last ``_ANDERSON_DEPTH`` differences of f = T v - v and of
    g = T v between consecutive iterates, kept in place.

    ``d_f`` and ``d_g`` are ring buffers of rows; ``gram``, a 3 x 3 list
    of rows of Python floats, holds the dot products of the first
    ``count`` ``d_f`` rows in its leading ``count`` x ``count`` block, one
    row and column refreshed per push, and the identity elsewhere.  So
    the least-squares problem min ||f - d_f^T gamma||_2 is solved through
    its ``count`` x ``count`` normal equations instead of an
    (N+1) x ``count`` factorization, and those are scaled, tested and
    solved in Python floats by :func:`_gram_solve`: closed-form extreme
    eigenvalues and a Cholesky factorization, with no LAPACK call.  Row
    order does not matter: gamma weights each stored difference by its
    slot.
    """

    def __init__(self, size: int) -> None:
        self.d_f = np.empty((_ANDERSON_DEPTH, size))
        self.d_g = np.empty((_ANDERSON_DEPTH, size))
        self.gram = _identity_gram()
        self.count = 0
        self._next = 0
        self._f_prev = self._g_prev = None

    def push(self, f: np.ndarray, g: np.ndarray) -> None:
        """Store the differences to the previous (f, g), overwriting the
        oldest pair once the buffers are full; f and g are kept, not
        copied, so the caller must not modify them afterwards."""
        if self._f_prev is not None:
            slot = self._next
            d_f_slot = self.d_f[slot]
            np.subtract(f, self._f_prev, out=d_f_slot)
            np.subtract(g, self._g_prev, out=self.d_g[slot])
            self._next = (slot + 1) % _ANDERSON_DEPTH
            count = self.count = min(self.count + 1, _ANDERSON_DEPTH)
            gram = self.gram
            for i, dot in enumerate((self.d_f[:count] @ d_f_slot).tolist()):
                gram[slot][i] = gram[i][slot] = dot
        self._f_prev, self._g_prev = f, g

    def restart(self) -> None:
        """Drop every stored difference; the next push starts afresh from
        the last (f, g)."""
        self.count = 0
        self._next = 0
        self.gram = _identity_gram()

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
        gamma = _gram_solve(self.gram, rhs)
        if gamma is None:
            self.restart()
            return None
        return np.array(gamma[:k])

    def mix(self, f: np.ndarray, g: np.ndarray) -> np.ndarray:
        """The next iterate g - d_g^T gamma, a new array; the image g
        itself, not a copy, with no usable history."""
        gamma = self.coefficients(f)
        if gamma is None:
            return g
        step = gamma @ self.d_g[: self.count]
        return np.subtract(g, step, out=step)


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

    T is the config's map :meth:`Problem.apply` (:func:`build_problem`),
    evaluated on node arrays.  A non-finite T v raises GridMismatch.  f is
    finite exactly where T v and v both are, so T v is tested on its own
    only when the residual is not finite; a non-finite v that leaves T v
    finite is refused when the record is built.
    """
    problem = build_problem(config)
    apply, tol, max_iter = problem.apply, config.tol, config.max_iter
    v = np.zeros_like(problem.grid.nodes)
    history: list[tuple[float, float]] = []
    anderson = _AndersonHistory(len(v))
    mixed = False
    failure_reason = None
    for _ in range(max_iter):
        g, cv = apply(v)
        f = g - v
        residual = float(np.abs(f).max())
        # A finite residual implies a finite T v (see the docstring).
        if not math.isfinite(residual) and not np.isfinite(g).all():
            raise GridMismatch("T v is not finite: field values must be finite")
        history.append((residual, cv))
        v_kept = v
        # A mixed iterate that meets tol is followed by its image, unless
        # the cap leaves no evaluation for it.
        if residual <= tol and (not mixed or len(history) == max_iter):
            break
        if not residual <= _DIVERGENCE_GUARD * history[0][0]:
            failure_reason = (
                f"residual {residual:.3e} exceeded the divergence guard "
                f"{_DIVERGENCE_GUARD:g} x the first residual "
                f"{history[0][0]:.3e} at iteration {len(history)}"
            )
            break
        anderson.push(f, g)
        mixed = residual > tol
        v = anderson.mix(f, g) if mixed else g
    else:
        failure_reason = (
            f"max_iter = {max_iter} exhausted "
            f"(last residual {history[-1][0]:.3e})"
        )
    grid = problem.grid
    u_vals = -config.alpha * problem.u0.values - problem.p + v_kept + history[-1][1]
    return SolutionRecord(
        config=config,
        v=RadialField(grid=grid, values=v_kept),
        u=RadialField(grid=grid, values=u_vals),
        log_K=problem.log_K,
        u0_density=problem.u0_density,
        u0=problem.u0,
        history=tuple(history),
        failure_reason=failure_reason,
    )
