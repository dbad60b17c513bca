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
by (2m-1)! V over its quadrature weight.

The fixed point is reached by undamped Anderson acceleration of depth 3
on v -> T v (Walker & Ni, SIAM J. Numer. Anal. 49, 2011; local
convergence for contractive maps: Toth & Kelley, SIAM J. Numer. Anal. 53,
2015), stopped on the residual ||T v - v||_inf.  The mixing coefficients
solve the 3 x 3 normal equations of a Gram matrix updated one row per
iteration, and a (nearly) singular Gram matrix restarts the history;
once a mixed iterate meets the tolerance, the solve takes the plain step
v <- T v and keeps that iterate if its own residual does, so a converged
record is one evaluation of T.  Divergence is judged relative to the
first residual, which grows like V.  Convergence is empirical;
non-convergence is a first-class reported outcome, never silent.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np

from .errors import ConfigError, DimensionMismatch, PolynomialFormatError
from .geometry import U0Profile, constants, eval_radial_profile, u0_eval
# Not called here: perfbench counts sampling-screen calls through
# qcurv.solver.pm_membership (now 0 per op).
from .poly import Polynomial, pm_membership  # noqa: F401
from .potential import (
    KernelMatrix,
    RadialField,
    RadialGrid,
    kernel_matrix,
    make_grid,
    potential_apply,
)

_DIVERGENCE_GUARD = 1e3
_ANDERSON_DEPTH = 3
# Smallest reciprocal condition of the scaled Gram matrix kept for gamma.
_GRAM_RCOND = 1e-12
_SCHEMA_VERSION = 2
# Grids whose discretization solve_continuation keeps for reuse.
_DISCRETIZATION_CACHE_SIZE = 8
# Schema-v1 keys that chose the iteration path rather than the problem;
# v1 files still load, with these dropped.
_V1_ITERATION_KEYS = frozenset({"theta", "t_schedule", "v_schedule"})


# ----------------------------------------------------------------------
# radial-polynomial helpers
# ----------------------------------------------------------------------
def radial_profile_coeffs(P: Polynomial) -> np.ndarray | None:
    """If P is a polynomial in |x|^2, return the coefficients c with
    P = sum_i c[i] |x|^{2i}; otherwise return None.

    The candidate coefficients are read off the pure first-axis terms
    (the coefficient of x_1^{2i} in sum c_i |x|^{2i} is c_i) and then
    verified by exact multinomial re-expansion against all stored terms.
    """
    if P.is_zero:
        return np.zeros(1)
    half_deg = P.degree() // 2
    cand = np.zeros(half_deg + 1)
    for exps, coef in P.terms:
        active = [(j, e) for j, e in enumerate(exps) if e > 0]
        if len(active) == 1 and active[0][0] == 0 and active[0][1] % 2 == 0:
            cand[active[0][1] // 2] = coef
        if not active:
            cand[0] = coef
    expanded: dict[tuple[int, ...], float] = {}
    for i, c in enumerate(cand):
        if c == 0.0:
            continue
        if i == 0:
            expanded[(0,) * P.dim] = expanded.get((0,) * P.dim, 0.0) + c
            continue
        for combo in combinations_with_replacement(range(P.dim), i):
            counts = [0] * P.dim
            for j in combo:
                counts[j] += 1
            weight = math.factorial(i)
            for cnt in counts:
                weight //= math.factorial(cnt)
            vec = tuple(2 * cnt for cnt in counts)
            expanded[vec] = expanded.get(vec, 0.0) + c * weight
    stored = dict(P.terms)
    scale = max((abs(c) for c in stored.values()), default=1.0)
    keys = set(expanded) | set(stored)
    for key in keys:
        if abs(expanded.get(key, 0.0) - stored.get(key, 0.0)) > 1e-12 * scale:
            return None
    return cand


def _radial_admissibility_violation(
    degree: int, coeffs: np.ndarray, m: int
) -> str | None:
    """Decide admissibility of a radial profile P of total degree ``degree``
    with P = sum_i c_i s^i, s = |x|^2, exactly; return the violated rule,
    or None if P is admissible.

    The degree bound deg P <= 2m - 2 is read off P itself, so that terms
    below the radial fit's tolerance still count.  x . grad P =
    sum_i 2 i c_i s^i is a polynomial in s, so with k the index of the last
    nonzero coefficient it tends to +infinity iff k >= 1 and c_k > 0.
    """
    if degree > 2 * m - 2:
        return f"degree {degree} exceeds the admissible bound 2m - 2 = {2 * m - 2}"
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
    """Validated description of one solve.

    ``volume`` is the prescribed conformal volume V; ``profile`` the
    asymptotic polynomial P (must be a function of |x|^2 and pass the
    admissibility screen); ``u0_profile`` defaults to the smooth-global
    background; ``tol`` bounds the fixed-point residual ||T v - v||_inf
    at which the solve stops; ``max_iter`` caps the total iterations.
    """

    m: int
    sign: int
    volume: float
    profile: Polynomial
    u0_profile: U0Profile | None = None
    r_max: float = 40.0
    n_intervals: int = 2048
    map_kind: str = "sinh-clustered"
    sinh_strength: float = 3.0
    tol: float = 1e-8
    max_iter: int = 600
    quad_order: int = 12

    def __post_init__(self) -> None:
        if (
            self.u0_profile is None
            and isinstance(self.m, int)
            and 1 <= self.m <= 6
        ):
            object.__setattr__(self, "u0_profile", U0Profile.smooth_global(self.m))

    @property
    def alpha(self) -> float:
        return self.sign * 2.0 * self.volume / constants(self.m).vol_sphere

    @functools.cached_property
    def radial_coeffs(self) -> np.ndarray | None:
        """:func:`radial_profile_coeffs` of ``profile``, read-only and
        computed once per config."""
        coeffs = radial_profile_coeffs(self.profile)
        if coeffs is not None:
            coeffs.flags.writeable = False
        return coeffs

    def validate(self) -> None:
        """Raise ConfigError naming the violated rule, or return None."""
        if self.m == 1:
            raise ConfigError(
                "m = 1 is not solvable: the admissible class is empty, "
                "since deg P <= 2m - 2 = 0 forces P constant and then "
                "x . grad P vanishes identically instead of growing"
            )
        if not isinstance(self.m, int) or self.m < 2 or self.m > 6:
            raise ConfigError(f"m must be an integer in 2..6, got {self.m}")
        if self.sign not in (1, -1):
            raise ConfigError(f"sign must be +1 or -1, got {self.sign}")
        cs = constants(self.m)
        if not self.volume > 0:
            raise ConfigError(f"volume must be positive, got {self.volume}")
        if self.sign == 1 and self.volume >= cs.vol_sphere:
            raise ConfigError(
                "sign = +1 requires V ∈ (0, vol(S^{2m})) = "
                f"(0, {cs.vol_sphere:.6g}); got V = {self.volume:.6g}"
            )
        if self.profile.dim != 2 * self.m:
            raise ConfigError(
                f"profile has dim {self.profile.dim}, expected {2 * self.m}"
            )
        coeffs = self.radial_coeffs
        if coeffs is None:
            raise ConfigError(
                "profile must be radial (a polynomial in |x|^2) for the "
                "one-dimensional solver"
            )
        rule = _radial_admissibility_violation(
            self.profile.degree(), coeffs, self.m
        )
        if rule is not None:
            raise ConfigError(f"profile rejected by the admissibility screen: {rule}")
        if self.u0_profile is None:
            raise ConfigError(f"no u0 profile could be built for m = {self.m}")
        if self.u0_profile.m != self.m:
            raise ConfigError(
                f"u0 profile was built for m = {self.u0_profile.m}, config has m = {self.m}"
            )
        if not self.tol > 0:
            raise ConfigError(f"tol must be positive, got {self.tol}")
        if self.max_iter < 1:
            raise ConfigError(f"max_iter must be >= 1, got {self.max_iter}")
        if not self.r_max > 1:
            raise ConfigError(f"r_max must exceed 1, got {self.r_max}")
        if self.n_intervals < 64:
            raise ConfigError(f"n_intervals must be >= 64, got {self.n_intervals}")
        if self.map_kind not in ("uniform", "sinh-clustered"):
            raise ConfigError(f"unknown map_kind {self.map_kind!r}")
        if self.quad_order < 4:
            raise ConfigError(f"quad_order must be >= 4, got {self.quad_order}")

    # ------------------------------------------------------------------
    def to_json_dict(self) -> dict:
        data = {"schema_version": _SCHEMA_VERSION}
        for f in dataclasses.fields(self):
            data[f.name] = getattr(self, f.name)
        data["profile"] = self.profile.to_json_dict()
        data["u0_profile"] = self.u0_profile.kind
        return data

    @classmethod
    def from_json_dict(cls, data: dict) -> "SolverConfig":
        """Load a schema-v2 dict, or a v1 dict with its iteration-path keys
        dropped; the known keys and defaults are the dataclass fields."""
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
        version = data.get("schema_version")
        if version not in (1, _SCHEMA_VERSION):
            raise ConfigError(
                f"schema_version must be 1 or {_SCHEMA_VERSION}, got {version!r}"
            )
        fields = {f.name: f for f in dataclasses.fields(cls)}
        known = set(fields) | {"schema_version"}
        if version == 1:
            known |= _V1_ITERATION_KEYS
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        values = {}
        for name, f in fields.items():
            if name in data:
                values[name] = data[name]
            elif f.default is dataclasses.MISSING:
                raise ConfigError(f"config is missing the {name!r} key")
        for name, value in values.items():
            convert = {"int": int, "float": float}.get(fields[name].type)
            if convert is not None:
                try:
                    values[name] = convert(value)
                except (TypeError, ValueError):
                    raise ConfigError(
                        f"{name} must be of type {fields[name].type}, got {value!r}"
                    ) from None
        m = values["m"]
        try:
            if isinstance(values["profile"], str):
                values["profile"] = Polynomial.from_text(values["profile"], dim=2 * m)
            else:
                values["profile"] = Polynomial.from_json_dict(values["profile"])
        except (PolynomialFormatError, DimensionMismatch) as exc:
            raise ConfigError(f"profile: {exc}") from exc
        u0_kind = values.get("u0_profile", "smooth-global")
        build_u0 = {
            "smooth-global": U0Profile.smooth_global,
            "compact-blend": U0Profile.compact_blend,
        }.get(u0_kind)
        if build_u0 is None:
            raise ConfigError(f"unknown u0_profile {u0_kind!r}")
        if not 1 <= m <= 6:
            raise ConfigError(f"m must be in 1..6 to build u0, got {m}")
        values["u0_profile"] = build_u0(m)
        cfg = cls(**values)
        cfg.validate()
        return cfg


# ----------------------------------------------------------------------
# pieces of the fixed-point map
# ----------------------------------------------------------------------
def build_grid(config: SolverConfig) -> RadialGrid:
    return make_grid(
        config.m,
        config.r_max,
        config.n_intervals,
        config.map_kind,
        config.sinh_strength,
    )


def u0_density_field(profile: U0Profile, grid: RadialGrid) -> RadialField:
    """The polyharmonic density of u0 on the grid, rescaled so its
    discrete mass is exactly -gamma_m.

    The analytic mass is -gamma_m; truncation at R_max and quadrature
    leave a relative defect ~1e-6 that would otherwise reappear as a
    spurious log drift in the potential's tail, so the rescaling pins the
    discrete mass instead.
    """
    cs = constants(grid.m)
    _, dens = u0_eval(profile, grid.nodes)
    mass = float(grid.quad_weights @ dens)
    if mass >= 0:
        raise ConfigError("u0 density has nonnegative discrete mass")
    return RadialField(grid=grid, values=dens * (-cs.gamma_m / mass))


@functools.lru_cache(maxsize=_DISCRETIZATION_CACHE_SIZE, typed=True)
def _discretization(
    m: int,
    r_max: float,
    n_intervals: int,
    map_kind: str,
    sinh_strength: float,
    quad_order: int,
    u0_profile: U0Profile,
) -> tuple[RadialGrid, KernelMatrix, RadialField, np.ndarray]:
    """The grid, its kernel moments, the u0 density and the u0 node values,
    shared read-only by every solve on the same grid.  Nothing here depends
    on V, the sign or P."""
    grid = make_grid(m, r_max, n_intervals, map_kind, sinh_strength)
    kernel = kernel_matrix(grid, quad_order)
    u0_density = u0_density_field(u0_profile, grid)
    u0_vals, _ = u0_eval(u0_profile, grid.nodes)
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
    tail value |K_N| w_N is below 1e-12 of max|K|."""
    config.validate()
    p_vals = eval_radial_profile(config.radial_coeffs, grid.nodes)
    u0_vals, _ = u0_eval(config.u0_profile, grid.nodes)
    return _curvature_factor(config, grid, p_vals, u0_vals)


def normalization_cv(
    log_K: RadialField, v: RadialField, config: SolverConfig
) -> float:
    """c_v = (log((2m-1)! V) - LSE_i(log w_i + log|K_i| + 2m v_i)) / 2m.

    With this constant the discrete curvature integral
    sum w_i K_i e^{2m(v_i + c_v)} equals alpha * gamma_m exactly (same
    quadrature, exact arithmetic) — the zero-mass condition for S(v).
    The log-sum-exp shifts by the largest log|K_i| + 2m v_i, so the
    weighted sum it takes the log of lies in [min w, sum w] and c_v is
    finite for every finite log|K| and v.
    """
    log_K.grid.ensure_same(v.grid)
    cs = constants(config.m)
    two_m = 2.0 * config.m
    exponent = two_m * v.values
    exponent += log_K.values
    top = float(exponent.max())
    exponent -= top
    np.exp(exponent, out=exponent)
    log_integral = top + math.log(float(log_K.grid.quad_weights @ exponent))
    return (math.log(cs.factorial_2m_minus_1 * config.volume) - log_integral) / two_m


def source_with_normalization(
    v: RadialField,
    config: SolverConfig,
    log_K: RadialField,
    u0_density: RadialField,
) -> tuple[RadialField, float]:
    """S(v) = sign e^{log|K| + 2m(v + c_v)} + alpha (-Delta)^m u0
    (rescaled density), together with the c_v that produced it (they
    must be paired for the mass identity to hold exactly).

    Zero discrete mass by construction: the K term integrates to
    +alpha*gamma_m through the c_v normalization, the density term to
    -alpha*gamma_m through its rescaling, so the potential T v of S(v)
    decays at the tail.  For finite v every term is bounded, by
    (2m-1)! V over its quadrature weight, so S(v) is not re-checked for
    finiteness; a non-finite v gives a non-finite S(v).
    """
    log_K.grid.ensure_same(v.grid)
    log_K.grid.ensure_same(u0_density.grid)
    cv = normalization_cv(log_K, v, config)
    values = v.values + cv
    values *= 2.0 * config.m
    values += log_K.values
    np.exp(values, out=values)
    values *= config.sign
    values += config.alpha * u0_density.values
    return RadialField._unchecked(v.grid, values), cv


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
    alpha: float
    iterations: int
    history: tuple[tuple[float, float], ...]
    converged: bool
    final_update: float
    failure_reason: str | None = None


class _AndersonHistory:
    """The last ``_ANDERSON_DEPTH`` differences of f = T v - v and of
    g = T v between consecutive iterates, kept in place.

    ``d_f`` and ``d_g`` are ring buffers of rows; ``gram`` holds the dot
    products of the ``d_f`` rows, one row and column refreshed per push,
    so the least-squares problem min ||f - d_f^T gamma||_2 is solved
    through its ``count`` x ``count`` normal equations instead of an
    (N+1) x ``count`` factorization.  Row order does not matter: gamma
    weights each stored difference by its slot.
    """

    def __init__(self, size: int) -> None:
        self.d_f = np.empty((_ANDERSON_DEPTH, size))
        self.d_g = np.empty((_ANDERSON_DEPTH, size))
        self.gram = np.empty((_ANDERSON_DEPTH, _ANDERSON_DEPTH))
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

    def coefficients(self, f: np.ndarray) -> np.ndarray | None:
        """gamma = argmin ||f - d_f^T gamma||_2 from the normal equations
        scaled by the Gram diagonal (Jacobi, so their diagonal is 1 up to
        rounding), or None after restarting the history when they are
        singular or nearly so: a zero or repeated difference, or a
        history whose scaled Gram matrix has reciprocal condition below
        ``_GRAM_RCOND``.  The normal equations square the condition of
        d_f, so such a history would give gamma dominated by rounding."""
        k = self.count
        if k == 0:
            return None
        gram = self.gram[:k, :k]
        diag = gram.diagonal()
        if not diag.min() > 0:
            self.restart()
            return None
        scale = 1.0 / np.sqrt(diag)
        scaled = gram * np.outer(scale, scale)
        try:
            eig = np.linalg.eigvalsh(scaled)
            gamma = None
            if eig[0] >= _GRAM_RCOND * eig[-1]:
                gamma = np.linalg.solve(scaled, (self.d_f[:k] @ f) * scale)
        except np.linalg.LinAlgError:
            gamma = None
        if gamma is None:
            self.restart()
            return None
        gamma *= scale
        return gamma

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
    running Gram matrix of the f-differences (:class:`_AndersonHistory`).
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

    Solves on the same grid share its discretization: the grid, the
    kernel moments, the u0 density and the u0 node values depend only on
    (m, r_max, n_intervals, map_kind, sinh_strength, quad_order,
    u0_profile), not on V, the sign or P, and are built once per such key.
    The last ``_DISCRETIZATION_CACHE_SIZE`` = 8 keys are kept, read-only,
    at most about 2.6 MB each (m = 6, N = 8192).  log|K| is built per
    config.
    """
    config.validate()
    grid, kernel, u0_density, u0_vals = _discretization(
        config.m,
        config.r_max,
        config.n_intervals,
        config.map_kind,
        config.sinh_strength,
        config.quad_order,
        config.u0_profile,
    )
    p_vals = eval_radial_profile(config.radial_coeffs, grid.nodes)
    log_K = _curvature_factor(config, grid, p_vals, u0_vals)
    cs = constants(config.m)

    v_values = np.zeros_like(grid.nodes)
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
        g = potential_apply(kernel, source, cs).values
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
        alpha=config.alpha,
        iterations=len(history),
        history=tuple(history),
        converged=failure_reason is None,
        final_update=residual,
        failure_reason=failure_reason,
    )
