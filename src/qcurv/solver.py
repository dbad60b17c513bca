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

The fixed point is reached by Anderson-accelerated iteration on v -> T v
(Walker & Ni, SIAM J. Numer. Anal. 49, 2011), stopped on the undamped
residual ||T v - v||_inf.  Convergence is empirical; non-convergence is a
first-class reported outcome, never silent.
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
_ANDERSON_DEPTH = 6
_ANDERSON_MIX = 0.5
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
    exponent = log_K.values + two_m * v.values
    top = float(np.max(exponent))
    log_integral = top + math.log(
        float(log_K.grid.quad_weights @ np.exp(exponent - top))
    )
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
    decays at the tail.
    """
    log_K.grid.ensure_same(v.grid)
    log_K.grid.ensure_same(u0_density.grid)
    cv = normalization_cv(log_K, v, config)
    values = config.sign * np.exp(log_K.values + 2.0 * config.m * (v.values + cv))
    values = values + config.alpha * u0_density.values
    return RadialField(grid=v.grid, values=values), cv


# ----------------------------------------------------------------------
# the solve
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SolutionRecord:
    """Everything a solve produced.

    ``u`` reconstructs exactly as -alpha*u0 - P + v + c_v at every node.
    ``history`` holds per-iteration pairs (residual ||T v - v||_inf, c_v);
    ``final_update`` is the residual of the recorded ``v``;
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


def solve_continuation(config: SolverConfig) -> SolutionRecord:
    """Anderson-accelerated fixed-point iteration on v -> T v from v = 0.

    Each iteration evaluates f = T v - v and stops once the undamped
    residual ||f||_inf is at most ``tol``; the record keeps that iterate.
    Otherwise the next iterate mixes the last ``_ANDERSON_DEPTH``
    differences of f and of g = T v (Walker & Ni 2011) with the fixed
    damping beta = ``_ANDERSON_MIX``:

        v <- g - dG gamma - (1 - beta) (f - dF gamma),
        gamma = argmin ||f - dF gamma||_2.

    Exhausting ``max_iter`` iterations and a residual above the
    divergence guard both return a record with ``converged = False`` and
    the cause in ``failure_reason``, assembled from the last evaluated
    iterate.

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
    f_prev = g_prev = None
    d_f: list[np.ndarray] = []
    d_g: list[np.ndarray] = []
    failure_reason = None
    for _ in range(config.max_iter):
        v_field = RadialField(grid=grid, values=v_values)
        source, cv = source_with_normalization(v_field, config, log_K, u0_density)
        g = potential_apply(kernel, source, cs).values
        f = g - v_values
        residual = float(np.max(np.abs(f)))
        history.append((residual, cv))
        v_kept = v_values
        if residual <= config.tol:
            break
        if not residual <= _DIVERGENCE_GUARD:
            failure_reason = (
                f"residual {residual:.3e} exceeded the divergence guard "
                f"{_DIVERGENCE_GUARD:g} at iteration {len(history)}"
            )
            break
        if f_prev is not None:
            d_f.append(f - f_prev)
            d_g.append(g - g_prev)
            del d_f[:-_ANDERSON_DEPTH], d_g[:-_ANDERSON_DEPTH]
        f_prev, g_prev = f, g
        if d_f:
            f_diffs = np.column_stack(d_f)
            gamma = np.linalg.lstsq(f_diffs, f, rcond=None)[0]
            g = g - np.column_stack(d_g) @ gamma
            f = f - f_diffs @ gamma
        v_values = g - (1.0 - _ANDERSON_MIX) * f
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
