"""Constructive solver for prescribed-volume conformal metrics.

The target equation on R^{2m} is

    (-Delta)^m u = sign * (2m-1)! * e^{2mu},
    V = integral e^{2mu} dx  prescribed,
    u(x) = -alpha log|x| - P(x) + C + o(1),   alpha = sign * 2V / vol(S^{2m}).

Writing u = -alpha u0 - P + v + c_v, with u0 the background profile of
:mod:`qcurv.geometry`, turns it into a fixed-point problem for the
correction v:

    v = T v,      T v = potential of  S(v),
    S(v) = K e^{2m (v + c_v)} + alpha (-Delta)^m u0,
    K = sign (2m-1)! e^{-2m P - 2m alpha u0},

where the normalization constant c_v (:func:`normalization_cv`) makes the
curvature integral match the prescribed volume, which is exactly the
condition that S(v) has zero discrete mass, so its potential decays.

The fixed point is reached by damped Picard iteration with a homotopy
continuation in t (solving v = t T v for an increasing schedule ending at
t = 1), optionally preceded by a volume continuation.  Convergence is
empirical; non-convergence is a first-class reported outcome, never
silent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np

from .errors import (
    ConfigError,
    DimensionMismatch,
    NormalizationOverflow,
    PolynomialFormatError,
    SolverDivergence,
)
from .geometry import U0Profile, constants, u0_eval
from .poly import Polynomial, pm_membership
from .potential import (
    KernelMatrix,
    RadialField,
    RadialGrid,
    kernel_matrix,
    make_grid,
    potential_apply,
)

_DIVERGENCE_GUARD = 1e3
_DAMPING_FLOOR_FACTOR = 64.0
_SCHEMA_VERSION = 1


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


def eval_radial_profile(coeffs: np.ndarray, r: np.ndarray) -> np.ndarray:
    s = np.asarray(r, dtype=float) ** 2
    out = np.zeros_like(s)
    for c in reversed(coeffs):
        out = out * s + c
    return out


# ----------------------------------------------------------------------
# configuration
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SolverConfig:
    """Validated description of one solve.

    ``volume`` is the prescribed conformal volume V; ``profile`` the
    asymptotic polynomial P (must be a function of |x|^2 and pass the
    admissibility screen); ``u0_profile`` defaults to the smooth-global
    background; ``theta`` the Picard damping; ``t_schedule`` the homotopy
    schedule ending at 1; ``v_schedule`` an optional volume continuation
    ending at ``volume``.
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
    theta: float = 0.5
    tol: float = 1e-8
    max_iter: int = 600
    t_schedule: tuple[float, ...] = (0.25, 0.5, 0.75, 1.0)
    v_schedule: tuple[float, ...] | None = None
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

    def stage_alpha(self, volume: float) -> float:
        return self.sign * 2.0 * volume / constants(self.m).vol_sphere

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
        if radial_profile_coeffs(self.profile) is None:
            raise ConfigError(
                "profile must be radial (a polynomial in |x|^2) for the "
                "one-dimensional solver"
            )
        verdict = pm_membership(self.profile, m=self.m)
        if verdict.status == "Rejected":
            raise ConfigError(
                f"profile rejected by the admissibility screen: {verdict.witness}"
            )
        if self.u0_profile is None:
            raise ConfigError(f"no u0 profile could be built for m = {self.m}")
        if self.u0_profile.m != self.m:
            raise ConfigError(
                f"u0 profile was built for m = {self.u0_profile.m}, config has m = {self.m}"
            )
        if not 0.0 < self.theta <= 1.0:
            raise ConfigError(f"theta must be in (0, 1], got {self.theta}")
        if not self.tol > 0:
            raise ConfigError(f"tol must be positive, got {self.tol}")
        if self.max_iter < 1:
            raise ConfigError(f"max_iter must be >= 1, got {self.max_iter}")
        ts = self.t_schedule
        if (
            not ts
            or any(not 0.0 < t <= 1.0 for t in ts)
            or any(b <= a for a, b in zip(ts, ts[1:]))
            or ts[-1] != 1.0
        ):
            raise ConfigError(
                "t_schedule must increase within (0, 1] and end at 1"
            )
        if self.v_schedule is not None:
            vs = self.v_schedule
            if (
                not vs
                or any(not v > 0 for v in vs)
                or any(b <= a for a, b in zip(vs, vs[1:]))
                or vs[-1] != self.volume
            ):
                raise ConfigError(
                    "v_schedule must be positive, increasing, and end at volume"
                )
            if self.sign == 1 and vs[-1] >= cs.vol_sphere:
                raise ConfigError(
                    "v_schedule stages must respect V ∈ (0, vol(S^{2m})) "
                    "for sign = +1"
                )
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
        return {
            "schema_version": _SCHEMA_VERSION,
            "m": self.m,
            "sign": self.sign,
            "volume": self.volume,
            "profile": self.profile.to_json_dict(),
            "u0_profile": self.u0_profile.kind,
            "r_max": self.r_max,
            "n_intervals": self.n_intervals,
            "map_kind": self.map_kind,
            "sinh_strength": self.sinh_strength,
            "theta": self.theta,
            "tol": self.tol,
            "max_iter": self.max_iter,
            "t_schedule": list(self.t_schedule),
            "v_schedule": None if self.v_schedule is None else list(self.v_schedule),
            "quad_order": self.quad_order,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "SolverConfig":
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
        version = data.get("schema_version")
        if version != _SCHEMA_VERSION:
            raise ConfigError(
                f"schema_version must be {_SCHEMA_VERSION}, got {version!r}"
            )
        known = {
            "schema_version",
            "m",
            "sign",
            "volume",
            "profile",
            "u0_profile",
            "r_max",
            "n_intervals",
            "map_kind",
            "sinh_strength",
            "theta",
            "tol",
            "max_iter",
            "t_schedule",
            "v_schedule",
            "quad_order",
        }
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for required in ("m", "sign", "volume", "profile"):
            if required not in data:
                raise ConfigError(f"config is missing the {required!r} key")
        try:
            m = int(data["m"])
        except (TypeError, ValueError):
            raise ConfigError(f"m must be an integer, got {data['m']!r}")
        try:
            if isinstance(data["profile"], str):
                profile = Polynomial.from_text(data["profile"], dim=2 * m)
            else:
                profile = Polynomial.from_json_dict(data["profile"])
        except (PolynomialFormatError, DimensionMismatch) as exc:
            raise ConfigError(f"profile: {exc}") from exc
        u0_kind = data.get("u0_profile", "smooth-global")
        if u0_kind == "smooth-global":
            u0_profile = U0Profile.smooth_global(m) if 1 <= m <= 6 else None
        elif u0_kind == "compact-blend":
            u0_profile = U0Profile.compact_blend(m) if 1 <= m <= 6 else None
        else:
            raise ConfigError(f"unknown u0_profile {u0_kind!r}")
        if u0_profile is None:
            raise ConfigError(f"m must be in 1..6 to build u0, got {m}")
        cfg = cls(
            m=m,
            sign=int(data["sign"]),
            volume=float(data["volume"]),
            profile=profile,
            u0_profile=u0_profile,
            r_max=float(data.get("r_max", 40.0)),
            n_intervals=int(data.get("n_intervals", 2048)),
            map_kind=data.get("map_kind", "sinh-clustered"),
            sinh_strength=float(data.get("sinh_strength", 3.0)),
            theta=float(data.get("theta", 0.5)),
            tol=float(data.get("tol", 1e-8)),
            max_iter=int(data.get("max_iter", 600)),
            t_schedule=tuple(data.get("t_schedule", (0.25, 0.5, 0.75, 1.0))),
            v_schedule=(
                None
                if data.get("v_schedule") is None
                else tuple(data["v_schedule"])
            ),
            quad_order=int(data.get("quad_order", 12)),
        )
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


def _build_stage_K(
    config: SolverConfig, grid: RadialGrid, volume: float
) -> RadialField:
    cs = constants(config.m)
    alpha = config.stage_alpha(volume)
    coeffs = radial_profile_coeffs(config.profile)
    if coeffs is None:
        raise ConfigError("profile must be radial (a polynomial in |x|^2)")
    p_vals = eval_radial_profile(coeffs, grid.nodes)
    u0_vals, _ = u0_eval(config.u0_profile, grid.nodes)
    exponent = -2.0 * config.m * (p_vals + alpha * u0_vals)
    if float(np.max(exponent)) > 700.0:
        raise ConfigError(
            "curvature kernel overflows double precision; reduce the "
            "volume magnitude or strengthen the profile"
        )
    k_vals = config.sign * cs.factorial_2m_minus_1 * np.exp(exponent)
    tail = abs(k_vals[-1]) * grid.quad_weights[-1]
    if tail >= 1e-12 * float(np.max(np.abs(k_vals))):
        raise ConfigError(
            "curvature kernel tail is not negligible at r_max "
            f"(weighted tail {tail:.3e}); enlarge r_max"
        )
    return RadialField(grid=grid, values=k_vals)


def build_K(config: SolverConfig, grid: RadialGrid) -> RadialField:
    """K = sign (2m-1)! e^{-2m P - 2m alpha u0} on the grid's nodes,
    with a guard that the weighted tail value is below 1e-12 of max|K|."""
    config.validate()
    return _build_stage_K(config, grid, config.volume)


def normalization_cv(
    K: RadialField,
    v: RadialField,
    config: SolverConfig,
    volume: float | None = None,
) -> float:
    """c_v = -(1/2m) log[ (sum_i w_i |K_i| e^{2m v_i}) / ((2m-1)! V) ].

    With this constant the discrete curvature integral
    sum w_i K_i e^{2m(v_i + c_v)} equals alpha * gamma_m exactly (same
    quadrature, exact arithmetic) — the zero-mass condition for S(v).
    """
    K.grid.ensure_same(v.grid)
    cs = constants(config.m)
    target = config.volume if volume is None else volume
    two_m = 2.0 * config.m
    exponent = two_m * v.values
    if float(np.max(exponent)) > 700.0:
        raise NormalizationOverflow(
            "e^{2mv} overflows double precision in the normalization integral"
        )
    integral = float(K.grid.quad_weights @ (np.abs(K.values) * np.exp(exponent)))
    if not (integral > 0 and math.isfinite(integral)):
        raise NormalizationOverflow(
            f"normalization integral is not a positive finite number: {integral}"
        )
    return -math.log(integral / (cs.factorial_2m_minus_1 * target)) / two_m


def map_S(
    v: RadialField,
    config: SolverConfig,
    K: RadialField,
    u0_density: RadialField,
    volume: float | None = None,
) -> RadialField:
    """S(v) = K e^{2m(v + c_v)} + alpha * (-Delta)^m u0 (rescaled density).

    Zero discrete mass by construction: the K term integrates to
    +alpha*gamma_m through the c_v normalization, the density term to
    -alpha*gamma_m through its rescaling.
    """
    field_S, _ = source_with_normalization(v, config, K, u0_density, volume)
    return field_S


def source_with_normalization(
    v: RadialField,
    config: SolverConfig,
    K: RadialField,
    u0_density: RadialField,
    volume: float | None = None,
) -> tuple[RadialField, float]:
    """S(v) together with the c_v that produced it (they must be paired
    for the mass identity to hold exactly)."""
    K.grid.ensure_same(v.grid)
    K.grid.ensure_same(u0_density.grid)
    target = config.volume if volume is None else volume
    cv = normalization_cv(K, v, config, target)
    alpha = config.stage_alpha(target)
    values = K.values * np.exp(2.0 * config.m * (v.values + cv))
    values = values + alpha * u0_density.values
    return RadialField(grid=v.grid, values=values), cv


def map_T(
    v: RadialField,
    config: SolverConfig,
    kernel: KernelMatrix,
    K: RadialField,
    u0_density: RadialField,
    volume: float | None = None,
) -> RadialField:
    """T v = potential of S(v); decays at the tail because S has zero
    discrete mass."""
    S = map_S(v, config, K, u0_density, volume)
    return potential_apply(kernel, S, constants(config.m))


# ----------------------------------------------------------------------
# the solve
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SolutionRecord:
    """Everything a solve produced.

    ``u`` reconstructs exactly as -alpha*u0 - P + v + c_v at every node.
    ``history`` holds per-iteration triples (t, sup-update, c_v);
    ``failure_reason`` is None for converged runs and a human-readable
    stage report otherwise.
    """

    config: SolverConfig
    grid: RadialGrid
    v: RadialField
    c_v: float
    u: RadialField
    K: RadialField
    u0_density: RadialField
    alpha: float
    iterations: int
    history: tuple[tuple[float, float, float], ...]
    converged: bool
    final_update: float
    failure_reason: str | None = None


def _assemble_record(
    config: SolverConfig,
    grid: RadialGrid,
    v_values: np.ndarray,
    K: RadialField,
    u0_density: RadialField,
    iterations: int,
    history: list[tuple[float, float, float]],
    converged: bool,
    final_update: float,
    failure_reason: str | None,
) -> SolutionRecord:
    v_field = RadialField(grid=grid, values=v_values)
    cv = normalization_cv(K, v_field, config)
    alpha = config.alpha
    u0_vals, _ = u0_eval(config.u0_profile, grid.nodes)
    coeffs = radial_profile_coeffs(config.profile)
    p_vals = eval_radial_profile(coeffs, grid.nodes)
    u_vals = -alpha * u0_vals - p_vals + v_values + cv
    return SolutionRecord(
        config=config,
        grid=grid,
        v=v_field,
        c_v=cv,
        u=RadialField(grid=grid, values=u_vals),
        K=K,
        u0_density=u0_density,
        alpha=alpha,
        iterations=iterations,
        history=tuple(history),
        converged=converged,
        final_update=final_update,
        failure_reason=failure_reason,
    )


def solve_continuation(config: SolverConfig) -> SolutionRecord:
    """Damped Picard iteration over the continuation schedules.

    For each stage volume (default: just the target) and each t in
    ``t_schedule``, iterate  v <- (1-theta) v + theta * t * T v  from the
    previous stage's answer until the sup-norm update is below tol.  The
    damping adapts: it halves when the update grows, and doubles back
    toward the configured value after three consecutive decreases.

    Divergence (update above 1e3) and normalization overflow raise
    :class:`SolverDivergence` / :class:`NormalizationOverflow` tagged
    with the stage; exhausting max_iter returns a record with
    ``converged = False`` and the stage in ``failure_reason``.
    """
    config.validate()
    grid = build_grid(config)
    kernel = kernel_matrix(grid, config.quad_order)
    u0_density = u0_density_field(config.u0_profile, grid)

    v_values = np.zeros_like(grid.nodes)
    history: list[tuple[float, float, float]] = []
    iterations = 0
    final_update = math.inf
    volumes = config.v_schedule if config.v_schedule is not None else (config.volume,)

    K = None
    for stage_volume in volumes:
        K = _build_stage_K(config, grid, stage_volume)
        for t in config.t_schedule:
            theta = config.theta
            theta_floor = config.theta / _DAMPING_FLOOR_FACTOR
            prev_update = math.inf
            decrease_streak = 0
            stage_converged = False
            for _ in range(config.max_iter):
                v_field = RadialField(grid=grid, values=v_values)
                try:
                    source, cv = source_with_normalization(
                        v_field, config, K, u0_density, stage_volume
                    )
                except NormalizationOverflow as exc:
                    raise NormalizationOverflow(
                        f"{exc} (stage t = {t}, V = {stage_volume:.6g})",
                        stage_t=t,
                        stage_volume=stage_volume,
                    ) from None
                t_v = potential_apply(kernel, source, constants(config.m))
                new_values = (1.0 - theta) * v_values + theta * t * t_v.values
                update = float(np.max(np.abs(new_values - v_values)))
                history.append((t, update, cv))
                iterations += 1
                v_values = new_values
                final_update = update
                if update > _DIVERGENCE_GUARD:
                    raise SolverDivergence(
                        f"iteration update {update:.3e} exceeded the "
                        f"divergence guard (stage t = {t}, V = {stage_volume:.6g})",
                        stage_t=t,
                        stage_volume=stage_volume,
                    )
                if update <= config.tol:
                    stage_converged = True
                    break
                if update > prev_update:
                    theta = max(theta / 2.0, theta_floor)
                    decrease_streak = 0
                else:
                    decrease_streak += 1
                    if decrease_streak >= 3 and theta < config.theta:
                        theta = min(2.0 * theta, config.theta)
                        decrease_streak = 0
                prev_update = update
            if not stage_converged:
                return _assemble_record(
                    config,
                    grid,
                    v_values,
                    _build_stage_K(config, grid, config.volume),
                    u0_density,
                    iterations,
                    history,
                    converged=False,
                    final_update=final_update,
                    failure_reason=(
                        f"max_iter = {config.max_iter} exhausted at stage "
                        f"t = {t}, V = {stage_volume:.6g} "
                        f"(last update {final_update:.3e})"
                    ),
                )
    return _assemble_record(
        config,
        grid,
        v_values,
        K,
        u0_density,
        iterations,
        history,
        converged=True,
        final_update=final_update,
        failure_reason=None,
    )
