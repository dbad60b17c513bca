"""Dimension constants, closed-form reference solutions, the background
profile u0, the Kelvin inversion, and radial polyharmonic stencils.

The equation under study lives on R^{2m}:

    (-Delta)^m u = sign * (2m-1)! * e^{2m u},

whose explicit "spherical" solutions log(2*lambda) - log(1 + lambda^2 r^2)
serve as the exact oracle for every discretization in the package.  The
background profile u0 behaves like log r at infinity and satisfies
integral (-Delta)^m u0 = -gamma_m, where gamma_m is the Green constant of
(-Delta)^m log(1/|x|).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, GridMismatch
from .potential import RadialField, sphere_area

# ----------------------------------------------------------------------
# constants
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Constants:
    """Closed-form dimension constants for R^{2m}.

    ``gamma_m = (2m-1)!/2 * vol(S^{2m})`` is the Green constant of the
    polyharmonic log kernel; ``lambda_1 = (2m-1)! * vol(S^{2m}) =
    2 * gamma_m`` is the curvature quantization level.
    """

    m: int
    n: int
    vol_sphere: float
    gamma_m: float
    omega: float
    lambda_1: float
    factorial_2m_minus_1: float


@functools.lru_cache(maxsize=None, typed=True)
def constants(m: int) -> Constants:
    """Constants for dimension n = 2m, valid for 1 <= m <= 6; built once
    per m and shared (the dataclass is frozen)."""
    if not isinstance(m, int) or m < 1 or m > 6:
        raise DimensionMismatch(f"m must be an integer in 1..6, got {m}")
    n = 2 * m
    vol_sphere = sphere_area(n + 1)  # area of S^{2m} inside R^{2m+1}
    fact = float(math.factorial(2 * m - 1))
    return Constants(
        m=m,
        n=n,
        vol_sphere=vol_sphere,
        gamma_m=fact / 2.0 * vol_sphere,
        omega=sphere_area(n),  # area of S^{2m-1} inside R^{2m}
        lambda_1=fact * vol_sphere,
        factorial_2m_minus_1=fact,
    )


def spherical_solution(m: int, lam: float, r) -> np.ndarray | float:
    """The explicit solution u(r) = log(2 lambda) - log(1 + lambda^2 r^2).

    Solves (-Delta)^m u = (2m-1)! e^{2mu} with conformal volume
    vol(S^{2m}) for every lambda > 0; the family obeys the covariance
    u_lambda(r) = u_1(lambda r) + log lambda.
    """
    if m < 1 or m > 6:
        raise DimensionMismatch(f"m must be in 1..6, got {m}")
    if not lam > 0:
        raise DimensionMismatch(f"lambda must be positive, got {lam}")
    rr = np.asarray(r, dtype=float)
    if np.any(rr < 0):
        raise DimensionMismatch("radius must be nonnegative")
    out = math.log(2.0 * lam) - np.log1p((lam * rr) ** 2)
    return float(out) if np.isscalar(r) else out


# ----------------------------------------------------------------------
# background profile u0
# ----------------------------------------------------------------------
def _power_laplacian_coeffs(coeffs: tuple[float, ...], n: int) -> tuple[float, ...]:
    """One radial Laplacian applied to sum_a c_a r^{2a}, termwise exact:
    Delta r^{2a} = 2a (2a + n - 2) r^{2a-2}."""
    out = [0.0] * max(len(coeffs) - 1, 1)
    for a, c in enumerate(coeffs):
        if a == 0 or c == 0.0:
            continue
        out[a - 1] += c * (2 * a) * (2 * a + n - 2)
    return tuple(out)


def eval_radial_profile(coeffs, r) -> np.ndarray:
    """sum_i coeffs[i] r^{2i}, by Horner's rule in r^2."""
    rr = np.asarray(r, dtype=float)
    s = rr * rr
    out = np.zeros_like(s)
    for c in reversed(coeffs):
        out = out * s + c
    return out


@dataclass(frozen=True)
class U0Profile:
    """Background profile with u0(r) = log r + o(1) at infinity.

    ``smooth-global``: u0 = (1/2) log(1 + r^2), smooth everywhere, with
    the closed-form density (-Delta)^m u0 = -(1/2)(2m-1)! (2/(1+r^2))^{2m}
    of total mass exactly -gamma_m.

    ``compact-blend``: u0 = log r exactly for r >= 1 and a degree-2m
    polynomial in r^2 inside, the truncated Taylor expansion of
    (1/2) log(r^2) around r^2 = 1, which matches log r to order 2m at
    r = 1 (class C^{2m}).  Its density is the termwise-exact polyharmonic
    of the interior polynomial for r < 1 and exactly 0 for r >= 1.
    """

    kind: str
    m: int
    blend_coeffs: tuple[float, ...] | None = None
    density_coeffs: tuple[float, ...] | None = None

    @classmethod
    def smooth_global(cls, m: int) -> "U0Profile":
        if m < 1 or m > 6:
            raise DimensionMismatch(f"m must be in 1..6, got {m}")
        return cls(kind="smooth-global", m=m)

    @classmethod
    def compact_blend(cls, m: int) -> "U0Profile":
        if m < 1 or m > 6:
            raise DimensionMismatch(f"m must be in 1..6, got {m}")
        # (1/2) sum_{j=1..2m} (-1)^{j-1} (s-1)^j / j  expanded in powers of s.
        coeffs = [0.0] * (2 * m + 1)
        for j in range(1, 2 * m + 1):
            base = 0.5 * (-1.0) ** (j - 1) / j
            for a in range(j + 1):
                coeffs[a] += base * math.comb(j, a) * (-1.0) ** (j - a)
        dens = tuple(coeffs)
        for _ in range(m):
            dens = _power_laplacian_coeffs(dens, 2 * m)
        dens = tuple((-1.0) ** m * c for c in dens)
        return cls(
            kind="compact-blend",
            m=m,
            blend_coeffs=tuple(coeffs),
            density_coeffs=dens,
        )


def smooth_global(m: int) -> U0Profile:
    """The u0 = (1/2) log(1 + r^2) background profile."""
    return U0Profile.smooth_global(m)


def compact_blend(m: int) -> U0Profile:
    """The background profile equal to log r exactly for r >= 1."""
    return U0Profile.compact_blend(m)


def u0_eval(profile: U0Profile, r):
    """Value and polyharmonic density of the background profile.

    Returns ``(u0(r), ((-Delta)^m u0)(r))``, vectorized over ``r``; at the
    blend's matching radius r = 1 the density takes its outside value 0.
    """
    rr = np.asarray(r, dtype=float)
    if np.any(rr < 0):
        raise DimensionMismatch("radius must be nonnegative")
    m = profile.m
    if profile.kind == "smooth-global":
        value = 0.5 * np.log1p(rr * rr)
        density = (
            -0.5
            * math.factorial(2 * m - 1)
            * (2.0 / (1.0 + rr * rr)) ** (2 * m)
        )
    elif profile.kind == "compact-blend":
        inside = rr < 1.0
        value = np.where(
            inside,
            eval_radial_profile(profile.blend_coeffs, rr),
            np.log(np.maximum(rr, 1.0)),
        )
        density = np.where(
            inside, eval_radial_profile(profile.density_coeffs, rr), 0.0
        )
    else:
        raise DimensionMismatch(f"unknown profile kind {profile.kind!r}")
    if np.isscalar(r):
        return float(value), float(density)
    return value, density


# ----------------------------------------------------------------------
# Kelvin inversion
# ----------------------------------------------------------------------
def kelvin_pullback(u, R: float, x) -> float:
    """Value of u at the inverted point: u(R x / |x|^2)."""
    if not R > 0:
        raise DimensionMismatch(f"inversion radius must be positive, got {R}")
    pt = np.asarray(x, dtype=float)
    norm2 = float(pt @ pt)
    if norm2 == 0.0:
        raise DimensionMismatch("inversion undefined at x = 0")
    return float(u(R * pt / norm2))


# ----------------------------------------------------------------------
# radial stencils
# ----------------------------------------------------------------------
def _lap_interior(nodes: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """Radial Laplacian  f'' + (n-1)/r f'  on the interior nodes of a
    (possibly non-uniform) grid by 3-point differences; both end entries
    are returned as 0 and must be treated as invalid by the caller."""
    out = np.zeros_like(values)
    hm = nodes[1:-1] - nodes[:-2]
    hp = nodes[2:] - nodes[1:-1]
    fm, f0, fp = values[:-2], values[1:-1], values[2:]
    denom = hm * hp * (hm + hp)
    d2 = 2.0 * (hm * fp + hp * fm - (hm + hp) * f0) / denom
    d1 = (hm**2 * fp - hp**2 * fm + (hp**2 - hm**2) * f0) / denom
    out[1:-1] = d2 + (n - 1) / nodes[1:-1] * d1
    return out


def _lap_radial(nodes: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """Radial Laplacian including the origin node.

    At r = 0 a regular radial function is even, so Delta f(0) = n f''(0);
    the second derivative is estimated from the two leading secants
    2(f_i - f_0)/r_i^2 (exact for quadratics) with a Richardson-style
    correction that restores second-order accuracy of the composed
    operator near the origin.  The last node is zeroed (no right
    neighbor) and must be flagged invalid by the caller.
    """
    out = _lap_interior(nodes, values, n)
    a = 2.0 * (values[1] - values[0]) / nodes[1] ** 2
    b = 2.0 * (values[2] - values[0]) / nodes[2] ** 2
    out[0] = n * a + (n - 1) / 3.0 * (b - a)
    return out


def radial_polyharmonic(f: RadialField, k: int) -> RadialField:
    """Apply (-Delta)^k to a radial field by composing the second-order
    radial stencil k times.

    The returned field carries a validity mask: each composition loses
    the outermost node, and for k >= 2 the first k-1 nodes are flagged as
    well, because composing the origin rule k times leaves an O(1)
    truncation remnant on those nodes (observed empirically; the interior
    is clean second order).  Invalid entries are stored as 0.
    """
    grid = f.grid
    if k < 1 or k > grid.m:
        raise GridMismatch(f"k must be in 1..{grid.m}, got {k}")
    if len(grid.nodes) < 4 * k + 1:
        raise GridMismatch(
            f"grid too small for k = {k}: need >= {4 * k + 1} nodes"
        )
    values = f.values.copy()
    valid = f.valid_mask().copy()
    for _ in range(k):
        values = -_lap_radial(grid.nodes, values, grid.n)
        spread = np.empty_like(valid)
        spread[1:-1] = valid[:-2] & valid[1:-1] & valid[2:]
        spread[0] = valid[0] & valid[1] & valid[2]
        spread[-1] = False
        valid = spread
    if k >= 2:
        valid[: k - 1] = False
    values = np.where(valid, values, 0.0)
    return RadialField(grid=grid, values=values, valid=valid)


# ----------------------------------------------------------------------
# Kelvin covariance residual
# ----------------------------------------------------------------------
def _power_polyharm_exact(powers: dict[float, float], k: int, n: int):
    """Delta^k of  sum_a c_a r^a  termwise:  Delta r^a = a(a+n-2) r^{a-2}."""
    current = dict(powers)
    for _ in range(k):
        nxt: dict[float, float] = {}
        for a, c in current.items():
            factor = a * (a + n - 2.0)
            if factor != 0.0:
                nxt[a - 2.0] = nxt.get(a - 2.0, 0.0) + c * factor
        current = nxt
    return current


def _eval_powers(powers: dict[float, float], rho: np.ndarray) -> np.ndarray:
    out = np.zeros_like(rho)
    for a, c in powers.items():
        out += c * rho**a
    return out


def _iterated_lap_center(
    rho0: float, func, k: int, n: int, step: float
) -> float:
    """Delta^k of a radial callable at rho0 via k compositions of the
    interior stencil on a local uniform line of 2k+1 nodes."""
    offsets = np.arange(-k, k + 1, dtype=float)
    nodes = rho0 + step * offsets
    vals = np.array([func(x) for x in nodes], dtype=float)
    for _ in range(k):
        vals = _lap_interior(nodes, vals, n)
    return float(vals[k])


def kelvin_identity_residual(
    u, k: int, n: int, sample_points, step: float = 1e-3
) -> float:
    """Residual of the inversion covariance of the polyharmonic operator:

        Delta^k ( |x|^{2k-n} u(x/|x|^2) )  =  |x|^{-(n+2k)} (Delta^k u)(x/|x|^2)

    evaluated at the given radii.  ``u`` is either a radial callable or a
    dict ``{exponent: coefficient}`` describing a sum of radial power
    laws; the dict route differentiates termwise exactly (rounding-level
    residual), the callable route uses local finite-difference lines of
    the given step on both sides independently.  Returns the max over
    samples of |L - R| / (|L| + |R| + floor) with a floor of 1e-12 times
    the largest magnitude seen.
    """
    if n < 2 or n % 2 != 0:
        raise DimensionMismatch(f"dimension must be even >= 2, got {n}")
    if k < 0 or k > n // 2:
        raise DimensionMismatch(f"k must be in 0..{n // 2}, got {k}")
    radii = np.atleast_1d(np.asarray(sample_points, dtype=float))
    if np.any(radii - k * step <= 0) or np.any(1.0 / radii - k * step <= 0):
        raise DimensionMismatch(
            "sample points too close to the inversion singularity for the stencil"
        )

    if isinstance(u, dict):
        lhs_powers = {2.0 * k - n - float(a): float(c) for a, c in u.items()}
        lhs_powers = _power_polyharm_exact(lhs_powers, k, n)
        lhs = _eval_powers(lhs_powers, radii)
        rhs_powers = _power_polyharm_exact(
            {float(a): float(c) for a, c in u.items()}, k, n
        )
        rhs = _eval_powers(rhs_powers, 1.0 / radii) * radii ** (-(n + 2.0 * k))
    elif k == 0:
        vals = np.array([u(1.0 / rho) for rho in radii], dtype=float)
        lhs = radii ** (-float(n)) * vals
        rhs = lhs.copy()
    else:
        lhs = np.array(
            [
                _iterated_lap_center(
                    rho, lambda x: x ** (2.0 * k - n) * u(1.0 / x), k, n, step
                )
                for rho in radii
            ]
        )
        rhs = np.array(
            [
                radii[i] ** (-(n + 2.0 * k))
                * _iterated_lap_center(1.0 / radii[i], u, k, n, step)
                for i in range(len(radii))
            ]
        )
    scale = max(np.max(np.abs(lhs)), np.max(np.abs(rhs)), 1e-300)
    denom = np.abs(lhs) + np.abs(rhs) + 1e-12 * scale + 1e-300
    return float(np.max(np.abs(lhs - rhs) / denom))
