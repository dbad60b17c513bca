"""Closed-form reference solutions, the background profile u0, the
Kelvin inversion, and radial polyharmonic stencils.

The equation under study lives on R^{2m}:

    (-Delta)^m u = sign * (2m-1)! * e^{2m u},

whose explicit "spherical" solutions log(2*lambda) - log(1 + lambda^2 r^2)
serve as the exact oracle for every discretization in the package.  The
background profile u0 behaves like log r at infinity and satisfies
integral (-Delta)^m u0 = -gamma_m, where gamma_m is the Green constant of
(-Delta)^m log(1/|x|), one of the dimension constants of
:mod:`qcurv.potential`.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatch, GridMismatch
from .potential import RadialField, stencil_table


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


def eval_radial_profile(coeffs, r) -> np.ndarray:
    """sum_i coeffs[i] r^{2i}, by Horner's rule in r^2."""
    rr = np.asarray(r, dtype=float)
    s = rr * rr
    out = np.zeros_like(s)
    for c in reversed(coeffs):
        out = out * s + c
    return out


# ----------------------------------------------------------------------
# background profile u0
# ----------------------------------------------------------------------
def u0_eval(m: int, r):
    """Value and polyharmonic density of the background profile
    u0 = (1/2) log(1 + r^2), which is smooth and equals log r + o(1) at
    infinity.

    Returns ``(u0(r), ((-Delta)^m u0)(r))``, vectorized over ``r``; the
    density -(1/2)(2m-1)! (2/(1+r^2))^{2m} has total mass exactly -gamma_m.
    """
    if m < 1 or m > 6:
        raise DimensionMismatch(f"m must be in 1..6, got {m}")
    rr = np.asarray(r, dtype=float)
    if np.any(rr < 0):
        raise DimensionMismatch("radius must be nonnegative")
    value = 0.5 * np.log1p(rr * rr)
    density = (
        -0.5
        * math.factorial(2 * m - 1)
        * (2.0 / (1.0 + rr * rr)) ** (2 * m)
    )
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
def _polyharmonic_valid_nodes(node_count: int, k: int) -> slice:
    """The nodes on which k compositions of the radial stencil are
    trusted: k - 1 ... node_count - 1 - k.

    Each composition loses the outermost node, and for k >= 2 the first
    k - 1 nodes go as well, because composing the origin rule k times
    leaves an O(1) truncation remnant there (observed empirically; the
    interior is clean second order)."""
    return slice(k - 1, node_count - k)


def radial_polyharmonic(f: RadialField, k: int) -> RadialField:
    """Apply (-Delta)^k to a radial field by composing the second-order
    radial stencil k times.

    Values outside :func:`_polyharmonic_valid_nodes` are stored as 0.
    """
    grid = f.grid
    if k < 1 or k > grid.m:
        raise GridMismatch(f"k must be in 1..{grid.m}, got {k}")
    if len(grid.nodes) < 4 * k + 1:
        raise GridMismatch(
            f"grid too small for k = {k}: need >= {4 * k + 1} nodes"
        )
    values = f.values
    for _ in range(k):
        values = -grid.stencil.laplacian(values, origin=True)
    keep = _polyharmonic_valid_nodes(len(values), k)
    out = np.zeros_like(values)
    out[keep] = values[keep]
    return RadialField(grid=grid, values=out)


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
    st = stencil_table(nodes, n)
    for _ in range(k):
        vals = st.laplacian(vals)
    return float(vals[k])


# Node spacing of kelvin_identity_residual's finite-difference lines.
_KELVIN_STEP = 1e-3


def kelvin_identity_residual(u, k: int, n: int, sample_points) -> float:
    """Residual of the inversion covariance of the polyharmonic operator:

        Delta^k ( |x|^{2k-n} u(x/|x|^2) )  =  |x|^{-(n+2k)} (Delta^k u)(x/|x|^2)

    evaluated at the given radii.  ``u`` is either a radial callable or a
    dict ``{exponent: coefficient}`` describing a sum of radial power
    laws; the dict route differentiates termwise exactly (rounding-level
    residual), the callable route uses local finite-difference lines of
    spacing 1e-3 on both sides independently.  Returns the max over
    samples of |L - R| / (|L| + |R| + floor) with a floor of 1e-12 times
    the largest magnitude seen.
    """
    if n < 2 or n % 2 != 0:
        raise DimensionMismatch(f"dimension must be even >= 2, got {n}")
    if k < 0 or k > n // 2:
        raise DimensionMismatch(f"k must be in 0..{n // 2}, got {k}")
    radii = np.atleast_1d(np.asarray(sample_points, dtype=float))
    reach = k * _KELVIN_STEP
    if np.any(radii - reach <= 0) or np.any(1.0 / radii - reach <= 0):
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
                    rho, lambda x: x ** (2.0 * k - n) * u(1.0 / x), k, n, _KELVIN_STEP
                )
                for rho in radii
            ]
        )
        rhs = np.array(
            [
                radii[i] ** (-(n + 2.0 * k))
                * _iterated_lap_center(1.0 / radii[i], u, k, n, _KELVIN_STEP)
                for i in range(len(radii))
            ]
        )
    scale = max(np.max(np.abs(lhs)), np.max(np.abs(rhs)), 1e-300)
    denom = np.abs(lhs) + np.abs(rhs) + 1e-12 * scale + 1e-300
    return float(np.max(np.abs(lhs - rhs) / denom))
