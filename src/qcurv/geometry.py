"""Closed-form reference solutions, the background profile u0, and
radial polyharmonic stencils.

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
from .potential import RadialField, constants


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
    return np.polynomial.polynomial.polyval(rr * rr, coeffs)


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
        * constants(m).factorial_2m_minus_1
        * (2.0 / (1.0 + rr * rr)) ** (2 * m)
    )
    if np.isscalar(r):
        return float(value), float(density)
    return value, density


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
    values = f.values
    for _ in range(k):
        values = grid.stencil.laplacian(values, origin=True)
        np.negative(values, out=values)
    keep = _polyharmonic_valid_nodes(len(values), k)
    out = np.zeros_like(values)
    out[keep] = values[keep]
    return RadialField(grid=grid, values=out)
