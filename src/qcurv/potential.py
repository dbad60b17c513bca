"""Radial grids and the logarithmic Riesz potential.

In dimension ``n = 2m`` the operator ``(-Delta)^m`` has the fundamental
solution ``log(1/|x|) / gamma_m``, so inverting it on a zero-mean radial
density amounts to integrating the density against the spherical mean of
``log|x - y|``:

    Lambda_n(s, r) = mean over |y| = r of log|s e - y|,  |e| = 1.

This module provides the dimension constants (among them gamma_m), the
radial grids (nodes plus quadrature weights for the measure
``omega_{n-1} r^{n-1} dr``), the ring kernel ``Lambda_n``, its
semi-separable form on a grid, and the potential application

    (potential f)(r_i) = -(1/gamma_m) * integral Lambda_n(r_i, rho) f(rho) dmu(rho).

Quadrature design
-----------------
Grid weights integrate the piecewise-linear interpolant of the integrand
against the exact measure, so they are strictly positive and reproduce
``vol(B_R)`` exactly on constants.  The potential integrates the kernel
against the same piecewise-linear interpolant of the density, per
interval by Gauss-Legendre.  The kernel has a curvature kink on the
diagonal ``s = r``; integrating it against the basis that defines the
weights keeps that kink's quadrature error at the level of the
interpolation error instead of letting a point rule's local error survive
into the applied potential, where repeated differencing would amplify it.

The closed form ``Lambda_n(s, rho) = log max - sum_j c_j (min/max)^{2j}``
separates into a function of ``s`` times a function of ``rho`` on either
side of the diagonal, with rank <= m.  Every node is an interval
endpoint, so each hat function other than node i's own lies wholly below
or wholly above ``r_i``, and node i's own splits into its rising half
below and its falling half above.  The potential at ``r_i`` is thus a
prefix sum of the full-hat moments of the nodes below it, a suffix sum of
those above it, and a diagonal term from its own two halves, in O(N m)
work and memory.

Paired layout
-------------
The kernel stores each below-row next to its above-row taken in reversed
node order, as the two planes of an (m, N + 1, 2) array.  A suffix sum in
node order is a prefix sum in reversed order, so one ``cumsum`` over the
complex128 view of the weighted moments, whose real and imaginary parts
are two independent IEEE sums, yields every exclusive prefix sum and
every exclusive suffix sum at once, each accumulated smallest first and
bit for bit as two real ``cumsum`` calls would.  Only the final
contraction groups the terms as (sum below) + (sum above).

Stencils
--------
The grid's 3-point difference formulas are held per interior node as two
off-centre coefficients and applied in difference form,
``c_-(f_{i-1} - f_i) + c_+(f_{i+1} - f_i)``, which is exact on constants.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, GridMismatch


def sphere_area(n: int) -> float:
    """Surface area of the unit sphere S^{n-1} in R^n."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def ball_volume(n: int, radius: float) -> float:
    return sphere_area(n) * radius**n / n


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
    lambda_1: float
    factorial_2m_minus_1: float


@functools.lru_cache(maxsize=None, typed=True)
def constants(m: int) -> Constants:
    """Constants for dimension n = 2m, valid for 1 <= m <= 6; built once
    per m and shared (the dataclass is frozen)."""
    if not isinstance(m, int) or m < 1 or m > 6:
        raise DimensionMismatch(f"m must be an integer in 1..6, got {m}")
    vol_sphere = sphere_area(2 * m + 1)  # area of S^{2m} inside R^{2m+1}
    fact = float(math.factorial(2 * m - 1))
    return Constants(
        m=m,
        n=2 * m,
        vol_sphere=vol_sphere,
        gamma_m=fact / 2.0 * vol_sphere,
        lambda_1=fact * vol_sphere,
        factorial_2m_minus_1=fact,
    )


# ----------------------------------------------------------------------
# grids
# ----------------------------------------------------------------------
def _hat_interval_weights(a, b, n: int):
    """Integrals of the falling and rising hat pieces over ``[a, b]``
    against ``omega_{n-1} r^{n-1} dr``, in closed form: ``(down, up)``.
    Works elementwise on arrays of interval endpoints."""
    om = sphere_area(n)
    i0 = (b**n - a**n) / n
    i1 = (b ** (n + 1) - a ** (n + 1)) / (n + 1)
    return om * (b * i0 - i1) / (b - a), om * (i1 - a * i0) / (b - a)


@dataclass(frozen=True, eq=False)
class StencilTable:
    """The 3-point non-uniform difference formulas of ``nodes`` in
    dimension ``n``, as per-node coefficient rows for the interior nodes
    ``nodes[1:-1]``.  With ``hm = r_i - r_{i-1}``, ``hp = r_{i+1} - r_i``
    and ``hs = hm + hp``, each formula is applied in difference form,

        L f_i = c_-(f_{i-1} - f_i) + c_+(f_{i+1} - f_i),

    where ``rows[0]`` holds c_- and ``rows[1]`` holds c_+ of each formula:

        d1_rows         f':              c_- = -hp / (hm hs), c_+ = hm / (hp hs),
        d2_rows         f'':             c_- = 2 / (hm hs),   c_+ = 2 / (hp hs),
        laplacian_rows  f'' + (n-1)/r f': d2_rows + (n-1)/r_i d1_rows.

    The difference form is exact on constants, which keeps the rounding
    of composed stencils at the scale of f's variation rather than of f.
    The rows are read-only.  At the origin a regular radial function is
    even, and its second derivative is read from the secants
    2 (f_i - f_0) / r_i^2.  The methods act along the last axis, so they
    take one field or a stack of them.
    """

    n: int
    nodes: np.ndarray
    d1_rows: np.ndarray
    d2_rows: np.ndarray
    laplacian_rows: np.ndarray

    @staticmethod
    def _interior(rows: np.ndarray, values: np.ndarray, out: np.ndarray) -> None:
        """``out = c_-(f_{i-1} - f_i) + c_+(f_{i+1} - f_i)`` on the interior
        nodes, in five array passes."""
        centre = values[..., 1:-1]
        np.subtract(values[..., :-2], centre, out=out)
        out *= rows[0]
        above = values[..., 2:] - centre
        above *= rows[1]
        out += above

    def _origin_secant(self, values: np.ndarray, i: int) -> float:
        return 2.0 * (values[..., i] - values[..., 0]) / self.nodes[i] ** 2

    def d1(self, values: np.ndarray) -> np.ndarray:
        """First radial derivative: the interior formula, even-extension
        zero at the origin, first-order backward at the last node."""
        out = np.empty_like(values)
        self._interior(self.d1_rows, values, out[..., 1:-1])
        out[..., 0] = 0.0
        step = self.nodes[-1] - self.nodes[-2]
        out[..., -1] = (values[..., -1] - values[..., -2]) / step
        return out

    def d2(self, values: np.ndarray) -> np.ndarray:
        """Second radial derivative: the interior formula, the first
        secant at the origin (exact for quadratics), and the last node
        copying its neighbor."""
        out = np.empty_like(values)
        self._interior(self.d2_rows, values, out[..., 1:-1])
        out[..., 0] = self._origin_secant(values, 1)
        out[..., -1] = out[..., -2]
        return out

    def laplacian(self, values: np.ndarray, origin: bool = False) -> np.ndarray:
        """Radial Laplacian f'' + (n-1)/r f' on the interior nodes; the
        end entries are 0 and invalid.  With ``origin``, Delta f(0) =
        n f''(0) is set from the two leading secants a, b as
        n a + (n-1)/3 (b - a), a Richardson-style correction that restores
        second-order accuracy of the composed operator near the origin."""
        out = np.empty_like(values)
        self._interior(self.laplacian_rows, values, out[..., 1:-1])
        out[..., 0] = out[..., -1] = 0.0
        if origin:
            a = self._origin_secant(values, 1)
            b = self._origin_secant(values, 2)
            out[..., 0] = self.n * a + (self.n - 1) / 3.0 * (b - a)
        return out

    def window(self, lo: int, hi: int) -> "StencilTable":
        """The table of ``nodes[lo:hi]``, as views of this one."""
        inner = slice(lo, hi - 2)
        return StencilTable(
            self.n,
            self.nodes[lo:hi],
            *(getattr(self, name)[:, inner] for name in _STENCIL_ROWS),
        )


_STENCIL_ROWS = ("d1_rows", "d2_rows", "laplacian_rows")


def stencil_table(nodes: np.ndarray, n: int) -> StencilTable:
    """The 3-point :class:`StencilTable` of ``nodes`` in dimension ``n``."""
    hm = nodes[1:-1] - nodes[:-2]
    hp = nodes[2:] - nodes[1:-1]
    hs = hm + hp
    d1_rows = np.stack([-hp / (hm * hs), hm / (hp * hs)])
    d2_rows = np.stack([2.0 / (hm * hs), 2.0 / (hp * hs)])
    laplacian_rows = d2_rows + (n - 1) / nodes[1:-1] * d1_rows
    table = StencilTable(n, nodes, d1_rows, d2_rows, laplacian_rows)
    for name in _STENCIL_ROWS:
        getattr(table, name).flags.writeable = False
    return table


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _hat_weights(nodes: np.ndarray, n: int) -> np.ndarray:
    """Quadrature weights integrating the piecewise-linear interpolant
    against the measure omega_{n-1} r^{n-1} dr, exactly per interval."""
    down, up = _hat_interval_weights(nodes[:-1], nodes[1:], n)
    w = np.zeros_like(nodes)
    w[:-1] += down
    w[1:] += up
    return w


@dataclass(frozen=True, eq=False)
class RadialGrid:
    """Nodes ``0 = r_0 < r_1 < ... < r_N = R_max`` with positive weights
    for the measure ``omega_{2m-1} r^{2m-1} dr`` on the ball ``B_{R_max}``.

    Weights sum to ``vol(B_{R_max})`` exactly (a final normalization
    enforces it).  Construct through :func:`make_grid`.
    """

    m: int
    nodes: np.ndarray
    quad_weights: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.quad_weights, dtype=float)
        if nodes.ndim != 1 or nodes.shape != weights.shape:
            raise GridMismatch("nodes and weights must be 1-d and congruent")
        if len(nodes) < 65:
            raise GridMismatch(f"need at least 64 intervals, got {len(nodes) - 1}")
        if nodes[0] != 0.0 or np.any(np.diff(nodes) <= 0):
            raise GridMismatch("nodes must start at 0 and increase strictly")
        if np.any(weights <= 0):
            raise GridMismatch("quadrature weights must be positive")
        vol = ball_volume(self.n, float(nodes[-1]))
        if abs(weights.sum() / vol - 1.0) > 1e-10:
            raise GridMismatch("weights do not reproduce the ball volume")
        nodes.flags.writeable = False
        weights.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "quad_weights", weights)

    @property
    def n(self) -> int:
        return 2 * self.m

    @property
    def r_max(self) -> float:
        return float(self.nodes[-1])

    @property
    def n_intervals(self) -> int:
        return len(self.nodes) - 1

    def ensure_same(self, other: "RadialGrid") -> None:
        if other is self:
            return
        if (
            other.m != self.m
            or len(other.nodes) != len(self.nodes)
            or not np.array_equal(other.nodes, self.nodes)
        ):
            raise GridMismatch("fields live on different radial grids")

    @functools.cached_property
    def stencil(self) -> StencilTable:
        """The grid's 3-point :class:`StencilTable`, built on first use."""
        return stencil_table(self.nodes, self.n)

    def nearest_index(self, r: float) -> int:
        """Index of the node closest to radius ``r``, the lower one on an
        exact tie (as ``argmin(|nodes - r|)``), found by bisection."""
        if not 0.0 <= r <= self.r_max:
            raise GridMismatch(f"radius {r} outside [0, {self.r_max}]")
        nodes = self.nodes
        hi = int(np.searchsorted(nodes, r))
        if hi == 0:
            return 0
        # nodes[hi - 1] < r <= nodes[hi]: the nearest node is one of the two.
        if abs(nodes[hi] - r) < abs(nodes[hi - 1] - r):
            return hi
        return hi - 1

    def weights_within(self, index: int) -> np.ndarray:
        """Weights of the same piecewise-linear rule restricted to the
        ball of radius ``nodes[index]``; entries beyond ``index`` are 0.

        Built from the stored (normalized) weights, removing only the
        boundary hat's contribution from the first outside interval, so
        that :meth:`weights_beyond` is exactly zero inside the ball —
        tail quadratures must not pick up rounding residue from the
        large interior weights.  The array is read-only."""
        w = np.zeros_like(self.quad_weights)
        if index == 0:
            return _read_only(w)
        w[: index + 1] = self.quad_weights[: index + 1]
        if index < len(self.nodes) - 1:
            a, b = float(self.nodes[index]), float(self.nodes[index + 1])
            w[index] -= _hat_interval_weights(a, b, self.n)[0]
        return _read_only(w)

    def weights_beyond(self, index: int) -> np.ndarray:
        """Exact complement of :meth:`weights_within` (annulus rule), read-only:
        entry by entry ``quad_weights`` minus it, 0 below ``index``."""
        return _read_only(self.quad_weights - self.weights_within(index))


def make_grid(
    m: int,
    r_max: float,
    n_intervals: int,
    map_kind: str = "sinh-clustered",
    sinh_strength: float = 3.0,
) -> RadialGrid:
    """Build a radial grid on ``[0, r_max]`` with ``n_intervals + 1`` nodes.

    ``sinh-clustered`` places nodes at ``r_max * sinh(c xi)/sinh(c)`` for
    uniform ``xi``, concentrating resolution near the origin (where the
    curvature densities peak) while keeping a long tail; ``uniform`` is
    plain equispacing.  ``sinh_strength`` is the clustering parameter c;
    larger values trade tail resolution for origin resolution, and
    volume-accuracy-critical callers may need finer grids or stronger
    clustering than the defaults (the weights are exact for piecewise
    linear integrands, so the quadrature error is second order in the
    local spacing).
    """
    for name, value in (("m", m), ("n_intervals", n_intervals)):
        if isinstance(value, bool) or not isinstance(value, int):
            raise GridMismatch(f"{name} must be an int, got {value!r}")
    if m < 1 or m > 6:
        raise GridMismatch(f"m must be in 1..6, got {m}")
    if not 1.0 < r_max < math.inf:
        raise GridMismatch(f"r_max must exceed 1 and be finite, got {r_max}")
    if n_intervals < 64:
        raise GridMismatch(f"need n_intervals >= 64, got {n_intervals}")
    if map_kind not in ("uniform", "sinh-clustered"):
        raise GridMismatch(f"unknown map_kind {map_kind!r}")
    if not 0.0 < sinh_strength < math.inf:
        raise GridMismatch(
            f"sinh_strength must be positive and finite, got {sinh_strength}"
        )
    xi = np.linspace(0.0, 1.0, n_intervals + 1)
    if map_kind == "uniform":
        nodes = r_max * xi
    else:
        try:
            top = math.sinh(sinh_strength)
        except OverflowError:
            raise GridMismatch(f"sinh({sinh_strength}) overflows") from None
        nodes = r_max * np.sinh(sinh_strength * xi) / top
    nodes[0], nodes[-1] = 0.0, r_max
    weights = _hat_weights(nodes, 2 * m)
    weights *= ball_volume(2 * m, r_max) / weights.sum()
    return RadialGrid(m=m, nodes=nodes, quad_weights=weights)


@dataclass(frozen=True, eq=False)
class RadialField:
    """Values of a radial function on a grid's nodes: a read-only float
    array of the grid's shape, finite at every node."""

    grid: RadialGrid
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != self.grid.nodes.shape:
            raise GridMismatch("field values do not match the grid size")
        if not np.isfinite(values).all():
            raise GridMismatch("field values must be finite")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @classmethod
    def _unchecked(cls, grid: RadialGrid, values: np.ndarray) -> "RadialField":
        """A field holding the float array ``values`` as it is, without the
        shape and finiteness checks, for the solver's per-iteration fields
        whose shape is the grid's by construction and whose finiteness is
        checked once per iteration elsewhere.  ``values`` becomes
        read-only."""
        values.flags.writeable = False
        field = object.__new__(cls)
        field.__dict__.update(grid=grid, values=values)
        return field


def field_to_csv(field: RadialField, path: str) -> None:
    """Two-column full-precision CSV: header ``r,value``."""
    with open(path, "w") as fh:
        fh.write("r,value\n")
        for r, v in zip(field.grid.nodes, field.values):
            fh.write(f"{r:.17g},{v:.17g}\n")


# ----------------------------------------------------------------------
# ring kernel
# ----------------------------------------------------------------------
def _ring_closed_coeffs(n: int) -> dict[int, float]:
    """Coefficients of the closed form
    Lambda_n(s,r) = log max(s,r) - sum_j coef[2j] * (min/max)^{2j},
    obtained by expanding log|s e - y| in the angular cosine and
    integrating the resulting trigonometric powers exactly."""
    cn = math.gamma(n / 2.0) / (math.sqrt(math.pi) * math.gamma((n - 1) / 2.0))
    coefs: dict[int, float] = {}
    for j in range(1, (n - 2) // 2 + 1):
        a = (
            cn
            * math.pi
            * (-1) ** j
            * math.comb(n - 2, (n - 2) // 2 - j)
            / 2 ** (n - 2)
        )
        coefs[2 * j] = a / (2 * j)
    return coefs


def _ring_closed(n: int, s, r) -> np.ndarray:
    """Closed-form ring kernel for even n >= 2, vectorized over both
    radii.  The (0,0) pair yields log(1.0) = 0; callers exclude it."""
    s = np.asarray(s, dtype=float)
    r = np.asarray(r, dtype=float)
    hi = np.maximum(s, r)
    lo = np.minimum(s, r)
    safe = np.where(hi > 0, hi, 1.0)
    out = np.log(safe)
    if n > 2:
        t2 = (lo / safe) ** 2
        acc = np.zeros_like(t2)
        for power, coef in _ring_closed_coeffs(n).items():
            acc += coef * t2 ** (power // 2)
        out = out - acc
    return out


@functools.lru_cache(maxsize=16)
def gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per
    order and shared read-only."""
    x, w = np.polynomial.legendre.leggauss(order)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


@functools.lru_cache(maxsize=16)
def _ring_panel_rule(order: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre rule on [0, pi] over dyadic panels
    [pi/2^{k+1}, pi/2^k] refined toward theta = 0, where the integrand
    develops its (integrable, logarithmic) singularity on the diagonal
    s = r.  Returns (theta, weights, sin(theta), sin^2(theta/2)), computed
    once per order and shared read-only."""
    x, w = gauss_legendre(order)
    thetas = []
    weights = []
    hi = math.pi
    for _ in range(54):
        lo = hi / 2.0
        mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
        thetas.append(mid + half * x)
        weights.append(half * w)
        hi = lo
    theta = np.concatenate(thetas)
    wts = np.concatenate(weights)
    rule = (theta, wts, np.sin(theta), np.sin(0.5 * theta) ** 2)
    for arr in rule:
        arr.flags.writeable = False
    return rule


def ring_kernel_mean(n: int, s: float, r: float) -> float:
    """Spherical mean of ``log|x - y|`` for ``|x| = s``, ``|y| = r``,
    by numerical angular quadrature (the independent route against the
    closed form behind :func:`potential_apply`).

    Evaluates ``c_n * integral_0^pi log sqrt((s-r)^2 + 4 s r sin^2(t/2))
    sin^{n-2} t dt`` on dyadic Gauss-Legendre panels of order 16 clustered
    toward ``t = 0``; the stabilized radicand keeps the diagonal
    ``s = r``, where the plain form ``s^2 + r^2 - 2 s r cos t`` cancels
    catastrophically, accurate down to below 1e-12.
    """
    if n < 2 or n % 2 != 0:
        raise GridMismatch(f"dimension must be even and >= 2, got {n}")
    if s < 0 or r < 0:
        raise GridMismatch("radii must be nonnegative")
    if s == 0.0 and r == 0.0:
        raise GridMismatch("ring kernel undefined at the origin pair")
    _, wts, sin_theta, sin_half_sq = _ring_panel_rule(16)
    cn = math.gamma(n / 2.0) / (math.sqrt(math.pi) * math.gamma((n - 1) / 2.0))
    vals = 0.5 * np.log((s - r) ** 2 + 4.0 * s * r * sin_half_sq)
    if n > 2:
        vals = vals * sin_theta ** (n - 2)
    return float(cn * (wts @ vals))


# ----------------------------------------------------------------------
# semi-separable potential
# ----------------------------------------------------------------------
# Gauss-Legendre order of the kernel moments per interval: orders 6 to 32
# all move u by under 1e-8, far below the discretization error.
_KERNEL_QUAD_ORDER = 12


@dataclass(frozen=True, eq=False)
class KernelMatrix:
    """The ring kernel on a grid, in semi-separable node form, paired.

    On either side of the diagonal the closed form factors as

        rho <= s:  Lambda_n(s, rho) = log s   - sum_j c_j s^{-2j} rho^{2j},
        rho >= s:  Lambda_n(s, rho) = log rho - sum_j c_j s^{2j} rho^{-2j},

    for j = 1..m-1.  ``hat_moments[p, j, 0]`` integrates the hat function
    of node j against ``dmu`` times below-function p, ordered
    ``1, rho^2, ..., rho^{2(m-1)}``; ``hat_moments[p, j, 1]`` integrates
    the hat function of node N - j against above-function p, ordered
    ``log rho, rho^{-2}, ..., rho^{-2(m-1)}``.  ``node_factors`` pairs the
    matching functions of ``s = r_i`` the same way: plane 0 holds
    ``log r_j, -c_p r_j^{-2p}`` at node j, plane 1 holds
    ``1, -c_p r^{2p}`` at node N - j, all divided by ``-gamma_m``.
    Plane 1 runs in reversed node order so that its suffix sums are
    prefix sums (see the module notes on the paired layout).
    ``diagonal[i]`` is the potential at ``r_i`` of node i's own hat: its
    rising half (below ``r_i``) against the below factors plus its falling
    half (above ``r_i``) against the above factors.  The origin row has no
    intervals below it, so its below factors are 0 and it reduces to
    ``Lambda_n(0, rho) = log rho``.
    """

    grid: RadialGrid
    hat_moments: np.ndarray
    node_factors: np.ndarray
    diagonal: np.ndarray

    def __post_init__(self):
        m, size = self.grid.m, len(self.grid.nodes)
        shapes = {
            "hat_moments": (m, size, 2),
            "node_factors": (m, size, 2),
            "diagonal": (size,),
        }
        for name, shape in shapes.items():
            arr = np.ascontiguousarray(getattr(self, name), dtype=float)
            if arr.shape != shape:
                raise GridMismatch(f"{name} shape does not match the grid")
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


def _semi_separable(grid: RadialGrid) -> tuple[np.ndarray, np.ndarray]:
    """The kernel's per-interval moments and node factors, before they are
    folded into node form: ``moments[h, p, k]`` integrates hat piece ``h``
    of interval ``k`` (0: falling from its left node, 1: rising to its
    right node) against ``dmu`` times moment function ``p``, by
    ``_KERNEL_QUAD_ORDER``-point Gauss-Legendre; ``factors[p, i]`` is the
    matching function of ``s = r_i``, not yet divided by ``-gamma_m``.
    Rows ``:m`` are the below-functions and rows ``m:`` the above-functions,
    each ordered as in :class:`KernelMatrix`."""
    n, m, nodes = grid.n, grid.m, grid.nodes
    xg, wg = gauss_legendre(_KERNEL_QUAD_ORDER)
    a, b = nodes[:-1, None], nodes[1:, None]
    half = 0.5 * (b - a)
    rho = 0.5 * (a + b) + half * xg
    meas = sphere_area(n) * rho ** (n - 1) * (half * wg)
    hats = np.stack([meas * ((b - rho) / (b - a)), meas * ((rho - a) / (b - a))])
    rho2 = rho**2
    funcs = [rho2**j for j in range(m)] + [np.log(rho)]
    funcs += [rho2 ** (-j) for j in range(1, m)]
    moments = np.einsum("hkq,pkq->hpk", hats, np.stack(funcs))

    coefs = _ring_closed_coeffs(n)
    factors = np.zeros((2 * m, len(nodes)))
    factors[0, 1:] = np.log(nodes[1:])
    factors[m] = 1.0
    for j in range(1, m):
        factors[j, 1:] = -coefs[2 * j] * nodes[1:] ** (-2 * j)
        factors[m + j] = -coefs[2 * j] * nodes ** (2 * j)
    return moments, factors


def _paired(rows: np.ndarray, m: int) -> np.ndarray:
    """The (2m, N + 1) rows as the (m, N + 1, 2) paired layout: below-row p
    in node order, above-row p in reversed node order."""
    paired = np.empty((m, rows.shape[1], 2))
    paired[..., 0] = rows[:m]
    paired[..., 1] = rows[m:, ::-1]
    return paired


def kernel_matrix(grid: RadialGrid) -> KernelMatrix:
    """The kernel's node form for a grid, in O(N m) time and memory: each
    node's two half-hat moments summed into one full-hat moment, the node
    factors divided by ``-gamma_m``, the diagonal term, and the moments and
    factors paired (:class:`KernelMatrix`)."""
    m = grid.m
    (falling, rising), factors = _semi_separable(grid)
    factors /= -constants(m).gamma_m
    hat_moments = np.zeros_like(factors)
    hat_moments[:, :-1] = falling
    hat_moments[:, 1:] += rising
    diagonal = np.zeros(len(grid.nodes))
    diagonal[1:] = np.einsum("pk,pk->k", factors[:m, 1:], rising[:m])
    diagonal[:-1] += np.einsum("pk,pk->k", factors[m:, :-1], falling[m:])
    return KernelMatrix(
        grid=grid,
        hat_moments=_paired(hat_moments, m),
        node_factors=_paired(factors, m),
        diagonal=diagonal,
    )


def potential_workspace(
    kernel: KernelMatrix,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Scratch arrays for :func:`potential_apply` on ``kernel``: the paired
    density (N + 1, 2), the weighted moments and their sums (m, N + 1, 2).
    A solve allocates them once and passes them to every application."""
    shape = kernel.hat_moments.shape
    return np.empty(shape[1:]), np.empty(shape), np.empty(shape)


def potential_apply(
    kernel: KernelMatrix,
    density: RadialField,
    workspace: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> RadialField:
    """Potential of a radial density:
    ``out_i = -(1/gamma_m) * integral Lambda_n(r_i, rho) density(rho) dmu``.

    The integral is taken against the density's piecewise-linear
    interpolant, i.e. it is exact up to the per-interval Gauss-Legendre
    error.  The density is paired with itself reversed, weighted by the
    paired full-hat moments, and one ``cumsum`` over the complex view
    accumulates the nodes below ``r_i`` outward and those above it
    inward, so the growing ``rho^{2j}`` and the decaying ``rho^{-2j}``
    terms are each summed smallest first and no sum is formed as a total
    minus a partial sum; node i's own hat enters through the kernel's
    diagonal term.  ``workspace`` is :func:`potential_workspace`'s scratch
    for the kernel, or None for fresh arrays; the result never aliases
    it.  gamma_m is that of the kernel's own m.  The caller is responsible
    for the density's discrete mass: a nonzero mass ``mu`` produces a
    ``-(mu/gamma_m) log r`` tail, which is faithfully reproduced, not
    corrected.
    """
    kernel.grid.ensure_same(density.grid)
    f = density.values
    paired, weighted, sums = workspace or potential_workspace(kernel)
    paired[:, 0] = f
    paired[:, 1] = f[::-1]
    np.multiply(kernel.hat_moments, paired, out=weighted)
    # Plane 0 of sums[:, j] is the sum strictly below node j, plane 1 the
    # sum strictly above node N - j.
    complex_sums = sums.view(np.complex128)[..., 0]
    complex_sums[:, 0] = 0.0
    np.cumsum(
        weighted.view(np.complex128)[:, :-1, 0], axis=1, out=complex_sums[:, 1:]
    )
    contracted = np.einsum("pjc,pjc->jc", kernel.node_factors, sums)
    values = contracted[:, 0] + contracted[::-1, 1]
    values += kernel.diagonal * f
    return RadialField(grid=density.grid, values=values)
