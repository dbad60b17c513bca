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
node order is a prefix sum in reversed order, so one prefix sum
(``np.add.accumulate``, which ``cumsum`` calls) over the complex128 view
of the weighted moments, whose real and imaginary parts are two
independent IEEE sums, yields every exclusive prefix sum and every
exclusive suffix sum at once, each accumulated smallest first and bit
for bit as two real ``cumsum`` calls would.  Only the final
contraction groups the terms as (sum below) + (sum above).
"""

from __future__ import annotations

import functools
import math
import numbers
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
    """Constants for dimension n = 2m, built once per m and shared (the
    dataclass is frozen).  The rule on m is stated here: an int, not a
    bool, in 1..6; any other m raises DimensionMismatch.  ``RadialGrid``,
    ``u0_eval`` and ``spherical_solution`` read it from here."""
    if isinstance(m, bool) or not isinstance(m, int) or not 1 <= m <= 6:
        raise DimensionMismatch(f"m must be in 1..6 and an int, got {m!r}")
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


def _check_nodes(nodes: np.ndarray) -> None:
    if not (nodes[0] == 0.0 and np.all(np.diff(nodes) > 0) and nodes[-1] < math.inf):
        raise GridMismatch("nodes must be finite, start at 0 and increase strictly")


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
        constants(self.m)  # refuses an m outside its rule
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.quad_weights, dtype=float)
        if nodes.ndim != 1 or nodes.shape != weights.shape:
            raise GridMismatch("nodes and weights must be 1-d and congruent")
        if len(nodes) < 65:
            raise GridMismatch(f"need at least 64 intervals, got {len(nodes) - 1}")
        _check_nodes(nodes)
        if not np.all((weights > 0) & (weights < math.inf)):
            raise GridMismatch("quadrature weights must be positive and finite")
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


# The most intervals a grid may have, 16 times the finest grid a study here
# uses (65536): a config that asks for more is refused by this rule rather
# than by a failed allocation.  At the bound and m = 6, kernel_matrix takes
# 1.2 s on one core of a 2-core x86-64 VM and peaks at 210.5 MB (tracemalloc),
# of which 209.7 MB is the KernelMatrix it returns.
_MAX_INTERVALS = 2**20


def check_grid_parameters(m, r_max, n_intervals, sinh_strength) -> None:
    """Raise GridMismatch naming the first argument that no grid is built
    from: m an int in 1..6, r_max a real number in (1, inf), n_intervals
    an int in 64..``_MAX_INTERVALS``, sinh_strength a real number in
    (0, inf) whose sinh is finite.  Bools are refused."""
    for name, value, kind, noun in (
        ("m", m, int, "an int"),
        ("n_intervals", n_intervals, int, "an int"),
        ("r_max", r_max, numbers.Real, "a real number"),
        ("sinh_strength", sinh_strength, numbers.Real, "a real number"),
    ):
        if isinstance(value, bool) or not isinstance(value, kind):
            raise GridMismatch(f"{name} must be {noun}, got {value!r}")
    if m < 1 or m > 6:
        raise GridMismatch(f"m must be in 1..6, got {m}")
    if not 1.0 < r_max < math.inf:
        raise GridMismatch(f"r_max must exceed 1 and be finite, got {r_max}")
    if not 64 <= n_intervals <= _MAX_INTERVALS:
        raise GridMismatch(
            f"n_intervals must be in 64..{_MAX_INTERVALS}, got {n_intervals}"
        )
    if not 0.0 < sinh_strength < math.inf:
        raise GridMismatch(
            f"sinh_strength must be positive and finite, got {sinh_strength}"
        )
    try:
        math.sinh(sinh_strength)
    except OverflowError:
        raise GridMismatch(f"sinh({sinh_strength}) overflows") from None


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
    check_grid_parameters(m, r_max, n_intervals, sinh_strength)
    if map_kind not in ("uniform", "sinh-clustered"):
        raise GridMismatch(f"unknown map_kind {map_kind!r}")
    xi = np.linspace(0.0, 1.0, n_intervals + 1)
    try:
        with np.errstate(over="raise", invalid="raise"):
            if map_kind == "uniform":
                nodes = r_max * xi
            else:
                nodes = r_max * np.sinh(sinh_strength * xi) / math.sinh(sinh_strength)
            nodes[0], nodes[-1] = 0.0, r_max
            _check_nodes(nodes)
            weights = _hat_weights(nodes, 2 * m)
            weights *= ball_volume(2 * m, r_max) / weights.sum()
    except (OverflowError, FloatingPointError):
        raise GridMismatch(f"r_max = {r_max:g} overflows the grid's weights") from None
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
def _ring_panel_rule(order: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre rule on [0, pi] over dyadic panels
    [pi/2^{k+1}, pi/2^k] refined toward theta = 0, where the integrand
    develops its (integrable, logarithmic) singularity on the diagonal
    s = r.  Returns (theta, weights, sin(theta), sin^2(theta/2)), computed
    once per order and shared read-only."""
    x, w = np.polynomial.legendre.leggauss(order)
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
    if not (0.0 <= s < math.inf and 0.0 <= r < math.inf):
        raise GridMismatch(f"radii must be finite and nonnegative, got {s}, {r}")
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


def _moment_blocks(grid: RadialGrid, block: int):
    """Yield ``(lo, moments)`` over runs of at most ``block`` intervals:
    ``moments[h, p, k]`` integrates hat piece ``h`` of interval ``lo + k``
    (0: falling from its left node, 1: rising to its right node) against
    ``dmu`` times moment function ``p`` by ``_KERNEL_QUAD_ORDER``-point
    Gauss-Legendre, in the same operations whatever ``block`` is.  Rows
    ``:m`` are the below-functions and rows ``m:`` the above-functions,
    each ordered as in :class:`KernelMatrix`."""
    n, m, nodes = grid.n, grid.m, grid.nodes
    xg, wg = np.polynomial.legendre.leggauss(_KERNEL_QUAD_ORDER)
    for lo in range(0, len(nodes) - 1, block):
        edges = nodes[lo : lo + block + 1]
        a, b = edges[:-1, None], edges[1:, None]
        half = 0.5 * (b - a)
        rho = 0.5 * (a + b) + half * xg
        meas = sphere_area(n) * rho ** (n - 1) * (half * wg)
        hats = np.stack([meas * ((b - rho) / (b - a)), meas * ((rho - a) / (b - a))])
        rho2 = rho**2
        funcs = [rho2**j for j in range(m)] + [np.log(rho)]
        funcs += [rho2 ** (-j) for j in range(1, m)]
        yield lo, np.einsum("hkq,pkq->hpk", hats, np.stack(funcs))


def _planes(paired: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The below and above planes of an (m, N + 1, 2) paired array as two
    (m, N + 1) views in node order."""
    return paired[..., 0], paired[:, ::-1, 1]


def _node_factors(grid: RadialGrid) -> np.ndarray:
    """The kernel's node factors in the paired layout, not yet divided by
    ``-gamma_m``: the functions of ``s = r_i`` that match the moments."""
    m, nodes = grid.m, grid.nodes
    coefs = _ring_closed_coeffs(grid.n)
    factors = np.zeros((m, len(nodes), 2))
    below, above = _planes(factors)
    below[0, 1:] = np.log(nodes[1:])
    above[0] = 1.0
    for j in range(1, m):
        below[j, 1:] = -coefs[2 * j] * nodes[1:] ** (-2 * j)
        above[j] = -coefs[2 * j] * nodes ** (2 * j)
    return factors


# Intervals whose Gauss-node moments are held at once while the kernel is
# assembled: a block's temporaries peak at about 0.8 MB at m = 6
# (tracemalloc), against the 200 B per node of the arrays returned.
_KERNEL_BLOCK = 256


def kernel_matrix(grid: RadialGrid) -> KernelMatrix:
    """The kernel's node form for a grid (:class:`KernelMatrix`), written
    straight into the paired layout: each node's two half-hat moments
    summed into one full-hat moment, the node factors divided by
    ``-gamma_m``, and the diagonal term.  The moments are evaluated
    ``_KERNEL_BLOCK`` intervals at a time, so the memory peaks at the
    returned (4m + 1)(N + 1) floats plus one block."""
    m = grid.m
    node_factors = _node_factors(grid)
    node_factors /= -constants(m).gamma_m
    hat_moments = np.zeros_like(node_factors)
    diagonal = np.zeros(len(grid.nodes))
    factor_below, factor_above = _planes(node_factors)
    hat_below, hat_above = _planes(hat_moments)
    for lo, (falling, rising) in _moment_blocks(grid, _KERNEL_BLOCK):
        # The blocks' left and right nodes: each interval's falling piece
        # belongs to its left node's hat, its rising piece to its right's.
        left = slice(lo, lo + falling.shape[1])
        right = slice(lo + 1, left.stop + 1)
        hat_below[:, left] += falling[:m]
        hat_below[:, right] += rising[:m]
        hat_above[:, left] += falling[m:]
        hat_above[:, right] += rising[m:]
        diagonal[right] += np.einsum("pk,pk->k", factor_below[:, right], rising[:m])
        diagonal[left] += np.einsum("pk,pk->k", factor_above[:, left], falling[m:])
    return KernelMatrix(grid, hat_moments, node_factors, diagonal)


def potential_apply(kernel: KernelMatrix, density: np.ndarray) -> np.ndarray:
    """Potential of a radial density given by its values at the kernel's
    grid nodes:
    ``out_i = -(1/gamma_m) * integral Lambda_n(r_i, rho) density(rho) dmu``,
    a new array.  Raises GridMismatch when ``density`` does not have the
    grid's shape.

    The integral is taken against the density's piecewise-linear
    interpolant, i.e. it is exact up to the per-interval Gauss-Legendre
    error.  The density is paired with itself reversed, weighted by the
    paired full-hat moments, and one prefix sum over the complex view
    accumulates the nodes below ``r_i`` outward and those above it
    inward, so the growing ``rho^{2j}`` and the decaying ``rho^{-2j}``
    terms are each summed smallest first and no sum is formed as a total
    minus a partial sum; node i's own hat enters through the kernel's
    diagonal term.  gamma_m is that of the kernel's own m.  The caller is
    responsible for the density's discrete mass: a nonzero mass ``mu``
    produces a ``-(mu/gamma_m) log r`` tail, which is faithfully
    reproduced, not corrected.
    """
    f = density
    if f.shape != kernel.diagonal.shape:
        raise GridMismatch(
            f"density has shape {f.shape}, the kernel's grid {kernel.diagonal.shape}"
        )
    paired = np.empty((len(f), 2))
    paired[:, 0] = f
    paired[:, 1] = f[::-1]
    weighted = kernel.hat_moments * paired
    sums = np.empty_like(weighted)
    # Plane 0 of sums[:, j] is the sum strictly below node j, plane 1 the
    # sum strictly above node N - j.
    complex_sums = sums.view(np.complex128)[..., 0]
    complex_sums[:, 0] = 0.0
    np.add.accumulate(
        weighted.view(np.complex128)[:, :-1, 0], axis=1, out=complex_sums[:, 1:]
    )
    contracted = np.einsum("pjc,pjc->jc", kernel.node_factors, sums)
    values = contracted[:, 0] + contracted[::-1, 1]
    values += kernel.diagonal * f
    return values
