"""Checks of candidate solutions, and the package's finite differences.

Nothing here reuses the solver's fixed-point machinery: residuals come
from finite-difference stencils, the Pohozaev identity from its own
integration-by-parts terms.  The volume check is the exception: it
integrates with the grid's ``quad_weights``, the rule the solver
normalizes c_v with, so its error is 0 to 1e-15 on every solve and
shows only that the normalization was applied, not the quadrature
error (ROADMAP item 1 replaces it with an independent rule).

The 3-point stencils (:class:`StencilTable`), (-Delta)^k composed from
them with its origin rule (:func:`radial_polyharmonic`) and their exact
oracle, the spherical solutions, live here and nowhere else.  The alpha
fit reads the pieces the solver combined, -alpha u0 + v + c_v, which
equal u + P without forming that difference.

What depends on the grid alone is built once per grid and kept
read-only: the alpha fit's window, least-squares design and its
pseudo-inverse, the volume check's tail window and its slope weights,
the Pohozaev boundary terms' linear functional on the window around
their node (the stencil chain run once on the window's unit vectors),
the ball and annulus quadrature rules at a node, and the grid's stencil
table.  Each check reads these
pieces for whatever window or radius it is given, so a report on a grid
seen before does only the work that depends on the solution, and its
values are the same bits as on a fresh grid.  A grid's pieces live on one
layout, which keeps a bounded number of each kind.  The layout lives and
dies with its grid: it is built on the grid's first check, held only as
long as the grid is, and freed with it.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import weakref
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import DimensionMismatch, GridMismatch, TailNotNegligible
from .potential import RadialField, RadialGrid, _read_only, constants, sphere_area

if TYPE_CHECKING:
    from .solver import SolutionRecord

# A solution profile whose values all sit below this level is treated as
# degenerate (volume at underflow scale): the tail-decay certificate is
# skipped because there is no meaningful tail to certify.
_DEGENERATE_LEVEL = -50.0

# Per grid, a report reads one fit design and one Pohozaev window, snaps
# six radii to nodes, and takes the ball rule at one of them and annulus
# rules at five.  A grid's layout keeps at least that many pieces of each
# kind for as long as the grid lives.
_NODES_PER_GRID = 8
_WINDOWS_PER_GRID = 2


class _Layout:
    """The pieces of the checks that depend on one grid alone, each built
    on first use and kept read-only: the last ``_NODES_PER_GRID`` of each
    kind keyed by a radius or node, the last ``_WINDOWS_PER_GRID`` of each
    kind keyed by a window, the volume check's tail window and the grid's
    :class:`StencilTable`.

    The builders hold the grid through a weak proxy, so the layout never
    keeps its grid alive and is freed with it (:func:`_layout`)."""

    def __init__(self, grid: RadialGrid):
        grid = weakref.proxy(grid)
        per_node = functools.lru_cache(maxsize=_NODES_PER_GRID)
        per_window = functools.lru_cache(maxsize=_WINDOWS_PER_GRID)
        self.nearest_index = per_node(functools.partial(RadialGrid.nearest_index, grid))
        self.weights_within = per_node(functools.partial(RadialGrid.weights_within, grid))
        self.weights_beyond = per_node(functools.partial(RadialGrid.weights_beyond, grid))
        self.fit = per_window(functools.partial(_fit_layout, grid))
        self.pohozaev_window = per_window(functools.partial(_pohozaev_window, grid))
        self.tail_window = per_window(functools.partial(_tail_window, grid))
        self.stencil = functools.lru_cache(maxsize=1)(
            lambda: stencil_table(grid.nodes, grid.n)
        )


_layouts: weakref.WeakKeyDictionary[RadialGrid, _Layout] = weakref.WeakKeyDictionary()


def _layout(grid: RadialGrid) -> _Layout:
    layout = _layouts.get(grid)
    if layout is None:
        layout = _layouts[grid] = _Layout(grid)
    return layout


# ----------------------------------------------------------------------
# the exact oracle
# ----------------------------------------------------------------------
def spherical_solution(m: int, lam: float, r) -> np.ndarray | float:
    """The explicit solution u(r) = log(2 lambda) - log(1 + lambda^2 r^2).

    Solves (-Delta)^m u = (2m-1)! e^{2mu} with conformal volume
    vol(S^{2m}) for every lambda > 0; the family obeys the covariance
    u_lambda(r) = u_1(lambda r) + log lambda.
    """
    constants(m)  # refuses an m outside its rule
    if not lam > 0:
        raise DimensionMismatch(f"lambda must be positive, got {lam}")
    rr = np.asarray(r, dtype=float)
    if np.any(rr < 0):
        raise DimensionMismatch("radius must be nonnegative")
    out = math.log(2.0 * lam) - np.log1p((lam * rr) ** 2)
    return float(out) if np.isscalar(r) else out


# ----------------------------------------------------------------------
# radial stencils
# ----------------------------------------------------------------------
@dataclass(frozen=True, eq=False)
class StencilTable:
    """The 3-point non-uniform difference formulas of ``nodes`` in
    dimension ``n``, as per-node coefficient rows for the interior nodes
    ``nodes[1:-1]``.  With ``hm = r_i - r_{i-1}``, ``hp = r_{i+1} - r_i``
    and ``hs = hm + hp``, each formula is applied in difference form,

        L f_i = c_-(f_{i-1} - f_i) + c_+(f_{i+1} - f_i),

    where ``rows[0]`` holds c_- and ``rows[1]`` holds c_+ of each formula:

        d1_rows         f':              c_- = -hp / (hm hs), c_+ = hm / (hp hs),
        laplacian_rows  f'' + (n-1)/r f': f'' rows + (n-1)/r_i d1_rows,

    with the f'' rows c_- = 2 / (hm hs), c_+ = 2 / (hp hs).

    The difference form is exact on constants, which keeps the rounding
    of composed stencils at the scale of f's variation rather than of f.
    The rows are read-only.  The methods act along the last axis, so they
    take one field or a stack of them.
    """

    n: int
    nodes: np.ndarray
    d1_rows: np.ndarray
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

    def d1(self, values: np.ndarray) -> np.ndarray:
        """First radial derivative: the interior formula, even-extension
        zero at the origin, first-order backward at the last node."""
        out = np.empty_like(values)
        self._interior(self.d1_rows, values, out[..., 1:-1])
        out[..., 0] = 0.0
        step = self.nodes[-1] - self.nodes[-2]
        out[..., -1] = (values[..., -1] - values[..., -2]) / step
        return out

    def laplacian(self, values: np.ndarray) -> np.ndarray:
        """Radial Laplacian f'' + (n-1)/r f' on the interior nodes; the
        end entries are 0 and invalid."""
        out = np.empty_like(values)
        self._interior(self.laplacian_rows, values, out[..., 1:-1])
        out[..., 0] = out[..., -1] = 0.0
        return out


_STENCIL_ROWS = ("d1_rows", "laplacian_rows")


def stencil_table(nodes: np.ndarray, n: int) -> StencilTable:
    """The 3-point :class:`StencilTable` of ``nodes`` in dimension ``n``."""
    hm = nodes[1:-1] - nodes[:-2]
    hp = nodes[2:] - nodes[1:-1]
    hs = hm + hp
    d1_rows = np.stack([-hp / (hm * hs), hm / (hp * hs)])
    d2_rows = np.stack([2.0 / (hm * hs), 2.0 / (hp * hs)])
    laplacian_rows = d2_rows + (n - 1) / nodes[1:-1] * d1_rows
    table = StencilTable(n, nodes, d1_rows, laplacian_rows)
    for name in _STENCIL_ROWS:
        getattr(table, name).flags.writeable = False
    return table


def _polyharmonic_valid_nodes(node_count: int, k: int) -> slice:
    """The nodes on which k compositions of the radial stencil are
    trusted: k - 1 ... node_count - 1 - k.

    Each composition loses the outermost node, and for k >= 2 the first
    k - 1 nodes go as well, because composing the origin rule k times
    leaves an O(1) truncation remnant there (observed empirically; the
    interior is clean second order)."""
    return slice(k - 1, node_count - k)


def radial_polyharmonic(f: RadialField, k: int) -> RadialField:
    """Apply (-Delta)^k to a radial field by composing the grid's
    second-order radial Laplacian k times.

    A regular radial function is even, so at the origin its second
    derivative is read from the secants a, b = 2 (f_i - f_0) / r_i^2 of
    the two leading nodes, and Delta f(0) = n f''(0) is set to
    n a + (n-1)/3 (b - a), a Richardson-style correction that restores
    second-order accuracy of the composed operator near the origin.
    Values outside :func:`_polyharmonic_valid_nodes` are stored as 0.
    """
    grid = f.grid
    if k < 1 or k > grid.m:
        raise GridMismatch(f"k must be in 1..{grid.m}, got {k}")
    table = _layout(grid).stencil()
    nodes, n = grid.nodes, grid.n
    values = f.values
    for _ in range(k):
        a = 2.0 * (values[1] - values[0]) / nodes[1] ** 2
        b = 2.0 * (values[2] - values[0]) / nodes[2] ** 2
        values = table.laplacian(values)
        values[0] = n * a + (n - 1) / 3.0 * (b - a)
        np.negative(values, out=values)
    keep = _polyharmonic_valid_nodes(len(values), k)
    out = np.zeros_like(values)
    out[keep] = values[keep]
    return RadialField(grid=grid, values=out)


# ----------------------------------------------------------------------
# PDE residual
# ----------------------------------------------------------------------
def pde_residual(u: RadialField, sign: int, exp_2mu: np.ndarray | None = None) -> float:
    """Max relative residual of (-Delta)^m u = sign (2m-1)! e^{2mu}, m of u.grid;
    ``exp_2mu`` is e^{2mu} at every node, for a caller that already holds it.

    The residual at node i is |LHS - RHS|_i / (|RHS|_i + max|RHS|).
    Normalizing by the density's peak (rather than a tiny absolute
    floor) is deliberate: in the far field the density underflows while
    the composed stencil's rounding error is amplified like h^{-2m}, so
    a pointwise-relative measure out there would report pure rounding
    noise; the peak scale is the one on which the equation lives.
    Only the nodes on which the composed stencil is trusted
    (:func:`radial_polyharmonic`) are compared.
    """
    grid = u.grid
    m = grid.m
    if sign not in (1, -1):
        raise GridMismatch(f"sign must be +1 or -1, got {sign}")
    keep = _polyharmonic_valid_nodes(len(grid.nodes), m)
    lhs = radial_polyharmonic(u, m).values[keep]
    if exp_2mu is None:
        exp_2mu = np.exp(2 * m * u.values)
    rhs = sign * constants(m).factorial_2m_minus_1 * exp_2mu[keep]
    floor = max(float(np.max(np.abs(rhs))), 1e-300)
    rel = np.abs(lhs - rhs) / (np.abs(rhs) + floor)
    return float(np.max(rel))


# ----------------------------------------------------------------------
# conformal volume
# ----------------------------------------------------------------------
def conformal_volume(
    u: RadialField, exp_2mu: np.ndarray | None = None
) -> tuple[float, float]:
    """Quadrature of e^{2mu} (m of u.grid) plus an analytic estimate of
    the neglected tail beyond R_max (returned as an error bar);
    ``exp_2mu`` as in :func:`pde_residual`.

    The quadrature uses ``grid.quad_weights``, the rule by which the
    solver's c_v matches the prescribed volume, so on a solve's own u it
    returns that volume to rounding: it is not an independent check of
    the quadrature error (ROADMAP item 1).

    The tail is certified from the last quarter of the grid: the
    integrand's log-log slope q must satisfy q < -2m (integrability),
    and the implied tail integral value(R_max) * omega * R^{2m}/(-q-2m)
    must stay below 1e-6 of the computed volume, else
    :class:`TailNotNegligible` is raised.  Profiles that are degenerate
    (all values <= -50) skip the certificate: their volume sits at the
    underflow scale and has no meaningful tail.
    """
    grid = u.grid
    m = grid.m
    integrand = np.exp(2 * m * u.values) if exp_2mu is None else exp_2mu
    volume = float(grid.quad_weights @ integrand)
    if float(np.max(u.values)) <= _DEGENERATE_LEVEL:
        return volume, 0.0
    window, slope_weights = _layout(grid).tail_window()
    tail_vals = integrand[window]
    if np.any(tail_vals <= 0.0):
        return volume, 0.0  # integrand underflowed: tail below representable
    slope = float(slope_weights @ np.log(tail_vals))
    if slope > -2.0 * m - 0.25:
        raise TailNotNegligible(
            f"cannot certify tail decay: fitted integrand exponent {slope:.3g} "
            f"is not below -2m = {-2 * m}"
        )
    tail = (
        float(integrand[-1])
        * sphere_area(grid.n)
        * grid.r_max**grid.n
        / (-slope - 2.0 * m)
    )
    if tail > 1e-6 * volume:
        raise TailNotNegligible(
            f"estimated tail {tail:.3e} exceeds 1e-6 of the volume "
            f"{volume:.6g}; enlarge r_max"
        )
    return volume, tail


def _tail_window(grid: RadialGrid) -> tuple[slice, np.ndarray]:
    """The nodes of the tail certificate's window, r >= 3 r_max / 4 or
    else the last 8 nodes, as a slice, and the weights that give the
    least-squares slope of a log-log line over it: with x = log r and
    c = x - mean(x), the slope of y is (c . y) / (c . c).

    c is centred a second time, so that its rounded entries sum to zero
    to the rounding of c rather than of x, which is 10-30 times larger on
    the window; mean(y), which c . y must cancel, then drops out to that
    rounding."""
    start = min(
        int(np.searchsorted(grid.nodes, 0.75 * grid.r_max, side="left")),
        len(grid.nodes) - 8,
    )
    centred = np.log(grid.nodes[start:])
    for _ in range(2):
        centred -= centred.mean()
    return slice(start, None), _read_only(centred / (centred @ centred))


# ----------------------------------------------------------------------
# asymptotic profile fit
# ----------------------------------------------------------------------
def _default_fit_window(grid: RadialGrid) -> tuple[float, float]:
    return (grid.r_max / 4.0, grid.r_max / 2.0)


def _fit_layout(
    grid: RadialGrid, r_lo: float, r_hi: float
) -> tuple[slice, np.ndarray, np.ndarray]:
    """The nodes of the alpha-fit window [r_lo, r_hi], as a slice, the
    fit's least-squares design on them and its pseudo-inverse;
    GridMismatch names the rule a window breaks.

    The design's columns are -log r, 1 and (r_lo / r)^{2j} for
    j = 1..m-1: the far-field columns are scaled to 1 at the window's
    start, so the design stays well conditioned up to r^{-2(m-1)}, and
    its pseudo-inverse maps the window's values to the least-squares
    coefficients."""
    if not r_lo >= 5.0:
        raise GridMismatch(f"fit window must start at r >= 5, got {r_lo}")
    if not r_hi <= grid.r_max:
        raise GridMismatch(f"fit window exceeds r_max = {grid.r_max}")
    if not r_hi > r_lo:
        raise GridMismatch("fit window is empty")
    window = slice(
        int(np.searchsorted(grid.nodes, r_lo, side="left")),
        int(np.searchsorted(grid.nodes, r_hi, side="right")),
    )
    r = grid.nodes[window]
    if len(r) < 20:
        raise GridMismatch(f"fit window contains {len(r)} nodes, need >= 20")
    decay = (r_lo / r) ** 2
    design = np.column_stack(
        [-np.log(r), np.ones_like(r)] + [decay**j for j in range(1, grid.m)]
    )
    return window, _read_only(design), _read_only(np.linalg.pinv(design))


def asymptotic_profile(
    w: RadialField, fit_window: tuple[float, float] | None = None
) -> tuple[float, float, float]:
    """Least-squares fit of w(r) against
    -alpha log r + C + sum_{j=1}^{m-1} a_j r^{-2j} over a radius window
    (default [R_max/4, R_max/2]).

    For a solution u with profile P, w is u + P; :func:`build_report`
    passes -alpha u0 + v + c_v, the same field without the cancelling
    difference, which for a top-degree P loses every digit of alpha.
    The r^{-2j} terms are the far field of the log-potential of a
    zero-mass radial density (and of u0 = log(1 + r^2) / 2); leaving
    them out biases alpha at large |alpha|.  Returns (alpha_fitted,
    C_fitted, deviation) with deviation the sup of the fit residual over
    the window.
    """
    grid = w.grid
    if fit_window is None:
        fit_window = _default_fit_window(grid)
    window, design, pseudo_inverse = _layout(grid).fit(
        float(fit_window[0]), float(fit_window[1])
    )
    target = w.values[window]
    coef = pseudo_inverse @ target
    deviation = float(np.max(np.abs(design @ coef - target)))
    return float(coef[0]), float(coef[1]), deviation


# ----------------------------------------------------------------------
# Pohozaev identity
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PohozaevTerms:
    """The six terms of the radial Pohozaev balance at radius R.

    Volume terms (over B_R):
      t1 = integral (x . grad K) e^{2m wbar},
      t2 = 2m integral K e^{2m wbar},
      t3 = -2m alpha integral (x . grad wbar) density_u0;
    boundary terms (over the sphere of radius R):
      b1 = R * surface integral of K e^{2m wbar},
      b2 = -m R * surface integral of |Delta^{m/2} wbar|^2,
      b3 = -2m * surface integral of the cross term f
           (products of radial derivatives of wbar up to order 2m-1).
    The identity is t1 + t2 + t3 = b1 + b2 + b3 for exact solutions.
    """

    radius: float
    t1: float
    t2: float
    t3: float
    b1: float
    b2: float
    b3: float

    @property
    def lhs(self) -> float:
        return self.t1 + self.t2 + self.t3

    @property
    def rhs(self) -> float:
        return self.b1 + self.b2 + self.b3

    @property
    def defect(self) -> float:
        floor = (
            abs(self.t1)
            + abs(self.t2)
            + abs(self.t3)
            + abs(self.b1)
            + abs(self.b2)
            + abs(self.b3)
            + 1e-300
        )
        return abs(self.lhs - self.rhs) / (abs(self.lhs) + abs(self.rhs) + floor)

    @property
    def volume_balance(self) -> float:
        """|t1 + t2 + t3| relative to the largest volume term; tends to 0
        as R grows (the boundary terms decay)."""
        scale = max(abs(self.t1), abs(self.t2), abs(self.t3), 1e-300)
        return abs(self.t1 + self.t2 + self.t3) / scale


def _pohozaev_index(grid: RadialGrid, R: float) -> int:
    """The node R snaps to, if the boundary stencils fit either side."""
    idx = _layout(grid).nearest_index(R)
    if idx < 2 * grid.m + 1 or len(grid.nodes) - 1 - idx < 2 * grid.m + 1:
        raise GridMismatch(
            f"radius {R} too close to the grid ends for the boundary stencils"
        )
    return idx


def _pohozaev_window(grid: RadialGrid, index: int) -> np.ndarray:
    """The Pohozaev boundary terms' linear functional at ``index``: a
    read-only matrix whose rows, applied to the values on the m + 1 nodes
    either side of ``index``, give at ``index`` Delta^k of them for
    k = 0..m, their radial derivatives, then the same for g = x . grad of
    them up to k = (m - 1) // 2.  It is built by running that chain of
    stencils on the window's unit vectors, all at once.

    No chain applies more than m + 1 three-point stencils, so the window's
    end values are wrong but the error moves in by one node per stencil
    and never reaches its centre."""
    m = grid.m
    table = stencil_table(grid.nodes[index - (m + 1) : index + m + 2], grid.n)
    w_iter = [np.eye(2 * m + 3)]
    for _ in range(m):
        w_iter.append(table.laplacian(w_iter[-1]))
    g_iter = [table.nodes * table.d1(w_iter[0])]
    for _ in range((m - 1) // 2):
        g_iter.append(table.laplacian(g_iter[-1]))
    derivatives = [table.d1(arr) for arr in w_iter + g_iter]
    rows = w_iter + derivatives[: m + 1] + g_iter + derivatives[m + 1 :]
    return _read_only(np.stack([arr[:, m + 1] for arr in rows]))


def pohozaev_terms(
    v: RadialField,
    c_v: float,
    log_K: RadialField,
    u0_density: RadialField,
    sign: int,
    alpha: float,
    R: float,
    curvature: np.ndarray | None = None,
) -> PohozaevTerms:
    """The six terms of the Pohozaev balance of wbar = v + c_v (c_v finite,
    else GridMismatch) at the grid node nearest to R (R snapped to it).
    ``curvature`` is |K| e^{2m wbar} at the nodes (:func:`_curvature_density`),
    for a caller that already holds it.

    The curvature factor enters as log|K| with K = sign e^{log_K}, so
    K e^{2m wbar} is sign times :func:`_curvature_density` and
    ``x . grad K`` e^{2m wbar} is r (log_K)'(r) times that term, by
    stencil differentiation of log_K;
    ``x . grad wbar`` is r v'(r) (wbar and v differ by a constant).  For
    radial fields every tensor contraction in the boundary cross term
    reduces to products of radial derivatives of Laplacian iterates,
    assembled here for any m; the iterates at R come from the grid's
    cached functional (:func:`_pohozaev_window`) in one matrix-vector
    product.
    """
    grid = v.grid
    for other in (log_K, u0_density):
        grid.ensure_same(other.grid)
    if not math.isfinite(c_v):
        raise GridMismatch(f"c_v must be finite, got {c_v}")
    m, n = grid.m, grid.n
    idx = _pohozaev_index(grid, R)
    r_snap = float(grid.nodes[idx])
    nodes, st = grid.nodes, _layout(grid).stencil()
    w_in = _layout(grid).weights_within(idx)
    two_m = 2.0 * m
    om = sphere_area(n)

    wbar = v.values + c_v
    if curvature is None:
        curvature = _curvature_density(log_K, wbar)
    k_e_w = sign * curvature
    x_grad_log_k = nodes * st.d1(log_K.values)
    x_grad_w = nodes * st.d1(v.values)
    t1 = float(w_in @ (x_grad_log_k * k_e_w))
    t2 = float(two_m * (w_in @ k_e_w))
    t3 = float(-two_m * alpha * (w_in @ (x_grad_w * u0_density.values)))

    # Laplacian iterates of wbar and of g = x . grad wbar, plus their
    # radial derivatives, at the snapped radius.  Every row read below
    # annihilates constants (the first, the centre value itself, is never
    # read), so the functional is applied to v less its centre value: like
    # the difference-form stencils, it then rounds on the window's
    # variation, not on wbar's level, which c_v sets.
    functional = _layout(grid).pohozaev_window(idx)
    variation = v.values[idx - (m + 1) : idx + m + 2] - v.values[idx]
    at_radius = (functional @ variation).tolist()
    w_iter, w_prime = at_radius[: m + 1], at_radius[m + 1 : 2 * m + 2]
    g_count = (m - 1) // 2 + 1
    g_iter = at_radius[2 * m + 2 : 2 * m + 2 + g_count]
    g_prime = at_radius[2 * m + 2 + g_count :]

    b1 = float(om * r_snap**n * k_e_w[idx])
    if m % 2 == 0:
        half_power = w_iter[m // 2]
    else:
        half_power = w_prime[(m - 1) // 2]
    b2 = float(-m * om * r_snap**n * half_power**2)

    cross = 0.0
    for j in range(m):
        parity_sign = (-1.0) ** (m + j)
        if j % 2 == 0:
            cross += parity_sign * g_iter[j // 2] * w_prime[m - 1 - j // 2]
        else:
            cross += parity_sign * g_prime[(j - 1) // 2] * w_iter[m - (j + 1) // 2]
    b3 = float(-two_m * om * r_snap ** (n - 1) * cross)

    return PohozaevTerms(radius=r_snap, t1=t1, t2=t2, t3=t3, b1=b1, b2=b2, b3=b3)


def record_pohozaev_terms(
    record: SolutionRecord,
    R: float,
    curvature: np.ndarray | None = None,
) -> PohozaevTerms:
    """Pohozaev terms of a finished solve at radius R; ``curvature`` as in
    :func:`pohozaev_terms`."""
    return pohozaev_terms(
        record.v,
        record.c_v,
        record.log_K,
        record.u0_density,
        record.config.sign,
        record.alpha,
        R,
        curvature,
    )


# ----------------------------------------------------------------------
# tail curvature mass
# ----------------------------------------------------------------------
def tail_curvature_mass(log_K: RadialField, wbar: RadialField, R: float) -> float:
    """Quadrature of |K| e^{2m wbar} = e^{log_K + 2m wbar} over the
    annulus r > R (R snapped to the nearest node); exactly non-increasing
    in R."""
    grid = log_K.grid
    grid.ensure_same(wbar.grid)
    density = _curvature_density(log_K, wbar.values)
    return _tail_mass(grid, density, _layout(grid).nearest_index(R))


def _curvature_density(log_K: RadialField, wbar_values: np.ndarray) -> np.ndarray:
    """|K| e^{2m wbar} = e^{log_K + 2m wbar} at the nodes."""
    return np.exp(log_K.values + 2 * log_K.grid.m * wbar_values)


def _tail_mass(grid: RadialGrid, density: np.ndarray, index: int) -> float:
    """Quadrature of the node values ``density`` over r > nodes[index]."""
    return float(_layout(grid).weights_beyond(index) @ density)


# ----------------------------------------------------------------------
# aggregate report
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DiagnosticsReport:
    """Aggregated verification of one solution; all fields deterministic
    functions of the record."""

    pde_residual_max_rel: float
    volume_achieved: float
    volume_target: float
    alpha_fitted: float
    C_fitted: float
    asymptotic_deviation: float
    pohozaev_defect_rel: float
    pohozaev_radius: float
    tail_mass: tuple[tuple[float, float], ...]

    def to_json_dict(self) -> dict:
        return dataclasses.asdict(self)

    def csv_header_and_row(self) -> tuple[str, str]:
        """The scalar fields, in field order, as a CSV header and row."""
        names = [
            f.name
            for f in dataclasses.fields(self)
            if isinstance(getattr(self, f.name), (int, float))
        ]
        header = ",".join(names)
        row = ",".join(f"{getattr(self, name):.17g}" for name in names)
        return header, row


def _report_pohozaev_radius(grid: RadialGrid) -> float:
    return min(20.0, grid.r_max / 2.0)


def check_report_grid(grid: RadialGrid) -> None:
    """Raise GridMismatch naming the rule if :func:`build_report` cannot
    place its alpha-fit window [r_max/4, r_max/2] or its Pohozaev radius
    min(20, r_max/2) on ``grid``.  Both depend on the grid alone, so a
    solve can be refused before it iterates.

    The check builds the fit design and the Pohozaev functional the
    report reads, so it refuses exactly the grids on which the report
    would fail to build them, and on a grid it accepts the report finds
    them built."""
    try:
        layout = _layout(grid)
        layout.fit(*_default_fit_window(grid))
        layout.pohozaev_window(_pohozaev_index(grid, _report_pohozaev_radius(grid)))
    except GridMismatch as exc:
        raise GridMismatch(f"the report cannot use this grid: {exc}") from None


def build_report(record: SolutionRecord) -> DiagnosticsReport:
    """Run the full diagnostic battery on a finished solve.

    The layout is fixed by the grid: the alpha fit runs over
    [r_max/4, r_max/2] and the Pohozaev balance is taken at
    min(20, r_max/2), the two placements :func:`check_report_grid`
    checks."""
    config = record.config
    grid = record.grid
    # e^{2mu}, shared by the PDE residual and the volume.
    exp_2mu = np.exp(2 * config.m * record.u.values)
    residual = pde_residual(record.u, config.sign, exp_2mu=exp_2mu)
    volume, _tail = conformal_volume(record.u, exp_2mu=exp_2mu)
    wbar = record.v.values + record.c_v
    alpha_fit, c_fit, deviation = asymptotic_profile(
        RadialField(grid=grid, values=wbar - record.alpha * record.u0.values)
    )
    # |K| e^{2m wbar}, shared by Pohozaev's volume terms and the tail masses.
    curvature = _curvature_density(record.log_K, wbar)
    terms = record_pohozaev_terms(
        record, _report_pohozaev_radius(grid), curvature=curvature
    )

    snapped = [
        _layout(grid).nearest_index(x)
        for x in (0.0, grid.r_max / 8, grid.r_max / 4, grid.r_max / 2, 0.75 * grid.r_max)
    ]
    tail = [(float(grid.nodes[i]), _tail_mass(grid, curvature, i)) for i in snapped]

    return DiagnosticsReport(
        pde_residual_max_rel=residual,
        volume_achieved=volume,
        volume_target=config.volume,
        alpha_fitted=alpha_fit,
        C_fitted=c_fit,
        asymptotic_deviation=deviation,
        pohozaev_defect_rel=terms.defect,
        pohozaev_radius=terms.radius,
        tail_mass=tuple(tail),
    )
