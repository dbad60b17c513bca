"""Checks of candidate solutions.

Nothing here reuses the solver's fixed-point machinery: residuals come
from finite-difference stencils, the Pohozaev identity from its own
integration-by-parts terms.  The volume check is the exception: it
integrates with the grid's ``quad_weights``, the rule the solver
normalizes c_v with, so its error is 0 to 1e-15 on every solve and
shows only that the normalization was applied, not the quadrature
error (ROADMAP item 1 replaces it with an independent rule).

The 3-point stencils are the methods of the grid's
:class:`~qcurv.potential.StencilTable`, built once per grid.  The
weighted norms are L^2 norms, so every angular factor integrates in
closed form.  The alpha fit reads the pieces the solver combined,
-alpha u0 + v + c_v, which equal u + P without forming that difference.

What depends on the grid alone is built once per grid and kept
read-only: the alpha fit's window, least-squares design and its
pseudo-inverse, the volume check's tail window and its slope weights,
the Pohozaev boundary terms' linear functional on the window around
their node (the stencil chain run once on the window's unit vectors), the
ball and annulus quadrature rules at a node, and the weighted norms'
radial weights.  Each check reads these pieces for whatever window,
radius or weight it is given, so a report on a grid seen before does only
the work that depends on the solution, and its values are the same bits
as on a fresh grid.  A grid's pieces live on one layout, which keeps a
bounded number of each kind.  The layout lives and dies with its grid:
it is built on the grid's first check, held only as long as the grid is,
and freed with it.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import weakref
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import GridMismatch, TailNotNegligible
from .geometry import _polyharmonic_valid_nodes, radial_polyharmonic
from .potential import RadialField, RadialGrid, _read_only, constants, sphere_area

if TYPE_CHECKING:
    from .solver import SolutionRecord

# A solution profile whose values all sit below this level is treated as
# degenerate (volume at underflow scale): the tail-decay certificate is
# skipped because there is no meaningful tail to certify.
_DEGENERATE_LEVEL = -50.0

# Per grid, a report reads one fit design, one Pohozaev window and one set
# of norm weights, and snaps radii to, and takes ball rules at, up to seven
# nodes.  A grid's layout keeps that many pieces of each kind for as long
# as the grid lives.
_NODES_PER_GRID = 8
_WINDOWS_PER_GRID = 2


class _Layout:
    """The pieces of the checks that depend on one grid alone, each built
    on first use and kept read-only: the last ``_NODES_PER_GRID`` of each
    kind keyed by a radius or node, the last ``_WINDOWS_PER_GRID`` of each
    kind keyed by a window or weight, and the volume check's tail window.

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
        self.norm_weights = per_window(functools.partial(_norm_weights, grid))
        self.tail_window = per_window(functools.partial(_tail_window, grid))


_layouts: weakref.WeakKeyDictionary[RadialGrid, _Layout] = weakref.WeakKeyDictionary()


def _layout(grid: RadialGrid) -> _Layout:
    layout = _layouts.get(grid)
    if layout is None:
        layout = _layouts[grid] = _Layout(grid)
    return layout


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
    (:func:`~qcurv.geometry.radial_polyharmonic`) are compared.
    """
    grid = u.grid
    m = grid.m
    if sign not in (1, -1):
        raise GridMismatch(f"sign must be +1 or -1, got {sign}")
    keep = _polyharmonic_valid_nodes(len(grid.nodes), m)
    lhs = radial_polyharmonic(u, m).values[keep]
    if exp_2mu is None:
        exp_2mu = np.exp(2 * m * u.values)
    rhs = sign * math.factorial(2 * m - 1) * exp_2mu[keep]
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
    table = grid.stencil.window(index - (m + 1), index + m + 2)
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
    v_d1: np.ndarray | None = None,
    curvature: np.ndarray | None = None,
) -> PohozaevTerms:
    """The six terms of the Pohozaev balance of wbar = v + c_v (c_v finite,
    else GridMismatch) at the grid node nearest to R (R snapped to it).
    ``v_d1`` is the grid stencil's first derivative of v, and
    ``curvature`` is |K| e^{2m wbar} at the nodes (:func:`_curvature_density`),
    for a caller that already holds them.

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
    nodes, st = grid.nodes, grid.stencil
    w_in = _layout(grid).weights_within(idx)
    two_m = 2.0 * m
    om = sphere_area(n)

    wbar = v.values + c_v
    if curvature is None:
        curvature = _curvature_density(log_K, wbar)
    k_e_w = sign * curvature
    x_grad_log_k = nodes * st.d1(log_K.values)
    x_grad_w = nodes * (st.d1(v.values) if v_d1 is None else v_d1)
    t1 = float(w_in @ (x_grad_log_k * k_e_w))
    t2 = float(two_m * (w_in @ k_e_w))
    t3 = float(-two_m * alpha * (w_in @ (x_grad_w * u0_density.values)))

    # Laplacian iterates of wbar and of g = x . grad wbar, plus their
    # radial derivatives, at the snapped radius.  Every row but the first
    # (the centre value itself) annihilates constants, so the functional
    # is applied to v less its centre value: like the difference-form
    # stencils, it then rounds on the window's variation, not on wbar's
    # level, which c_v sets.
    functional = _layout(grid).pohozaev_window(idx)
    variation = v.values[idx - (m + 1) : idx + m + 2] - v.values[idx]
    at_radius = (functional @ variation).tolist()
    at_radius[0] = wbar[idx]
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
    v_d1: np.ndarray | None = None,
    curvature: np.ndarray | None = None,
) -> PohozaevTerms:
    """Pohozaev terms of a finished solve at radius R; ``v_d1`` and
    ``curvature`` as in :func:`pohozaev_terms`."""
    return pohozaev_terms(
        record.v,
        record.c_v,
        record.log_K,
        record.u0_density,
        record.config.sign,
        record.alpha,
        R,
        v_d1,
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
# weighted norms
# ----------------------------------------------------------------------
@functools.lru_cache(maxsize=64)
def _angular_moment(n: int, exponents: tuple[float, ...]) -> float:
    """integral over S^{n-1} of prod |omega_i|^{a_i} d sigma, by the
    Dirichlet formula 2 prod Gamma((a_i+1)/2) / Gamma((n + sum a)/2)
    (unlisted coordinates contribute Gamma(1/2) = sqrt(pi))."""
    total = sum(exponents)
    value = 2.0 * math.pi ** ((n - len(exponents)) / 2.0)
    for a in exponents:
        value *= math.gamma((a + 1.0) / 2.0)
    return value / math.gamma((n + total) / 2.0)


def weighted_norm(f: RadialField, k: int, delta: float) -> float:
    """Decay-weighted Sobolev norm
    sum_{|beta| <= k} || (1+|x|^2)^{(delta+|beta|)/2} D^beta f ||_{L^2}
    for radial f, with k <= 2.

    Radial reduction: first derivatives are f'(r) omega_i, second
    derivatives (f'' - f'/r) omega_i omega_j + delta_ij f'/r, so each
    multi-index block is a 1-D integral times an exact angular moment.
    The pure-second-derivative blocks have the angular integrand
    (A omega_1^2 + B)^2 = A^2 omega_1^4 + 2AB omega_1^2 + B^2, which
    integrates termwise in closed form.
    """
    if k not in (0, 1, 2):
        raise GridMismatch(f"k must be 0, 1, or 2, got {k}")
    return _weighted_norms(f, f.grid.stencil.d1(f.values), k, delta)[k]


def _norm_weights(
    grid: RadialGrid, delta: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The radial quadrature weights w / omega_{n-1} and the decay
    weights (1 + r^2)^{delta + j}, j = 0, 1, 2, of the weighted norms."""
    squares = 1.0 + grid.nodes**2
    return (
        _read_only(grid.quad_weights / sphere_area(grid.n)),
        _read_only(squares**delta),
        _read_only(squares ** (delta + 1.0)),
        _read_only(squares ** (delta + 2.0)),
    )


def _weighted_norms(
    f: RadialField, f1: np.ndarray, k: int, delta: float
) -> list[float]:
    """``weighted_norm(f, j, delta)`` for j = 0..k in one pass, given f's
    stencil derivative ``f1``: the norm of order j is that of order j - 1
    plus its own blocks."""
    grid = f.grid
    n = grid.n
    nodes = grid.nodes
    w_full = grid.quad_weights  # includes the omega_{n-1} r^{n-1} factor
    w_radial, weight0, weight1, weight2 = _layout(grid).norm_weights(float(delta))
    norms = [float(w_full @ (weight0 * f.values**2)) ** 0.5]
    if k == 0:
        return norms

    block1 = float(_angular_moment(n, (2.0,)) * (w_radial @ (weight1 * f1**2)))
    norms.append(norms[-1] + n * block1**0.5)
    if k == 1:
        return norms

    f2 = grid.stencil.d2(f.values)
    ratio = np.empty_like(f1)
    ratio[1:] = f1[1:] / nodes[1:]
    ratio[0] = f2[0]  # limit of f'/r at the origin
    aniso = f2 - ratio  # coefficient of omega_i omega_j in D^2 f

    mixed = float(_angular_moment(n, (2.0, 2.0)) * (w_radial @ (weight2 * aniso**2)))
    norm = norms[-1] + (n * (n - 1) / 2.0) * mixed**0.5

    # (A w1^2 + B)^2 = A^2 w1^4 + 2AB w1^2 + B^2, termwise exact.
    angular = _angular_moment(n, (4.0,)) * aniso**2
    angular += 2.0 * _angular_moment(n, (2.0,)) * aniso * ratio
    angular += _angular_moment(n, ()) * ratio**2
    pure = float(w_radial @ (weight2 * angular))
    norms.append(norm + n * pure**0.5)
    return norms


# ----------------------------------------------------------------------
# exponential integrability probe
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ExpIntegrability:
    finite: bool
    value: float
    ratio: float  # value / R^{2m}


def exp_integrability_probe(v: RadialField, p: float, R: float) -> ExpIntegrability:
    """Quadrature of e^{2m p |v|} over B_R (R snapped to the grid) and
    its ratio to R^{2m}.

    The probe reports; it does not enforce the admissible range of p —
    callers compare p against gamma_m over the driving density's L^1
    mass.  Overflow is reported as finite = False.
    """
    if not p > 0:
        raise GridMismatch(f"p must be positive, got {p}")
    grid = v.grid
    if R > grid.r_max:
        raise GridMismatch(f"R = {R} exceeds r_max = {grid.r_max}")
    idx = _layout(grid).nearest_index(R)
    r_snap = float(grid.nodes[idx])
    if r_snap <= 0:
        raise GridMismatch("R snapped to the origin; probe undefined")
    exponent = 2.0 * grid.m * p * np.abs(v.values)
    if float(np.max(exponent)) > 700.0:
        return ExpIntegrability(finite=False, value=math.inf, ratio=math.inf)
    value = float(_layout(grid).weights_within(idx) @ np.exp(exponent))
    return ExpIntegrability(finite=True, value=value, ratio=value / r_snap**grid.n)


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
    weighted_norms: dict[str, float]
    exp_integrability: dict[str, dict]

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
    cs = constants(config.m)
    # e^{2mu}, shared by the PDE residual and the volume.
    exp_2mu = np.exp(2 * config.m * record.u.values)
    residual = pde_residual(record.u, config.sign, exp_2mu=exp_2mu)
    volume, _tail = conformal_volume(record.u, exp_2mu=exp_2mu)
    wbar = record.v.values + record.c_v
    alpha_fit, c_fit, deviation = asymptotic_profile(
        RadialField(grid=grid, values=wbar - record.alpha * record.u0.values)
    )
    # v', shared by Pohozaev's x . grad wbar and the weighted norms, and
    # |K| e^{2m wbar}, shared by Pohozaev's volume terms, the tail masses
    # and the source's L^1 mass.
    v_d1 = grid.stencil.d1(record.v.values)
    curvature = _curvature_density(record.log_K, wbar)
    terms = record_pohozaev_terms(
        record, _report_pohozaev_radius(grid), v_d1, curvature=curvature
    )

    snapped = [
        _layout(grid).nearest_index(x)
        for x in (0.0, grid.r_max / 8, grid.r_max / 4, grid.r_max / 2, 0.75 * grid.r_max)
    ]
    tail = [(float(grid.nodes[i]), _tail_mass(grid, curvature, i)) for i in snapped]

    delta = -3.0
    norms = {
        f"k={k},delta={delta:g},p=2": norm
        for k, norm in enumerate(_weighted_norms(record.v, v_d1, 2, delta))
    }

    curvature *= config.sign
    curvature += record.alpha * record.u0_density.values
    source_mass_l1 = float(grid.quad_weights @ np.abs(curvature))
    probes = {}
    for scale in (0.5, 1.0):
        p_probe = scale * cs.gamma_m / source_mass_l1
        result = exp_integrability_probe(record.v, p_probe, grid.r_max / 2.0)
        probes[f"p={p_probe:.6g}"] = {
            "finite": result.finite,
            "value": result.value,
            "ratio": result.ratio,
        }

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
        weighted_norms=norms,
        exp_integrability=probes,
    )
