"""Independent checks of candidate solutions.

Nothing here reuses the solver's fixed-point machinery: residuals come
from finite-difference stencils, volumes from quadrature, the Pohozaev
identity from its own integration-by-parts terms.  A solution that
passes these checks is certified by computations independent of the one
that produced it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatch, TailNotNegligible
from .geometry import (
    _lap_interior,
    constants,
    eval_radial_profile,
    radial_polyharmonic,
)
from .poly import Polynomial
from .potential import RadialField, RadialGrid, gauss_legendre, sphere_area
from .solver import SolutionRecord, radial_profile_coeffs

# A solution profile whose values all sit below this level is treated as
# degenerate (volume at underflow scale): the tail-decay certificate is
# skipped because there is no meaningful tail to certify.
_DEGENERATE_LEVEL = -50.0


# ----------------------------------------------------------------------
# derivative helpers
# ----------------------------------------------------------------------
def _d1(nodes: np.ndarray, values: np.ndarray) -> np.ndarray:
    """First radial derivative: 3-point non-uniform centered differences
    in the interior, even-extension zero at the origin, first-order
    backward at the last node."""
    out = np.empty_like(values)
    hm = nodes[1:-1] - nodes[:-2]
    hp = nodes[2:] - nodes[1:-1]
    fm, f0, fp = values[:-2], values[1:-1], values[2:]
    out[1:-1] = (hm**2 * fp - hp**2 * fm + (hp**2 - hm**2) * f0) / (
        hm * hp * (hm + hp)
    )
    out[0] = 0.0
    out[-1] = (values[-1] - values[-2]) / (nodes[-1] - nodes[-2])
    return out


def _d2(nodes: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Second radial derivative, counterpart of :func:`_d1`; the origin
    uses the even-extension secant (exact for quadratics), the last node
    copies its neighbor."""
    out = np.empty_like(values)
    hm = nodes[1:-1] - nodes[:-2]
    hp = nodes[2:] - nodes[1:-1]
    fm, f0, fp = values[:-2], values[1:-1], values[2:]
    out[1:-1] = 2.0 * (hm * fp + hp * fm - (hm + hp) * f0) / (
        hm * hp * (hm + hp)
    )
    out[0] = 2.0 * (values[1] - values[0]) / nodes[1] ** 2
    out[-1] = out[-2]
    return out


# ----------------------------------------------------------------------
# PDE residual
# ----------------------------------------------------------------------
def pde_residual(u: RadialField, m: int, sign: int) -> float:
    """Max relative residual of (-Delta)^m u = sign (2m-1)! e^{2mu}.

    The residual at node i is |LHS - RHS|_i / (|RHS|_i + max|RHS|).
    Normalizing by the density's peak (rather than a tiny absolute
    floor) is deliberate: in the far field the density underflows while
    the composed stencil's rounding error is amplified like h^{-2m}, so
    a pointwise-relative measure out there would report pure rounding
    noise; the peak scale is the one on which the equation lives.
    Boundary-flagged nodes are excluded.
    """
    grid = u.grid
    if grid.m != m:
        raise GridMismatch(f"field grid is for m = {grid.m}, requested m = {m}")
    if sign not in (1, -1):
        raise GridMismatch(f"sign must be +1 or -1, got {sign}")
    lhs = radial_polyharmonic(u, m)
    rhs = sign * math.factorial(2 * m - 1) * np.exp(2 * m * u.values)
    mask = lhs.valid_mask() & u.valid_mask()
    if not np.any(mask):
        raise GridMismatch("no valid nodes remain for the residual")
    floor = max(float(np.max(np.abs(rhs[mask]))), 1e-300)
    rel = np.abs(lhs.values - rhs)[mask] / (np.abs(rhs[mask]) + floor)
    return float(np.max(rel))


# ----------------------------------------------------------------------
# conformal volume
# ----------------------------------------------------------------------
def conformal_volume(u: RadialField, m: int) -> tuple[float, float]:
    """Quadrature of e^{2mu} plus an analytic estimate of the neglected
    tail beyond R_max (returned as an error bar).

    The tail is certified from the last quarter of the grid: the
    integrand's log-log slope q must satisfy q < -2m (integrability),
    and the implied tail integral value(R_max) * omega * R^{2m}/(-q-2m)
    must stay below 1e-6 of the computed volume, else
    :class:`TailNotNegligible` is raised.  Profiles that are degenerate
    (all values <= -50) skip the certificate: their volume sits at the
    underflow scale and has no meaningful tail.
    """
    grid = u.grid
    if grid.m != m:
        raise GridMismatch(f"field grid is for m = {grid.m}, requested m = {m}")
    integrand = np.exp(2 * m * u.values)
    volume = float(grid.quad_weights @ integrand)
    if float(np.max(u.values)) <= _DEGENERATE_LEVEL:
        return volume, 0.0
    window = grid.nodes >= 0.75 * grid.r_max
    if int(window.sum()) < 8:
        window = np.zeros_like(window)
        window[-8:] = True
    tail_vals = integrand[window]
    if np.any(tail_vals <= 0.0):
        return volume, 0.0  # integrand underflowed: tail below representable
    slope = np.polyfit(np.log(grid.nodes[window]), np.log(tail_vals), 1)[0]
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


# ----------------------------------------------------------------------
# asymptotic profile fit
# ----------------------------------------------------------------------
def asymptotic_profile(
    u: RadialField,
    P: Polynomial | np.ndarray | None,
    fit_window: tuple[float, float] | None = None,
) -> tuple[float, float, float]:
    """Least-squares fit of u(r) + P(r) against
    -alpha log r + C + sum_{j=1}^{m-1} a_j r^{-2j} over a radius window
    (default [R_max/4, R_max/2]).

    The r^{-2j} terms are the far field of the log-potential of a
    zero-mass radial density (and of u0 = log(1 + r^2) / 2); leaving
    them out biases alpha at large |alpha|.  Returns (alpha_fitted,
    C_fitted, deviation) with deviation the sup of the fit residual over
    the window.  P must be radial (or None for 0); it may also be given as
    its coefficients in |x|^2 (:func:`radial_profile_coeffs`, cached as
    ``SolverConfig.radial_coeffs``), which skips re-deriving them.
    """
    grid = u.grid
    if fit_window is None:
        fit_window = (grid.r_max / 4.0, grid.r_max / 2.0)
    r_lo, r_hi = float(fit_window[0]), float(fit_window[1])
    if r_lo < 5.0:
        raise GridMismatch(f"fit window must start at r >= 5, got {r_lo}")
    if r_hi > grid.r_max:
        raise GridMismatch(f"fit window exceeds r_max = {grid.r_max}")
    if r_hi <= r_lo:
        raise GridMismatch("fit window is empty")
    select = (grid.nodes >= r_lo) & (grid.nodes <= r_hi)
    if int(select.sum()) < 20:
        raise GridMismatch(
            f"fit window contains {int(select.sum())} nodes, need >= 20"
        )
    r = grid.nodes[select]
    target = u.values[select].copy()
    coeffs = radial_profile_coeffs(P) if isinstance(P, Polynomial) else P
    if coeffs is None and P is not None:
        raise GridMismatch("asymptotic fit requires a radial polynomial")
    if coeffs is not None:
        target += eval_radial_profile(coeffs, r)
    # Far-field columns are scaled to 1 at the window's start, so the
    # least-squares design stays well conditioned up to r^{-2(m-1)}.
    decay = (r_lo / r) ** 2
    design = np.column_stack(
        [-np.log(r), np.ones_like(r)] + [decay**j for j in range(1, grid.m)]
    )
    coef, *_ = np.linalg.lstsq(design, target, rcond=None)
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


def pohozaev_terms(
    wbar: RadialField,
    log_K: RadialField,
    v: RadialField,
    u0_density: RadialField,
    sign: int,
    alpha: float,
    R: float,
) -> PohozaevTerms:
    """Evaluate the six terms of the Pohozaev balance at the grid node
    nearest to R (the radius is snapped to the grid).

    The curvature factor enters as log|K| with K = sign e^{log_K}, so
    K e^{2m wbar} is formed as sign e^{log_K + 2m wbar} and
    ``x . grad K`` e^{2m wbar} as r (log_K)'(r) times that term, by
    stencil differentiation of log_K;
    ``x . grad wbar`` is r v'(r) (wbar and v differ by a constant).  For
    radial fields every tensor contraction in the boundary cross term
    reduces to products of radial derivatives of Laplacian iterates,
    assembled here for any m.
    """
    grid = wbar.grid
    for other in (log_K, v, u0_density):
        grid.ensure_same(other.grid)
    m, n = grid.m, grid.n
    idx = grid.nearest_index(R)
    if idx < 2 * m + 1 or len(grid.nodes) - 1 - idx < 2 * m + 1:
        raise GridMismatch(
            f"radius {R} too close to the grid ends for the boundary stencils"
        )
    r_snap = float(grid.nodes[idx])
    nodes = grid.nodes
    w_in = grid.weights_within(idx)
    two_m = 2.0 * m
    om = sphere_area(n)

    k_e_w = sign * np.exp(log_K.values + two_m * wbar.values)
    x_grad_log_k = nodes * _d1(nodes, log_K.values)
    x_grad_w = nodes * _d1(nodes, v.values)
    t1 = float(w_in @ (x_grad_log_k * k_e_w))
    t2 = float(two_m * (w_in @ k_e_w))
    t3 = float(-two_m * alpha * (w_in @ (x_grad_w * u0_density.values)))

    # Laplacian iterates of wbar and of g = x . grad wbar, plus their
    # radial derivatives, at the snapped radius.  No chain applies more
    # than m + 1 three-point stencils, so they run on the window of m + 2
    # nodes either side of it: the window's end values are wrong, but the
    # error moves in by one node per stencil and never reaches its center.
    lo = idx - (m + 2)
    window = slice(lo, idx + m + 3)
    centre = idx - lo
    w_nodes = nodes[window]
    w_iter = [wbar.values[window]]
    for _ in range(m):
        w_iter.append(_lap_interior(w_nodes, w_iter[-1], n))
    g0 = w_nodes * _d1(w_nodes, w_iter[0])
    g_iter = [g0]
    for _ in range((m - 1) // 2 + 1):
        g_iter.append(_lap_interior(w_nodes, g_iter[-1], n))
    w_prime = [_d1(w_nodes, arr) for arr in w_iter]
    g_prime = [_d1(w_nodes, arr) for arr in g_iter]

    b1 = float(om * r_snap**n * k_e_w[idx])
    if m % 2 == 0:
        half_power = w_iter[m // 2][centre]
    else:
        half_power = w_prime[(m - 1) // 2][centre]
    b2 = float(-m * om * r_snap**n * half_power**2)

    cross = 0.0
    for j in range(m):
        parity_sign = (-1.0) ** (m + j)
        if j % 2 == 0:
            cross += (
                parity_sign * g_iter[j // 2][centre] * w_prime[m - 1 - j // 2][centre]
            )
        else:
            cross += (
                parity_sign
                * g_prime[(j - 1) // 2][centre]
                * w_iter[m - (j + 1) // 2][centre]
            )
    b3 = float(-two_m * om * r_snap ** (n - 1) * cross)

    return PohozaevTerms(radius=r_snap, t1=t1, t2=t2, t3=t3, b1=b1, b2=b2, b3=b3)


def record_pohozaev_terms(record: SolutionRecord, R: float) -> PohozaevTerms:
    """Pohozaev terms of a finished solve at radius R, with wbar = v + c_v."""
    wbar = RadialField(
        grid=record.grid, values=record.v.values + record.c_v
    )
    return pohozaev_terms(
        wbar,
        record.log_K,
        record.v,
        record.u0_density,
        record.config.sign,
        record.alpha,
        R,
    )


# ----------------------------------------------------------------------
# tail curvature mass
# ----------------------------------------------------------------------
def tail_curvature_mass(log_K: RadialField, wbar: RadialField, R: float) -> float:
    """Quadrature of |K| e^{2m wbar} = e^{log_K + 2m wbar} over the
    annulus r > R (R snapped to the nearest node); exactly non-increasing
    in R."""
    log_K.grid.ensure_same(wbar.grid)
    return _tail_mass(log_K.grid, _curvature_density(log_K, wbar.values), R)


def _curvature_density(log_K: RadialField, wbar_values: np.ndarray) -> np.ndarray:
    """|K| e^{2m wbar} = e^{log_K + 2m wbar} at the nodes."""
    return np.exp(log_K.values + 2 * log_K.grid.m * wbar_values)


def _tail_mass(grid: RadialGrid, density: np.ndarray, R: float) -> float:
    """Quadrature of the node values ``density`` over r > R, R snapped
    to the nearest node."""
    return float(grid.weights_beyond(grid.nearest_index(R)) @ density)


# ----------------------------------------------------------------------
# weighted norms
# ----------------------------------------------------------------------
def _angular_moment(n: int, exponents: tuple[float, ...]) -> float:
    """integral over S^{n-1} of prod |omega_i|^{a_i} d sigma, by the
    Dirichlet formula 2 prod Gamma((a_i+1)/2) / Gamma((n + sum a)/2)
    (unlisted coordinates contribute Gamma(1/2) = sqrt(pi))."""
    total = sum(exponents)
    value = 2.0 * math.pi ** ((n - len(exponents)) / 2.0)
    for a in exponents:
        value *= math.gamma((a + 1.0) / 2.0)
    return value / math.gamma((n + total) / 2.0)


def weighted_norm(f: RadialField, k: int, delta: float, p: float) -> float:
    """Decay-weighted Sobolev norm
    sum_{|beta| <= k} || (1+|x|^2)^{(delta+|beta|)/2} D^beta f ||_{L^p}
    for radial f, with k <= 2.

    Radial reduction: first derivatives are f'(r) omega_i, second
    derivatives (f'' - f'/r) omega_i omega_j + delta_ij f'/r, so each
    multi-index block is a 1-D integral times an exact angular moment;
    the pure-second-derivative blocks, whose angular integrand
    |A cos^2 + B|^p does not factor, integrate the angle by
    Gauss-Legendre.
    """
    if k not in (0, 1, 2):
        raise GridMismatch(f"k must be 0, 1, or 2, got {k}")
    return _weighted_norms(f, k, delta, p)[k]


def _weighted_norms(f: RadialField, k: int, delta: float, p: float) -> list[float]:
    """``weighted_norm(f, j, delta, p)`` for j = 0..k in one pass: the
    norm of order j is that of order j - 1 plus its own blocks."""
    if not 1.0 <= p < math.inf:
        raise GridMismatch(f"p must be in [1, inf), got {p}")
    grid = f.grid
    n = grid.n
    nodes = grid.nodes
    w_full = grid.quad_weights  # includes the omega_{n-1} r^{n-1} factor
    w_radial = w_full / sphere_area(n)
    weight0 = (1.0 + nodes**2) ** (delta * p / 2.0)
    norms = [float(w_full @ (weight0 * np.abs(f.values) ** p)) ** (1.0 / p)]
    if k == 0:
        return norms

    f1 = _d1(nodes, f.values)
    weight1 = (1.0 + nodes**2) ** ((delta + 1.0) * p / 2.0)
    a_p = _angular_moment(n, (p,))
    block1 = float(a_p * (w_radial @ (weight1 * np.abs(f1) ** p)))
    norms.append(norms[-1] + n * block1 ** (1.0 / p))
    if k == 1:
        return norms

    f2 = _d2(nodes, f.values)
    ratio = np.empty_like(f1)
    ratio[1:] = f1[1:] / nodes[1:]
    ratio[0] = f2[0]  # limit of f'/r at the origin
    aniso = f2 - ratio  # coefficient of omega_i omega_j in D^2 f
    weight2 = (1.0 + nodes**2) ** ((delta + 2.0) * p / 2.0)

    b_p = _angular_moment(n, (p, p))
    mixed = float(b_p * (w_radial @ (weight2 * np.abs(aniso) ** p)))
    norm = norms[-1] + (n * (n - 1) / 2.0) * mixed ** (1.0 / p)

    x_gl, w_gl = gauss_legendre(64)
    theta = 0.5 * math.pi * (x_gl + 1.0)
    cos2 = np.cos(theta) ** 2
    sin_pow = np.sin(theta) ** (n - 2)
    ring = sphere_area(n - 1) * 0.5 * math.pi * w_gl * sin_pow
    angular = aniso[:, None] * cos2[None, :]
    angular += ratio[:, None]
    np.abs(angular, out=angular)
    angular **= p
    pure = float(w_radial @ (weight2 * (angular @ ring)))
    norms.append(norm + n * pure ** (1.0 / p))
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
    idx = grid.nearest_index(R)
    r_snap = float(grid.nodes[idx])
    if r_snap <= 0:
        raise GridMismatch("R snapped to the origin; probe undefined")
    exponent = 2.0 * grid.m * p * np.abs(v.values)
    if float(np.max(exponent)) > 700.0:
        return ExpIntegrability(finite=False, value=math.inf, ratio=math.inf)
    value = float(grid.weights_within(idx) @ np.exp(exponent))
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
        return {
            "pde_residual_max_rel": self.pde_residual_max_rel,
            "volume_achieved": self.volume_achieved,
            "volume_target": self.volume_target,
            "alpha_fitted": self.alpha_fitted,
            "C_fitted": self.C_fitted,
            "asymptotic_deviation": self.asymptotic_deviation,
            "pohozaev_defect_rel": self.pohozaev_defect_rel,
            "pohozaev_radius": self.pohozaev_radius,
            "tail_mass": [[r, mass] for r, mass in self.tail_mass],
            "weighted_norms": dict(self.weighted_norms),
            "exp_integrability": dict(self.exp_integrability),
        }

    def csv_header_and_row(self) -> tuple[str, str]:
        names = [
            "pde_residual_max_rel",
            "volume_achieved",
            "volume_target",
            "alpha_fitted",
            "C_fitted",
            "asymptotic_deviation",
            "pohozaev_defect_rel",
            "pohozaev_radius",
        ]
        values = [getattr(self, name) for name in names]
        header = ",".join(names)
        row = ",".join(f"{value:.17g}" for value in values)
        return header, row


def build_report(
    record: SolutionRecord,
    fit_window: tuple[float, float] | None = None,
    pohozaev_radius: float | None = None,
) -> DiagnosticsReport:
    """Run the full diagnostic battery on a finished solve."""
    config = record.config
    grid = record.grid
    cs = constants(config.m)
    residual = pde_residual(record.u, config.m, config.sign)
    volume, _tail = conformal_volume(record.u, config.m)
    alpha_fit, c_fit, deviation = asymptotic_profile(
        record.u, config.radial_coeffs, fit_window
    )
    if pohozaev_radius is None:
        pohozaev_radius = min(20.0, grid.r_max / 2.0)
    terms = record_pohozaev_terms(record, pohozaev_radius)

    # |K| e^{2m wbar}, shared by the tail masses and the source's L^1 mass.
    curvature = _curvature_density(record.log_K, record.v.values + record.c_v)
    tail = [
        (float(grid.nodes[grid.nearest_index(x)]), _tail_mass(grid, curvature, x))
        for x in (0.0, grid.r_max / 8, grid.r_max / 4, grid.r_max / 2, 0.75 * grid.r_max)
    ]

    delta, p = -3.0, 2.0
    norms = {
        f"k={k},delta={delta:g},p={p:g}": norm
        for k, norm in enumerate(_weighted_norms(record.v, 2, delta, p))
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
