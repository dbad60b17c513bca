"""The benchmark's own acceptance rule for one solve.

The thresholds are restated here rather than read from ``qcurv.cli``, so a
change that loosened the program's gates still fails ops here (and, in the
``cli`` workload, shows up as a disagreement with the program's exit code).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

GATE_PDE_RESIDUAL = 5e-3
GATE_VOLUME_REL = 5e-3
GATE_POHOZAEV = 1e-2
ALPHA_REL_TOL = 0.02


@dataclass(frozen=True)
class Certificate:
    """The three hard gates and the alpha-fit check of one converged solve."""

    pde_residual: float
    volume_rel: float
    pohozaev: float
    alpha_rel: float

    @property
    def gates_pass(self) -> bool:
        return (
            self.pde_residual <= GATE_PDE_RESIDUAL
            and self.volume_rel <= GATE_VOLUME_REL
            and self.pohozaev <= GATE_POHOZAEV
        )

    @property
    def passed(self) -> bool:
        return self.gates_pass and self.alpha_rel <= ALPHA_REL_TOL

    @property
    def gate_ratio(self) -> float:
        """max(value / threshold) over the three hard gates (NaN stays NaN)."""
        ratios = (
            self.pde_residual / GATE_PDE_RESIDUAL,
            self.volume_rel / GATE_VOLUME_REL,
            self.pohozaev / GATE_POHOZAEV,
        )
        if any(math.isnan(r) for r in ratios):
            return math.nan
        return max(ratios)

    def summary(self) -> str:
        return (
            f"pde={self.pde_residual:.3e} vol={self.volume_rel:.3e} "
            f"poh={self.pohozaev:.3e} alpha={self.alpha_rel:.2e}"
        )


def certify(
    volume: float,
    alpha: float,
    pde_residual: float,
    volume_achieved: float,
    pohozaev: float,
    alpha_fitted: float,
) -> Certificate:
    """Certificate from a report's fields against the prescribed ``volume``
    and the ``alpha`` the benchmark computed from the config itself."""
    return Certificate(
        pde_residual=float(pde_residual),
        volume_rel=abs(float(volume_achieved) - volume) / volume,
        pohozaev=float(pohozaev),
        alpha_rel=abs(float(alpha_fitted) - alpha) / abs(alpha),
    )


def geomean(values: list[float]) -> float:
    """Geometric mean of the finite ratios (a NaN or infinite one already
    fails its op); an exact 0 is floored at 1e-300 so it cannot zero the
    mean.  NaN when no ratio is finite."""
    finite = [v for v in values if math.isfinite(v)]
    if not finite:
        return math.nan
    return math.exp(sum(math.log(max(v, 1e-300)) for v in finite) / len(finite))
