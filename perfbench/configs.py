"""Seeded generation of the solver configs each workload runs.

Every workload is a fixed stratified design over its parameter ranges: each
op has a design point (a volume position and a profile position in [0, 1]).
The design pairs volume and profile positions as a Latin square, so one
batch spans both ranges evenly.  The seed shuffles the batch order and, in
``near-critical`` and ``cli``, moves each point uniformly within +-JITTER of
its design position.

The jitter is deliberately narrow, and ``sweep`` has none.  At m >= 4 the
certificates are dominated by rounding: one config's PDE residual moves by
three to six decades across the ranges, and by up to half a decade when its
inputs move by 2 % of the range.  With one op per (m, sign) a jittered sweep
batch gives a gate-ratio geometric mean 20 % apart between seeds, so the
sweep runs its design points exactly.  The other workloads have m <= 3 and,
in ``near-critical``, 48 ops per batch, so their jittered batches average to
steady figures.

A generated config uses only the schema-v1 keys ``schema_version``, ``m``,
``sign``, ``volume``, ``profile`` and ``n_intervals``; every other solver
setting keeps the program's default.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("sweep", "near-critical", "cli")

JITTER = 0.02
PROFILE_RANGE = (0.5, 2.0)

# Volume ranges as fractions of vol(S^{2m}), per workload and sign.
SWEEP_RANGES = {1: (0.3, 0.7), -1: (1.0, 3.0)}
NEAR_CRITICAL_RANGES = {1: (0.9, 0.99), -1: (4.0, 8.0)}
NEAR_CRITICAL_POINTS = 12


def sphere_volume(m: int) -> float:
    """vol(S^{2m}) = 2 pi^{(2m+1)/2} / Gamma((2m+1)/2), restated here so the
    benchmark does not take the target volume from the program under test."""
    half = (2 * m + 1) / 2.0
    return 2.0 * math.pi**half / math.gamma(half)


def expected_alpha(m: int, sign: int, volume: float) -> float:
    return sign * 2.0 * volume / sphere_volume(m)


def profile_text(m: int, c: float) -> str:
    """The radial profile c * |x|^2 on R^{2m}, in the program's text format."""
    return " + ".join(f"{c!r} * x{i}^2" for i in range(1, 2 * m + 1))


def latin_pairs(profile_strata: tuple[int, ...]) -> list[tuple[float, float]]:
    """Design points (volume position, profile position): point i takes
    volume stratum i and profile stratum ``profile_strata[i]``, a
    permutation, so each range is covered once per stratum."""
    count = len(profile_strata)
    return [((i + 0.5) / count, (k + 0.5) / count) for i, k in enumerate(profile_strata)]


def shifted(count: int, shift: int) -> tuple[int, ...]:
    """The permutation i -> i * shift mod count (``shift`` coprime to it)."""
    return tuple((i * shift) % count for i in range(count))


def _lerp(bounds: tuple[float, float], position: float) -> float:
    lo, hi = bounds
    return lo + (hi - lo) * position


def _config(rng, m, sign, vol_range, design, n_intervals, jitter=JITTER) -> dict:
    p_vol, p_prof = (
        min(1.0, max(0.0, p + rng.uniform(-jitter, jitter))) for p in design
    )
    fraction = _lerp(vol_range, p_vol)
    c = _lerp(PROFILE_RANGE, p_prof)
    return {
        "schema_version": 1,
        "m": m,
        "sign": sign,
        "volume": fraction * sphere_volume(m),
        "profile": profile_text(m, c),
        "n_intervals": n_intervals,
    }


def generate(workload: str, seed: int, smoke: bool = False) -> list[dict]:
    """The ordered batch of configs one run of ``workload`` repeats.

    ``smoke`` keeps two configs (plus repeats for ``cli``) at a small grid,
    for a quick end-to-end check of the harness itself.
    """
    rng = random.Random(f"{workload}:{seed}")
    batch: list[dict] = []
    if workload == "sweep":
        # One op per (m, sign): dense kernel assembly at the default N.
        # For sign +1, m = 4 sits at a low profile coefficient: near
        # (V/vol, c) = (0.5, 1.85) its PDE residual and Pohozaev defect both
        # hover at their gates, so the verdict would flip with the seed.
        for sign, strata in ((1, (0, 2, 1, 4, 3)), (-1, shifted(5, 3))):
            for m, design in zip(range(2, 7), latin_pairs(strata)):
                batch.append(
                    _config(rng, m, sign, SWEEP_RANGES[sign], design, 2048, jitter=0.0)
                )
        if smoke:
            batch = [batch[0], batch[-1]]
    elif workload == "near-critical":
        for m in (2, 3):
            for sign in (1, -1):
                strata = shifted(NEAR_CRITICAL_POINTS, 5 if m == 2 else 7)
                for design in latin_pairs(strata):
                    batch.append(
                        _config(rng, m, sign, NEAR_CRITICAL_RANGES[sign], design, 512)
                    )
        if smoke:
            batch = [batch[NEAR_CRITICAL_POINTS - 1], batch[-1]]
    elif workload == "cli":
        cells = [(2, 512), (3, 512), (2, 2048), (3, 2048)]
        for sign, shift in ((1, 3), (-1, 1)):
            for (m, n), design in zip(cells, latin_pairs(shifted(len(cells), shift))):
                batch.append(_config(rng, m, sign, SWEEP_RANGES[sign], design, n))
        if smoke:
            batch = [batch[0], batch[-2]]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(batch)
    if workload == "cli":
        # Every N = 512 config runs twice: the repeats are the byte-identity
        # check, and with eight fast ops against four slow ones the median
        # op falls inside the fast group rather than on its edge.
        batch += [dict(c) for c in batch if c["n_intervals"] == 512]
    if smoke:
        for config in batch:
            config["n_intervals"] = min(config["n_intervals"], 256)
    return batch


def describe(config: dict) -> str:
    m = config["m"]
    c = float(config["profile"].split(" * ", 1)[0])
    return (
        f"m={m} sign={config['sign']:+d} "
        f"V/vol={config['volume'] / sphere_volume(m):.4f} c={c:.4f} "
        f"N={config['n_intervals']}"
    )
