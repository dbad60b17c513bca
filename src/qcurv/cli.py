"""Batch command-line front end.

Four subcommands: ``solve`` (run the fixed-point solver on a JSON
config and write a solution directory), ``verify`` (run a named
self-check suite and print a pass/fail table), ``poly-check`` (classify
a polynomial's admissibility), and ``pohozaev`` (re-evaluate the
Pohozaev balance of a written solution at a chosen radius).

All commands are deterministic: identical invocations produce
byte-identical outputs.  Output directories are populated with
atomically-written files, ``manifest.json`` last, so a directory
containing a manifest is complete (never a silent partial write).

Exit codes
----------
0  success (solve: converged and all hard gates passed; verify: all
   checks passed; poly-check: Accepted; pohozaev: defect within gate)
1  invalid configuration or input, message names the violated rule
   (verify: a check failed; poly-check: Rejected)
2  solver failure: max_iter exhausted or divergence guard, partial
   outputs are still written (poly-check: Inconclusive)
3  solve converged but a hard diagnostic gate failed (pohozaev: defect
   above its gate)
4  poly-check input that cannot be parsed or classified as a polynomial
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import textwrap

import numpy as np

from . import __version__
from .diagnostics import build_report, pde_residual, pohozaev_terms
from .errors import ConfigError, PolynomialFormatError, QcurvError, TailNotNegligible
from .geometry import (
    constants,
    kelvin_identity_residual,
    smooth_global,
    spherical_solution,
    u0_eval,
)
from .poly import Polynomial, a3_counterexample, pm_membership
from .potential import (
    RadialField,
    _ring_closed,
    kernel_matrix,
    make_grid,
    potential_apply,
    ring_kernel_mean,
    sphere_area,
)
from .solver import (
    SolverConfig,
    build_K,
    build_grid,
    normalization_cv,
    solve_continuation,
    u0_density_field,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_SOLVER = 2
EXIT_DIAGNOSTICS = 3
EXIT_UNPARSEABLE = 4

GATE_PDE_RESIDUAL = 5e-3
GATE_VOLUME_REL = 5e-3
GATE_POHOZAEV = 1e-2

# The exit-code table of the module docstring, reused by `qcurv --help`.
_EXIT_CODE_TABLE = textwrap.indent(
    (__doc__ or "").partition("Exit codes\n----------\n")[2], "  "
)

_CONFIG_FIELD_DOC = """\
config JSON fields (schema_version 2):
  schema_version  int, 2 (1 still loads; its theta, t_schedule and
                  v_schedule keys are ignored)
  m               int in [2, 6]: half the dimension (m = 1 is rejected,
                  the admissible profile class is empty there)
  sign            +1 or -1: sign of the prescribed curvature
  volume          target conformal volume V > 0; for sign = +1 it must
                  satisfy V in (0, vol(S^{2m}))
  profile         the polynomial P, as canonical text ("1.0 * x1^2 + ...")
                  or as a {"dim": d, "terms": [...]} object; must pass
                  the admissibility check (radial, for the solver)
  u0_profile      "smooth-global" (default) or "compact-blend"
  r_max           grid radius, > 1 (default 40)
  n_intervals     radial intervals, >= 64 (default 2048)
  map_kind        "sinh-clustered" (default) or "uniform" node placement
  sinh_strength   clustering strength for sinh-clustered grids (default 3)
  tol             bound on the fixed-point residual |T v - v|_inf at
                  which the solve stops (default 1e-8)
  max_iter        cap on the total iterations (default 600)
  quad_order      Gauss-Legendre order per interval for the kernel
                  moments (default 12)

hard gates applied by `solve` after convergence:
  pde residual <= 5e-3, |volume - V|/V <= 5e-3, Pohozaev defect <= 1e-2
"""


# ----------------------------------------------------------------------
# small deterministic-output helpers
# ----------------------------------------------------------------------
def _json_text(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _write_atomic(path: str, text: str) -> None:
    tmp = f"{path}.tmp{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(text)
    os.replace(tmp, path)


def _manifest_dict(command: str, config_path: str, out_dir: str) -> dict:
    return {
        "command": command,
        "config_path": config_path,
        "output_dir": out_dir,
        "deterministic": True,
        "tool_version": __version__,
    }


def _solution_csv_text(record) -> str:
    lines = ["r,v,u,log_abs_K,density"]
    for i in range(len(record.grid.nodes)):
        lines.append(
            ",".join(
                f"{x:.17g}"
                for x in (
                    record.grid.nodes[i],
                    record.v.values[i],
                    record.u.values[i],
                    record.log_K.values[i],
                    record.u0_density.values[i],
                )
            )
        )
    return "\n".join(lines) + "\n"


def _meta_dict(config: SolverConfig, record) -> dict:
    return {
        "config": config.to_json_dict(),
        "result": {
            "converged": record.converged,
            "iterations": record.iterations,
            "c_v": record.c_v,
            "alpha": record.alpha,
            "final_update": record.final_update,
            "failure_reason": record.failure_reason,
            "history": [list(entry) for entry in record.history],
        },
    }


def _load_config(path: str) -> SolverConfig:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    return SolverConfig.from_json_dict(raw)


# ----------------------------------------------------------------------
# solve
# ----------------------------------------------------------------------
def run_solve(config_path: str, out_dir: str) -> int:
    try:
        config = _load_config(config_path)
    except (ConfigError, PolynomialFormatError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    os.makedirs(out_dir, exist_ok=True)
    try:
        record = solve_continuation(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    _write_atomic(os.path.join(out_dir, "solution.csv"), _solution_csv_text(record))
    _write_atomic(
        os.path.join(out_dir, "meta.json"), _json_text(_meta_dict(config, record))
    )

    status = EXIT_OK
    if not record.converged:
        report_obj = {
            "diagnostics": "skipped: solver did not converge",
            "failure_reason": record.failure_reason,
        }
        print(f"not converged: {record.failure_reason}", file=sys.stderr)
        status = EXIT_SOLVER
    else:
        try:
            report = build_report(record)
        except (TailNotNegligible, QcurvError) as exc:
            report_obj = {"diagnostics_error": str(exc)}
            print(f"diagnostics error: {exc}", file=sys.stderr)
            status = EXIT_DIAGNOSTICS
        else:
            volume_rel = abs(report.volume_achieved - config.volume) / config.volume
            gates = {
                "pde_residual": {
                    "value": report.pde_residual_max_rel,
                    "threshold": GATE_PDE_RESIDUAL,
                    "passed": report.pde_residual_max_rel <= GATE_PDE_RESIDUAL,
                },
                "volume_rel_error": {
                    "value": volume_rel,
                    "threshold": GATE_VOLUME_REL,
                    "passed": volume_rel <= GATE_VOLUME_REL,
                },
                "pohozaev_defect": {
                    "value": report.pohozaev_defect_rel,
                    "threshold": GATE_POHOZAEV,
                    "passed": report.pohozaev_defect_rel <= GATE_POHOZAEV,
                },
            }
            report_obj = {"gates": gates, "report": report.to_json_dict()}
            header, row = report.csv_header_and_row()
            _write_atomic(
                os.path.join(out_dir, "report.csv"), header + "\n" + row + "\n"
            )
            for name, gate in gates.items():
                verdict = "PASS" if gate["passed"] else "FAIL"
                print(
                    f"{verdict}  {name:<18} {gate['value']:.6e}"
                    f" (gate {gate['threshold']:g})"
                )
            if not all(gate["passed"] for gate in gates.values()):
                status = EXIT_DIAGNOSTICS

    _write_atomic(os.path.join(out_dir, "report.json"), _json_text(report_obj))
    _write_atomic(
        os.path.join(out_dir, "manifest.json"),
        _json_text(_manifest_dict("solve", config_path, out_dir)),
    )
    if status == EXIT_OK:
        print(
            f"converged in {record.iterations} iterations,"
            f" c_v = {record.c_v:.9g}, alpha = {record.alpha:.9g}"
        )
    return status


# ----------------------------------------------------------------------
# verify suites
# ----------------------------------------------------------------------
def _suite_oracles() -> list[tuple[str, bool, str]]:
    checks = []
    cs = constants(2)

    grid = make_grid(2, 10.0, 2048, map_kind="uniform")
    u = RadialField(grid=grid, values=spherical_solution(2, 1.0, grid.nodes))
    resid = pde_residual(u, 2, 1)
    checks.append(
        ("spherical-pde-residual(m=2)", resid <= 1e-3, f"max rel {resid:.3e}")
    )

    vol_grid = make_grid(2, 60.0, 8192, sinh_strength=4.0)
    u_vol = RadialField(
        grid=vol_grid, values=spherical_solution(2, 1.0, vol_grid.nodes)
    )
    volume = float(vol_grid.quad_weights @ np.exp(4.0 * u_vol.values))
    vol_err = abs(volume - cs.vol_sphere) / cs.vol_sphere
    checks.append(("spherical-volume(m=2)", vol_err <= 1e-5, f"rel err {vol_err:.3e}"))

    rng = np.random.default_rng(20260814)
    lam = rng.uniform(0.3, 3.0, size=64)
    r = rng.uniform(0.0, 10.0, size=64)
    cov = np.abs(
        spherical_solution(2, 1.0, lam * r)
        + np.log(lam)
        - np.array([spherical_solution(2, lv, rv) for lv, rv in zip(lam, r)])
    ).max()
    checks.append(("lambda-covariance", cov <= 1e-12, f"max dev {cov:.3e}"))

    mass_grid = make_grid(2, 40.0, 1024)
    density = u0_density_field(smooth_global(2), mass_grid)
    mass_err = abs(float(mass_grid.quad_weights @ density.values) + cs.gamma_m)
    checks.append(
        ("u0-mass-normalization(m=2)", mass_err <= 1e-10 * cs.gamma_m, f"abs err {mass_err:.3e}")
    )

    config = SolverConfig(
        m=2,
        sign=1,
        volume=0.5 * cs.vol_sphere,
        profile=_radial_square_profile(4),
        r_max=20.0,
        n_intervals=256,
    )
    log_k = RadialField(grid=(g := build_grid(config)), values=-(g.nodes**2))
    v0 = RadialField(grid=g, values=np.zeros_like(g.nodes))
    vs = RadialField(grid=g, values=np.full_like(g.nodes, 0.37))
    shift = abs(
        normalization_cv(log_k, vs, config)
        - (normalization_cv(log_k, v0, config) - 0.37)
    )
    checks.append(("normalization-shift", shift <= 1e-12, f"abs dev {shift:.3e}"))
    return checks


def _suite_kernel() -> list[tuple[str, bool, str]]:
    checks = []
    radii = np.linspace(0.05, 3.0, 40)
    worst = 0.0
    for s in radii:
        for r in radii:
            worst = max(
                worst, abs(ring_kernel_mean(2, s, r) - math.log(max(s, r)))
            )
    checks.append(("ring-mean-n2-vs-logmax", worst <= 1e-6, f"max dev {worst:.3e}"))

    grid = make_grid(2, 5.0, 128)
    closed = _ring_closed(4, grid.nodes[:, None], grid.nodes[None, :])
    asym = float(np.max(np.abs(closed - closed.T)))
    checks.append(("kernel-symmetry(m=2)", asym == 0.0, f"max asym {asym:.3e}"))

    sample = np.linspace(0.2, 4.5, 12)
    worst4 = 0.0
    idx = np.searchsorted(grid.nodes, sample)
    for i in idx:
        for j in idx:
            if i == j or i == 0 or j == 0:
                continue
            direct = ring_kernel_mean(4, float(grid.nodes[i]), float(grid.nodes[j]))
            worst4 = max(worst4, abs(direct - closed[i, j]))
    checks.append(
        ("ring-mean-n4-vs-closed-form", worst4 <= 1e-8, f"max dev {worst4:.3e}")
    )

    pot_grid = make_grid(2, 40.0, 1024)
    pot_kernel = kernel_matrix(pot_grid)
    u_sph = spherical_solution(2, 1.0, pot_grid.nodes)
    density = RadialField(grid=pot_grid, values=6.0 * np.exp(4.0 * u_sph))
    pot = potential_apply(pot_kernel, density, constants(2))
    window = pot_grid.nodes <= 20.0
    std = float(np.std(pot.values[window] - u_sph[window]))
    checks.append(("log-potential-oracle(m=2)", std <= 1e-3, f"node std {std:.3e}"))
    return checks


def _suite_kelvin() -> list[tuple[str, bool, str]]:
    checks = []
    points = np.linspace(0.5, 2.0, 25)
    r0 = kelvin_identity_residual({2: 1.0}, 0, 4, points)
    checks.append(("kelvin-k0-trivial", r0 <= 1e-12, f"residual {r0:.3e}"))
    r1 = kelvin_identity_residual(lambda rho: np.exp(-(rho**2)), 1, 4, points)
    checks.append(("kelvin-k1-gaussian(n=4)", r1 <= 1e-4, f"residual {r1:.3e}"))
    r2 = kelvin_identity_residual({2: 1.0}, 2, 4, points)
    checks.append(("kelvin-k2-square(n=4)", r2 <= 1e-6, f"residual {r2:.3e}"))
    return checks


def _radial_square_profile(dim: int) -> Polynomial:
    exps = []
    for i in range(dim):
        e = [0] * dim
        e[i] = 2
        exps.append((tuple(e), 1.0))
    return Polynomial.from_terms(dim, exps)


def _suite_poly() -> list[tuple[str, bool, str]]:
    checks = []
    verdict = pm_membership(_radial_square_profile(4))
    ok = (
        verdict.status == "Accepted"
        and verdict.exponent is not None
        and abs(verdict.exponent - 2.0) < 0.1
    )
    checks.append(
        ("accept-sum-of-squares", ok, f"{verdict.status}, exponent {verdict.exponent}")
    )

    aniso = Polynomial.from_terms(
        4,
        [
            ((2, 0, 0, 0), 0.5),
            ((0, 2, 0, 0), 2.0),
            ((0, 0, 2, 0), 1.0),
            ((0, 0, 0, 2), 3.0),
        ],
    )
    verdict = pm_membership(aniso)
    checks.append(
        (
            "accept-anisotropic-squares",
            verdict.status == "Accepted",
            f"{verdict.status}",
        )
    )

    verdict = pm_membership(a3_counterexample(1.9), m=3)
    checks.append(
        (
            "reject-quartic-counterexample(beta=1.9)",
            verdict.status == "Rejected",
            f"{verdict.status}, witness {verdict.witness}",
        )
    )

    indefinite = Polynomial.from_terms(2, [((2, 0), 1.0), ((0, 2), -1.0)])
    verdict = pm_membership(indefinite, m=2)
    checks.append(
        ("reject-indefinite-quadratic", verdict.status == "Rejected", verdict.status)
    )

    constant = Polynomial.from_terms(2, [((0, 0), 1.0)])
    verdict = pm_membership(constant, m=2)
    checks.append(("reject-constant", verdict.status == "Rejected", verdict.status))

    quartic = Polynomial.from_terms(2, [((4, 0), 1.0), ((0, 2), 1.0)])
    verdict = pm_membership(quartic, m=2)
    checks.append(
        ("reject-degree-above-bound", verdict.status == "Rejected", verdict.status)
    )
    return checks


_SUITES = {
    "oracles": (_suite_oracles, "verify-oracles"),
    "kernel": (_suite_kernel, "kernel-test"),
    "kelvin": (_suite_kelvin, "verify-oracles"),
    "poly": (_suite_poly, "poly-check"),
}


def run_verify(suite: str, out_dir: str | None = None) -> int:
    if suite not in _SUITES:
        print(
            f"unknown suite '{suite}'; choose from {sorted(_SUITES)}", file=sys.stderr
        )
        return EXIT_CONFIG
    runner, manifest_command = _SUITES[suite]
    checks = runner()
    for name, passed, detail in checks:
        print(f"{'PASS' if passed else 'FAIL'}  {name:<36} {detail}")
    all_passed = all(passed for _, passed, _ in checks)
    print(f"{suite}: {sum(p for _, p, _ in checks)}/{len(checks)} checks passed")
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        payload = {
            "suite": suite,
            "checks": [
                # bool() guards against numpy bools, which json refuses
                {"name": name, "passed": bool(passed), "detail": detail}
                for name, passed, detail in checks
            ],
        }
        _write_atomic(os.path.join(out_dir, "verify.json"), _json_text(payload))
        _write_atomic(
            os.path.join(out_dir, "manifest.json"),
            _json_text(_manifest_dict(manifest_command, f"suite:{suite}", out_dir)),
        )
    return EXIT_OK if all_passed else EXIT_CONFIG


# ----------------------------------------------------------------------
# poly-check
# ----------------------------------------------------------------------
def _parse_poly_argument(text: str) -> Polynomial:
    candidate = text
    if os.path.isfile(text):
        with open(text, "r", encoding="utf-8") as handle:
            candidate = handle.read()
    stripped = candidate.strip()
    if stripped.startswith("{"):
        return Polynomial.from_json_dict(json.loads(stripped))
    return Polynomial.from_text(stripped)


def run_poly_check(poly_arg: str, m: int | None) -> int:
    try:
        poly = _parse_poly_argument(poly_arg)
    except (PolynomialFormatError, json.JSONDecodeError, OSError) as exc:
        print(f"cannot parse polynomial: {exc}", file=sys.stderr)
        return EXIT_UNPARSEABLE
    try:
        verdict = pm_membership(poly, m=m)
    except QcurvError as exc:
        print(f"cannot classify polynomial: {exc}", file=sys.stderr)
        return EXIT_UNPARSEABLE
    print(f"status: {verdict.status}")
    if verdict.witness is not None:
        print(f"witness: {verdict.witness}")
    print(f"samples_used: {verdict.samples_used}")
    if verdict.exponent is not None:
        print(f"growth_exponent: {verdict.exponent:.6g}")
    if verdict.constant is not None:
        print(f"growth_constant: {verdict.constant:.6g}")
    return {"Accepted": 0, "Rejected": 1, "Inconclusive": 2}[verdict.status]


# ----------------------------------------------------------------------
# pohozaev
# ----------------------------------------------------------------------
def run_pohozaev(solution_dir: str, radius: float) -> int:
    meta_path = os.path.join(solution_dir, "meta.json")
    csv_path = os.path.join(solution_dir, "solution.csv")
    try:
        with open(meta_path, "r", encoding="utf-8") as handle:
            meta = json.load(handle)
        table = np.loadtxt(csv_path, delimiter=",", skiprows=1)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"cannot read solution directory: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        config = SolverConfig.from_json_dict(meta["config"])
        result = meta["result"]
        grid = build_grid(config)
        # log|K| comes from the validated config, not from the table: older
        # solution directories hold K itself in the fourth column.
        log_k = build_K(config, grid)
    except (KeyError, ConfigError, PolynomialFormatError) as exc:
        print(f"invalid solution metadata: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if table.shape != (len(grid.nodes), 5) or not np.allclose(
        table[:, 0], grid.nodes, rtol=0.0, atol=1e-12
    ):
        print("solution.csv does not match the grid in meta.json", file=sys.stderr)
        return EXIT_CONFIG

    c_v = float(result["c_v"])
    alpha = float(result["alpha"])
    v = RadialField(grid=grid, values=table[:, 1].copy())
    u0_density = RadialField(grid=grid, values=table[:, 4].copy())
    wbar = RadialField(grid=grid, values=table[:, 1] + c_v)
    try:
        terms = pohozaev_terms(
            wbar, log_k, v, u0_density, config.sign, alpha, radius
        )
    except QcurvError as exc:
        print(f"cannot evaluate balance: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(f"radius (snapped): {terms.radius:.9g}")
    for name in ("t1", "t2", "t3", "b1", "b2", "b3"):
        print(f"{name}: {getattr(terms, name):+.9e}")
    print(f"lhs: {terms.lhs:+.9e}")
    print(f"rhs: {terms.rhs:+.9e}")
    print(f"defect: {terms.defect:.6e}")
    print(f"volume_balance: {terms.volume_balance:.6e}")
    return EXIT_OK if terms.defect <= GATE_POHOZAEV else EXIT_DIAGNOSTICS


# ----------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcurv",
        description=(
            "Construct and verify radial finite-volume solutions of the "
            "constant Q-curvature equation (-Delta)^m u = sign (2m-1)! e^{2mu}."
        ),
        epilog=_CONFIG_FIELD_DOC + "\nexit codes:\n" + _EXIT_CODE_TABLE,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser(
        "solve",
        help="run the fixed-point solver on a config and write a solution dir",
        description="Solve one configuration and write solution.csv "
        "(columns r, v, u, log_abs_K, density: the correction, the "
        "assembled solution, log|K| of the curvature factor "
        "K = sign e^{log_abs_K}, and the u0 driving density), "
        "meta.json, report.json, report.csv, and manifest.json.",
        epilog=_CONFIG_FIELD_DOC,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p_solve.add_argument("--config", required=True, help="path to config JSON")
    p_solve.add_argument("--out", required=True, help="output directory")

    p_verify = sub.add_parser(
        "verify",
        help="run a self-check suite and print a pass/fail table",
        description="Suites: oracles (spherical solution residual/volume, "
        "scaling covariance, u0 mass, normalization shift), kernel (ring "
        "kernel quadrature against the n=2 and n=4 closed forms, closed-form "
        "symmetry, log-potential oracle), kelvin (inversion identity "
        "residuals), poly (admissibility fixtures).",
    )
    p_verify.add_argument(
        "--suite", required=True, choices=sorted(_SUITES), help="suite name"
    )
    p_verify.add_argument(
        "--out", default=None, help="optional directory for verify.json"
    )

    p_poly = sub.add_parser(
        "poly-check",
        help="classify a polynomial's admissibility as an asymptotic profile",
        description="Exit code is the verdict: 0 Accepted, 1 Rejected, "
        "2 Inconclusive, 4 unparseable input.  The polynomial may be given "
        "inline (canonical text like '1.0 * x1^2 + 1.0 * x2^2', or a JSON "
        "object) or as a path to a file containing either form.",
    )
    p_poly.add_argument(
        "--poly", required=True, help="polynomial text/JSON or file path"
    )
    p_poly.add_argument(
        "--m",
        type=int,
        default=None,
        help="evaluate membership for this m instead of inferring from dim",
    )

    p_poh = sub.add_parser(
        "pohozaev",
        help="re-evaluate the Pohozaev balance of a written solution",
        description="Reads meta.json and solution.csv from a solve output "
        "directory, rebuilds the grid, and prints the six balance terms at "
        "the requested radius.  Exit 0 if the defect is within 1e-2.",
    )
    p_poh.add_argument("--solution", required=True, help="solve output directory")
    p_poh.add_argument(
        "--radius", required=True, type=float, help="balance radius R"
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "solve":
        return run_solve(args.config, args.out)
    if args.command == "verify":
        return run_verify(args.suite, args.out)
    if args.command == "poly-check":
        return run_poly_check(args.poly, args.m)
    if args.command == "pohozaev":
        return run_pohozaev(args.solution, args.radius)
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
