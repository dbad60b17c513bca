"""Batch command-line front end.

Four subcommands: ``solve`` (run the fixed-point solver on a JSON
config and write a solution directory), ``verify`` (run a named
self-check suite and print a pass/fail table), ``poly-check`` (classify
a polynomial's admissibility), and ``pohozaev`` (re-evaluate the
Pohozaev balance of a written solution at a chosen radius).

All commands are deterministic: identical invocations produce
byte-identical outputs.  ``solve`` is the only command that writes a
directory.  It writes each file atomically, ``manifest.json`` last, so
a directory containing a manifest is complete (never a silent partial
write).  Each subcommand returns its exit code and its stdout and
stderr lines; ``main`` alone prints them, so no line on either stream
comes before a file, and a closed stdout or stderr changes neither the
files nor the exit code.

Exit codes
----------
0  success (solve: converged and all hard gates passed; verify: all
   checks passed; poly-check: Accepted; pohozaev: defect within gate)
1  invalid configuration or input, message names the violated rule
   (verify: a check failed; poly-check: Rejected)
2  solver failure: max_iter exhausted or divergence guard, partial
   outputs are still written; also a usage error (a missing or unknown
   subcommand or option, or a value outside its choices), which
   argparse reports on stderr before any command runs, so nothing is
   written
3  solve converged but a hard diagnostic gate failed (pohozaev: defect
   above its gate)
4  poly-check input that cannot be parsed or classified as a polynomial
5  poly-check: Inconclusive, which only a non-radial P can read
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import math
import os
import sys
import textwrap
import warnings

import numpy as np

from . import __version__
from .diagnostics import (
    build_report,
    check_report_grid,
    pde_residual,
    pohozaev_terms,
    spherical_solution,
)
from .errors import (
    ConfigError,
    GridMismatch,
    PolynomialFormatError,
    QcurvError,
)
from .poly import Polynomial, a3_counterexample, json_number, pm_membership
from .potential import (
    _MAX_INTERVALS,
    RadialField,
    _ring_closed,
    constants,
    kernel_matrix,
    make_grid,
    potential_apply,
    ring_kernel_mean,
)
from .solver import (
    _REMOVED_KEYS,
    SolverConfig,
    build_problem,
    solve_continuation,
    source_with_normalization,
    u0_density_field,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_SOLVER = 2
EXIT_DIAGNOSTICS = 3
EXIT_UNPARSEABLE = 4
EXIT_INCONCLUSIVE = 5

GATE_PDE_RESIDUAL = 5e-3
GATE_VOLUME_REL = 5e-3
GATE_POHOZAEV = 1e-2

# The exit-code table of the module docstring, reused by `qcurv --help`.
_EXIT_CODE_TABLE = textwrap.indent(
    (__doc__ or "").partition("Exit codes\n----------\n")[2], "  "
)

# Each default, removed key and gate below is read from the code that
# applies it, so `qcurv --help` cannot drift from them.
_DEFAULT = {
    f.name: f"{f.default:g}"
    for f in dataclasses.fields(SolverConfig)
    if f.default is not dataclasses.MISSING
}
_CONFIG_FIELD_DOC = """\
config JSON fields (schema_version 2):
  schema_version  int, 2 (1 still loads; its theta, t_schedule and
                  v_schedule keys are ignored).  The removed keys load
                  only at one value each, and are dropped:
""" + "".join(
    f"{'':18}{key} at {json.dumps(value)}\n" for key, value in _REMOVED_KEYS.items()
) + f"""\
  m               int in [2, 6]: half the dimension (m = 1 is rejected,
                  the admissible profile class is empty there)
  sign            +1 or -1: sign of the prescribed curvature
  volume          target conformal volume V > 0; for sign = +1 it must
                  satisfy V in (0, vol(S^{{2m}}))
  profile         the polynomial P, as canonical text ("1.0 * x1^2 + ...")
                  or as a {{"dim": d, "terms": [...]}} object (integer dim
                  and exponents, finite coefficients); must pass the
                  admissibility check (radial, for the solver)
  r_max           grid radius, > 1 (default {_DEFAULT["r_max"]})
  n_intervals     radial intervals, in [64, {_MAX_INTERVALS}]
                  (default {_DEFAULT["n_intervals"]})
  sinh_strength   clustering strength of the sinh node map, > 0 and
                  small enough that its sinh is finite (<= 710)
                  (default {_DEFAULT["sinh_strength"]})
  tol             bound on the fixed-point residual |T v - v|_inf at
                  which the solve stops, > 0 and finite
                  (default {_DEFAULT["tol"]})
  max_iter        cap on the total iterations (default {_DEFAULT["max_iter"]})

hard gates applied by `solve` after convergence:
  pde residual <= {GATE_PDE_RESIDUAL:g}, |volume - V|/V <= {GATE_VOLUME_REL:g}, \
Pohozaev defect <= {GATE_POHOZAEV:g}

configs `solve` refuses before it creates --out (exit 1), besides the
invalid values above:
  a grid on which the report cannot place its alpha-fit window
  [r_max/4, r_max/2] (it must start at r >= 5 and hold >= 20 nodes) or
  its Pohozaev radius min(20, r_max/2), a P or alpha u0 that overflows
  before r_max, and a curvature tail at r_max that is not negligible
"""


# ----------------------------------------------------------------------
# small deterministic-output helpers
# ----------------------------------------------------------------------
def _json_text(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _write_atomic(path: str, text: str) -> None:
    """Write ``text`` to ``path`` through a temporary file, which is
    removed again if the write or the rename fails."""
    tmp = f"{path}.tmp{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except OSError:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def _manifest_dict(config_path: str, out_dir: str) -> dict:
    return {
        "command": "solve",
        "config_path": config_path,
        "output_dir": out_dir,
        "deterministic": True,
        "tool_version": __version__,
    }


def _solution_csv_text(record) -> str:
    columns = (record.v, record.u, record.log_K, record.u0_density)
    table = np.column_stack([record.grid.nodes] + [field.values for field in columns])
    text = io.StringIO()
    np.savetxt(text, table, "%.17g", ",", header="r,v,u,log_abs_K,density", comments="")
    return text.getvalue()


def _meta_dict(record) -> dict:
    return {
        "config": record.config.to_json_dict(),
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
    except ValueError as exc:
        # JSONDecodeError, UnicodeDecodeError and an integer literal over
        # the int-conversion digit limit are all ValueErrors.
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    return SolverConfig.from_json_dict(raw)


def _print_lines(lines: list[str], stream) -> None:
    """Print ``lines`` to ``stream``, the one way the command line writes
    stdout or stderr.  A reader that has gone away ends that stream's
    output, not the command: the stream is pointed at os.devnull, so the
    flush at exit cannot raise again (the SIGPIPE note of Python's
    ``signal`` documentation)."""
    try:
        for line in lines:
            print(line, file=stream)
        stream.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, stream.fileno())
        os.close(devnull)


# ----------------------------------------------------------------------
# solve
# ----------------------------------------------------------------------
def run_solve(config_path: str, out_dir: str) -> tuple[int, list[str], list[str]]:
    try:
        config = _load_config(config_path)
        # The config alone fixes the grid and the curvature tail, so both
        # are refused here, before --out exists: build_problem raises for
        # either.
        check_report_grid(build_problem(config).grid)
    except (ConfigError, GridMismatch, PolynomialFormatError) as exc:
        return EXIT_CONFIG, [], [f"config error: {exc}"]

    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        return EXIT_CONFIG, [], [f"cannot create output directory: {exc}"]
    record = solve_continuation(config)

    # The files in the order they are written, manifest.json last.
    files = {
        "solution.csv": _solution_csv_text(record),
        "meta.json": _json_text(_meta_dict(record)),
    }
    status = EXIT_OK
    lines, errors = [], []
    if not record.converged:
        report_obj = {
            "diagnostics": "skipped: solver did not converge",
            "failure_reason": record.failure_reason,
        }
        errors.append(f"not converged: {record.failure_reason}")
        status = EXIT_SOLVER
    else:
        try:
            report = build_report(record)
        except QcurvError as exc:
            report_obj = {"diagnostics_error": str(exc)}
            errors.append(f"diagnostics error: {exc}")
            status = EXIT_DIAGNOSTICS
        else:
            volume_rel = abs(report.volume_achieved - config.volume) / config.volume
            gates = {
                name: {"value": value, "threshold": gate, "passed": value <= gate}
                for name, value, gate in (
                    ("pde_residual", report.pde_residual_max_rel, GATE_PDE_RESIDUAL),
                    ("volume_rel_error", volume_rel, GATE_VOLUME_REL),
                    ("pohozaev_defect", report.pohozaev_defect_rel, GATE_POHOZAEV),
                )
            }
            report_obj = {"gates": gates, "report": report.to_json_dict()}
            header, row = report.csv_header_and_row()
            files["report.csv"] = header + "\n" + row + "\n"
            lines = [
                f"{'PASS' if gate['passed'] else 'FAIL'}  {name:<18} "
                f"{gate['value']:.6e} (gate {gate['threshold']:g})"
                for name, gate in gates.items()
            ]
            if not all(gate["passed"] for gate in gates.values()):
                status = EXIT_DIAGNOSTICS

    files["report.json"] = _json_text(report_obj)
    files["manifest.json"] = _json_text(_manifest_dict(config_path, out_dir))
    try:
        # A rerun into the same --out must not keep the last run's
        # report.csv beside a report.json that has none.
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(out_dir, "report.csv"))
        for name, text in files.items():
            _write_atomic(os.path.join(out_dir, name), text)
    except OSError as exc:
        return EXIT_CONFIG, [], [f"cannot write output directory: {exc}"]
    if status == EXIT_OK:
        lines.append(
            f"converged in {record.iterations} iterations,"
            f" c_v = {record.c_v:.9g}, alpha = {record.alpha:.9g}"
        )
    return status, lines, errors


# ----------------------------------------------------------------------
# verify suites
# ----------------------------------------------------------------------
def _suite_oracles() -> list[tuple[str, bool, str]]:
    checks = []
    cs = constants(2)

    grid = make_grid(2, 10.0, 2048, map_kind="uniform")
    u = RadialField(grid=grid, values=spherical_solution(2, 1.0, grid.nodes))
    resid = pde_residual(u, 1)
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
    density = u0_density_field(mass_grid)
    mass_err = abs(float(mass_grid.quad_weights @ density.values) + cs.gamma_m)
    checks.append(
        ("u0-mass-normalization(m=2)", mass_err <= 1e-10 * cs.gamma_m, f"abs err {mass_err:.3e}")
    )

    config = SolverConfig(
        m=2,
        sign=1,
        volume=0.5 * cs.vol_sphere,
        profile=Polynomial.from_text("x1^2 + x2^2 + x3^2 + x4^2"),
        r_max=20.0,
        n_intervals=256,
    )
    problem = build_problem(config)

    def c_v(level):
        v = np.full_like(problem.grid.nodes, level)
        return source_with_normalization(problem, v)[1]

    shift = abs(c_v(0.37) - (c_v(0.0) - 0.37))
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
    density = 6.0 * np.exp(4.0 * u_sph)
    pot = potential_apply(pot_kernel, density)
    window = pot_grid.nodes <= 20.0
    std = float(np.std(pot[window] - u_sph[window]))
    checks.append(("log-potential-oracle(m=2)", std <= 1e-3, f"node std {std:.3e}"))
    return checks


def _suite_poly() -> list[tuple[str, bool, str]]:
    checks = []
    verdict = pm_membership(Polynomial.from_text("x1^2 + x2^2 + x3^2 + x4^2"))
    ok = (
        verdict.status == "Accepted"
        and verdict.exponent is not None
        and abs(verdict.exponent - 2.0) < 0.1
    )
    checks.append(
        ("accept-sum-of-squares", ok, f"{verdict.status}, exponent {verdict.exponent}")
    )

    aniso = Polynomial.from_text("0.5 * x1^2 + 2 * x2^2 + x3^2 + 3 * x4^2")
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

    verdict = pm_membership(Polynomial.from_text("x1^2 - x2^2"), m=2)
    checks.append(
        ("reject-indefinite-quadratic", verdict.status == "Rejected", verdict.status)
    )

    verdict = pm_membership(Polynomial.from_text("1", dim=2), m=2)
    checks.append(("reject-constant", verdict.status == "Rejected", verdict.status))

    verdict = pm_membership(Polynomial.from_text("x1^4 + x2^2"), m=2)
    checks.append(
        ("reject-degree-above-bound", verdict.status == "Rejected", verdict.status)
    )
    return checks


_SUITES = {"oracles": _suite_oracles, "kernel": _suite_kernel, "poly": _suite_poly}


def run_verify(suite: str) -> tuple[int, list[str], list[str]]:
    checks = _SUITES[suite]()
    lines = [
        f"{'PASS' if passed else 'FAIL'}  {name:<36} {detail}"
        for name, passed, detail in checks
    ]
    lines.append(f"{suite}: {sum(p for _, p, _ in checks)}/{len(checks)} checks passed")
    return EXIT_OK if all(passed for _, passed, _ in checks) else EXIT_CONFIG, lines, []


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


def run_poly_check(poly_arg: str, m: int | None) -> tuple[int, list[str], list[str]]:
    try:
        poly = _parse_poly_argument(poly_arg)
    except (QcurvError, ValueError, OSError) as exc:
        return EXIT_UNPARSEABLE, [], [f"cannot parse polynomial: {exc}"]
    try:
        verdict = pm_membership(poly, m=m)
    except QcurvError as exc:
        return EXIT_UNPARSEABLE, [], [f"cannot classify polynomial: {exc}"]
    lines = [f"status: {verdict.status}"]
    if verdict.witness is not None:
        lines.append(f"witness: {verdict.witness}")
    lines.append(f"samples_used: {verdict.samples_used}")
    if verdict.exponent is not None:
        lines.append(f"growth_exponent: {verdict.exponent:.6g}")
    if verdict.constant is not None:
        lines.append(f"growth_constant: {verdict.constant:.6g}")
    code = {
        "Accepted": EXIT_OK,
        "Rejected": EXIT_CONFIG,
        "Inconclusive": EXIT_INCONCLUSIVE,
    }[verdict.status]
    return code, lines, []


# ----------------------------------------------------------------------
# pohozaev
# ----------------------------------------------------------------------
def run_pohozaev(solution_dir: str, radius: float) -> tuple[int, list[str], list[str]]:
    meta_path = os.path.join(solution_dir, "meta.json")
    csv_path = os.path.join(solution_dir, "solution.csv")
    try:
        with open(meta_path, "r", encoding="utf-8") as handle:
            meta = json.load(handle)
        # A table with no rows is refused here, not let through as
        # numpy's warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)
            table = np.loadtxt(csv_path, delimiter=",", skiprows=1)
    except (OSError, ValueError, UserWarning) as exc:
        return EXIT_CONFIG, [], [f"cannot read solution directory: {exc}"]
    try:
        config = SolverConfig.from_json_dict(meta["config"])
        result = meta["result"]
        c_v = json_number("result.c_v", "float", result["c_v"], ConfigError)
        if not math.isfinite(c_v):
            raise ValueError(f"result.c_v = {result['c_v']!r} is not finite")
        # alpha = sign 2V / vol(S^{2m}) is fixed by the config; the stored
        # copy is only checked against it.
        alpha = config.alpha
        if json_number("result.alpha", "float", result["alpha"], ConfigError) != alpha:
            raise ValueError(
                f"result.alpha = {result['alpha']!r} is not the config's "
                f"alpha = {alpha!r}"
            )
        # log|K| and u0's density come from the validated config, as in the
        # solve; only r and v are read from the table, whose fourth column
        # holds K itself in older solution directories.
        problem = build_problem(config)
    except (KeyError, TypeError, ValueError, ConfigError, PolynomialFormatError) as exc:
        return EXIT_CONFIG, [], [f"invalid solution metadata: {exc}"]
    grid = problem.grid
    if table.shape != (len(grid.nodes), 5) or not np.allclose(
        table[:, 0], grid.nodes, rtol=0.0, atol=1e-12
    ):
        return EXIT_CONFIG, [], ["solution.csv does not match the grid in meta.json"]
    try:
        v = RadialField(grid=grid, values=table[:, 1].copy())
    except GridMismatch as exc:
        return EXIT_CONFIG, [], [f"cannot read solution directory: {exc}"]
    try:
        terms = pohozaev_terms(
            v, c_v, problem.log_K, problem.u0_density, config.sign, alpha, radius
        )
    except QcurvError as exc:
        return EXIT_CONFIG, [], [f"cannot evaluate balance: {exc}"]
    lines = [f"radius (snapped): {terms.radius:.9g}"]
    for name in ("t1", "t2", "t3", "b1", "b2", "b3", "lhs", "rhs"):
        lines.append(f"{name}: {getattr(terms, name):+.9e}")
    lines.append(f"defect: {terms.defect:.6e}")
    lines.append(f"volume_balance: {terms.volume_balance:.6e}")
    return EXIT_OK if terms.defect <= GATE_POHOZAEV else EXIT_DIAGNOSTICS, lines, []


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
        "symmetry, log-potential oracle), poly (admissibility fixtures).",
    )
    p_verify.add_argument(
        "--suite", required=True, choices=sorted(_SUITES), help="suite name"
    )

    p_poly = sub.add_parser(
        "poly-check",
        help="classify a polynomial's admissibility as an asymptotic profile",
        description="Exit code is the verdict: 0 Accepted, 1 Rejected, "
        "5 Inconclusive, 4 unparseable input (2 is a usage error).  The "
        "polynomial may be given inline (canonical text like "
        "'1.0 * x1^2 + 1.0 * x2^2', or a JSON "
        "object) or as a path to a file containing either form.  A radial "
        "polynomial (in |x|^2) is decided exactly, by the rule solve "
        "applies; any other is screened by sampling, in at most 16 "
        "variables, and only it can be Inconclusive.  A sampled Rejected "
        "reports what was seen at the radii 128 and 256 (x . grad P <= 0 "
        "on the witness path, or a minimum that did not grow): evidence, "
        "not proof.",
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
        description="Reads the config and c_v from meta.json and r and v "
        "from solution.csv, rebuilds the grid, log|K| and u0's density "
        "from the config, and prints the six balance terms at "
        f"the requested radius.  Exit 0 if the defect is within {GATE_POHOZAEV:g}.",
    )
    p_poh.add_argument("--solution", required=True, help="solve output directory")
    p_poh.add_argument(
        "--radius", required=True, type=float, help="balance radius R"
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand, then print its stdout and stderr lines: the
    only place the command line writes either stream."""
    args = _build_parser().parse_args(argv)
    code, out, err = {
        "solve": lambda: run_solve(args.config, args.out),
        "verify": lambda: run_verify(args.suite),
        "poly-check": lambda: run_poly_check(args.poly, args.m),
        "pohozaev": lambda: run_pohozaev(args.solution, args.radius),
    }[args.command]()
    _print_lines(out, sys.stdout)
    _print_lines(err, sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
