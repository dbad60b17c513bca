"""End-to-end tests for the ``qcurv`` command line.

Every subcommand is driven in-process through ``main(argv)`` so exit
codes, stdout tables, and written files can be asserted directly; one
subprocess test checks the module is runnable as ``python -m qcurv.cli``.
The solve fixtures run at N <= 512, so the whole module runs in seconds.
"""

import contextlib
import dataclasses
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from conftest import SQUARE_PROFILE_4D
import qcurv.cli
import qcurv.solver
from qcurv import (
    DiagnosticsReport,
    Polynomial,
    SolverConfig,
    TailNotNegligible,
    __version__,
    a3_counterexample,
    constants,
)
from qcurv.cli import main

SOLVE_FILES = {"solution.csv", "meta.json", "report.json", "report.csv", "manifest.json"}
# The report's fields, in the order report.json writes them; all but
# tail_mass are scalars and make report.csv's columns.
REPORT_FIELDS = [
    "pde_residual_max_rel",
    "volume_achieved",
    "volume_target",
    "alpha_fitted",
    "C_fitted",
    "asymptotic_deviation",
    "pohozaev_defect_rel",
    "pohozaev_radius",
    "tail_mass",
]
README = Path(__file__).resolve().parent.parent / "README.md"

# |x|^4 on R^4: radial, so it passes the shape check, but its degree is
# above the admissible bound for m = 2.
RADIAL_QUARTIC_4D = (
    "1.0 * x1^4 + 1.0 * x2^4 + 1.0 * x3^4 + 1.0 * x4^4"
    " + 2.0 * x1^2 x2^2 + 2.0 * x1^2 x3^2 + 2.0 * x1^2 x4^2"
    " + 2.0 * x2^2 x3^2 + 2.0 * x2^2 x4^2 + 2.0 * x3^2 x4^2"
)


def run_cli(argv):
    """Run ``main(argv)`` capturing stdout/stderr; returns (code, out, err).

    argparse exits (--help, --version, usage errors) are converted into
    ordinary return codes so every invocation can be asserted uniformly.
    """
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = int(exc.code or 0)
    return code, stdout.getvalue(), stderr.getvalue()


def write_config(directory, drop=(), **overrides) -> str:
    """Write a solve config JSON into ``directory`` and return its path.

    The base config is the m = 2 positive benchmark at N = 512, which
    converges and passes every hard gate."""
    config = {
        "schema_version": 1,
        "m": 2,
        "sign": 1,
        "volume": 0.5 * constants(2).vol_sphere,
        "profile": SQUARE_PROFILE_4D,
        "n_intervals": 512,
    }
    config.update(overrides)
    for key in drop:
        config.pop(key)
    path = os.path.join(str(directory), "config.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(config, handle, indent=2)
    return path


@pytest.fixture(scope="module")
def solved_ok(tmp_path_factory):
    """A full `solve` run that converges and passes all gates (N = 512)."""
    base = tmp_path_factory.mktemp("cli-solve-ok")
    config_path = write_config(base)
    out_dir = base / "run"
    code, out, err = run_cli(["solve", "--config", config_path, "--out", str(out_dir)])
    return types.SimpleNamespace(
        code=code, out=out, err=err, path=out_dir, config_path=config_path
    )


@pytest.fixture(scope="module")
def solved_gate_fail(tmp_path_factory):
    """A `solve` run that converges but trips the residual gate (N = 256)."""
    base = tmp_path_factory.mktemp("cli-solve-coarse")
    config_path = write_config(base, n_intervals=256)
    out_dir = base / "run"
    code, out, err = run_cli(["solve", "--config", config_path, "--out", str(out_dir)])
    return types.SimpleNamespace(
        code=code, out=out, err=err, path=out_dir, config_path=config_path
    )


# ---------------------------------------------------------------------------
# parser plumbing
# ---------------------------------------------------------------------------
def test_help_documents_config_fields_and_exit_codes():
    code, out, _ = run_cli(["--help"])
    assert code == 0
    assert "exit codes:" in out
    assert "schema_version" in out
    assert "hard gates" in out
    for command in ("solve", "verify", "poly-check", "pohozaev"):
        assert command in out


def test_version_reports_package_version():
    code, out, _ = run_cli(["--version"])
    assert code == 0
    assert out.strip() == f"qcurv {__version__}"


def test_missing_subcommand_is_a_usage_error():
    code, _, err = run_cli([])
    assert code == 2
    assert "usage" in err


# ---------------------------------------------------------------------------
# solve: configuration rejection (exit 1, nothing written)
# ---------------------------------------------------------------------------
def test_solve_rejects_missing_config_file(tmp_path):
    out_dir = tmp_path / "run"
    code, _, err = run_cli(
        ["solve", "--config", str(tmp_path / "nope.json"), "--out", str(out_dir)]
    )
    assert code == 1
    assert "cannot read config file" in err
    assert not out_dir.exists()


def test_solve_rejects_malformed_json(tmp_path):
    path = tmp_path / "config.json"
    path.write_text("{not json", encoding="utf-8")
    code, _, err = run_cli(
        ["solve", "--config", str(path), "--out", str(tmp_path / "run")]
    )
    assert code == 1
    assert "not valid JSON" in err


@pytest.mark.parametrize(
    "drop, overrides, fragment",
    [
        (
            (),
            {"m": 1, "profile": "1.0 * x1^2 + 1.0 * x2^2"},
            "admissible class is empty",
        ),
        ((), {"volume": -2.0}, "volume must be positive"),
        ((), {"frog": 1}, "unknown config keys"),
        ((), {"schema_version": 99}, "schema_version must be 1"),
        (("volume",), {}, "missing the 'volume' key"),
        ((), {"profile": "1.0 * x1^2 - 1.0 * x2^2"}, "must be radial"),
        ((), {"profile": RADIAL_QUARTIC_4D}, "admissibility screen"),
        ((), {"profile": "1.0 * x7^2"}, "profile:"),
        ((), {"sinh_strength": 0.0}, "sinh_strength must be positive and finite"),
        ((), {"sinh_strength": float("nan")}, "sinh_strength must be positive"),
        ((), {"r_max": float("inf")}, "r_max must exceed 1 and be finite"),
        ((), {"sign": -1, "volume": float("inf")}, "volume must be positive and"),
        ((), {"sinh_strength": 800.0}, "cannot build the grid: sinh(800.0) overflows"),
        ((), {"sinh_strength": 250.0, "n_intervals": 2048}, "cannot build the grid"),
        ((), {"r_max": 1e65}, "cannot build the grid: r_max = 1e+65 overflows"),
        ((), {"r_max": 1e80}, "cannot build the grid: r_max = 1e+80 overflows"),
        ((), {"sign": -1, "volume": 1e308}, "volume 1e+308 overflows alpha"),
        ((), {"tol": float("inf")}, "tol must be positive and finite, got inf"),
        # m's rule is read before the four-variable text profile is parsed
        # in dimension 2m, and n_intervals' bound before a grid is built.
        ((), {"m": 0}, "config error: m must be an integer in 2..6, got 0"),
        ((), {"m": 1}, "config error: m = 1 is not solvable"),
        ((), {"m": 600}, "config error: m must be an integer in 2..6, got 600"),
        (
            (),
            {"n_intervals": 2**20 + 1},
            "config error: cannot build the grid: "
            "n_intervals must be in 64..1048576, got 1048577",
        ),
        ((), {"n_intervals": 10**12}, "n_intervals must be in 64..1048576"),
    ],
)
def test_solve_rejects_invalid_config_values(tmp_path, drop, overrides, fragment):
    path = write_config(tmp_path, drop=drop, **overrides)
    out_dir = tmp_path / "run"
    code, out, err = run_cli(["solve", "--config", path, "--out", str(out_dir)])
    assert code == 1
    assert out == ""
    assert err.startswith("config error:") and err.count("\n") == 1
    assert fragment in err
    assert not out_dir.exists()


def test_solve_process_reports_a_grid_it_cannot_build_in_one_line(tmp_path):
    path = write_config(tmp_path, sinh_strength=800.0)
    result = subprocess.run(
        [sys.executable, "-m", "qcurv.cli", "solve", "--config", path,
         "--out", str(tmp_path / "run")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 1
    assert result.stderr.startswith("config error: cannot build the grid")
    assert "Traceback" not in result.stderr


# Each config passes validate, but P or alpha u0 overflows on its grid.
OVERFLOWING_LOG_K = {
    "alpha-u0": dict(sign=-1, volume=2.9e307, r_max=1e60),
    "profile": dict(profile="1e300 * x1^2 + 1e300 * x2^2 + 1e300 * x3^2 + 1e300 * x4^2", r_max=1e5),
}


@pytest.mark.parametrize("name", sorted(OVERFLOWING_LOG_K))
def test_solve_refuses_an_overflowing_log_k_by_naming_r_max(tmp_path, name):
    overrides = OVERFLOWING_LOG_K[name]
    path = write_config(tmp_path, **overrides)
    out_dir = tmp_path / "run"
    result = _run_process("solve", "--config", path, "--out", str(out_dir))
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr == (
        "config error: log|K| is not finite on this grid (P or alpha u0 "
        f"overflows before r_max = {overrides['r_max']:g}); lower r_max\n"
    )
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "overrides, fragment",
    [
        ({"n_intervals": 64}, "fit window contains 14 nodes, need >= 20"),
        ({"r_max": 12.0}, "fit window must start at r >= 5, got 3.0"),
        (
            {"sinh_strength": 100.0, "n_intervals": 2048},
            "fit window contains 14 nodes, need >= 20",
        ),
    ],
    ids=["n_intervals", "r_max", "sinh_strength"],
)
def test_solve_refuses_a_grid_the_report_cannot_use(tmp_path, overrides, fragment):
    # Each grid builds, but build_report could not fit alpha on it: solve
    # refuses it before iterating instead of failing after convergence.
    path = write_config(tmp_path, **overrides)
    out_dir = tmp_path / "run"
    result = subprocess.run(
        [sys.executable, "-m", "qcurv.cli", "solve", "--config", path,
         "--out", str(out_dir)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 1
    assert result.stderr == (
        f"config error: the report cannot use this grid: {fragment}\n"
    )
    assert "Traceback" not in result.stderr
    assert not out_dir.exists()


def test_solve_refuses_a_kernel_tail_before_creating_the_out_directory(tmp_path):
    # The curvature tail at r_max is fixed by the config, so it is refused
    # with the other config errors, before --out exists.
    path = write_config(
        tmp_path,
        sign=-1,
        volume=1000.0 * constants(2).vol_sphere,
        profile="0.5 * x1^2 + 0.5 * x2^2 + 0.5 * x3^2 + 0.5 * x4^2",
    )
    out_dir = tmp_path / "run"
    code, out, err = run_cli(["solve", "--config", path, "--out", str(out_dir)])
    assert (code, out) == (1, "")
    assert err == (
        "config error: curvature kernel tail is not negligible at r_max "
        "(weighted tail e^11.901 of max|K|); enlarge r_max\n"
    )
    assert not out_dir.exists()


# ---------------------------------------------------------------------------
# solve: the three terminal states (exit 0 / 3 / 2)
# ---------------------------------------------------------------------------
def test_solve_success_prints_gate_table(solved_ok):
    assert solved_ok.code == 0
    assert solved_ok.err == ""
    assert solved_ok.out.count("PASS") == 3
    assert "FAIL" not in solved_ok.out
    for gate in ("pde_residual", "volume_rel_error", "pohozaev_defect"):
        assert gate in solved_ok.out
    assert "converged in" in solved_ok.out


def test_solve_success_writes_complete_directory(solved_ok):
    assert {p.name for p in solved_ok.path.iterdir()} == SOLVE_FILES
    with open(solved_ok.path / "solution.csv", encoding="utf-8") as handle:
        header = handle.readline().strip()
    assert header == "r,v,u,log_abs_K,density"
    table = np.loadtxt(solved_ok.path / "solution.csv", delimiter=",", skiprows=1)
    assert table.shape == (513, 5)
    assert np.isfinite(table).all()


def test_solve_success_report_and_manifest_contents(solved_ok):
    report = json.loads((solved_ok.path / "report.json").read_text())
    assert set(report["gates"]) == {"pde_residual", "volume_rel_error", "pohozaev_defect"}
    for gate in report["gates"].values():
        assert gate["passed"] is True
        assert gate["value"] <= gate["threshold"]

    meta = json.loads((solved_ok.path / "meta.json").read_text())
    assert meta["result"]["converged"] is True
    assert meta["result"]["failure_reason"] is None
    assert f"converged in {meta['result']['iterations']} iterations" in solved_ok.out
    assert meta["config"]["n_intervals"] == 512

    manifest = json.loads((solved_ok.path / "manifest.json").read_text())
    assert manifest["command"] == "solve"
    assert manifest["deterministic"] is True
    assert manifest["tool_version"] == __version__
    assert manifest["config_path"] == solved_ok.config_path


def test_solve_report_json_keys_are_pinned(solved_ok):
    # report.json's keys are a contract: adding, dropping or renaming a
    # report field has to change REPORT_FIELDS too.
    assert [field.name for field in dataclasses.fields(DiagnosticsReport)] == REPORT_FIELDS
    written = json.loads((solved_ok.path / "report.json").read_text())
    assert list(written) == ["gates", "report"]
    assert list(written["report"]) == REPORT_FIELDS
    header = (solved_ok.path / "report.csv").read_text().splitlines()[0]
    assert header.split(",") == REPORT_FIELDS[:-1]


def test_solve_gate_failure_keeps_full_record(solved_gate_fail):
    assert solved_gate_fail.code == 3
    assert "FAIL" in solved_gate_fail.out
    assert {p.name for p in solved_gate_fail.path.iterdir()} == SOLVE_FILES
    report = json.loads((solved_gate_fail.path / "report.json").read_text())
    gates = report["gates"]
    assert gates["pde_residual"]["passed"] is False
    assert gates["pde_residual"]["value"] > 5e-3
    assert gates["volume_rel_error"]["passed"] is True
    assert gates["pohozaev_defect"]["passed"] is True


def test_solve_nonconvergence_records_partial_outputs(tmp_path):
    path = write_config(tmp_path, n_intervals=256, max_iter=2)
    out_dir = tmp_path / "run"
    code, out, err = run_cli(["solve", "--config", path, "--out", str(out_dir)])
    assert code == 2
    assert "not converged" in err
    assert "max_iter = 2 exhausted" in err
    names = {p.name for p in out_dir.iterdir()}
    assert names == SOLVE_FILES - {"report.csv"}
    report = json.loads((out_dir / "report.json").read_text())
    assert report["diagnostics"] == "skipped: solver did not converge"
    assert "max_iter = 2 exhausted" in report["failure_reason"]
    meta = json.loads((out_dir / "meta.json").read_text())
    assert meta["result"]["converged"] is False


def test_solve_records_a_report_that_raises(tmp_path, monkeypatch):
    def raising(record):
        raise TailNotNegligible("tail mass not certified")

    monkeypatch.setattr(qcurv.cli, "build_report", raising)
    out_dir = tmp_path / "run"
    code, out, err = run_cli(
        ["solve", "--config", write_config(tmp_path), "--out", str(out_dir)]
    )
    assert (code, out) == (3, "")
    assert err == "diagnostics error: tail mass not certified\n"
    assert {p.name for p in out_dir.iterdir()} == SOLVE_FILES - {"report.csv"}
    report = json.loads((out_dir / "report.json").read_text())
    assert report == {"diagnostics_error": "tail mass not certified"}


@pytest.mark.parametrize(
    "failure, exit_code", [("not converged", 2), ("diagnostics error", 3)]
)
def test_a_failed_rerun_removes_the_previous_runs_report_csv(
    solved_ok, tmp_path, monkeypatch, failure, exit_code
):
    # A failed solve writes no report.csv; one left by an earlier run into
    # the same --out would sit beside a report.json that has no table.
    out_dir = tmp_path / "run"
    shutil.copytree(solved_ok.path, out_dir)
    if failure == "not converged":
        path = write_config(tmp_path, max_iter=2)
    else:
        path = write_config(tmp_path)

        def raising(record):
            raise TailNotNegligible("tail mass not certified")

        monkeypatch.setattr(qcurv.cli, "build_report", raising)
    code, _, err = run_cli(["solve", "--config", path, "--out", str(out_dir)])
    assert code == exit_code
    assert err.startswith(f"{failure}: ")
    assert {p.name for p in out_dir.iterdir()} == SOLVE_FILES - {"report.csv"}


def test_solution_csv_holds_each_value_as_its_17_digit_text():
    # -0.0, the smallest subnormal, a value near the largest double and
    # negatives each come out as their own %.17g text and read back bit
    # for bit.
    nodes = np.array([0.0, 0.25, 1.0, 40.0])
    columns = {
        "v": [-0.0, 5e-324, 1e308, -1.0 / 3.0],
        "u": [-1e308, -5e-324, 0.1, -2.0],
        "log_K": [math.pi, -math.e, -1e-300, 1.7976931348623157e308],
        "u0_density": [-6.0, -0.0, -1.2345678901234567e-5, -7.0],
    }
    record = types.SimpleNamespace(
        grid=types.SimpleNamespace(nodes=nodes),
        **{name: types.SimpleNamespace(values=np.array(v)) for name, v in columns.items()},
    )
    text = qcurv.cli._solution_csv_text(record)
    rows = zip(nodes, *columns.values())
    assert text == "r,v,u,log_abs_K,density\n" + "".join(
        ",".join(f"{x:.17g}" for x in row) + "\n" for row in rows
    )
    table = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1)
    expected = np.column_stack([nodes, *columns.values()])
    np.testing.assert_array_equal(table, expected)
    np.testing.assert_array_equal(np.signbit(table), np.signbit(expected))


def test_solve_writes_converged_record_for_large_negative_volume(tmp_path):
    # m = 6, sign -1, V = 31.7 vol(S^12), P = 2|x|^2: max|K| overflows
    # double precision, so this once escaped as a traceback.  In log form
    # it converges; the PDE and Pohozaev gates fail at m = 6 (exit 3).
    profile = " + ".join(f"2.0 * x{i}^2" for i in range(1, 13))
    path = write_config(
        tmp_path,
        m=6,
        sign=-1,
        volume=31.7 * constants(6).vol_sphere,
        profile=profile,
        n_intervals=1024,
    )
    out_dir = tmp_path / "run"
    code, out, err = run_cli(["solve", "--config", path, "--out", str(out_dir)])
    assert code == 3
    assert "Traceback" not in err
    assert {p.name for p in out_dir.iterdir()} == SOLVE_FILES
    meta = json.loads((out_dir / "meta.json").read_text())
    assert meta["result"]["converged"] is True
    assert meta["result"]["iterations"] == 16
    report = json.loads((out_dir / "report.json").read_text())
    assert report["gates"]["volume_rel_error"]["passed"] is True
    table = np.loadtxt(out_dir / "solution.csv", delimiter=",", skiprows=1)
    assert np.isfinite(table).all()


def _readme_solve_example():
    """The config and the printed lines of the README's `qcurv solve`
    example."""
    text = README.read_text(encoding="utf-8")
    config = json.loads(re.search(r"```json\n(.*?)```", text, re.S).group(1))
    block = re.search(r"```\n\$ qcurv solve [^\n]*\n(.*?)```", text, re.S).group(1)
    return config, block.splitlines()


def test_readme_solve_example_matches_the_cli(tmp_path):
    config, expected = _readme_solve_example()
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    code, out, err = run_cli(["solve", "--config", str(path), "--out", str(tmp_path / "run")])
    assert (code, err) == (0, "")
    printed = out.splitlines()
    assert len(printed) == len(expected) == 4
    gate_line = re.compile(r"(PASS|FAIL)  (\w+) +(\S+) \(gate (\S+)\)")
    for got, want in zip(printed[:3], expected[:3]):
        got_match, want_match = gate_line.fullmatch(got), gate_line.fullmatch(want)
        assert got_match.group(1, 2, 4) == want_match.group(1, 2, 4)
        value, documented = float(got_match.group(3)), float(want_match.group(3))
        if got_match.group(2) == "volume_rel_error":
            # Rounding-level: the solver's own quadrature fixes c_v.
            assert abs(value - documented) <= 1e-12
        else:
            assert value == pytest.approx(documented, rel=1e-6)
    # Iteration count, c_v and alpha exactly as printed.
    assert printed[3] == expected[3]


def test_readme_library_example_prints_its_documented_line():
    text = README.read_text(encoding="utf-8")
    library = text[text.index("## Library") :]
    code = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    documented = re.search(r"prints\n\n```\n(.*?)\n```", library, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    printed = out.getvalue().splitlines()
    assert len(printed) == 1
    got, want = printed[0].split(), documented.split()
    assert len(got) == len(want) == 3
    # The documented digits, up to the rounding that BLAS kernels and
    # vectorized exp/log may move between CPUs.
    for value, shown in zip(got, want):
        assert float(value) == pytest.approx(float(shown), rel=1e-9, abs=0.0)


def test_solve_reruns_are_byte_identical(tmp_path, solved_gate_fail):
    path = write_config(tmp_path, n_intervals=256)
    out_dir = tmp_path / "run"
    code, _, _ = run_cli(["solve", "--config", path, "--out", str(out_dir)])
    assert code == solved_gate_fail.code
    for name in ("solution.csv", "meta.json", "report.json", "report.csv"):
        assert (out_dir / name).read_bytes() == (solved_gate_fail.path / name).read_bytes()
    # The manifest embeds the invocation paths; everything else must agree.
    ours = json.loads((out_dir / "manifest.json").read_text())
    theirs = json.loads((solved_gate_fail.path / "manifest.json").read_text())
    for key in ("config_path", "output_dir"):
        ours.pop(key), theirs.pop(key)
    assert ours == theirs


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------
def test_verify_unknown_suite_is_rejected():
    # kelvin was a suite once; it is refused like any other name.
    for suite in ("frogs", "kelvin"):
        code, _, err = run_cli(["verify", "--suite", suite])
        assert code == 2  # argparse choices reject it before the runner
        assert suite in err


# Every suite the CLI registers.
VERIFY_SUITES = ("oracles", "kernel", "poly")


def test_verify_parametrization_covers_every_suite():
    assert set(VERIFY_SUITES) == qcurv.cli._SUITES.keys()


def test_verify_writes_nothing_and_refuses_out(tmp_path):
    # solve is the only command that writes a directory.
    out_dir = tmp_path / "verify"
    code, out, err = run_cli(["verify", "--suite", "poly", "--out", str(out_dir)])
    assert code == 2  # argparse refuses the option before the runner
    assert out == ""
    assert "--out" in err
    assert not out_dir.exists()


@pytest.mark.parametrize("suite", VERIFY_SUITES)
def test_verify_suites_all_pass(suite):
    code, out, _ = run_cli(["verify", "--suite", suite])
    assert code == 0
    assert "FAIL" not in out
    summary = re.search(rf"^{suite}: (\d+)/(\d+) checks passed$", out, re.MULTILINE)
    assert summary is not None
    assert summary.group(1) == summary.group(2)
    assert int(summary.group(1)) > 0


# ---------------------------------------------------------------------------
# poly-check
# ---------------------------------------------------------------------------
def test_poly_check_accepts_radial_square():
    code, out, _ = run_cli(["poly-check", "--poly", SQUARE_PROFILE_4D])
    assert code == 0
    assert "status: Accepted" in out
    assert "growth_exponent: 2" in out
    assert "samples_used:" in out


def test_poly_check_screens_a_one_dimensional_polynomial():
    code, out, _ = run_cli(["poly-check", "--poly", "x1^2", "--m", "2"])
    assert code == 0
    assert "status: Accepted" in out
    assert "growth_exponent: 2" in out


def test_poly_check_accepts_a_shell_profile_as_solve_does():
    # |x|^4 - 6 |x|^2 at m = 3: -P peaks on the shell |x| = sqrt(3), and
    # x . grad P / |x|^4 = 4 - 12 |x|^{-2} is least, -8, at |x| = 1.
    dims = range(1, 7)
    text = " + ".join(
        [f"x{i}^4" for i in dims]
        + [f"2 * x{i}^2 x{j}^2" for i in dims for j in dims if i < j]
    ) + "".join(f" - 6 * x{i}^2" for i in dims)
    code, out, _ = run_cli(["poly-check", "--poly", text])
    assert code == 0
    assert out.splitlines() == [
        "status: Accepted",
        "samples_used: 0",
        "growth_exponent: 4",
        "growth_constant: -8",
    ]
    profile = Polynomial.from_text(text)
    SolverConfig(m=3, sign=1, volume=0.5 * constants(3).vol_sphere, profile=profile)


def test_poly_check_accepts_json_object_argument():
    payload = json.dumps(Polynomial.from_text(SQUARE_PROFILE_4D).to_json_dict())
    code, out, _ = run_cli(["poly-check", "--poly", payload])
    assert code == 0
    assert "status: Accepted" in out


def test_poly_check_dimension_two_square_is_rejected():
    # dim 2 means m = 1, where the degree bound 2m - 2 = 0 leaves no room.
    code, out, _ = run_cli(["poly-check", "--poly", "1.0 * x1^2 + 1.0 * x2^2"])
    assert code == 1
    assert "status: Rejected" in out
    assert "degree 2 exceeds the admissible bound" in out


def test_poly_check_rejects_counterexample_from_file(tmp_path):
    path = tmp_path / "profile.txt"
    path.write_text(a3_counterexample(1.9).to_text() + "\n", encoding="utf-8")
    code, out, _ = run_cli(["poly-check", "--poly", str(path), "--m", "3"])
    assert code == 1
    assert "status: Rejected" in out
    assert "witness: curve" in out


def test_poly_check_inconclusive_exit_code():
    poly = "1.0 * x1^2 + 1.0 * x2^4 - 5.0 * x2^2"
    code, out, _ = run_cli(["poly-check", "--poly", poly, "--m", "3"])
    assert code == 5  # its own code, apart from solver failure (2)
    assert "status: Inconclusive" in out
    assert "changes sign at small radii" in out


@pytest.mark.parametrize(
    "bad",
    [
        "x1^2 + frog",
        '{"dim": 2',
        "",
        '{"dim": 2, "terms": [{"exps": [2], "coef": 1.0}]}',
        '{"dim": 0, "terms": []}',
    ],
)
def test_poly_check_unparseable_input(bad):
    code, _, err = run_cli(["poly-check", "--poly", bad])
    assert code == 4
    assert "cannot parse polynomial" in err


def test_poly_check_odd_dimension_needs_explicit_m():
    poly = "1.0 * x1^2 + 1.0 * x2^2 + 1.0 * x3^2"
    code, _, err = run_cli(["poly-check", "--poly", poly])
    assert code == 4
    assert "cannot classify polynomial" in err


def test_poly_check_refuses_a_dimension_above_16_in_one_line():
    result = subprocess.run(
        [sys.executable, "-m", "qcurv.cli", "poly-check", "--poly", "x18^2"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 4
    assert result.stdout == ""
    assert result.stderr == (
        "cannot classify polynomial: dim = 18 exceeds 16, the largest "
        "dimension the sampling screen covers\n"
    )


@pytest.mark.parametrize(
    "poly", ["x1025^2", '{"dim": 1025, "terms": []}'], ids=["text", "json"]
)
def test_poly_check_refuses_a_dimension_above_the_bound_in_one_line(poly):
    result = _run_process("poly-check", "--poly", poly)
    assert result.returncode == 4
    assert result.stdout == ""
    assert result.stderr == "cannot parse polynomial: dim must be in 1..1024, got 1025\n"


def test_poly_check_refuses_a_json_exponent_it_would_have_to_coerce():
    # x1^2.5 + x2^2 used to load as x1^2 + x2^2 and be Accepted.
    poly = Polynomial.from_text("x1^2 + x2^2").to_json_dict()
    poly["terms"][0]["exps"][0] = 2.5
    payload = json.dumps(poly)
    code, out, err = run_cli(["poly-check", "--poly", payload, "--m", "2"])
    assert code == 4
    assert out == ""
    assert err == (
        "cannot parse polynomial: terms[0].exps[0] must be of type int, got 2.5\n"
    )


def test_solve_refuses_a_json_profile_it_would_have_to_coerce(tmp_path):
    profile = Polynomial.from_text(SQUARE_PROFILE_4D).to_json_dict()
    profile["terms"][0]["coef"] = "a"
    path = write_config(tmp_path, profile=profile)
    out_dir = tmp_path / "run"
    code, _, err = run_cli(["solve", "--config", path, "--out", str(out_dir)])
    assert code == 1
    assert err == (
        "config error: profile: terms[0].coef must be of type float, got 'a'\n"
    )
    assert not out_dir.exists()


# Input files that no JSON reader accepts; each is a ValueError on reading.
UNREADABLE_JSON = {
    "integer-beyond-the-digit-limit": ('{"volume": 1' + "0" * 5000 + "}").encode(),
    "not-utf-8": b'\xff\xfe{"m": 2}',
}


def _run_process(*argv):
    """Run ``qcurv`` in a fresh process that treats every warning as an
    error, as CI's qcurv steps do."""
    return subprocess.run(
        [sys.executable, "-W", "error", "-m", "qcurv.cli", *argv],
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize("name", sorted(UNREADABLE_JSON))
def test_solve_refuses_an_unreadable_config_in_one_line(tmp_path, name):
    path = tmp_path / "config.json"
    path.write_bytes(UNREADABLE_JSON[name])
    out_dir = tmp_path / "run"
    result = _run_process("solve", "--config", str(path), "--out", str(out_dir))
    assert result.returncode == 1
    lines = result.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("config error: config file is not valid JSON: ")
    assert not out_dir.exists()


@pytest.mark.parametrize("name", sorted(UNREADABLE_JSON))
def test_poly_check_refuses_an_unreadable_file_in_one_line(tmp_path, name):
    path = tmp_path / "poly.json"
    path.write_bytes(UNREADABLE_JSON[name])
    result = _run_process("poly-check", "--poly", str(path))
    assert result.returncode == 4
    assert result.stdout == ""
    lines = result.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("cannot parse polynomial: ")


@pytest.mark.parametrize("command", ["solve"])
def test_an_out_path_held_by_a_file_is_refused_in_one_line(tmp_path, command):
    taken = tmp_path / "taken"
    taken.write_text("", encoding="utf-8")
    argv = [command, "--config", write_config(tmp_path), "--out", str(taken)]
    code, out, err = run_cli(argv)
    assert code == 1
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("cannot create output directory: ")
    assert str(taken) in lines[0]


@pytest.mark.parametrize("name", ["report.csv", "meta.json"])
def test_a_file_that_cannot_be_written_is_refused_in_one_line(tmp_path, name):
    # A directory in the file's place makes the removal of an earlier
    # report.csv, or the rename onto meta.json, fail.
    out_dir = tmp_path / "run"
    (out_dir / name).mkdir(parents=True)
    argv = ["solve", "--config", write_config(tmp_path), "--out", str(out_dir)]
    code, out, err = run_cli(argv)
    assert (code, out) == (1, "")
    lines = err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("cannot write output directory: ")
    assert str(out_dir / name) in lines[0]
    names = {p.name for p in out_dir.iterdir()}
    assert not [n for n in names if ".tmp" in n]
    assert "manifest.json" not in names


# ---------------------------------------------------------------------------
# pohozaev
# ---------------------------------------------------------------------------
def test_pohozaev_confirms_written_solution(solved_ok):
    code, out, _ = run_cli(
        ["pohozaev", "--solution", str(solved_ok.path), "--radius", "20.0"]
    )
    assert code == 0
    lines = dict(
        line.split(":", 1) for line in out.strip().splitlines() if ":" in line
    )
    assert abs(float(lines["radius (snapped)"]) - 20.0) < 0.2
    assert float(lines["defect"]) <= 1e-2
    for name in ("t1", "t2", "t3", "b1", "b2", "b3", "lhs", "rhs", "volume_balance"):
        assert name in lines


def test_pohozaev_gate_failure_on_tilted_solution(solved_ok, tmp_path):
    # A linear tilt of the correction is no longer a solution; the balance
    # defect must cross the gate even though the table still parses.
    table = np.loadtxt(solved_ok.path / "solution.csv", delimiter=",", skiprows=1)
    table[:, 1] += 0.2 * table[:, 0]
    lines = ["r,v,u,log_abs_K,density"]
    lines += [",".join(f"{x:.17g}" for x in row) for row in table]
    (tmp_path / "solution.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    (tmp_path / "meta.json").write_bytes((solved_ok.path / "meta.json").read_bytes())

    code, out, _ = run_cli(["pohozaev", "--solution", str(tmp_path), "--radius", "10.0"])
    assert code == 3
    defect = float(out.split("defect:")[1].split()[0])
    assert defect > 1e-2


def test_pohozaev_reads_the_linear_K_column_format(solved_ok, tmp_path):
    # Directories written before log|K| replaced K in solution.csv hold
    # sign e^{log|K|} in the fourth column; pohozaev rebuilds log|K| from
    # meta.json, so it prints the same balance for both formats.
    table = np.loadtxt(solved_ok.path / "solution.csv", delimiter=",", skiprows=1)
    table[:, 3] = np.exp(table[:, 3])
    lines = ["r,v,u,K,density"]
    lines += [",".join(f"{x:.17g}" for x in row) for row in table]
    (tmp_path / "solution.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    (tmp_path / "meta.json").write_bytes((solved_ok.path / "meta.json").read_bytes())

    argv = ["pohozaev", "--radius", "10.0", "--solution"]
    fresh = run_cli(argv + [str(solved_ok.path)])
    old_format = run_cli(argv + [str(tmp_path)])
    assert fresh[0] == 0
    assert old_format == fresh


def test_pohozaev_rebuilds_the_u0_density_from_the_config(solved_ok, tmp_path):
    # Only r and v are read from solution.csv; u0's density, like log|K|,
    # comes from the config, so a rewritten density column changes nothing.
    table = np.loadtxt(solved_ok.path / "solution.csv", delimiter=",", skiprows=1)
    table[:, 4] = 1.0
    lines = ["r,v,u,log_abs_K,density"]
    lines += [",".join(f"{x:.17g}" for x in row) for row in table]
    (tmp_path / "solution.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    (tmp_path / "meta.json").write_bytes((solved_ok.path / "meta.json").read_bytes())

    argv = ["pohozaev", "--radius", "20", "--solution"]
    fresh = run_cli(argv + [str(solved_ok.path)])
    rewritten = run_cli(argv + [str(tmp_path)])
    assert fresh[0] == 0
    assert rewritten == fresh


def test_pohozaev_reads_a_meta_json_holding_the_removed_keys(solved_ok, tmp_path):
    # Directories written while map_kind, quad_order and u0_profile were
    # settings hold them at the values the solver still uses; they print
    # the same balance.
    meta = json.loads((solved_ok.path / "meta.json").read_text(encoding="utf-8"))
    removed = dict(map_kind="sinh-clustered", quad_order=12, u0_profile="smooth-global")
    assert not set(removed) & set(meta["config"])
    meta["config"].update(removed)
    (tmp_path / "meta.json").write_text(json.dumps(meta, indent=2), encoding="utf-8")
    (tmp_path / "solution.csv").write_bytes(
        (solved_ok.path / "solution.csv").read_bytes()
    )
    argv = ["pohozaev", "--radius", "10.0", "--solution"]
    fresh = run_cli(argv + [str(solved_ok.path)])
    older = run_cli(argv + [str(tmp_path)])
    assert fresh[0] == 0
    assert older == fresh


def test_pohozaev_rejects_missing_directory(tmp_path):
    code, _, err = run_cli(
        ["pohozaev", "--solution", str(tmp_path / "nope"), "--radius", "10.0"]
    )
    assert code == 1
    assert "cannot read solution directory" in err


@pytest.mark.parametrize("content", ["header-only", "zero-byte"])
def test_pohozaev_refuses_a_table_with_no_rows_in_one_line(
    solved_ok, tmp_path, content
):
    header = (solved_ok.path / "solution.csv").read_text().splitlines()[0]
    text = header + "\n" if content == "header-only" else ""
    (tmp_path / "solution.csv").write_text(text, encoding="utf-8")
    (tmp_path / "meta.json").write_bytes((solved_ok.path / "meta.json").read_bytes())
    result = _run_process("pohozaev", "--solution", str(tmp_path), "--radius", "10")
    assert result.returncode == 1
    assert result.stdout == ""
    lines = result.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("cannot read solution directory: ")


def test_pohozaev_rejects_table_grid_mismatch(solved_ok, tmp_path):
    content = (solved_ok.path / "solution.csv").read_text(encoding="utf-8")
    truncated = "\n".join(content.splitlines()[:-1]) + "\n"
    (tmp_path / "solution.csv").write_text(truncated, encoding="utf-8")
    (tmp_path / "meta.json").write_bytes((solved_ok.path / "meta.json").read_bytes())
    code, _, err = run_cli(["pohozaev", "--solution", str(tmp_path), "--radius", "10.0"])
    assert code == 1
    assert "does not match the grid" in err


def test_pohozaev_rejects_a_config_that_builds_no_grid(solved_ok, tmp_path):
    # The config loads, but at N = 2048 the innermost quadrature weights
    # of sinh_strength 250 underflow, so no grid can be built for it.
    meta = json.loads((solved_ok.path / "meta.json").read_text(encoding="utf-8"))
    meta["config"].update(sinh_strength=250.0, n_intervals=2048)
    (tmp_path / "meta.json").write_text(json.dumps(meta), encoding="utf-8")
    (tmp_path / "solution.csv").write_bytes(
        (solved_ok.path / "solution.csv").read_bytes()
    )
    code, _, err = run_cli(["pohozaev", "--solution", str(tmp_path), "--radius", "10.0"])
    assert code == 1
    assert "cannot build the grid" in err


def _nan_in_the_v_column(meta, csv_text):
    header, first, *rest = csv_text.splitlines()
    cells = first.split(",")
    cells[1] = "nan"
    return meta, "\n".join([header, ",".join(cells), *rest]) + "\n"


def _with_result(**changes):
    def corrupt(meta, csv_text):
        meta["result"].update(changes)
        return meta, csv_text

    return corrupt


SOLUTION_CORRUPTIONS = {
    "nan-in-solution-csv": _nan_in_the_v_column,
    "nan-c_v": _with_result(c_v=float("nan")),
    "text-c_v": _with_result(c_v="abc"),
    # JSON true and numeric text are not numbers, though float() takes them.
    "bool-c_v": _with_result(c_v=True),
    "numeric-text-c_v": _with_result(c_v="0.367"),
    "bool-alpha": _with_result(alpha=True),
    "numeric-text-alpha": _with_result(alpha="1.0"),
    "null-result": lambda meta, csv_text: ({**meta, "result": None}, csv_text),
    "meta-is-a-list": lambda meta, csv_text: ([meta], csv_text),
}


@pytest.mark.parametrize("name", sorted(SOLUTION_CORRUPTIONS))
def test_pohozaev_refuses_a_malformed_solution_in_one_line(solved_ok, tmp_path, name):
    meta, csv_text = SOLUTION_CORRUPTIONS[name](
        json.loads((solved_ok.path / "meta.json").read_text(encoding="utf-8")),
        (solved_ok.path / "solution.csv").read_text(encoding="utf-8"),
    )
    (tmp_path / "meta.json").write_text(json.dumps(meta), encoding="utf-8")
    (tmp_path / "solution.csv").write_text(csv_text, encoding="utf-8")
    result = _run_process("pohozaev", "--solution", str(tmp_path), "--radius", "10")
    assert result.returncode == 1
    assert "Traceback" not in result.stderr
    lines = result.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(
        ("invalid solution metadata: ", "cannot read solution directory: ")
    )


@pytest.mark.parametrize("alpha", [float("nan"), 7.0])
def test_pohozaev_refuses_a_result_alpha_other_than_the_configs(
    solved_ok, tmp_path, alpha
):
    # alpha is the config's; a stored alpha that is non-finite or differs
    # from it is refused, not used in the balance.
    meta = json.loads((solved_ok.path / "meta.json").read_text(encoding="utf-8"))
    meta["result"]["alpha"] = alpha
    (tmp_path / "meta.json").write_text(json.dumps(meta), encoding="utf-8")
    shutil.copy(solved_ok.path / "solution.csv", tmp_path / "solution.csv")
    result = _run_process("pohozaev", "--solution", str(tmp_path), "--radius", "10")
    assert result.returncode == 1
    assert result.stdout == ""
    lines = result.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("invalid solution metadata: result.alpha = ")


def test_pohozaev_rejects_radius_outside_stencil_range(solved_ok):
    code, _, err = run_cli(
        ["pohozaev", "--solution", str(solved_ok.path), "--radius", "39.9"]
    )
    assert code == 1
    assert "too close to the grid ends" in err


# ---------------------------------------------------------------------------
# module execution
# ---------------------------------------------------------------------------
def test_exit_code_tables_agree():
    """The README table and the cli docstring list the same exit codes
    with the same meanings."""
    readme = README.read_text(encoding="utf-8")
    section = readme.partition("### Exit codes")[2].partition("\n#")[0]
    from_readme = dict(re.findall(r"^\| (\d+) \| (.+?) \|$", section, re.MULTILINE))
    table = (qcurv.cli.__doc__ or "").partition("Exit codes\n----------\n")[2]
    from_doc = {
        code: " ".join(text.split())
        for code, text in re.findall(
            r"^(\d+)  (.+?)(?=^\d+  |\Z)", table, re.MULTILINE | re.DOTALL
        )
    }
    assert from_readme, "README has no exit-code table"
    assert from_readme == from_doc


def test_removed_keys_are_documented():
    """`qcurv --help` and the README's config paragraph name each removed
    config key with the one value it still loads at."""
    readme = README.read_text(encoding="utf-8")
    paragraph = readme.partition("(`volume` here is")[2].partition("\n\n")[0]
    texts = {
        "--help": " ".join(qcurv.cli._CONFIG_FIELD_DOC.split()),
        "README": " ".join(paragraph.replace("`", "").split()),
    }
    assert qcurv.solver._REMOVED_KEYS
    for name, value in qcurv.solver._REMOVED_KEYS.items():
        for where, text in texts.items():
            assert f"{name} at {json.dumps(value)}" in text, (where, name)


def test_config_field_doc_matches_the_dataclass():
    """The config field list of `qcurv --help` names each SolverConfig
    field once, in order, with its default."""
    section = qcurv.cli._CONFIG_FIELD_DOC.partition("\n\n")[0]
    entries = re.findall(r"^  (\w+) +(.+(?:\n {18}.+)*)", section, re.MULTILINE)
    fields = dataclasses.fields(SolverConfig)
    assert [name for name, _ in entries] == ["schema_version"] + [
        f.name for f in fields
    ]
    doc = {name: " ".join(text.split()) for name, text in entries}
    for f in fields:
        text = doc[f.name]
        if f.default is dataclasses.MISSING:
            assert "default" not in text, f.name
        else:
            (value,) = re.findall(r"\(default ([^)]+)\)", text)
            assert float(value) == f.default, f.name


def test_help_states_the_gates_the_solve_applies():
    code, out, _ = run_cli(["--help"])
    assert code == 0
    (values,) = re.findall(
        r"pde residual <= (\S+), \|volume - V\|/V <= (\S+), "
        r"Pohozaev defect <= (\S+)\n",
        out,
    )
    cli = qcurv.cli
    gates = (cli.GATE_PDE_RESIDUAL, cli.GATE_VOLUME_REL, cli.GATE_POHOZAEV)
    assert tuple(map(float, values)) == gates


def _run_with_a_closed_stream(stream, *argv):
    """Run ``python -m qcurv.cli`` with the read end of its ``stream``
    ("stdout" or "stderr") pipe already closed, capturing the other."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    pipes = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, stream: write_end}
    try:
        return subprocess.run(
            [sys.executable, "-m", "qcurv.cli", *argv],
            **pipes,
            text=True,
            timeout=120,
        )
    finally:
        os.close(write_end)


def test_a_closed_stdout_changes_nothing_but_stdout(tmp_path):
    # Each subcommand exits as it does with stdout open, with the same
    # stderr, and solve writes all its files before its first line.
    config, _ = _readme_solve_example()
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    out_dir = tmp_path / "run"
    for argv in (
        ["poly-check", "--poly", "x1^2 + 2*x2^2 + x3^2 + x4^2"],
        ["verify", "--suite", "poly"],
        ["solve", "--config", str(path), "--out", str(out_dir)],
        ["pohozaev", "--solution", str(out_dir), "--radius", "20"],
    ):
        closed = _run_with_a_closed_stream("stdout", *argv)
        if argv[0] == "solve":
            assert {p.name for p in out_dir.iterdir()} == SOLVE_FILES
        code, _, err = run_cli(argv)
        assert (closed.returncode, closed.stderr) == (code, err), argv


def test_a_closed_stderr_changes_nothing_but_stderr(tmp_path):
    # Each command that reports on stderr exits as it does with stderr
    # open, and a solve that stops at max_iter still writes its report
    # and manifest.
    config, _ = _readme_solve_example()
    path = tmp_path / "config.json"
    path.write_text(json.dumps(dict(config, max_iter=2)), encoding="utf-8")
    out_dir = tmp_path / "run"
    for argv, expected in (
        (["solve", "--config", str(path), "--out", str(out_dir)], 2),
        (["poly-check", "--poly", "x1^^2"], 4),
        (["pohozaev", "--solution", str(tmp_path / "nope"), "--radius", "20"], 1),
    ):
        closed = _run_with_a_closed_stream("stderr", *argv)
        if argv[0] == "solve":
            assert {p.name for p in out_dir.iterdir()} == SOLVE_FILES - {"report.csv"}
        code, out, err = run_cli(argv)
        assert err
        assert (closed.returncode, closed.stdout) == (code, out) == (expected, ""), argv


def test_module_is_runnable_as_subprocess():
    result = subprocess.run(
        [sys.executable, "-m", "qcurv.cli", "verify", "--suite", "oracles"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0
    assert "oracles: 5/5 checks passed" in result.stdout
