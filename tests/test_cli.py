"""End-to-end tests for the ``qcurv`` command line.

Every subcommand is driven in-process through ``main(argv)`` so exit
codes, stdout tables, and written files can be asserted directly; one
subprocess test checks the module is runnable as ``python -m qcurv.cli``.
The solve fixtures run at N <= 512, so the whole module runs in seconds.
"""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from conftest import SQUARE_PROFILE_4D
import qcurv.cli
from qcurv import Polynomial, __version__, a3_counterexample, constants
from qcurv.cli import main

SOLVE_FILES = {"solution.csv", "meta.json", "report.json", "report.csv", "manifest.json"}
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
    ],
)
def test_solve_rejects_invalid_config_values(tmp_path, drop, overrides, fragment):
    path = write_config(tmp_path, drop=drop, **overrides)
    code, _, err = run_cli(["solve", "--config", path, "--out", str(tmp_path / "run")])
    assert code == 1
    assert "config error:" in err
    assert fragment in err


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
    code, _, err = run_cli(["verify", "--suite", "frogs"])
    assert code == 2  # argparse choices reject it before the runner
    assert "frogs" in err


@pytest.mark.parametrize("suite", ["oracles", "kernel", "kelvin", "poly"])
def test_verify_suites_all_pass(suite):
    code, out, _ = run_cli(["verify", "--suite", suite])
    assert code == 0
    assert "FAIL" not in out
    summary = re.search(rf"^{suite}: (\d+)/(\d+) checks passed$", out, re.MULTILINE)
    assert summary is not None
    assert summary.group(1) == summary.group(2)
    assert int(summary.group(1)) > 0


@pytest.mark.parametrize(
    "suite, manifest_command",
    [("kelvin", "verify-oracles"), ("kernel", "kernel-test"), ("poly", "poly-check")],
)
def test_verify_writes_table_and_manifest(tmp_path, suite, manifest_command):
    out_dir = tmp_path / suite
    code, _, _ = run_cli(["verify", "--suite", suite, "--out", str(out_dir)])
    assert code == 0
    payload = json.loads((out_dir / "verify.json").read_text())
    assert payload["suite"] == suite
    assert payload["checks"] and all(check["passed"] for check in payload["checks"])
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["command"] == manifest_command
    assert manifest["config_path"] == f"suite:{suite}"


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
    assert code == 2
    assert "status: Inconclusive" in out
    assert "changes sign at small radii" in out


@pytest.mark.parametrize("bad", ["x1^2 + frog", '{"dim": 2', ""])
def test_poly_check_unparseable_input(bad):
    code, _, err = run_cli(["poly-check", "--poly", bad])
    assert code == 4
    assert "cannot parse polynomial" in err


def test_poly_check_odd_dimension_needs_explicit_m():
    poly = "1.0 * x1^2 + 1.0 * x2^2 + 1.0 * x3^2"
    code, _, err = run_cli(["poly-check", "--poly", poly])
    assert code == 4
    assert "cannot classify polynomial" in err


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


def test_pohozaev_rejects_missing_directory(tmp_path):
    code, _, err = run_cli(
        ["pohozaev", "--solution", str(tmp_path / "nope"), "--radius", "10.0"]
    )
    assert code == 1
    assert "cannot read solution directory" in err


def test_pohozaev_rejects_table_grid_mismatch(solved_ok, tmp_path):
    content = (solved_ok.path / "solution.csv").read_text(encoding="utf-8")
    truncated = "\n".join(content.splitlines()[:-1]) + "\n"
    (tmp_path / "solution.csv").write_text(truncated, encoding="utf-8")
    (tmp_path / "meta.json").write_bytes((solved_ok.path / "meta.json").read_bytes())
    code, _, err = run_cli(["pohozaev", "--solution", str(tmp_path), "--radius", "10.0"])
    assert code == 1
    assert "does not match the grid" in err


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


def test_module_is_runnable_as_subprocess():
    result = subprocess.run(
        [sys.executable, "-m", "qcurv.cli", "verify", "--suite", "kelvin"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0
    assert "kelvin: 3/3 checks passed" in result.stdout
