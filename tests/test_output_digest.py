"""``tools/output_digest.py --compare`` on two small synthetic dumps."""

import subprocess
import sys
from pathlib import Path

import numpy as np

TOOL = Path(__file__).resolve().parent.parent / "tools" / "output_digest.py"


def _compare(old: dict, new: dict, tmp_path) -> tuple[int, list[str]]:
    paths = []
    for name, arrays in (("old.npz", old), ("new.npz", new)):
        path = tmp_path / name
        np.savez(path, **arrays)
        paths.append(str(path))
    done = subprocess.run(
        [sys.executable, "-B", str(TOOL), "--compare", *paths],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.stderr == ""
    return done.returncode, done.stdout.splitlines()


def _dump() -> dict:
    return {
        "0/record.v": np.array([1.0, 2.0, 3.0]),
        "1/record.v": np.array([0.0, -4.0, 8.0]),
        "0/record.history": np.zeros((2, 2)),
        "1/record.history": np.zeros((3, 2)),
        "0/report.alpha_fitted": np.asarray(1.25),
        "1/report.alpha_fitted": np.asarray(-0.5),
    }


def test_identical_dumps_exit_zero(tmp_path):
    code, lines = _compare(_dump(), _dump(), tmp_path)
    assert code == 0
    assert lines == [
        "record.history: 0 of 2 configs differ",
        "record.v: 0 of 2 configs differ",
        "report.alpha_fitted: 0 of 2 configs differ",
        "identical",
    ]


def test_changed_and_one_sided_keys_are_named(tmp_path):
    new = _dump()
    new["1/record.v"] = np.array([1e-3, -4.0, 8.0 + 2.0**-40])  # moved from 0
    new["0/report.alpha_fitted"] = np.asarray(1.5)
    new["1/record.history"] = np.zeros((4, 2))
    del new["1/report.alpha_fitted"]
    new["2/record.v"] = np.zeros(3)
    code, lines = _compare(_dump(), new, tmp_path)
    assert code == 1
    assert lines[0] == "record.history: 1 of 2 configs differ, 1 with another shape"
    assert lines[1] == (
        "record.v: 1 of 2 configs differ, max abs change 0.001, max rel change inf"
    )
    assert lines[2] == (
        "report.alpha_fitted: 1 of 1 configs differ, "
        "max abs change 0.25, max rel change 0.2"
    )
    assert lines[3].startswith("only in ")
    assert lines[3].endswith("old.npz: 1/report.alpha_fitted")
    assert lines[4].startswith("only in ")
    assert lines[4].endswith("new.npz: 2/record.v")
    assert lines[5] == "outputs differ"


def test_a_last_bit_change_is_a_difference(tmp_path):
    new = _dump()
    new["0/record.v"] = np.nextafter(new["0/record.v"], np.inf)
    code, lines = _compare(_dump(), new, tmp_path)
    assert code == 1
    assert lines[1].startswith("record.v: 1 of 2 configs differ, max abs change 4.44e-16")
    assert lines[-1] == "outputs differ"
