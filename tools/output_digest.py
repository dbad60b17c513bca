"""One SHA-256 per solve-record field and per report key, over the
benchmark's configs.

Run from anywhere:

    python3 tools/output_digest.py
    python3 tools/output_digest.py --dump outputs.npz
    python3 tools/output_digest.py --compare old.npz new.npz

The configs are every distinct one that ``perfbench/configs.py``
generates for the ``sweep``, ``near-critical`` and ``cli`` workloads at
seeds 1-3 (178 of them); that file is read, not changed.  Each config is
loaded, solved and, if it converged, reported on, and each output feeds
its own hash, in config order.  Two checkouts whose lines agree produce
bit-identical values of that output on every config; a line that differs
names the output that moved.  A report that raises is hashed as its
exception text under ``report.error``.

``--dump FILE.npz`` also writes every config's outputs, under keys
``<index>/record.<field>`` (the arrays, ``c_v``, ``iterations``, and
``history`` as an (iterations, 2) array) and ``<index>/report.<name>``
(the report's scalar fields, for configs that converged and were
reported on), so that two checkouts whose digests differ can state the
largest change of each output.

``--compare OLD.npz NEW.npz`` reads two such dumps and solves nothing.
For each output it prints how many configs differ and the largest
absolute and relative change, then lists the keys only one file holds.
It exits 0 only if both files hold the same keys with bit-identical
values, and 1 otherwise.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SEEDS = (1, 2, 3)
RECORD_FIELDS = (
    "v", "u", "log_K", "u0_density", "c_v", "iterations", "history", "converged",
)


def distinct_configs() -> list[dict]:
    import configs

    seen: dict[str, dict] = {}
    for workload in configs.WORKLOADS:
        for seed in SEEDS:
            for config in configs.generate(workload, seed):
                seen.setdefault(json.dumps(config, sort_keys=True), config)
    return list(seen.values())


def _record_bytes(record, name: str) -> bytes:
    value = getattr(record, name)
    if hasattr(value, "values"):
        return value.values.tobytes()
    return repr(value).encode()


def _dump_record(dump: dict, index: int, record) -> None:
    for name in RECORD_FIELDS:
        value = getattr(record, name)
        dump[f"{index}/record.{name}"] = np.asarray(getattr(value, "values", value))


def _dump_report(dump: dict, index: int, report) -> None:
    for name, value in report.to_json_dict().items():
        if isinstance(value, (int, float)):
            dump[f"{index}/report.{name}"] = np.asarray(value)


def _change(old: np.ndarray, new: np.ndarray) -> tuple[float, float]:
    """The largest absolute and relative change from ``old`` to ``new``,
    two arrays of one shape; a change from 0 is infinitely large."""
    old, new = old.astype(float), new.astype(float)
    delta = np.abs(new - old)
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.where(delta == 0.0, 0.0, delta / np.abs(old))
    return float(np.max(delta, initial=0.0)), float(np.max(rel, initial=0.0))


def compare(old_path: str, new_path: str) -> int:
    """Print how far each output of two ``--dump`` files differs, and the
    keys only one holds; 0 if both are the same bits, else 1."""
    with np.load(old_path) as old, np.load(new_path) as new:
        old_keys, new_keys = set(old.files), set(new.files)
        # output -> [configs, configs that differ, max abs, max rel, reshaped]
        stats: dict[str, list] = {}
        for key in sorted(old_keys & new_keys):
            a, b = old[key], new[key]
            entry = stats.setdefault(key.split("/", 1)[-1], [0, 0, 0.0, 0.0, 0])
            entry[0] += 1
            if a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes():
                continue
            entry[1] += 1
            if a.shape != b.shape:
                entry[4] += 1
                continue
            largest_abs, largest_rel = _change(a, b)
            entry[2] = max(entry[2], largest_abs)
            entry[3] = max(entry[3], largest_rel)
    for output, (count, differ, largest_abs, largest_rel, reshaped) in sorted(
        stats.items()
    ):
        line = f"{output}: {differ} of {count} configs differ"
        if differ > reshaped:
            line += f", max abs change {largest_abs:.3g}, max rel change {largest_rel:.3g}"
        if reshaped:
            line += f", {reshaped} with another shape"
        print(line)
    for path, keys in ((old_path, old_keys - new_keys), (new_path, new_keys - old_keys)):
        for key in sorted(keys):
            print(f"only in {path}: {key}")
    same = old_keys == new_keys and not any(entry[1] for entry in stats.values())
    print("identical" if same else "outputs differ")
    return 0 if same else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="One SHA-256 per solve-record field and per report key, "
        "over the benchmark's configs."
    )
    action = parser.add_mutually_exclusive_group()
    action.add_argument(
        "--dump", metavar="FILE.npz", help="also write every config's outputs here"
    )
    action.add_argument(
        "--compare",
        nargs=2,
        metavar=("OLD.npz", "NEW.npz"),
        help="compare two --dump files instead of solving",
    )
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)

    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
    from qcurv import (
        DiagnosticsReport,
        QcurvError,
        SolverConfig,
        build_report,
        solve_continuation,
    )

    report_keys = [f.name for f in dataclasses.fields(DiagnosticsReport)]
    dump: dict[str, np.ndarray] | None = {} if args.dump else None
    names = [f"record.{name}" for name in RECORD_FIELDS]
    names += [f"report.{key}" for key in report_keys]
    names += ["report.error", "report.csv_header"]
    digests = {name: hashlib.sha256() for name in names}
    batch = distinct_configs()
    for index, data in enumerate(batch):
        record = solve_continuation(SolverConfig.from_json_dict(data))
        if dump is not None:
            _dump_record(dump, index, record)
        for name in RECORD_FIELDS:
            digests[f"record.{name}"].update(_record_bytes(record, name))
        if not record.converged:
            continue
        try:
            report = build_report(record)
        except QcurvError as exc:
            digests["report.error"].update(str(exc).encode())
            continue
        if dump is not None:
            _dump_report(dump, index, report)
        fields = report.to_json_dict()
        for key in report_keys:
            digests[f"report.{key}"].update(json.dumps(fields[key]).encode())
        digests["report.csv_header"].update(report.csv_header_and_row()[0].encode())
    print(f"configs {len(batch)}")
    for name in names:
        print(f"{name} {digests[name].hexdigest()}")
    if dump is not None:
        np.savez(args.dump, **dump)
    return 0


if __name__ == "__main__":
    sys.exit(main())
