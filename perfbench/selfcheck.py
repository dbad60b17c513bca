"""The benchmark's own check, run from the root of a qcurv checkout:

    python3 perfbench/selfcheck.py

It checks BENCHMARK.json against the harness, the config generator, the
restated gates and the span arithmetic, then runs every workload in smoke
mode (two or three configs at N = 256), traced and untraced, and finally
checks that the harness refuses to run outside a checkout.  Exit status 0
means every check passed.  Takes about a minute.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import types

import checks
import configs
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
FAILURES: list[str] = []


def check(label: str, ok: bool, detail: str = "") -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {label}{'  ' + detail if detail else ''}")
    if not ok:
        FAILURES.append(label)


def check_spec(spec: dict) -> None:
    check("BENCHMARK.json keys", set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"})
    check("workloads match the generator",
          [w["name"] for w in spec["workloads"]] == list(configs.WORKLOADS))
    names = [m["name"] for group in ("end_to_end", "per_layer") for m in spec[group]]
    names += [w["name"] for w in spec["workloads"]]
    check("names valid and unique",
          all(NAME.match(n) for n in names) and len(names) == len(set(names)))
    check("units valid", all(
        UNIT.match(m["unit"]) for g in ("end_to_end", "per_layer") for m in spec[g]))
    check("end-to-end bounds within (0, 0.25]", all(
        set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
        for m in spec["end_to_end"]))
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    check("setup_s has the largest bound", bool(setup) and setup[0]["unit"] == "s"
          and setup[0]["better"] == "lower"
          and setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"]))
    check("per-layer entries", all(
        set(m) == {"name", "unit", "better"} for m in spec["per_layer"]))
    check("directions", all(
        m["better"] in ("higher", "lower")
        for g in ("end_to_end", "per_layer") for m in spec[g]))


def check_configs() -> None:
    for workload in configs.WORKLOADS:
        batch = configs.generate(workload, 7)
        check(f"{workload}: same seed, same configs", batch == configs.generate(workload, 7))
        check(f"{workload}: another seed, other configs", batch != configs.generate(workload, 8))
        keys = {"schema_version", "m", "sign", "volume", "profile", "n_intervals"}
        check(f"{workload}: schema-v1 keys only", all(set(c) == keys for c in batch))
        ranges = (configs.NEAR_CRITICAL_RANGES if workload == "near-critical"
                  else configs.SWEEP_RANGES)
        inside = True
        for c in batch:
            lo, hi = ranges[c["sign"]]
            frac = c["volume"] / configs.sphere_volume(c["m"])
            coef = float(c["profile"].split(" * ", 1)[0])
            inside &= lo <= frac <= hi and 0.5 <= coef <= 2.0
        check(f"{workload}: volumes and profiles in range", inside)
    sweep = configs.generate("sweep", 1)
    check("sweep covers m = 2..6 x both signs",
          sorted((c["m"], c["sign"]) for c in sweep)
          == sorted((m, s) for m in range(2, 7) for s in (1, -1)))


def check_gates() -> None:
    at = checks.certify(1.0, 2.0, 5e-3, 1.005, 1e-2, 2.039)
    check("gates pass at their thresholds", at.passed, at.summary())
    check("pde residual above its gate fails",
          not checks.certify(1.0, 2.0, 5.0001e-3, 1.0, 0.0, 2.0).gates_pass)
    check("volume error above its gate fails",
          not checks.certify(1.0, 2.0, 0.0, 0.9949, 0.0, 2.0).gates_pass)
    check("pohozaev defect above its gate fails",
          not checks.certify(1.0, 2.0, 0.0, 1.0, 1.0001e-2, 2.0).gates_pass)
    alpha = checks.certify(1.0, -4.0, 0.0, 1.0, 0.0, -4.09)
    check("alpha fit off by 2.25 % fails", alpha.gates_pass and not alpha.passed)
    check("gate ratio is the worst gate",
          abs(checks.certify(1.0, 2.0, 1e-2, 1.0, 5e-3, 2.0).gate_ratio - 2.0) < 1e-12)
    check("geomean", abs(checks.geomean([0.5, 8.0, float("nan")]) - 2.0) < 1e-12)
    import math
    check("sphere volume", abs(configs.sphere_volume(2) - 8 * math.pi**2 / 3) < 1e-12)


def check_tracing() -> None:
    fake = types.ModuleType("perfbench_fake")
    fake.outer = lambda: fake.inner() + fake.inner()
    fake.inner = lambda: 1
    sys.modules["perfbench_fake"] = fake
    tracer = tracing.Tracer()
    tracing.install(tracer, (("perfbench_fake", "outer", "outer"),
                             ("perfbench_fake", "inner", "inner"),
                             ("perfbench_fake", "gone", "gone")))
    tracer.op_id = 3
    with tracer.span("op"):
        fake.outer()
    own = tracing.self_times(tracer.spans)
    wall = tracer.spans[0][2] - tracer.spans[0][1]
    check("spans nest and carry the op id", [s[3] for s in tracer.spans] == [-1, 0, 1, 1]
          and {s[4] for s in tracer.spans} == {3})
    check("self times add up to the op's wall time", abs(sum(own) - wall) < 1e-9)
    check("a missing target is reported absent", tracer.absent == ["perfbench_fake.gone"])

    import run

    gone = tracing.Tracer()
    gone.absent = ["qcurv.solver.kernel_matrix"]
    with gone.span("op"):
        pass
    result = run.OpResult(index=0, config={}, seconds=1.0, iterations=5)
    metrics, _ = run.per_layer(gone, [result], 1.0, 1.0, {}, cli=False)
    check("metrics of an absent target are left out",
          "potential.kernel.s" not in metrics and "potential.kernel.bytes" not in metrics
          and "potential.grid.s" in metrics)


def run_bench(cwd: str, workload: str, trace: int) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False)
    return proc.returncode, proc.stdout


def check_smoke(spec: dict, root: str) -> None:
    for workload in configs.WORKLOADS:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            code, out = run_bench(root, workload, trace)
            label = f"smoke {workload} --trace {trace}"
            try:
                result = json.loads(out.strip().splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                check(label, False, f"exit {code}, no result line")
                continue
            wanted = {m["name"]: m["unit"] for m in spec[group]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            ok = (code == 0 and set(result) == {"correct", "attempted", "failed", "metrics"}
                  and result["correct"] is True and result["attempted"] >= 1
                  and result["failed"] == 0 and got == wanted)
            check(label, ok, f"attempted {result['attempted']}, failed {result['failed']}")
            verdicts = [line for line in out.splitlines() if line.startswith("op ")]
            check(f"{label}: a verdict per op",
                  len(verdicts) >= 1 and all(" PASS " in v or " FAIL " in v for v in verdicts))


def check_outside_checkout(root: str) -> None:
    bare = os.path.join(root, ".bench_work", "selfcheck-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(root, "BENCHMARK.json"), bare)
    try:
        code, out = run_bench(bare, "sweep", 0)
        check("refuses to run without the program", code != 0 and not out.strip())
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    check_spec(spec)
    check_configs()
    check_gates()
    check_tracing()
    check_smoke(spec, root)
    check_outside_checkout(root)
    print(f"{len(FAILURES)} failed" if FAILURES else "all checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
