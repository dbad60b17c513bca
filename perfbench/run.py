"""qcurv benchmark: certified solves per second on three seeded workloads.

Run from the root of a qcurv checkout:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --all --seed 1          # every workload in turn
    python3 perfbench/run.py --workload cli --smoke  # quick harness check

One op is one certified solve: ``SolverConfig.from_json_dict``,
``solve_continuation``, ``build_report`` and the benchmark's own gate and
alpha-fit check (``checks.py``).  The ``cli`` workload runs the same solve
as a ``qcurv solve`` subprocess followed by ``qcurv pohozaev`` on its
output.  Every workload is a closed loop with one client: the next op
starts when the previous one has finished.  The run repeats its fixed batch
of generated configs, whole batches only, for up to ``--seconds`` (at least
one batch).

The program's output contract (``cli``) and the certificate of every op are
checked.  An op that raises, does not converge, or fails a gate or the
alpha fit is *uncertified* and counts in ``fail_frac``; that is a measured
property of the solver, not a harness error.  The result's ``failed`` count
and ``correct`` flag cover what would make a measurement untrustworthy: an
unexpected exception, a rejected generated config, a program verdict that
disagrees with the benchmark's gates, or a breach of the output contract.

With ``--trace 0`` the last line of output holds the end-to-end metrics;
with ``--trace 1`` it holds the per-layer metrics of a traced pass, taken
after an untraced pass of the same length that gives the tracing overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field

import checks
import configs
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBE = os.path.join(HERE, "setup_probe.py")
QCURV_CMD = os.path.join(HERE, "qcurv_cmd.py")
SETUP_REPEATS = 3
IMPORTTIME_REPEATS = 3
CHILD_TIMEOUT_S = 150.0
POHOZAEV_RADIUS = "10"
CLI_FILES = ("solution.csv", "meta.json", "report.json", "report.csv")
# Report fields the certificate reads, in ``checks.certify`` order.
REPORT_FIELDS = (
    "pde_residual_max_rel", "volume_achieved", "pohozaev_defect_rel", "alpha_fitted"
)


@dataclass
class OpResult:
    index: int
    config: dict
    seconds: float
    iterations: int | None = None
    converged: bool | None = None
    certificate: checks.Certificate | None = None
    # Why the op is uncertified (None: certified).
    reason: str | None = None
    # Harness-level errors: each makes the run's result incorrect.
    breaches: list[str] = field(default_factory=list)
    raised: bool = False
    child_rss_kb: int = 0
    out_bytes: int = 0
    out_files: int = 0

    @property
    def certified(self) -> bool:
        return self.reason is None and not self.breaches


@dataclass
class Child:
    code: int
    stdout: str
    stderr: str
    maxrss_kb: int


class Bench:
    """Paths and process handling for one run inside a checkout."""

    def __init__(self, root: str, workload: str, seed: int) -> None:
        self.root = root
        self.src = os.path.join(root, "src")
        self.work = os.path.join(
            root, ".bench_work", f"{workload}-{seed}-{os.getpid()}"
        )
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = self.src + (
            os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else ""
        )

    def child(self, argv: list[str]) -> Child:
        """Run a child to completion and return its exit code, output and
        peak RSS.  ``os.wait4`` reaps it, so the RSS is this child's alone."""
        out_path = os.path.join(self.work, "child.out")
        err_path = os.path.join(self.work, "child.err")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            proc = subprocess.Popen(
                [sys.executable, *argv], cwd=self.root, env=self.env,
                stdout=out, stderr=err,
            )
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                timer.cancel()
                if proc.returncode is None:
                    proc.kill()
                    proc.wait()
        with open(out_path, encoding="utf-8", errors="replace") as out:
            stdout = out.read()
        with open(err_path, encoding="utf-8", errors="replace") as err:
            stderr = err.read()
        return Child(proc.returncode, stdout, stderr, usage.ru_maxrss)


# ----------------------------------------------------------------------
# set-up and import cost, each in fresh interpreters
# ----------------------------------------------------------------------
def measure_setup(bench: Bench, configs_path: str, repeats: int) -> float:
    """Median wall time for a fresh interpreter to import qcurv and then
    load and validate the batch's configs."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        child = bench.child([SETUP_PROBE, configs_path])
        times.append(time.perf_counter() - start)
        if child.code != 0:
            raise RuntimeError(f"set-up probe failed: {child.stderr.strip()[-400:]}")
    return statistics.median(times)


def import_breakdown(bench: Bench) -> dict[str, float]:
    """Cumulative import seconds of ``qcurv`` and ``scipy.special`` from
    ``python -X importtime -c "import qcurv"``, median of a few fresh runs.
    A module the import no longer loads is left out."""
    wanted = {"qcurv": "cli.import.s", "scipy.special": "cli.import.scipy_special.s"}
    samples: dict[str, list[float]] = {}
    for _ in range(IMPORTTIME_REPEATS):
        child = bench.child(["-X", "importtime", "-c", "import qcurv"])
        if child.code != 0:
            raise RuntimeError(f"import qcurv failed: {child.stderr.strip()[-400:]}")
        for line in child.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in wanted:
                samples.setdefault(wanted[parts[2].strip()], []).append(
                    int(parts[1]) / 1e6
                )
    return {name: statistics.median(vals) for name, vals in samples.items()}


def blas_threads() -> str:
    """OpenBLAS thread count of this process, read from the loaded library
    (``OPENBLAS_NUM_THREADS`` and friends otherwise)."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            libs = {
                line.split()[-1] for line in maps if "openblas" in line.lower()
            }
    except OSError:
        libs = set()
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return f"openblas threads={fn()} ({os.path.basename(path)})"
    env = {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ}
    return f"blas threads unknown (env {env or 'unset'})"


# ----------------------------------------------------------------------
# one op
# ----------------------------------------------------------------------
def _expected(config: dict) -> tuple[float, float]:
    volume = float(config["volume"])
    return volume, configs.expected_alpha(config["m"], config["sign"], volume)


def inprocess_op(qcurv, index: int, config: dict, span) -> OpResult:
    """One certified solve through the library API."""
    volume, alpha = _expected(config)
    result = OpResult(index=index, config=config, seconds=0.0)
    start = time.perf_counter()
    with span("op"):
        try:
            with span("solver.config"):
                solver_config = qcurv.SolverConfig.from_json_dict(config)
        except qcurv.QcurvError as exc:
            result.breaches.append(f"generated config rejected: {exc}")
        except Exception:  # noqa: BLE001 - reported, run continues
            result.breaches.append(f"from_json_dict: {traceback.format_exc()}")
        else:
            try:
                with span("solver.solve"):
                    record = qcurv.solve_continuation(solver_config)
                result.iterations = record.iterations
                result.converged = record.converged
                report = None
                if record.converged:
                    with span("diagnostics.report"):
                        report = qcurv.build_report(record)
            except qcurv.QcurvError as exc:
                result.raised = True
                result.reason = f"raised {type(exc).__name__}: {exc}"
            except Exception:  # noqa: BLE001 - reported, run continues
                result.breaches.append(traceback.format_exc())
            else:
                with span("bench.check"):
                    _check_record(result, record, report, volume, alpha)
    result.seconds = time.perf_counter() - start
    return result


def _check_record(result: OpResult, record, report, volume: float, alpha: float) -> None:
    if not math.isclose(record.alpha, alpha, rel_tol=1e-12):
        result.breaches.append(f"record alpha {record.alpha!r} != {alpha!r}")
    if not record.converged:
        result.reason = "not converged"
        return
    if not math.isfinite(record.c_v):
        result.breaches.append(f"converged with c_v = {record.c_v!r}")
    if report.volume_target != volume:
        result.breaches.append(f"report volume_target {report.volume_target!r} != {volume!r}")
    result.certificate = checks.certify(
        volume, alpha, *(getattr(report, k) for k in REPORT_FIELDS)
    )
    if not result.certificate.passed:
        result.reason = "certificate"


def cli_op(bench: Bench, index: int, config: dict, config_path: str,
           tracer, digests: dict) -> OpResult:
    """``qcurv solve`` into a fresh directory, then ``qcurv pohozaev`` on it."""
    volume, alpha = _expected(config)
    result = OpResult(index=index, config=config, seconds=0.0)
    out_dir = os.path.join(bench.work, f"out-{index}")
    prefix = []
    if tracer is not None:
        spans_path = os.path.join(bench.work, "spans.json")
        prefix = ["--spans", spans_path]
        tracer.op_id = index
        root = tracer.begin("op")

    def run(name: str, args: list[str]) -> Child:
        index_ = tracer.begin(name) if tracer is not None else None
        child = bench.child([QCURV_CMD, *prefix, *args])
        if tracer is not None:
            tracer.end(index_)
            with open(spans_path, encoding="utf-8") as handle:
                recorded = json.load(handle)
            tracer.adopt(recorded["spans"], index_)
            for key, vals in recorded["values"].items():
                tracer.values.setdefault(key, []).extend(vals)
            tracer.absent.extend(a for a in recorded["absent"] if a not in tracer.absent)
        return child

    start = time.perf_counter()
    solve = run("cli.solve.process", ["solve", "--config", config_path, "--out", out_dir])
    pohozaev = None
    if solve.code in (0, 2, 3):
        pohozaev = run(
            "cli.pohozaev.process",
            ["pohozaev", "--solution", out_dir, "--radius", POHOZAEV_RADIUS],
        )
    result.seconds = time.perf_counter() - start
    if tracer is not None:
        tracer.end(root)
    result.child_rss_kb = max(solve.maxrss_kb, pohozaev.maxrss_kb if pohozaev else 0)
    try:
        _check_cli_outputs(result, solve, pohozaev, out_dir, volume, alpha, digests)
    finally:
        for dirpath, _, names in os.walk(out_dir):
            result.out_files += len(names)
            result.out_bytes += sum(os.path.getsize(os.path.join(dirpath, n)) for n in names)
        shutil.rmtree(out_dir, ignore_errors=True)
    return result


def _check_cli_outputs(result, solve, pohozaev, out_dir, volume, alpha, digests) -> None:
    breaches = result.breaches
    if solve.code not in (0, 2, 3):
        breaches.append(f"solve exit {solve.code}: {solve.stderr.strip()[-300:]}")
        return
    if solve.code == 2 and not os.path.exists(os.path.join(out_dir, "meta.json")):
        # A divergence or overflow exception leaves no outputs at the seed.
        result.raised = True
        result.reason = f"solver failure: {solve.stderr.strip()[-200:]}"
        return
    try:
        with open(os.path.join(out_dir, "solution.csv"), "rb") as handle:
            rows = handle.read().count(b"\n") - 1
        with open(os.path.join(out_dir, "meta.json"), encoding="utf-8") as handle:
            outcome = json.load(handle)["result"]
        with open(os.path.join(out_dir, "report.json"), encoding="utf-8") as handle:
            report = json.load(handle).get("report")
        result.iterations = outcome["iterations"]
        result.converged = outcome["converged"]
        record_alpha = outcome["alpha"]
        values = None if report is None else [report[k] for k in REPORT_FIELDS]
    except (OSError, ValueError, KeyError) as exc:
        breaches.append(f"unreadable solve outputs: {exc}")
        return
    if not os.path.isfile(os.path.join(out_dir, "manifest.json")):
        breaches.append("manifest.json missing")
    if rows != result.config["n_intervals"] + 1:
        breaches.append(f"solution.csv has {rows} rows, expected N + 1")
    if not math.isclose(record_alpha, alpha, rel_tol=1e-12):
        breaches.append(f"meta alpha {record_alpha!r} != {alpha!r}")
    if not result.converged:
        result.reason = "not converged"
        expected_code = 2
    elif values is None:
        result.reason = "diagnostics error"
        expected_code = 3
    else:
        result.certificate = checks.certify(volume, alpha, *values)
        if not result.certificate.passed:
            result.reason = "certificate"
        expected_code = 0 if result.certificate.gates_pass else 3
    if solve.code != expected_code:
        breaches.append(
            f"solve exit {solve.code}, the benchmark's gates expect {expected_code}"
        )

    defect = None
    for line in pohozaev.stdout.splitlines():
        if line.startswith("defect:"):
            defect = float(line.split(":", 1)[1])
    if defect is None:
        breaches.append(f"pohozaev printed no defect (exit {pohozaev.code})")
    elif pohozaev.code != (0 if defect <= checks.GATE_POHOZAEV else 3):
        breaches.append(f"pohozaev exit {pohozaev.code} with printed defect {defect:g}")

    digest = {}
    for name in CLI_FILES:
        path = os.path.join(out_dir, name)
        if os.path.isfile(path):
            with open(path, "rb") as handle:
                digest[name] = hashlib.sha256(handle.read()).hexdigest()
    key = json.dumps(result.config, sort_keys=True)
    if key in digests and digests[key] != digest:
        differing = sorted(n for n in set(digest) | set(digests[key])
                           if digest.get(n) != digests[key].get(n))
        breaches.append(f"rerun of one config differs in {differing}")
    digests.setdefault(key, digest)


# ----------------------------------------------------------------------
# measurement loop and metrics
# ----------------------------------------------------------------------
def measure(batch_op, batch_len: int, seconds: float) -> tuple[list[OpResult], float]:
    """Closed loop over whole batches.  After the first, another batch
    starts only if, at the pace of the last one, it would end within
    ``seconds``; a partial batch would skew the m and volume mix."""
    results: list[OpResult] = []
    start = time.perf_counter()
    while True:
        batch_start = time.perf_counter()
        for position in range(batch_len):
            results.append(batch_op(len(results), position))
        now = time.perf_counter()
        if (now - start) + (now - batch_start) > seconds:
            return results, now - start


def end_to_end(results: list[OpResult], elapsed: float, setup_s: float,
               peak_rss_kb: int) -> dict[str, tuple[float, str]]:
    times = [r.seconds for r in results]
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(results) / elapsed, "1/s"),
        "op_s.p50": (statistics.median(times), "s"),
        "fail_frac": (sum(not r.certified for r in results) / len(results), "ratio"),
        "gate_ratio.geomean": (
            checks.geomean(
                [r.certificate.gate_ratio for r in results if r.certificate is not None]
            ),
            "ratio",
        ),
        "peak_rss_mb": (peak_rss_kb * 1024 / 1e6, "MB"),
    }


# Per-layer metrics read off one span name: its total seconds per op, its
# calls per op, or its self seconds per op.
SPAN_METRICS = (
    ("potential.kernel.s", "potential.kernel", "total"),
    ("potential.grid.s", "potential.grid", "total"),
    ("potential.apply.calls", "potential.apply", "calls"),
    ("solver.source.calls", "solver.source", "calls"),
    ("solver.source.s", "solver.source", "total"),
    ("poly.pm_membership.calls", "poly.pm_membership", "calls"),
    ("poly.pm_membership.s", "poly.pm_membership", "total"),
    ("solver.validate.calls", "solver.validate", "calls"),
    ("solver.validate.s", "solver.validate", "total"),
    ("geometry.u0_eval.s", "geometry.u0_eval", "total"),
    ("geometry.radial_polyharmonic.s", "geometry.radial_polyharmonic", "total"),
    ("solver.u0_density.s", "solver.u0_density", "total"),
    ("diagnostics.report.s", "diagnostics.report", "total"),
    ("diagnostics.pde_residual.s", "diagnostics.pde_residual", "total"),
    ("diagnostics.conformal_volume.s", "diagnostics.conformal_volume", "total"),
    ("diagnostics.asymptotic_profile.s", "diagnostics.asymptotic_profile", "total"),
    ("diagnostics.pohozaev.s", "diagnostics.pohozaev", "total"),
    ("solver.solve.self_s", "solver.solve", "self"),
    ("cli.run_solve.self_s", "cli.run_solve", "self"),
    ("cli.pohozaev.s", "cli.pohozaev", "total"),
)
SPAN_UNITS = {"total": "s", "calls": "count", "self": "s"}


def per_layer(tracer: tracing.Tracer, results: list[OpResult], elapsed: float,
              untraced_ops_per_s: float, imports: dict[str, float],
              cli: bool) -> tuple[dict[str, tuple[float, str]], dict[str, float]]:
    """Per-op layer metrics of the traced pass, and each span name's self
    seconds per op (the breakdown that adds up to the op's wall time).

    A metric whose span comes only from wrapped functions that no longer
    exist is left out."""
    ops = len(results)
    sums = {"total": {}, "calls": {}, "self": {}}
    for span, own in zip(tracer.spans, tracing.self_times(tracer.spans)):
        name = span[0]
        sums["total"][name] = sums["total"].get(name, 0.0) + span[2] - span[1]
        sums["calls"][name] = sums["calls"].get(name, 0) + 1
        sums["self"][name] = sums["self"].get(name, 0.0) + own
    absent = {
        span for module, path, span in tracing.TARGETS
        if f"{module}.{path}" in tracer.absent
    } - set(sums["calls"])

    metrics = {
        metric: (sums[kind].get(span, 0) / ops, SPAN_UNITS[kind])
        for metric, span, kind in SPAN_METRICS
        if span not in absent
    }
    apply_calls = sums["calls"].get("potential.apply", 0)
    if "potential.apply" not in absent:
        metrics["potential.apply.us_per_call"] = (
            1e6 * sums["total"]["potential.apply"] / apply_calls if apply_calls else 0.0,
            "us",
        )
    kernel_bytes = tracer.values.get("potential.kernel.bytes", [])
    if "potential.kernel" not in absent:
        metrics["potential.kernel.bytes"] = (
            float(statistics.mean(kernel_bytes)) if kernel_bytes else 0.0, "B-computed")
    metrics.update({
        "solver.iterations": (
            float(statistics.mean(r.iterations or 0 for r in results)), "count"),
        "solver.failures": (
            float(sum(r.raised or r.converged is False for r in results)), "count"),
        "cli.out.files": (
            float(statistics.mean(r.out_files for r in results)) if cli else 0.0, "count"),
        "cli.out.mb_per_solve": (
            statistics.mean(r.out_bytes for r in results) / 1e6 if cli else 0.0, "MB"),
        "trace.ops_per_s": (ops / elapsed, "1/s"),
        "trace.untraced_ops_per_s": (untraced_ops_per_s, "1/s"),
    })
    metrics.update((name, (value, "s")) for name, value in imports.items())
    return metrics, {name: s / ops for name, s in sums["self"].items()}


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------
def write_spans(tracer: tracing.Tracer, root: str, workload: str, seed: int) -> str:
    """Write the traced pass's spans, one JSON list per line:
    ``[name, start_s, end_s, parent_line_or_-1, op_id]``."""
    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"spans-{workload}-seed{seed}.jsonl")
    with open(path, "w", encoding="utf-8") as handle:
        for span in tracer.spans:
            handle.write(json.dumps(span) + "\n")
    return f"{len(tracer.spans)} written to {os.path.relpath(path, root)}"


def print_ops(workload: str, results: list[OpResult]) -> None:
    for r in results:
        verdict = "PASS" if r.certified else "FAIL"
        detail = r.certificate.summary() if r.certificate else ""
        why = "" if r.certified else f" [{r.reason or 'breach'}]"
        print(
            f"op {r.index:4d} {workload} {verdict} {configs.describe(r.config)} "
            f"it={r.iterations} {r.seconds:.4f}s {detail}{why}"
        )
        for breach in r.breaches:
            print(f"    BREACH: {breach}")


def print_metrics(metrics: dict[str, tuple[float, str]]) -> None:
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")


def percentile_note(results: list[OpResult]) -> str:
    """The highest of p90/p99 with at least ten samples beyond it."""
    times = sorted(r.seconds for r in results)
    n = len(times)
    for q in (0.99, 0.9):
        if n * (1 - q) >= 10:
            cut = statistics.quantiles(times, n=100)[int(q * 100) - 1]
            return f"op_s.p{int(q * 100)} = {cut:.6g} s over {n} ops"
    return f"no percentile above p50 has ten samples beyond it ({n} ops)"


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
def run_workload(args, root: str) -> int:
    bench = Bench(root, args.workload, args.seed)
    os.makedirs(bench.work, exist_ok=True)
    try:
        return _run(args, bench)
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(bench.work))
        except OSError:
            pass


def _run(args, bench: Bench) -> int:
    workload = args.workload
    batch = configs.generate(workload, args.seed, smoke=args.smoke)
    config_paths = []
    for i, config in enumerate(batch):
        path = os.path.join(bench.work, f"config-{i}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(config, handle)
        config_paths.append(path)
    batch_path = os.path.join(bench.work, "batch.json")
    with open(batch_path, "w", encoding="utf-8") as handle:
        json.dump(batch, handle)

    setup_s = measure_setup(bench, batch_path, 1 if args.smoke else SETUP_REPEATS)
    imports = import_breakdown(bench) if args.trace else {}

    sys.path.insert(0, bench.src)
    import qcurv

    print(f"workload {workload} seed {args.seed}: {len(batch)} configs per batch, "
          f"closed loop, 1 client; {blas_threads()}; nproc={os.cpu_count()}")

    def make_op(tracer):
        span = tracer.span if tracer is not None else tracing.no_span
        if workload == "cli":
            digests: dict = {}
            return lambda index, pos: cli_op(
                bench, index, batch[pos], config_paths[pos], tracer, digests)

        def op(index, pos):
            if tracer is not None:
                tracer.op_id = index
            # The program sees JSON: configs are passed as parsed from their file.
            with open(config_paths[pos], encoding="utf-8") as handle:
                config = json.load(handle)
            return inprocess_op(qcurv, index, config, span)

        return op

    if workload != "cli":
        # Warm-up solve at a small grid, untimed: a long-lived client pays
        # first-call costs (lazy imports, first use of each code path) once.
        warm = dict(batch[0], n_intervals=128)
        inprocess_op(qcurv, -1, warm, tracing.no_span)

    results, elapsed = measure(make_op(None), len(batch), args.seconds)
    attempted = list(results)
    if args.trace:
        untraced_ops_per_s = len(results) / elapsed
        tracer = tracing.Tracer()
        if workload != "cli":
            tracing.install(tracer)
        results, elapsed = measure(make_op(tracer), len(batch), args.seconds)
        attempted += results

    print_ops(workload, results)
    if workload == "cli":
        peak_kb = max(r.child_rss_kb for r in results)
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    e2e = end_to_end(results, elapsed, setup_s, peak_kb)
    if args.trace:
        metrics, breakdown = per_layer(
            tracer, results, elapsed, untraced_ops_per_s, imports, workload == "cli")
        overhead = 1.0 - metrics["trace.ops_per_s"][0] / untraced_ops_per_s
        print(f"tracing overhead: {100 * overhead:.2f} % of untraced ops_per_s "
              f"({untraced_ops_per_s:.6g} untraced, {metrics['trace.ops_per_s'][0]:.6g} traced)")
        op_wall = statistics.mean(r.seconds for r in results)
        print(f"self seconds per op by span (sum {sum(breakdown.values()):.6g} s, "
              f"traced op wall {op_wall:.6g} s):")
        for name, value in sorted(breakdown.items(), key=lambda kv: -kv[1]):
            print(f"  {name:36s} {value:.6g}")
        if tracer.absent:
            print(f"absent trace targets: {', '.join(tracer.absent)}")
        print(f"spans: {write_spans(tracer, bench.root, workload, args.seed)}")
        print("end-to-end figures of the traced pass (not reported as metrics):")
        print_metrics(e2e)
    else:
        metrics = e2e
    print(percentile_note(results))
    print_metrics(metrics)

    failed = sum(bool(r.breaches) for r in attempted)
    values = [v for v, _ in metrics.values()]
    correct = failed == 0 and all(math.isfinite(v) for v in values)
    print(json.dumps({
        "correct": correct,
        "attempted": len(attempted),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload for one seed, each in its own process."""
    status = 0
    for workload in configs.WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        status = max(status, subprocess.run(argv, check=False).returncode)
    return status


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--workload", choices=configs.WORKLOADS)
    target.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="two or three configs at N = 256, one set-up probe")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "qcurv", "__init__.py")):
        print("perfbench: run from the root of a qcurv checkout "
              "(src/qcurv/__init__.py not found)", file=sys.stderr)
        return 2
    if args.all:
        return run_all(args)
    return run_workload(args, root)


if __name__ == "__main__":
    sys.exit(main())
