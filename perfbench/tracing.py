"""In-memory span recording around calls into qcurv's layers.

Spans are recorded from the benchmark's side: the harness opens a span around
each call it makes, and :func:`install` replaces selected functions with
recording wrappers *where their caller looks them up*.  The package imports
its collaborators by name (``from .potential import kernel_matrix``), so the
wrapper for kernel assembly has to replace ``qcurv.solver.kernel_matrix``,
not ``qcurv.potential.kernel_matrix``.

A target that no longer exists is skipped and listed in
``Tracer.absent``; metrics derived from it are reported as absent.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time

# (module, attribute path, span name).  Class attributes use "Class.method".
TARGETS = (
    ("qcurv.solver", "SolverConfig.validate", "solver.validate"),
    ("qcurv.solver", "pm_membership", "poly.pm_membership"),
    ("qcurv.solver", "make_grid", "potential.grid"),
    ("qcurv.solver", "kernel_matrix", "potential.kernel"),
    ("qcurv.solver", "u0_density_field", "solver.u0_density"),
    ("qcurv.solver", "u0_eval", "geometry.u0_eval"),
    ("qcurv.solver", "source_with_normalization", "solver.source"),
    ("qcurv.solver", "potential_apply", "potential.apply"),
    ("qcurv.diagnostics", "pde_residual", "diagnostics.pde_residual"),
    ("qcurv.diagnostics", "radial_polyharmonic", "geometry.radial_polyharmonic"),
    ("qcurv.diagnostics", "conformal_volume", "diagnostics.conformal_volume"),
    ("qcurv.diagnostics", "asymptotic_profile", "diagnostics.asymptotic_profile"),
    ("qcurv.diagnostics", "record_pohozaev_terms", "diagnostics.pohozaev"),
    ("qcurv.cli", "run_solve", "cli.run_solve"),
    ("qcurv.cli", "run_pohozaev", "cli.pohozaev"),
    ("qcurv.cli", "_load_config", "solver.config"),
    ("qcurv.cli", "solve_continuation", "solver.solve"),
    ("qcurv.cli", "build_report", "diagnostics.report"),
    ("qcurv.cli", "pohozaev_terms", "diagnostics.pohozaev"),
)


def array_bytes(obj) -> int:
    """Bytes held by the arrays that are direct attributes of ``obj``
    (computed from array sizes, not measured).  Duck-typed on ``nbytes`` so
    this module does not import NumPy ahead of the code it times."""
    attrs = getattr(obj, "__dict__", {})
    return sum(
        v.nbytes for v in attrs.values() if isinstance(getattr(v, "nbytes", None), int)
    )


class Tracer:
    """Spans as ``[name, start, end, parent_index, op_id]`` lists, kept in
    memory; ``values`` collects per-span numbers such as computed bytes."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.values: dict[str, list[float]] = {}
        self.absent: list[str] = []
        self.op_id = -1
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op_id])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    def adopt(self, spans: list[list], parent: int) -> None:
        """Append spans recorded by a child process under span ``parent``.

        ``time.perf_counter`` reads CLOCK_MONOTONIC on Linux, which all
        processes share, so the child's times nest inside the parent's."""
        base = len(self.spans)
        for name, start, end, child_parent, _ in spans:
            self.spans.append(
                [
                    name,
                    start,
                    end,
                    parent if child_parent < 0 else base + child_parent,
                    self.spans[parent][4],
                ]
            )


@contextlib.contextmanager
def no_span(name: str):
    yield


def _wrap(fn, name: str, tracer: Tracer):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(index)
        if name == "potential.kernel":
            tracer.values.setdefault("potential.kernel.bytes", []).append(
                array_bytes(result)
            )
        return result

    return traced


def install(tracer: Tracer, targets=TARGETS) -> None:
    """Replace every available target with a recording wrapper."""
    for module_name, path, span_name in targets:
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            tracer.absent.append(f"{module_name}.{path}")
            continue
        *owners, attr = path.split(".")
        for part in owners:
            owner = getattr(owner, part, None)
        if owner is None or not callable(getattr(owner, attr, None)):
            tracer.absent.append(f"{module_name}.{path}")
            continue
        setattr(owner, attr, _wrap(getattr(owner, attr), span_name, tracer))


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Calls are sequential (one thread), so children never overlap and their
    durations add up to the part of the parent they cover."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own
