"""The benchmark's tracing targets resolve in the package.

perfbench wraps each function named in ``perfbench/tracing.py``'s
``TARGETS`` where its caller looks it up; a target that was renamed,
moved or deleted is skipped there and its per-layer metric goes absent.
This catches that in the test suite instead of only in the benchmark's
self-check.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing_targets(monkeypatch):
    # Loaded from its file without writing bytecode next to it.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_tracing_target_resolves_to_a_callable(monkeypatch):
    targets = _tracing_targets(monkeypatch)
    assert targets
    missing = []
    for module_name, path, _span in targets:
        owner = importlib.import_module(module_name)
        for part in path.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module_name}.{path}")
    assert missing == []

