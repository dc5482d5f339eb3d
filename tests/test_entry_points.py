"""Every public name and every benchmark trace target resolves.

The benchmark wraps functions by attribute path and reports a path it
cannot find as a layer that took 0 s, so a rename or deletion would not
fail the benchmark.  These tests fail instead.
"""

import importlib.util
import sys
from pathlib import Path

import theta_parity
import theta_parity.cli  # noqa: F401  (the package does not import it)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look the defining module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_public_names_resolve():
    missing = [name for name in theta_parity.__all__
               if not hasattr(theta_parity, name)]
    assert missing == []


def test_trace_targets_resolve(monkeypatch):
    targets = load_tracing(monkeypatch).TARGETS
    assert targets
    unresolved = []
    for target in targets:
        obj = theta_parity
        for part in target.path.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            unresolved.append(target.path)
    assert unresolved == []
