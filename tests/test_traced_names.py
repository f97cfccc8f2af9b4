"""The benchmark tracer wraps package functions by name; each name must exist.

``perfbench/tracing.py`` replaces ``(module, attribute)`` pairs with timing
wrappers. A pair that no longer resolves would fail only when a traced
benchmark run starts, so this checks them with the rest of the tests.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_wrapped_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [(module.__name__, attr)
               for module, attr, _, _ in tracing.WRAPPED
               if not callable(getattr(module, attr, None))]
    assert missing == []
