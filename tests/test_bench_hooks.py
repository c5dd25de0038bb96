"""The benchmark's trace hooks name functions that exist.

`bench/spans.py` wraps public functions by (module, attribute) name, so a
rename in `src/` would silently break `bench/run.py --trace 1`.  This test
only reads `bench/`.
"""

import importlib
import sys
from pathlib import Path

import exactsum.cli  # noqa: F401  (loads every module the hooks name)

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_every_wrapped_function_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.delitem(sys.modules, "spans", raising=False)
    spans = importlib.import_module("spans")
    missing = [
        (module, attr)
        for module, attr, *_ in spans.WRAPPED
        if not callable(getattr(sys.modules.get(module), attr, None))
    ]
    assert spans.WRAPPED and not missing
