"""The benchmark's trace hooks name functions that exist and are called.

`bench/spans.py` wraps public functions by (module, attribute) name, so a
rename in `src/`, or a caller that stops looking a function up by that
name, would silently break `bench/run.py --trace 1`.  These tests only
read `bench/`.
"""

import importlib
import sys
from pathlib import Path

import exactsum.cli  # noqa: F401  (loads every module the hooks name)
from exactsum.cli import CliRequest, run

BENCH = Path(__file__).resolve().parent.parent / "bench"

# The engine sums psi terms with `polygamma.psi_dyadic`, so this hook records nothing.
STALE = {"polygamma.polygamma"}


def _spans(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.delitem(sys.modules, "spans", raising=False)
    return importlib.import_module("spans")


def test_every_wrapped_function_resolves(monkeypatch):
    spans = _spans(monkeypatch)
    missing = [
        (module, attr)
        for module, attr, *_ in spans.WRAPPED
        if not callable(getattr(sys.modules.get(module), attr, None))
    ]
    assert spans.WRAPPED and not missing


def test_every_live_hook_records_a_span(monkeypatch):
    spans = _spans(monkeypatch)
    tracer = spans.Tracer()
    tracer.install()
    try:
        for expression, sign in (("1/(n^2*(n+1/2))", "plain"), ("1/(n+1/2)", "alternating")):
            code, _, err = run(CliRequest(expression, sign, format="json", verify=True))
            assert code == 0, err
    finally:
        tracer.remove()
    recorded = {layer for _, layer, *_ in tracer.spans}
    silent = {layer for _, _, layer, _ in spans.WRAPPED} - recorded - STALE
    assert not silent
