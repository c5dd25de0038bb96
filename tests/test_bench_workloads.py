"""The front end recovers the benchmark's own partial-fraction tables.

`bench/workloads.py` builds every request from a known table and hands it
to the program as expanded `(Q)/(P)`, so fold, factoring and decompose
must give that table back.  This test only reads `bench/`.
"""

import importlib
import sys
from pathlib import Path

from exactsum.parser import ast_to_spec, parse_expression
from exactsum.partfrac import decompose

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_seed_1_of_every_workload_decomposes_to_its_table(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.delitem(sys.modules, "workloads", raising=False)
    workloads = importlib.import_module("workloads")
    count = 0
    for name in workloads.WORKLOADS:
        for request in workloads.generate(name, 1):
            spec = ast_to_spec(parse_expression(request.expression), request.sign)
            found = {(a, j): c for a, j, c in decompose(spec).entries if c}
            assert found == {key: c for key, c in request.table.items() if c}, request
            count += 1
    assert count == 288
