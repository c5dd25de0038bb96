"""Spans around calls into the program's layers, recorded from outside.

`Tracer.install` replaces public functions of the `exactsum` modules
where their callers look them up (for example `exactsum.cli.evaluate`
and `exactsum.parser.factor_linear`) with wrappers that record a span per
call; `Tracer.remove` puts the originals back. Nothing under `src/` is
changed. A layer's self time is its spans' duration minus the time covered
by the spans nested directly inside them.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (module, attribute, layer, count of the call or None)
WRAPPED = (
    ("exactsum.cli", "parse_expression", "parser.parse", None),
    ("exactsum.cli", "ast_to_spec", "parser.ast_to_spec", None),
    ("exactsum.parser", "factor_linear", "polys.factor_linear",
     ("polys.denominator_degree", lambda p, *_: p.degree)),
    ("exactsum.cli", "evaluate", "engine.evaluate", None),
    ("exactsum.engine", "decompose", "partfrac.decompose",
     ("partfrac.system_size", lambda spec, *_: spec.factors.total_degree)),
    ("exactsum.engine", "assemble", "closedform.assemble", None),
    ("exactsum.cli", "render", "closedform.render", None),
    # `exactsum.polygamma` is the function; the engine calls the module's.
    ("exactsum.polygamma", "polygamma", "polygamma.polygamma",
     ("polygamma.calls", lambda *_: 1)),
    ("exactsum.cli", "partial_sum_bracket", "oracle.bracket", None),
    ("exactsum.cli", "quad_general", "oracle.quad", None),
    ("exactsum.cli", "quad_alternating", "oracle.quad", None),
)


class Tracer:
    def __init__(self):
        self.spans = []  # [request, layer, start, end, parent span index]
        self.counts = defaultdict(int)
        self.request = -1
        self._stack = []
        self._originals = []

    def span(self, layer, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        record = [self.request, layer, time.perf_counter(), None, parent]
        self.spans.append(record)
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            record[3] = time.perf_counter()
            self._stack.pop()

    def _wrapper(self, layer, fn, count):
        def traced(*args, **kwargs):
            if count is not None:
                self.counts[count[0]] += count[1](*args, **kwargs)
            return self.span(layer, fn, *args, **kwargs)

        return traced

    def install(self):
        for module_name, attr, layer, count in WRAPPED:
            module = sys.modules[module_name]
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrapper(layer, original, count))

    def remove(self):
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)

    def self_seconds(self):
        """Total self time per layer over all spans."""
        total = defaultdict(float)
        for _, layer, start, end, parent in self.spans:
            total[layer] += end - start
            if parent is not None:
                p = self.spans[parent]
                total[p[1]] -= end - start
        return total
