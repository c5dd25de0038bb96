"""A gauge of the interpreter's current speed, to take machine drift out of times.

On a shared machine the same CPU work can take up to 1.6 times longer from
one minute to the next, in wall-clock and process time alike. The runner
therefore times a fixed piece of work (`kernel`) right after every request,
and scales each measured time by REFERENCE_S / (kernel time nearby). The
kernel mixes the two kinds of work the program does: interpreted Python
(small-int loops, `Fraction` sums, big-int products, dict updates), whose
speed tracks the 30- and 1000-digit engine, and copies of a 4 MiB buffer,
larger than a core's L2 cache, whose speed tracks the oracle's vectorised
partial sums. A reported time is
thus the time the request would have taken on an interpreter running at
the reference speed; the raw times and the kernel times are kept in the
result file.

The kernel runs outside the timed requests. A change that slows the whole
interpreter (a global trace hook, say) would slow the kernel too and be
scaled away; check the raw times in the result file for such changes.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

REFERENCE_S = 0.008  # the kernel's time on this benchmark's reference machine
WINDOW = 4            # a request is scaled by the kernels within 4 places of it

_BIG = 3 ** 2000
_buffers = []  # (source, target) of the copies; 8 MiB, made on first use


def kernel():
    if not _buffers:
        source = bytes(range(256)) * (1 << 14)
        _buffers.append((source, bytearray(source)))
    source, target = _buffers[0]
    for _ in range(2):
        target[:] = source
    s = 0
    for i in range(30000):
        s += (i * i) % 7
    acc = Fraction(0)
    for i in range(1, 200):
        acc += Fraction(i, i * i + 1)
    x = _BIG
    for i in range(40):
        x = (x * (_BIG + i)) >> 3170
    d = {}
    for i in range(2000):
        d[i % 97] = d.get(i % 97, 0) + i
    return s, acc, x, d


def kernel_seconds() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def gauge(repeats: int = 9) -> float:
    """Median kernel time over several back-to-back runs."""
    return statistics.median(kernel_seconds() for _ in range(repeats))


def scale(seconds: float, kernel_s: float) -> float:
    """`seconds` as it would read at the reference speed."""
    return seconds * REFERENCE_S / kernel_s


def scale_each(times, kernel_times):
    """Scale times[i] by the median of the kernel times within WINDOW of i."""
    n = len(times)
    return [
        scale(t, statistics.median(kernel_times[max(0, i - WINDOW):min(n, i + WINDOW + 1)]))
        for i, t in enumerate(times)
    ]
