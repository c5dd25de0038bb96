"""Cold start of the program: import `exactsum`, then run one warm-up request.

    python3 bench/coldstart.py <workload> <seed>

prints one JSON line {"import_s": ..., "setup_s": ..., "kernel_s": ...}:
the seconds from just before `import exactsum` to the end of the import,
and to the end of the first request of the workload's round, and the
speed gauge taken right after (see speed.py). The runner calls `cold_start`
itself for its own first request and starts this script for the others,
so every sample comes from a fresh interpreter that has imported neither
mpmath nor numpy before the clock starts.
"""

from __future__ import annotations

import json
import os
import sys
import time

import speed
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


class MissingProgram(Exception):
    """The checkout has no `src/exactsum` to benchmark."""


def make_request(cli, workload: str, request):
    w = workloads.WORKLOADS[workload]
    return cli.CliRequest(
        expression=request.expression,
        sign=request.sign,
        digits=w.digits,
        format="json",
        verify=w.verify,
    )


def cold_start(workload: str, seed: int):
    """Import the checkout's `exactsum.cli` and run the round's first request.

    Returns (cli module, round of requests, import seconds, setup seconds).
    """
    if not os.path.isfile(os.path.join(SRC, "exactsum", "__init__.py")):
        raise MissingProgram(f"no exactsum package under {SRC}")
    round_ = workloads.generate(workload, seed)
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import exactsum.cli as cli

    imported = time.perf_counter()
    code, _, err = cli.run(make_request(cli, workload, round_[0]))
    done = time.perf_counter()
    if code != 0:
        raise RuntimeError(f"warm-up request failed with exit {code}: {err.strip()}")
    return cli, round_, imported - start, done - start


if __name__ == "__main__":
    _, _, import_s, setup_s = cold_start(sys.argv[1], int(sys.argv[2]))
    print(json.dumps({"import_s": import_s, "setup_s": setup_s, "kernel_s": speed.gauge()}))
