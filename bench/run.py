"""The exactsum benchmark: one workload, one closed loop, in-process.

    python3 bench/run.py --workload frontend-30d --seed 1 --seconds 20 --trace 0

Runs from the root of a checkout; the package is imported from `src/`, so
it need not be installed. One client sends one request at a time through
`exactsum.cli.run(CliRequest(..., format="json"))`, in this process and
with no extra threads, repeating whole rounds of the seeded requests until
`--seconds` have passed and at least MIN_SAMPLES requests were sent.
Every answer is then checked against references computed apart from the
program (see reference.py), outside the timed loop. Every time reported is
scaled to a reference interpreter speed (see speed.py).

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
metrics are the end-to-end ones; with `--trace 1` the loop runs with
spans around each layer (see spans.py) and the metrics are per layer.
The same object, with the raw samples and spans, is written to
`bench/results/`.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import speed
import workloads
from coldstart import ROOT, MissingProgram, cold_start, make_request

MIN_SAMPLES = 100  # the tail percentile, p90, then has ten samples beyond it
SETUP_SAMPLES = 3  # cold starts per run; setup_s is their median
PROBE_TIMEOUT_S = 120
RESULTS = os.path.join(ROOT, "bench", "results")


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _probe_cold_start(workload: str, seed: int):
    """(import_s, setup_s, kernel_s) of a cold start in a fresh interpreter."""
    script = os.path.join(ROOT, "bench", "coldstart.py")
    done = subprocess.run(
        [sys.executable, script, workload, str(seed)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=PROBE_TIMEOUT_S,
        check=True,
    )
    sample = json.loads(done.stdout.strip().splitlines()[-1])
    return sample["import_s"], sample["setup_s"], sample["kernel_s"]


def _loop(run, requests, seconds: float, tracer=None):
    """Closed loop over whole rounds; returns (latencies, kernel times, outputs).

    The speed gauge's kernel runs after every request, outside its time.
    `outputs` maps each distinct (request index, exit code, stdout, stderr)
    to the number of times it was returned.
    """
    latencies = []
    kernels = []
    outputs = {}
    clock = time.perf_counter
    start = clock()
    while True:
        for i, request in requests:
            t0 = clock()
            if tracer is None:
                answer = run(request)
            else:
                tracer.request = len(latencies)
                answer = tracer.span("cli.run", run, request)
            latencies.append(clock() - t0)
            kernels.append(speed.kernel_seconds())
            key = (i,) + tuple(answer)
            outputs[key] = outputs.get(key, 0) + 1
        if clock() - start >= seconds and len(latencies) >= MIN_SAMPLES:
            return latencies, kernels, outputs


def _check(workload: str, round_, outputs):
    """(failed, wrong, first problem) over every answer returned.

    `failed` counts answers that erred or were wrong; `wrong` counts the
    answers that exited 0 yet failed a check.
    """
    import reference

    w = workloads.WORKLOADS[workload]
    refs = {}
    failed = wrong = 0
    problem = ""
    for (i, code, out, err), times in sorted(outputs.items(), key=lambda t: t[0][0]):
        request = round_[i]
        if code != 0:
            why = f"exit {code}: {err.strip()[-200:]}"
        else:
            if i not in refs:
                refs[i] = reference.reference_value(request.table, request.sign, w.digits)
            why = reference.check_output(request, out, w.digits, w.verify, refs[i])
            if why:
                wrong += times
        if why:
            failed += times
            problem = problem or f"request {i} {request.expression!r}: {why}"
    return failed, wrong, problem


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _end_to_end(setup, latencies):
    ms = sorted(1000 * t for t in latencies)
    return {
        "setup_s": _metric(statistics.median(s for _, s in setup), "s"),
        "throughput_sps": _metric(len(latencies) / sum(latencies), "1/s"),
        "latency_p50_ms": _metric(statistics.median(ms), "ms"),
        "latency_tail_ms": _metric(statistics.quantiles(ms, n=10)[-1], "ms"),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"
        ),
    }


def _per_layer(tracer, setup, warmup_s, latencies, kernel_s):
    n = len(latencies)
    self_s = tracer.self_seconds()

    def per_request_ms(layer):
        return _metric(1000 * speed.scale(self_s.get(layer, 0.0), kernel_s) / n, "ms")

    def per_request(count):
        return _metric(tracer.counts.get(count, 0) / n, "count")

    return {
        "parser.parse_ms": per_request_ms("parser.parse"),
        "parser.ast_to_spec_self_ms": per_request_ms("parser.ast_to_spec"),
        "polys.factor_linear_ms": per_request_ms("polys.factor_linear"),
        "polys.denominator_degree": per_request("polys.denominator_degree"),
        "partfrac.decompose_ms": per_request_ms("partfrac.decompose"),
        "partfrac.system_size": per_request("partfrac.system_size"),
        "closedform.assemble_ms": per_request_ms("closedform.assemble"),
        "closedform.render_ms": per_request_ms("closedform.render"),
        "engine.evaluate_self_ms": per_request_ms("engine.evaluate"),
        "polygamma.polygamma_ms": per_request_ms("polygamma.polygamma"),
        "polygamma.calls": per_request("polygamma.calls"),
        "polygamma.warmup_ms": _metric(1000 * warmup_s, "ms"),
        "oracle.bracket_ms": per_request_ms("oracle.bracket"),
        "oracle.quad_ms": per_request_ms("oracle.quad"),
        "cli.import_ms": _metric(1000 * statistics.median(i for i, _ in setup), "ms"),
        "cli.run_self_ms": per_request_ms("cli.run"),
        "trace.throughput_sps": _metric(n / sum(latencies), "1/s"),
        "speed.kernel_ms": _metric(1000 * kernel_s, "ms"),
    }


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        cli, round_, import_s, setup_s = cold_start(args.workload, args.seed)
    except MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    requests = [(r.index, make_request(cli, args.workload, r)) for r in round_]

    kernel_s = speed.gauge()

    # The first request again, now warm: its cold excess is the warm-up.
    t0 = time.perf_counter()
    cli.run(requests[0][1])
    warmup_s = speed.scale(setup_s - import_s - (time.perf_counter() - t0), kernel_s)

    probes = [(import_s, setup_s, kernel_s)]
    probes += [_probe_cold_start(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)]
    setup = [(speed.scale(i, k), speed.scale(s, k)) for i, s, k in probes]

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        raw, kernels, outputs = _loop(cli.run, requests, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.remove()
    latencies = speed.scale_each(raw, kernels)

    if tracer is None:
        metrics = _end_to_end(setup, latencies)
    else:
        metrics = _per_layer(tracer, setup, warmup_s, latencies, statistics.median(kernels))
    failed, wrong, problem = _check(args.workload, round_, outputs)
    if problem:
        print(f"first failure: {problem}", file=sys.stderr)
    result = {
        "correct": wrong == 0,
        "attempted": len(latencies),
        "failed": failed,
        "metrics": metrics,
    }

    os.makedirs(RESULTS, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(RESULTS, name), "w") as fh:
        json.dump(
            dict(
                result,
                workload=args.workload,
                seed=args.seed,
                cold_starts=probes,
                raw_latencies_s=raw,
                kernel_s=kernels,
                spans=None if tracer is None else tracer.spans,
            ),
            fh,
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
