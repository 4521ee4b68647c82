"""Closed-loop benchmark of orbimorse through its public API.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client runs one solve at a time, the next only after the previous one
has finished.  The seed makes the inputs; the program sees only those
inputs.  Every solve is checked against a known answer (see workloads.py).

With ``--trace 0`` solves run for ``--seconds`` seconds and the end-to-end
metrics are printed.  Their times are reference seconds (see hostclock.py):
wall time corrected for the shared host's changing speed by a fixed kernel
sampled throughout the run; the wall figures are on the detail line.  With ``--trace 1`` a fixed number of solves per
workload runs untraced and then traced, so the counts repeat exactly for a
seed; the per-layer metrics are printed and the spans are written to
``bench/out/``.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it holds the environment and the figures that are not metrics.
"""

import os

# One BLAS/OpenMP thread, set before numpy loads here or in the probes.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import math
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from hostclock import INTERPRETER_REFERENCE_S, HostClock
from spans import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

IMPORT_PROBES = 7
GENERATION_REPEATS = 5
TAIL_SAMPLES = 10
TAIL_MAX_PERCENTILE = 95
SHOWN_FAILURES = 3

_IMPORT_PROBE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import orbimorse, orbimorse.cli
elapsed = time.perf_counter() - start
if not orbimorse.__file__.startswith(sys.argv[1]):
    sys.exit("orbimorse was imported from outside " + sys.argv[1])
sys.path.insert(0, sys.argv[2])
from hostclock import interpreter_kernel, time_kernel
print(elapsed, time_kernel(interpreter_kernel, 15))
"""


def import_seconds():
    """Median time to import the package in a fresh interpreter, in wall
    and in reference seconds; each probe times the interpreter kernel right
    after its import.  One untimed import first fills the bytecode cache of
    a new checkout."""
    wall, reference = [], []
    for _ in range(IMPORT_PROBES + 1):
        probe = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, str(SRC), str(BENCH)],
            cwd=ROOT, capture_output=True, text=True, timeout=60)
        if probe.returncode != 0:
            raise SystemExit(f"cannot import orbimorse from {SRC}:\n"
                             f"{probe.stderr.strip()}")
        elapsed, kernel = map(float, probe.stdout.split())
        wall.append(elapsed)
        reference.append(elapsed * INTERPRETER_REFERENCE_S / kernel)
    return statistics.median(wall[1:]), statistics.median(reference[1:])


def load_workloads():
    sys.path.insert(0, str(SRC))
    import orbimorse
    if not Path(orbimorse.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"orbimorse was imported from {orbimorse.__file__}")
    from workloads import WORKLOADS
    return WORKLOADS


def run_solves(workload, inputs, seconds=None, count=None, tracer=None):
    """Closed loop over ``inputs`` (cycled) until ``seconds`` have passed
    or ``count`` solves are done.  Returns the wall interval (start, end) of
    each solve, the number of solves that raised or answered wrongly, and
    the wall interval of the whole loop.

    A timed loop starts no solve that would, at the mean pace so far, end
    more than half a solve past ``seconds``, so a run lasts ``seconds`` on
    average however long a solve takes."""
    spans = []
    failed = 0
    gc.collect()
    start = time.perf_counter()
    while True:
        n = len(spans)
        if count is not None and n >= count:
            break
        elapsed = time.perf_counter() - start
        if seconds is not None and n and elapsed * (1 + 0.5 / n) >= seconds:
            break
        item = inputs[n % len(inputs)]
        t0 = time.perf_counter()
        try:
            if tracer is None:
                ok = workload.solve(item)
            else:
                with tracer.solve(n):
                    ok = workload.solve(item)
            problem = None if ok else "wrong answer"
        except Exception:  # a failed solve is counted, not fatal
            ok = False
            problem = traceback.format_exc()
        spans.append((t0, time.perf_counter()))
        if not ok:
            failed += 1
            if failed <= SHOWN_FAILURES:
                print(f"solve {n} failed on input {item!r:.200}: {problem}",
                      file=sys.stderr)
    return spans, failed, (start, time.perf_counter())


def tail(times):
    """Highest percentile up to TAIL_MAX_PERCENTILE with at least
    TAIL_SAMPLES samples beyond it, as (value, percentile, samples beyond).

    Below 2 * TAIL_SAMPLES solves no such percentile lies above the median,
    and the median is reported.  Beyond the 95th percentile of millisecond
    solves the value is set by how many of them the shared host's
    sub-millisecond stalls happened to hit, not by the program."""
    ordered = sorted(times)
    n = len(ordered)
    if n < 2 * TAIL_SAMPLES:
        return statistics.median(ordered), 50.0, n // 2
    beyond = max(TAIL_SAMPLES, math.ceil(n * (100 - TAIL_MAX_PERCENTILE) / 100))
    return ordered[n - beyond - 1], 100.0 * (n - beyond) / n, beyond


def environment(args, loadavg):
    import numpy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {v: os.environ[v] for v in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                          "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_at_start": loadavg,
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def untraced(workload, inputs, seconds):
    clock = HostClock()
    with clock.sampling():
        solves, failed, loop = run_solves(workload, inputs, seconds=seconds)
    times = [clock.reference_seconds(*s) for s in solves]
    elapsed = clock.reference_seconds(*loop)
    tail_s, tail_pct, beyond = tail(times)
    ok = len(times) - failed
    metrics = {
        "solves_per_s": (ok / elapsed, "1/s"),
        "solve_s.p50": (statistics.median(times), "s"),
        "solve_s.tail": (tail_s, "s"),
    }
    wall = [b - a for a, b in solves]
    wall_elapsed = loop[1] - loop[0]
    detail = {"solves": len(times), "elapsed_s": elapsed,
              "tail_percentile": tail_pct, "tail_samples_beyond": beyond,
              "error_rate": {"value": failed / len(times), "unit": "ratio"},
              "wall": {"elapsed_s": wall_elapsed,
                       "solves_per_s": ok / wall_elapsed,
                       "solve_s.p50": statistics.median(wall),
                       "solve_s.tail": tail(wall)[0]},
              "host_slowdown": clock.slowdown(),
              "host_samples": len(clock.samples)}
    return metrics, detail, len(times), failed


def traced(workload, inputs, args):
    count = workload.traced_solves
    plain, failed_plain, _ = run_solves(workload, inputs, count=count)
    tracer = Tracer()
    with tracer.installed():
        spanned, failed_spanned, _ = run_solves(
            workload, inputs, count=count, tracer=tracer)
    metrics = tracer.metrics()
    metrics["trace_overhead"] = (
        statistics.median(b - a for a, b in spanned)
        / statistics.median(b - a for a, b in plain), "ratio")
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    path = out / f"trace-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps(tracer.to_json()))
    detail = {"traced_solves": count, "spans": len(tracer.spans),
              "span_file": str(path.relative_to(ROOT))}
    return metrics, detail, 2 * count, failed_plain + failed_spanned


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    loadavg = os.getloadavg()

    import_wall, import_s = import_seconds()
    workloads = load_workloads()
    if args.workload not in workloads:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{sorted(workloads)}")
    workload = workloads[args.workload]
    generation = []
    clock = HostClock()
    with clock.sampling():
        for _ in range(GENERATION_REPEATS):
            t0 = time.perf_counter()
            inputs = workload.make_inputs(random.Random(args.seed))
            generation.append((t0, time.perf_counter()))
    generation_s = statistics.median(
        clock.reference_seconds(*g) for g in generation)
    setup_s = import_s + generation_s

    if args.trace:
        metrics, detail, attempted, failed = traced(workload, inputs, args)
    else:
        metrics, detail, attempted, failed = untraced(
            workload, inputs, args.seconds)
        metrics["setup_s"] = (setup_s, "s")
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    detail["import_s"] = import_s
    detail["generation_s"] = generation_s
    detail.setdefault("wall", {}).update(
        import_s=import_wall,
        generation_s=statistics.median(b - a for a, b in generation))
    detail["environment"] = environment(args, loadavg)
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
