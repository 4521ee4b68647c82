"""Tests of the benchmark itself: traced counts repeat exactly for a seed,
a wrong answer is caught, reference seconds follow the host kernel, and the
printed metrics are the ones BENCHMARK.json lists.

Run with ``python -m pytest bench``.
"""

import json
import random
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import pytest  # noqa: E402

import run  # noqa: E402
from hostclock import KERNEL_REFERENCE_S, HostClock  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, invariant_factors  # noqa: E402


def traced_counts(name, seed, solves):
    workload = WORKLOADS[name]
    inputs = workload.make_inputs(random.Random(seed))
    tracer = Tracer()
    with tracer.installed():
        _, failed, _ = run.run_solves(workload, inputs, count=solves,
                                      tracer=tracer)
    assert failed == 0
    return {k: v for k, (v, unit) in tracer.metrics().items() if unit != "s"
            and not k.endswith("share")}


@pytest.mark.parametrize("name,solves", [("datum-fuzz", 40), ("flow-torus", 1)])
def test_traced_counts_repeat_for_a_seed(name, solves):
    first = traced_counts(name, 7, solves)
    assert first == traced_counts(name, 7, solves)
    assert first["exact_linalg.snf_per_boundary"] == 2.0


def test_flow_torus_counts_and_shares():
    counts = traced_counts("flow-torus", 3, 1)
    assert counts["flow_numerics.orbits"] == 4
    assert counts["flow_numerics.flow_pairs"] == 4
    assert counts["flow_numerics.FlowLineCounter.count.calls"] == 4
    assert 0 < counts["flow_numerics.newton_yield"] < 1


def test_tracer_restores_the_originals():
    from orbimorse import chain_complex, exact_linalg, morse_datum
    before = (morse_datum.verify_complex, chain_complex.homology_at,
              exact_linalg.IntegerMatrix.__matmul__)
    with Tracer().installed():
        assert morse_datum.verify_complex is not before[0]
        assert chain_complex.homology_at is not before[1]
    assert (morse_datum.verify_complex, chain_complex.homology_at,
            exact_linalg.IntegerMatrix.__matmul__) == before


def test_nested_calls_become_child_spans():
    workload = WORKLOADS["datum-fuzz"]
    inputs = workload.make_inputs(random.Random(1))
    tracer = Tracer()
    with tracer.installed():
        run.run_solves(workload, inputs, count=1, tracer=tracer)
    names = [s[0] for s in tracer.spans]
    parent_of = {i: tracer.spans[s[3]][0] for i, s in enumerate(tracer.spans)
                 if s[3] is not None}
    verify = [i for i, n in enumerate(names)
              if n == "chain_complex.verify_complex"]
    assert {parent_of[i] for i in verify} == {
        "morse_datum.coinvariant_complex", "morse_datum.invariant_complex",
        "chain_complex.homology"}
    assert all(s[4] == 0 for s in tracer.spans)


def test_invariant_factors():
    assert invariant_factors([]) == ()
    assert invariant_factors([2, 3]) == (6,)
    assert invariant_factors([2, 4, 3]) == (2, 12)
    assert invariant_factors([6, 6, 9]) == (3, 6, 18)


def test_tail_percentile():
    assert run.tail([1.0, 3.0, 2.0]) == (2.0, 50.0, 1)
    times = [float(i) for i in range(100)]
    assert run.tail(times) == (89.0, 90.0, 10)
    times = [float(i) for i in range(5000)]
    assert run.tail(times) == (4749.0, 95.0, 250)


def test_wrong_homology_is_caught(monkeypatch):
    """Solves compare with their planted answers, so a program that drops
    one torsion factor fails every datum that has torsion."""
    from orbimorse import chain_complex, exact_linalg
    real = chain_complex.homology_at

    def drop_torsion(out, into, degree=0):
        group = real(out, into, degree)
        return exact_linalg.HomologyGroup(group.degree, group.betti,
                                          group.torsion[1:])

    workload = WORKLOADS["datum-fuzz"]
    inputs = [c for c in workload.make_inputs(random.Random(5))
              if any(torsion for _, torsion in c.invariant)][:20]
    monkeypatch.setattr(chain_complex, "homology_at", drop_torsion)
    _, failed, _ = run.run_solves(workload, inputs, count=len(inputs))
    assert failed == len(inputs) == 20


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_output_matches_benchmark_json(trace, section):
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "datum-fuzz",
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=120, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec[section]}


def test_reference_seconds_follow_the_kernel():
    """A gap runs at KERNEL_REFERENCE_S / kernel time, the mean of the two
    samples beside it after each is replaced by the median of it and its
    neighbours; the samples' own time is left out.  An interval under
    MIN_WINDOW_S takes the mean rate of the second around its middle."""
    k = KERNEL_REFERENCE_S
    clock = HostClock()
    clock.samples = [(0.0, 0.01, k), (1.0, 1.01, k), (2.0, 2.01, 2 * k),
                     (3.0, 3.01, 2 * k)]
    clock._gaps()
    assert clock.reference_seconds(0.5, 0.9) == pytest.approx(
        0.4 * (0.8 + 0.19 * 2 / 3) / 0.99)
    assert clock.reference_seconds(0.0, 1.01) == pytest.approx(0.99)
    assert clock.reference_seconds(1.5, 3.5) == pytest.approx(
        0.5 * 2 / 3 + 0.99 / 2 + 0.49 / 2)
    assert clock.reference_seconds(-2.0, -1.0) == pytest.approx(1.0)
    assert clock.slowdown() == pytest.approx(1.5)


def test_sampling_restores_the_signal_handler():
    import signal
    import time
    before = signal.getsignal(signal.SIGALRM)
    clock = HostClock()
    with clock.sampling():
        start = time.perf_counter()
        while time.perf_counter() - start < 0.6:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(clock.samples) >= 5
    assert 0 < clock.reference_seconds(start, start + 0.6)
