"""Checks of the benchmark itself.

    python3 -m pytest benchmark/test_benchmark.py

They cover what the benchmark's numbers rest on: inputs that depend on the
seed alone, exact call counts under tracing, functions restored after
tracing, self times, the tail percentile, metric names that agree with
BENCHMARK.json, and per-layer metrics that are never 0.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.pin_threads()
sys.path.insert(0, str(run.SRC))

import tracing  # noqa: E402


def _matrices(workload, seed):
    return run.setup(workload, seed)[2]


def test_same_seed_gives_byte_identical_inputs():
    for workload in run.WORKLOADS:
        first = [m.tobytes() for ms in _matrices(workload, 5) for m in ms]
        again = [m.tobytes() for ms in _matrices(workload, 5) for m in ms]
        other = [m.tobytes() for ms in _matrices(workload, 6) for m in ms]
        assert first == again
        assert first != other
        assert len(set(first)) == len(first), f"{workload} repeats an input"


def _traced_pass(workload, seed, work, index=0):
    """Counts and per-layer metrics of one traced pass."""
    recorder = tracing.SpanRecorder()
    modules, plan, matrices, _ = run.setup(workload, seed, recorder)
    plan, matrices = plan[index:], matrices[index:]
    originals = tracing.public_functions(modules)
    if workload == "cli-corpus":
        run_input = run.cli_input
        files = run.write_cli_files(plan[:1], matrices[:1], work)[0]
    else:
        run_input = run.classify_input
        files = [None] * len(plan[0])
    recorder.install(modules)
    try:
        latencies, failures = run.run_pass(
            run_input, modules, plan[0], matrices[0], files, recorder)
    finally:
        recorder.restore()
    assert tracing.public_functions(modules) == originals
    assert failures == []
    assert len(latencies) == len(plan[0])
    counts = recorder.call_counts()
    counts.update(recorder.counters)
    values = run.layer_metrics(recorder, len(plan[0]), sum(map(len, plan)),
                               sum(latencies.values()), sum(latencies.values()))
    return counts, values


def test_traced_counts_repeat_exactly():
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT, prefix="test-") as work:
        for workload in run.WORKLOADS:
            first, values = _traced_pass(workload, 3, Path(work))
            again = _traced_pass(workload, 3, Path(work))[0]
            # Every pass makes the same calls, so counts per input do not
            # depend on how many passes a timed run completes.
            other = _traced_pass(workload, 4, Path(work), index=1)[0]
            assert first == again == other
            assert first["spectral.classify"] > 0
            # Every workload reports every per-layer metric, and none is 0:
            # a metric at 0 could never show a change.
            assert set(values) == set(run.per_layer_units())
            assert all(v > 0 for v in values.values()), workload


def test_untraced_functions_are_the_originals():
    recorder = tracing.SpanRecorder()
    modules = run.setup("odd-cycle-family", 1, recorder)[0]
    wsets, spectral = modules["wsets"], modules["spectral"]
    assert not hasattr(spectral.classify, "__wrapped__")
    assert spectral.enumerate_w_candidates is wsets.enumerate_w_candidates
    recorder.install(modules)
    try:
        assert spectral.enumerate_w_candidates.__wrapped__ is wsets.enumerate_w_candidates.__wrapped__
    finally:
        recorder.restore()
    assert not hasattr(spectral.enumerate_w_candidates, "__wrapped__")


def test_self_time_subtracts_children():
    recorder = tracing.SpanRecorder()
    recorder.input_id = 0
    recorder.spans.extend([
        ("a.outer", 0.0, 10.0, -1, 0),
        ("b.inner", 1.0, 4.0, 0, 0),
        ("b.inner", 5.0, 6.0, 0, 0),
        ("c.leaf", 2.0, 3.0, 1, 0),
    ])
    selfs = recorder.self_times()
    assert selfs["a.outer", False] == 6.0
    assert selfs["b.inner", False] == 3.0
    assert selfs["c.leaf", False] == 1.0


def test_tail_leaves_ten_samples_beyond():
    samples = [float(i) for i in range(1, 61)]
    pct, value = run.tail(samples)
    assert pct == 75
    assert sum(s > value for s in samples) >= run.MIN_BEYOND
    assert run.tail([float(i) for i in range(1, 1001)]) == (99, 990.0)


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert os.environ["OPENBLAS_NUM_THREADS"] == "1"
