"""Self-tests of the benchmark's arithmetic (``pytest perfbench``)."""

from __future__ import annotations

import math
import os
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from pb_measure import (  # noqa: E402
    failed_frac,
    histogram_quantile_ms,
    interpolated_quantile,
    overhead_residual,
    source_lag_s,
    tail_samples,
)
from pb_spans import Span, Tracer  # noqa: E402

from repro.runtime.histogram import LatencyHistogram  # noqa: E402


def test_interpolation_tracks_known_samples_closer_than_bucket_edges():
    rng = np.random.default_rng(7)
    # Log-uniform latencies over whole buckets, about 1 ms to 340 ms: the
    # samples spread within each bucket the way the interpolation assumes.
    growth = LatencyHistogram().to_dict()["growth"]
    samples = np.exp(
        rng.uniform(31 * math.log(growth), 57 * math.log(growth), size=20_000)
    )
    histogram = LatencyHistogram()
    for value in samples:
        histogram.record(float(value))
    payload = histogram.to_dict()
    for q in (0.10, 0.50, 0.90, 0.99):
        exact_ms = float(np.quantile(samples, q)) / 1e3
        interpolated = histogram_quantile_ms(payload, q)
        assert interpolated == pytest.approx(exact_ms, rel=0.02)
        # The raw estimate is a bucket's upper edge, up to 1.25x off.
        assert histogram.quantile(q) / 1e3 >= exact_ms


def test_interpolation_within_one_bucket_is_log_linear_and_clamped():
    counts = [0, 0, 4]  # bucket 2 spans [1.5625, 1.953125) us at growth 1.25
    middle = interpolated_quantile(counts, 0.5, growth=1.25, min_us=1.0, max_us=10.0)
    assert middle == pytest.approx(1.25 ** 2.5)
    top = interpolated_quantile(counts, 1.0, growth=1.25, min_us=1.0, max_us=1.7)
    assert top == 1.7
    assert interpolated_quantile([0, 0], 0.5, growth=1.25, min_us=1.0, max_us=0.0) == 0.0
    with pytest.raises(ValueError):
        interpolated_quantile(counts, 1.5, growth=1.25, min_us=1.0, max_us=1.0)


def test_tail_samples_counts_tuples_and_batches():
    assert tail_samples(160_000, 0.99, 256) == (pytest.approx(1600.0), 7)
    assert tail_samples(100, 1.0, 256) == (0.0, 0)


def test_source_lag_open_and_closed_loop():
    assert source_lag_s(10.25, 250_000, 25_000.0) == pytest.approx(0.25)
    # A generator behind schedule shows as a positive lag that grows.
    assert source_lag_s(12.0, 250_000, 25_000.0) == pytest.approx(2.0)
    # Closed loop: every tuple is due at time zero.
    assert source_lag_s(7.5, 160_000, None) == 7.5
    with pytest.raises(ValueError):
        source_lag_s(1.0, 10, 0.0)


def test_failed_frac_formula():
    assert failed_frac(1000, 1000, 0) == 0.0
    assert failed_frac(1000, 900, 50) == pytest.approx(0.15)
    assert failed_frac(1000, 1000, 0, aborted=True) == 1.0
    assert failed_frac(0, 0, 0) == 1.0


def test_overhead_residual_adds_back_up():
    costs = {"operators.a": 8.25, "operators.b": 9.5, "runtime.router": 1.25}
    layer_sum, overhead = overhead_residual(52.0, costs)
    assert layer_sum == pytest.approx(19.0)
    assert overhead == pytest.approx(33.0)
    assert layer_sum + overhead == pytest.approx(52.0)


def test_self_time_removes_child_coverage():
    tracer = Tracer("t")
    tracer.spans = [
        Span(0, None, "t", "root", start=0.0, end=10.0, cpu_start=0.0, cpu_end=8.0),
        Span(1, 0, "t", "child", start=1.0, end=4.0, cpu_start=1.0, cpu_end=3.0),
        Span(2, 0, "t", "child", start=5.0, end=6.0, cpu_start=4.0, cpu_end=5.0),
        Span(3, 1, "t", "leaf", start=2.0, end=3.0, cpu_start=1.5, cpu_end=2.0),
    ]
    selves = tracer.self_times()
    assert selves[0] == {"wall": 6.0, "cpu": 5.0}
    assert selves[1] == {"wall": 2.0, "cpu": 1.5}
    totals = tracer.totals("child")
    assert totals["calls"] == 2 and totals["wall"] == 4.0 and totals["self_wall"] == 3.0


def test_disabled_tracer_records_nothing():
    tracer = Tracer("t", enabled=False)
    with tracer.span("x") as span:
        assert span is None
    assert tracer.spans == []


def test_host_disturbed_repetitions_are_not_measured():
    import run

    def rep(mode, stolen):
        noise = {"before": {"steal_s": 10.0}, "after": {"steal_s": 10.0 + stolen}}
        return {"mode": mode, "rep_s": 5.0, "noise": noise}

    cpus = os.cpu_count() or 1
    quiet, stolen = rep("plain", 0.01 * 5.0 * cpus), rep("plain", 0.10 * 5.0 * cpus)
    assert run.steal_share(stolen) == pytest.approx(0.10)
    assert run.undisturbed([quiet, stolen]) == [quiet]
    # A mode whose every repetition was disturbed keeps them all.
    traced = rep("traced", 0.10 * 5.0 * cpus)
    assert run.undisturbed([stolen, traced, quiet]) == [quiet, traced]


def test_benchmark_json_lists_what_run_reports():
    import json

    import run

    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
