"""The two process-runtime workloads: one live ``TopologyRuntime`` run each.

Both run strategy ``mixed`` at parallelism 2 per stage (the host has two
CPUs); the one source process is the only load generator.

* ``q5_drain`` - ``tpch_q5_chain`` closed loop and unpaced: the software's
  own capacity, where worker operator CPU, per-tuple state writes and three
  hops of pickle and pipe dominate with no pacing sleep to hide them.
* ``diamond_open`` - ``diamond`` paced at 50 us per cost unit, open loop at
  about half its paced closed-loop capacity, checkpointing every interval:
  the latency a user of a fault-tolerant job sees, set by checkpoint scans,
  fan-in interval closes and migration pauses rather than operator CPU.
"""

from __future__ import annotations

import resource
import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional

from pb_measure import failed_frac, histogram_quantile_ms, source_lag_s, tail_samples
from pb_spans import Tracer

from repro.core.strategy import get_strategy
from repro.runtime.bench import BENCH_TOPOLOGY_WORKLOADS, RuntimeSpec
from repro.runtime.topology import TopologyRuntime

STRATEGY = "mixed"
PARALLELISM = 2
BATCH_SIZE = 256
#: Reported latency percentiles.  Workers record one latency per batch, so a
#: repetition of 160k tuples has about 31 batches beyond its p95 and 7
#: beyond its p99.
LATENCY_PERCENTILES = (
    ("latency_p50_ms", 0.50),
    ("latency_p95_ms", 0.95),
    ("latency_p99_ms", 0.99),
)


@dataclass(frozen=True)
class LiveWorkload:
    topology: str
    service_time_us: float
    offered_rate: Optional[float]
    checkpoint: bool
    tuples_per_interval: int
    intervals: int


LIVE_WORKLOADS: Dict[str, LiveWorkload] = {
    "q5_drain": LiveWorkload(
        topology="tpch_q5_chain",
        service_time_us=0.0,
        offered_rate=None,
        checkpoint=False,
        tuples_per_interval=10_000,
        intervals=16,
    ),
    # Closed-loop paced capacity measured 48-50k tuples/s on a 2-CPU host;
    # 25k tuples/s keeps the queues short, so latency is not queue depth.
    "diamond_open": LiveWorkload(
        topology="diamond",
        service_time_us=50.0,
        offered_rate=25_000.0,
        checkpoint=True,
        tuples_per_interval=10_000,
        intervals=16,
    ),
}


def cpu_seconds() -> float:
    """User + system CPU of this process and every reaped child."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def peak_rss_mb() -> float:
    """Largest RSS of this process or of any reaped child (Linux: KiB)."""
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ) / 1024.0


def mean_table_size(result, intervals: int) -> float:
    """Routing-table entries summed over stages, averaged over interval ends.

    A stage's table changes only when it rebalances, so its size at the end
    of interval ``i`` is the size its latest rebalance up to ``i`` left.
    """
    total = 0.0
    for stage in result.stages.values():
        reports = sorted(stage.migrations, key=lambda report: report.interval)
        for interval in range(intervals):
            sizes = [r.table_size for r in reports if r.interval <= interval]
            total += sizes[-1] if sizes else 0
    return total / intervals


class LiveRun:
    """Builds one workload's stream and topology, then runs it once."""

    def __init__(self, name: str, seed: int, tracer: Tracer) -> None:
        self.name = name
        self.workload = LIVE_WORKLOADS[name]
        self.seed = seed
        self.tracer = tracer
        self.bench = BENCH_TOPOLOGY_WORKLOADS[self.workload.topology]
        self.spec = RuntimeSpec(
            workload=self.workload.topology,
            strategies=[STRATEGY],
            parallelism=PARALLELISM,
            scale="tiny",
            overrides={
                "tuples_per_interval": self.workload.tuples_per_interval,
                "sim_intervals": self.workload.intervals,
            },
            seed=seed,
            service_time_us=self.workload.service_time_us,
            batch_size=BATCH_SIZE,
            offered_rate=self.workload.offered_rate,
        )
        self.scale = self.spec.resolve_scale()
        with tracer.span("workloads.build_stream") as span:
            self.stream: List[List[Any]] = self.bench.build_stream(self.scale, seed)
            if span is not None:
                span.count = self.total_tuples
        self.topology = self.build_topology()

    @property
    def total_tuples(self) -> int:
        return sum(len(interval) for interval in self.stream)

    def build_partitioner(self, strategy: str, parallelism: int):
        scale = self.scale
        return get_strategy(strategy).build(
            parallelism,
            theta_max=scale.theta_max,
            max_table_size=scale.max_table_size,
            beta=scale.beta,
            window=scale.window,
            seed=self.seed,
        )

    def build_topology(self):
        """A fresh topology: partitioners are stateful, so never reuse one."""
        with self.tracer.span("workloads.build_topology"):
            return self.bench.build_topology(
                self.scale, self.spec, STRATEGY, self.build_partitioner
            )

    def run(self, scratch: Path, *, sanitize: bool = False) -> Dict[str, Any]:
        """Run the topology once; return raw measures and correctness facts."""
        overrides: Dict[str, Any] = {"sanitize": sanitize}
        checkpoint_dir = scratch / f"checkpoints-{self.name}"
        if self.workload.checkpoint:
            overrides["checkpoint_dir"] = str(checkpoint_dir)
            overrides["checkpoint_every"] = 1
        config = self.spec.runtime_config(**overrides)
        offered = self.total_tuples
        aborted = ""
        cpu_before = cpu_seconds()
        started = time.perf_counter()
        try:
            with self.tracer.span("runtime.topology.run", count=offered):
                result = TopologyRuntime(self.topology, config, label=STRATEGY).run(
                    self.stream
                )
        except RuntimeError as error:  # an aborted run still gets a report
            aborted = str(error)
            result = None
        finally:
            shutil.rmtree(checkpoint_dir, ignore_errors=True)
        call_seconds = time.perf_counter() - started
        cpu = cpu_seconds() - cpu_before
        measures: Dict[str, Any] = {
            "offered": offered,
            "aborted": aborted,
            "call_s": call_seconds,
            "cpu_s": cpu,
            "cpu_us_per_tuple": cpu / offered * 1e6,
            "peak_rss_mb": peak_rss_mb(),
        }
        if result is None:
            measures.update(completed=0, shed=0.0, failed_frac=1.0, wall_s=call_seconds)
            return measures
        completed = result.tuples_processed
        shed = result.tuples_shed
        e2e = result.e2e_latency.to_dict()
        measures.update(
            wall_s=result.wall_seconds,
            completed=completed,
            shed=shed,
            failed_frac=failed_frac(offered, completed, shed),
            throughput_tps=completed / result.wall_seconds,
            **{name: histogram_quantile_ms(e2e, q) for name, q in LATENCY_PERCENTILES},
            latency_mean_ms=e2e["sum_us"] / e2e["total"] / 1e3,
            e2e_histogram=e2e,
            latency_tail={
                name: tail_samples(result.e2e_latency.total, q, BATCH_SIZE)
                for name, q in LATENCY_PERCENTILES
            },
            source_lag_s=source_lag_s(
                result.wall_seconds, offered, self.workload.offered_rate
            ),
            mean_skewness=max(
                stage.metrics.mean_skewness for stage in result.stages.values()
            ),
            migration_cost_pct=100.0
            * sum(report.migration_fraction for report in result.migrations),
            table_size=mean_table_size(result, self.workload.intervals),
            rebalances=len(result.migrations),
            pause_s=sum(report.pause_seconds for report in result.migrations),
            plan_ms=[report.generation_time * 1e3 for report in result.migrations],
            stages={
                name: {
                    "tuples_out": stage.tuples_processed,
                    "busy_s": sum(
                        report.busy_seconds for report in stage.final_reports.values()
                    ),
                }
                for name, stage in result.stages.items()
            },
            checkpoints=(result.resilience or {}).get("checkpoints", {}),
            sanitizer_violations=(
                len(result.sanitizer.get("violations", []))
                if result.sanitizer is not None
                else None
            ),
        )
        return measures
