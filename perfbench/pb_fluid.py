"""The ``fluid_rebalance`` workload: the paper's planner inside the fluid engine.

An in-process ``OperatorSimulator`` (wordcount) routes a drifting Zipf stream
shaped like the ``small`` preset (10k keys, 10 tasks, 100k tuples per
interval, fluctuation 0.5) with strategy ``mixed``, whose planner runs at
every interval end.  No processes or queues take part, so a runtime change
must not move this workload, and a planner (``core/``) or simulator
(``engine/``) change shows here first.
"""

from __future__ import annotations

import math
import statistics
import time
from typing import Any, Dict, Iterator, List, Mapping

from pb_live import cpu_seconds, peak_rss_mb
from pb_spans import Tracer

from repro.core.strategy import get_strategy
from repro.engine.simulator import OperatorSimulator, SimulationConfig
from repro.experiments.config import get_scale
from repro.operators.wordcount import WordCountOperator
from repro.workloads.zipf import ZipfWorkload

STRATEGY = "mixed"
INTERVALS = 20
FLUCTUATION = 0.5


class FluidRun:
    def __init__(self, seed: int, tracer: Tracer) -> None:
        self.seed = seed
        self.tracer = tracer
        self.scale = get_scale("small").scaled(
            fluctuation=FLUCTUATION, sim_intervals=INTERVALS
        )
        scale = self.scale
        with tracer.span("workloads.build_stream") as span:
            workload = ZipfWorkload(
                num_keys=scale.num_keys,
                skew=scale.skew,
                tuples_per_interval=scale.tuples_per_interval,
                fluctuation=scale.fluctuation,
                num_tasks=scale.num_tasks,
                intervals=INTERVALS,
                seed=seed,
            )
            self.snapshots: List[Mapping[Any, float]] = list(workload.take(INTERVALS))
            if span is not None:
                span.count = int(self.total_tuples)

    @property
    def total_tuples(self) -> float:
        return math.fsum(math.fsum(snapshot.values()) for snapshot in self.snapshots)

    def run(self) -> Dict[str, Any]:
        scale = self.scale
        tracer = self.tracer
        partitioner = get_strategy(STRATEGY).build(
            scale.num_tasks,
            theta_max=scale.theta_max,
            max_table_size=scale.max_table_size,
            beta=scale.beta,
            window=scale.window,
            seed=self.seed,
        )
        if tracer.enabled:
            plan = partitioner.on_interval_end

            def traced_plan(stats):
                with tracer.span("core.planner.on_interval_end", count=len(stats)):
                    return plan(stats)

            partitioner.on_interval_end = traced_plan
        simulator = OperatorSimulator(
            partitioner,
            WordCountOperator(window=scale.window, emit_updates=False),
            SimulationConfig(),
            name="wordcount",
        )
        # Interval boundaries are the moments the simulator pulls the next
        # snapshot; the planner runs at each interval's end, before the pull.
        pulls: List[float] = []

        def feed() -> Iterator[Mapping[Any, float]]:
            for index, snapshot in enumerate(self.snapshots):
                pulls.append(time.perf_counter())
                with tracer.span("engine.simulator.interval", count=index):
                    yield snapshot

        total = self.total_tuples
        cpu_before = cpu_seconds()
        started = time.perf_counter()
        with tracer.span("engine.simulator.run", count=int(total)):
            collector = simulator.run(feed())
        wall = time.perf_counter() - started
        cpu = cpu_seconds() - cpu_before
        pulls.append(started + wall)
        interval_ms = sorted((b - a) * 1e3 for a, b in zip(pulls, pulls[1:]))
        offered = math.fsum(collector.series("offered_tuples"))
        table_sizes = collector.series("routing_table_size")
        return {
            "offered": total,
            "simulated": offered,
            "aborted": "",
            "run_started": started,
            "wall_s": wall,
            "cpu_s": cpu,
            "throughput_tps": total / wall,
            "cpu_us_per_tuple": cpu / total * 1e6,
            "interval_ms": interval_ms,
            "peak_rss_mb": peak_rss_mb(),
            "mean_skewness": collector.mean_skewness,
            "migration_cost_pct": 100.0
            * math.fsum(collector.series("migration_fraction")),
            "table_size": statistics.fmean(table_sizes),
            "max_table_size": max(table_sizes + [partitioner.routing_table_size]),
            "table_cap": scale.max_table_size,
            "rebalances": collector.rebalance_count,
            "conserved": math.isclose(offered, total, rel_tol=1e-9),
            "failed_frac": 0.0,
        }
