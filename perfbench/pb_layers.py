"""Traced in-process replays that attribute the live runtime's cost to layers.

One pass replays the workload's stream sequentially through each stage's
operator (one ``Task`` per stage, ``process_batch`` + ``end_interval``,
outputs re-keyed by the stage's ``key_mapper`` and fanned out the way the
workers do).  That pass is the single-thread baseline, and it records each
stage's input so two more passes can replay it through the router
(``StreamRouter.dispatch`` into sink queues, with the stage's own strategy
planning on the stage's interval statistics) and through a pickle round trip
of each hop's ``EmittedBatch``.  Every call runs inside a span; the per-tuple
costs are the spans' thread CPU time, so they add up against the live run's
process-tree CPU.
"""

from __future__ import annotations

import pickle
import statistics
from multiprocessing.reduction import ForkingPickler
from typing import Any, Dict, List, Tuple

from pb_live import BATCH_SIZE, LiveRun
from pb_spans import Tracer

from repro.engine.operator import Task
from repro.runtime.messages import EmittedBatch
from repro.runtime.router import StreamRouter
from repro.runtime.source import SOURCE_ORIGIN

#: ``(interval, upstream name, keys, values)`` of one batch a stage received.
Chunk = Tuple[int, str, List[Any], List[Any]]


class SinkQueue:
    """Stands in for a worker queue: counts what the router puts."""

    def __init__(self) -> None:
        self.tuples = 0

    def put(self, batch: Any, timeout: Any = None) -> None:
        self.tuples += len(batch)


def sequential_replay(run: LiveRun, tracer: Tracer) -> Dict[str, Any]:
    """Run the stream through every stage in one thread; record stage inputs."""
    topology = run.topology
    stages = list(topology.stages)
    tasks = {stage.name: Task(0, stage.logic) for stage in stages}
    consumers = {stage.name: topology.consumers_of(stage.name) for stage in stages}
    source_fed = [
        stage.name for stage in stages if SOURCE_ORIGIN in topology.upstreams_of(stage.name)
    ]
    by_name = {stage.name: stage for stage in stages}
    inputs: Dict[str, List[Chunk]] = {stage.name: [] for stage in stages}
    stats: Dict[str, Dict[int, Any]] = {stage.name: {} for stage in stages}
    state_keys: Dict[str, List[int]] = {stage.name: [] for stage in stages}
    emitted = {stage.name: 0 for stage in stages}
    completed = 0
    chunks = 0
    with tracer.span("sequential.run", count=run.total_tuples):
        for interval, tuples in enumerate(run.stream):
            keys = [key for key, _ in tuples]
            values = [value for _, value in tuples]
            for start in range(0, len(keys), BATCH_SIZE):
                pending = [
                    (
                        source_fed[chunks % len(source_fed)],
                        SOURCE_ORIGIN,
                        keys[start : start + BATCH_SIZE],
                        values[start : start + BATCH_SIZE],
                    )
                ]
                chunks += 1
                while pending:
                    name, origin, chunk_keys, chunk_values = pending.pop(0)
                    inputs[name].append((interval, origin, chunk_keys, chunk_values))
                    with tracer.span(f"operators.{name}.process_batch", len(chunk_keys)):
                        out_keys, out_values = tasks[name].process_batch(
                            chunk_keys, chunk_values, interval
                        )
                    targets = consumers[name]
                    if not targets:
                        completed += len(chunk_keys)
                        continue
                    if not out_keys:
                        continue
                    mapper = by_name[name].key_mapper
                    if mapper is not None:
                        out_keys = [mapper(key) for key in out_keys]
                    target = targets[emitted[name] % len(targets)]
                    emitted[name] += 1
                    pending.append((target, name, out_keys, out_values))
            for stage in stages:
                task = tasks[stage.name]
                if task.has_open_interval:
                    with tracer.span(f"engine.operator.{stage.name}.end_interval"):
                        stats[stage.name][interval] = task.end_interval(interval)
                # The checkpoint scan of every interval boundary.
                held = list(task.state.keys())
                state_keys[stage.name].append(len(held))
                with tracer.span(f"engine.state.{stage.name}.snapshot", len(held)):
                    for key in held:
                        task.snapshot_key(key)
    return {
        "inputs": inputs,
        "stats": stats,
        "state_keys": state_keys,
        "completed": completed,
    }


def router_replay(
    run: LiveRun, tracer: Tracer, sequential: Dict[str, Any]
) -> Dict[str, int]:
    """Dispatch each stage's input through a router with the stage's strategy."""
    topology = run.build_topology()
    routed: Dict[str, int] = {}
    for stage in topology.stages:
        partitioner = stage.partitioner
        sinks = [SinkQueue() for _ in range(partitioner.num_tasks)]
        router = StreamRouter(partitioner, stage.logic, sinks, batch_size=BATCH_SIZE)
        stage_stats = sequential["stats"][stage.name]
        current = 0
        for interval, _, keys, values in sequential["inputs"][stage.name]:
            while current < interval:
                close_interval(router, partitioner, stage_stats, current, tracer)
                current += 1
            with tracer.span("runtime.router.dispatch", len(keys)):
                router.dispatch(keys, values, interval=interval)
        close_interval(router, partitioner, stage_stats, current, tracer)
        routed[stage.name] = sum(sink.tuples for sink in sinks)
    return routed


def close_interval(
    router: StreamRouter,
    partitioner: Any,
    stage_stats: Dict[int, Any],
    interval: int,
    tracer: Tracer,
) -> None:
    """Drop the interval's dispatch accounts and let the strategy plan on it."""
    router.pop_interval(interval)
    stats = stage_stats.get(interval)
    if stats is not None:
        with tracer.span("core.planner.on_interval_end", len(stats)):
            partitioner.on_interval_end(stats)


def pickle_replay(tracer: Tracer, sequential: Dict[str, Any]) -> Dict[str, float]:
    """Round-trip every hop's batches the way a ``multiprocessing`` queue does."""
    sent_bytes = 0
    tuples = 0
    for chunks in sequential["inputs"].values():
        for seq, (interval, origin, keys, values) in enumerate(chunks):
            batch = EmittedBatch(
                interval=interval,
                origin_at=0.0,
                keys=keys,
                values=values,
                producer_id=-1 if origin == SOURCE_ORIGIN else 0,
                producer_seq=-1 if origin == SOURCE_ORIGIN else seq,
                origin=origin,
            )
            with tracer.span("runtime.messages.pickle_roundtrip", len(keys)):
                payload = ForkingPickler.dumps(batch)
                pickle.loads(payload)
            sent_bytes += len(payload)
            tuples += len(keys)
    return {"bytes": float(sent_bytes), "tuples": float(tuples)}


def planner_metrics(tracer: Tracer, tuples: float) -> Dict[str, float]:
    """Plan times of every ``Partitioner.on_interval_end`` span."""
    plans = tracer.named("core.planner.on_interval_end")
    plan_ms = sorted(span.wall * 1e3 for span in plans)
    return {
        "core.planner.plan_ms_p50": statistics.median(plan_ms),
        "core.planner.plan_ms_max": plan_ms[-1],
        "core.planner.us_per_tuple": sum(span.cpu for span in plans) / tuples * 1e6,
    }


def layer_metrics(run: LiveRun, tracer: Tracer) -> Dict[str, Any]:
    """Run the three replays; return per-layer metrics and tuple counts."""
    sequential = sequential_replay(run, tracer)
    routed = router_replay(run, tracer, sequential)
    pickled = pickle_replay(tracer, sequential)
    source_tuples = run.total_tuples
    per_tuple = 1e6 / source_tuples
    metrics: Dict[str, float] = {}
    closes_cpu = 0.0
    scans_wall = 0.0
    for stage in run.topology.stages:
        name = stage.name
        process = tracer.totals(f"operators.{name}.process_batch")
        metrics[f"operators.{name}.us_per_tuple"] = process["cpu"] / process["count"] * 1e6
        closes = tracer.named(f"engine.operator.{name}.end_interval")
        closes_cpu += sum(span.cpu for span in closes)
        metrics[f"engine.operator.{name}.end_interval_ms"] = statistics.median(
            span.cpu * 1e3 for span in closes
        )
        scans = tracer.named(f"engine.state.{name}.snapshot")
        scans_wall += sum(span.wall for span in scans)
        metrics[f"engine.state.{name}.keys"] = statistics.median(
            sequential["state_keys"][name]
        )
        metrics[f"engine.state.{name}.snapshot_ms"] = statistics.median(
            span.wall * 1e3 for span in scans
        )
    metrics["engine.operator.end_interval_us_per_tuple"] = closes_cpu * per_tuple
    metrics["runtime.router.dispatch_us_per_tuple"] = (
        tracer.totals("runtime.router.dispatch")["cpu"] * per_tuple
    )
    roundtrip = tracer.totals("runtime.messages.pickle_roundtrip")
    metrics["runtime.messages.pickle_us_per_batch"] = (
        roundtrip["cpu"] / roundtrip["calls"] * 1e6
    )
    metrics["runtime.messages.pickle_us_per_tuple"] = roundtrip["cpu"] * per_tuple
    metrics["runtime.messages.bytes_per_tuple"] = pickled["bytes"] / pickled["tuples"]
    metrics.update(planner_metrics(tracer, source_tuples))
    replay = tracer.named("sequential.run")[0]
    # The checkpoint scans ride along in the replay but are no part of the job.
    metrics["sequential.tps"] = source_tuples / (replay.wall - scans_wall)
    return {
        "metrics": metrics,
        "sequential_completed": sequential["completed"],
        "routed": routed,
        "inputs": {
            name: sum(len(keys) for _, _, keys, _ in chunks)
            for name, chunks in sequential["inputs"].items()
        },
    }
