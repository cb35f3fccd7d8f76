"""The repository benchmark: one workload per invocation, metrics as JSON.

    python3 perfbench/run.py --workload q5_drain --seed 1 --seconds 25 --trace 0

Runs repetitions of the workload, each in a fresh interpreter
(``perfbench/rep.py``) on inputs derived from ``--seed``, until ``--seconds``
have passed (at least ``MIN_REPS``), checks every repetition's outputs and
prints a readable report followed, as the last line, by one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced repetitions and reports the per-layer metrics, the
single-thread baseline and the tracing overhead.  Workloads and metrics are
described in ``perfbench/README.md``.  Reports and spans land in
``.perfbench/`` at the checkout root.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from pb_measure import overhead_residual

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"

WORKLOADS = ("q5_drain", "diamond_open", "fluid_rebalance")
LIVE = ("q5_drain", "diamond_open")
#: Stages of both runtime topologies; a stage not in the workload's
#: topology reports 0 for its per-layer metrics.
STAGES = ("order-join", "customer-join", "revenue-agg", "split-agg-a", "split-agg-b", "merge")
#: At least three untraced repetitions, or two untraced-traced pairs.
MIN_REPS = 3
#: rep.py's calibration loop takes about this long on the reference host.
CALIBRATION_REF_S = 0.1
#: Per workload, the measures scaled by each repetition's calibration loop
#: to the reference host speed: on a shared host that speed drifts by up to
#: 2x over minutes, which spreads raw CPU-bound timings across runs by
#: 25-30 %.  ``diamond_open`` is paced, so only its set-up is CPU-bound.
HOST_SCALED = {
    "q5_drain": ("throughput_tps", "cpu_us_per_tuple", "latency_p50_ms", "latency_mean_ms", "setup_s"),
    "diamond_open": ("setup_s",),
    "fluid_rebalance": ("throughput_tps", "cpu_us_per_tuple", "interval_ms", "setup_s"),
}
#: A repetition during which the hypervisor ran other guests on more than
#: this share of the host's CPU time (steal) measured the host, not the
#: program.  On the 2-CPU reference host quiet repetitions lose 0.1-1 %;
#: in steal episodes, which last minutes, 5-20 %, and every latency of
#: such a repetition doubles or more.
STEAL_LIMIT = 0.03
REP_TIMEOUT_S = 120.0
#: No repetition starts once this much of the 180 s run limit is gone.
LAST_START_S = 120.0

E2E_UNITS = {
    "throughput_tps": "tuples/s",
    "cpu_us_per_tuple": "us",
    "latency_p50_ms": "ms",
    "latency_mean_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "mean_skewness": "ratio",
}


def layer_units() -> Dict[str, str]:
    units = {"workloads.stream_build_s": "s", "runtime.router.dispatch_us_per_tuple": "us"}
    for stage in STAGES:
        units[f"operators.{stage}.us_per_tuple"] = "us"
    for stage in STAGES:
        units[f"engine.operator.{stage}.end_interval_ms"] = "ms"
    for stage in STAGES:
        units[f"engine.state.{stage}.keys"] = "count"
        units[f"engine.state.{stage}.snapshot_ms"] = "ms"
    units.update(
        {
            "engine.operator.end_interval_us_per_tuple": "us",
            "runtime.messages.pickle_us_per_batch": "us",
            "runtime.messages.pickle_us_per_tuple": "us",
            "runtime.messages.bytes_per_tuple": "B",
            "runtime.resilience.checkpoints": "count",
            "runtime.resilience.checkpoint_bytes": "B",
            "runtime.resilience.checkpoint_write_s": "s",
            "runtime.controller.rebalances": "count",
            "runtime.controller.pause_s": "s",
            "runtime.controller.plan_ms": "ms",
        }
    )
    for stage in STAGES:
        units[f"runtime.topology.{stage}.tuples_out"] = "count"
        units[f"runtime.topology.{stage}.busy_s"] = "s"
    units.update(
        {
            "runtime.topology.cpu_us_per_tuple": "us",
            "runtime.topology.layer_sum_us_per_tuple": "us",
            "runtime.topology.overhead_us_per_tuple": "us",
            "runtime.topology.latency_p95_ms": "ms",
            "runtime.topology.latency_p99_ms": "ms",
            "runtime.source.lag_s": "s",
            "core.planner.plan_ms_p50": "ms",
            "core.planner.plan_ms_max": "ms",
            "core.planner.us_per_tuple": "us",
            "core.planner.migration_cost_pct": "%",
            "core.planner.table_size": "entries",
            "engine.simulator.interval_ms": "ms",
            "sequential.tps": "tuples/s",
            "trace.overhead_pct": "%",
            "trace.spans": "count",
        }
    )
    return units


LAYER_UNITS = layer_units()


# -- repetitions ---------------------------------------------------------------------


def run_rep(workload: str, seed: int, mode: str, spans: Optional[Path]) -> Dict[str, Any]:
    """One repetition in a fresh interpreter; ``{"crashed": reason}`` on failure."""
    out = OUT / f"rep-{workload}-{seed}-{mode}-{os.getpid()}.json"
    out.unlink(missing_ok=True)
    command = [
        sys.executable, str(HERE / "rep.py"),
        "--workload", workload, "--seed", str(seed), "--mode", mode, "--out", str(out),
    ]
    if spans is not None:
        command += ["--spans", str(spans)]
    env = dict(os.environ, TMPDIR=str(OUT / "tmp"))
    started = time.perf_counter()
    # Its own process group, so a timeout can stop the workers with the child.
    child = subprocess.Popen(
        command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        start_new_session=True,
    )
    try:
        _, stderr = child.communicate(timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        return {"crashed": f"timed out after {REP_TIMEOUT_S:.0f} s", "rep_s": REP_TIMEOUT_S}
    finally:
        try:
            os.killpg(child.pid, signal.SIGKILL)  # strays of a crashed child
        except ProcessLookupError:
            pass
    if child.returncode != 0 or not out.exists():
        tail = stderr.decode(errors="replace").strip().splitlines()[-3:]
        return {
            "crashed": f"exit {child.returncode}: " + " | ".join(tail),
            "rep_s": time.perf_counter() - started,
        }
    measures = json.loads(out.read_text())
    out.unlink()
    measures["rep_s"] = time.perf_counter() - started
    return measures


def run_reps(args: argparse.Namespace) -> List[Dict[str, Any]]:
    modes = ["plain", "traced"] if args.trace else ["plain"]
    reps: List[Dict[str, Any]] = []
    started = time.perf_counter()
    index = 0
    while True:
        elapsed = time.perf_counter() - started
        durations = [rep["rep_s"] for rep in reps]
        longest = max(durations, default=0.0)
        # End as close to --seconds as whole repetitions allow.
        upcoming = statistics.median(durations[-len(modes):] or [0.0])
        if len(reps) >= max(MIN_REPS, 2 * len(modes)) and elapsed + upcoming / 2 >= args.seconds:
            break
        if reps and elapsed + longest > LAST_START_S:
            break
        mode = modes[index % len(modes)]
        seed = args.seed * 1000 + index // len(modes)
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.json" if mode == "traced" else None
        rep = run_rep(args.workload, seed, mode, spans)
        rep["mode"] = mode
        rep["seed"] = seed
        reps.append(rep)
        index += 1
        if "crashed" in rep:  # the program is broken; more runs only cost time
            break
    return reps


# -- aggregation ---------------------------------------------------------------------


def steal_share(rep: Dict[str, Any]) -> float:
    """Share of the host's CPU time stolen while the repetition ran."""
    noise = rep["noise"]
    stolen = noise["after"]["steal_s"] - noise["before"]["steal_s"]
    return stolen / (rep["rep_s"] * (os.cpu_count() or 1))


def undisturbed(reps: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """The repetitions within ``STEAL_LIMIT``; all of a mode's if none is."""
    kept: List[Dict[str, Any]] = []
    for mode in ("plain", "traced"):
        of_mode = [rep for rep in reps if rep["mode"] == mode]
        kept += [rep for rep in of_mode if steal_share(rep) <= STEAL_LIMIT] or of_mode
    return kept


def med(reps: List[Dict[str, Any]], key: str) -> float:
    return statistics.median(rep[key] for rep in reps)


def mean(reps: List[Dict[str, Any]], key: str) -> float:
    return statistics.fmean(rep[key] for rep in reps)


def end_to_end(workload: str, reps: List[Dict[str, Any]], report: Dict[str, Any]) -> Dict[str, float]:
    """Medians over repetitions; input-quality outcomes averaged over inputs."""
    report["host_slowdown"] = statistics.median(host_slowdown(rep) for rep in reps)
    report["unscaled_metrics"] = aggregate(workload, reps)
    if workload in LIVE:
        report["latency_samples"] = {
            "tuples_per_repetition": reps[0]["e2e_histogram"]["total"],
            "beyond_percentile_per_repetition": {
                name: {"tuples": tuples, "batches_at_least": batches}
                for name, (tuples, batches) in reps[0]["latency_tail"].items()
            },
        }
    else:
        report["latency_samples"] = {"intervals": sum(len(rep["interval_ms"]) for rep in reps)}
    return aggregate(workload, [host_scaled(workload, rep) for rep in reps])


def aggregate(workload: str, reps: List[Dict[str, Any]]) -> Dict[str, float]:
    metrics = {
        name: med(reps, name)
        for name in ("throughput_tps", "cpu_us_per_tuple", "setup_s", "peak_rss_mb")
    }
    # An input-quality outcome: averaged over the repetitions' inputs.
    metrics["mean_skewness"] = mean(reps, "mean_skewness")
    if workload in LIVE:
        for name in ("latency_p50_ms", "latency_mean_ms"):
            metrics[name] = med(reps, name)
    else:
        intervals = [ms for rep in reps for ms in rep["interval_ms"]]
        metrics["latency_p50_ms"] = statistics.median(intervals)
        metrics["latency_mean_ms"] = statistics.fmean(intervals)
    return metrics


def host_slowdown(rep: Dict[str, Any]) -> float:
    """The repetition's calibration-loop time over the reference time."""
    return statistics.fmean(
        rep["noise"][when]["calibration_s"] for when in ("before", "after")
    ) / CALIBRATION_REF_S


def host_scaled(workload: str, rep: Dict[str, Any]) -> Dict[str, Any]:
    """The repetition with its CPU-bound timings at the reference host speed."""
    slowdown = host_slowdown(rep)
    scaled = dict(rep)
    for name in HOST_SCALED[workload]:
        if name == "throughput_tps":
            scaled[name] = rep[name] * slowdown
        elif name == "interval_ms":
            scaled[name] = [ms / slowdown for ms in rep[name]]
        else:
            scaled[name] = rep[name] / slowdown
    return scaled


def per_layer(workload: str, reps: List[Dict[str, Any]]) -> Dict[str, float]:
    plain = [rep for rep in reps if rep["mode"] == "plain"]
    traced = [rep for rep in reps if rep["mode"] == "traced"]
    metrics = {name: 0.0 for name in LAYER_UNITS}  # 0 = layer not on this workload's path
    metrics["workloads.stream_build_s"] = med(traced, "stream_build_s")
    metrics["trace.spans"] = med(traced, "spans")
    # CPU, not throughput: an open loop's throughput is pinned to its rate.
    metrics["trace.overhead_pct"] = (
        med(traced, "cpu_us_per_tuple") / med(plain, "cpu_us_per_tuple") - 1.0
    ) * 100.0
    # The plan's cost in state moved and table entries, from the untraced runs.
    metrics["core.planner.migration_cost_pct"] = mean(plain, "migration_cost_pct")
    metrics["core.planner.table_size"] = mean(plain, "table_size")
    if workload not in LIVE:
        for name in ("core.planner.plan_ms_p50", "core.planner.plan_ms_max",
                     "core.planner.us_per_tuple", "engine.simulator.interval_ms"):
            metrics[name] = med(traced, name)
        return metrics
    for name in traced[0]["layers"]["metrics"]:
        metrics[name] = statistics.median(rep["layers"]["metrics"][name] for rep in traced)
    # The e2e tail and the generator's lag: their spread across runs on a
    # shared host is wider than any end-to-end bound may be (README).
    for name in ("latency_p95_ms", "latency_p99_ms"):
        metrics[f"runtime.topology.{name}"] = med(plain, name)
    metrics["runtime.source.lag_s"] = med(plain, "source_lag_s")
    metrics["runtime.controller.rebalances"] = med(plain, "rebalances")
    metrics["runtime.controller.pause_s"] = med(plain, "pause_s")
    metrics["runtime.controller.plan_ms"] = statistics.median(
        [ms for rep in plain for ms in rep["plan_ms"]] or [0.0]
    )
    for name, key in (("checkpoints", "count"), ("checkpoint_bytes", "bytes_written"),
                      ("checkpoint_write_s", "write_seconds")):
        metrics[f"runtime.resilience.{name}"] = statistics.median(
            rep["checkpoints"].get(key, 0.0) for rep in plain
        )
    for stage in plain[0]["stages"]:
        for name in ("tuples_out", "busy_s"):
            metrics[f"runtime.topology.{stage}.{name}"] = statistics.median(
                rep["stages"][stage][name] for rep in plain
            )
    # Per source tuple: a stage that sees a share of the stream costs that share.
    offered = plain[0]["offered"]
    share = {stage: traced[0]["layers"]["inputs"][stage] / offered for stage in plain[0]["stages"]}
    layer_costs = {
        f"operators.{stage}": metrics[f"operators.{stage}.us_per_tuple"] * share[stage]
        for stage in share
    }
    for name in ("runtime.router.dispatch_us_per_tuple", "runtime.messages.pickle_us_per_tuple",
                 "engine.operator.end_interval_us_per_tuple", "core.planner.us_per_tuple"):
        layer_costs[name] = metrics[name]
    cpu = med(plain, "cpu_us_per_tuple")
    layer_sum, overhead = overhead_residual(cpu, layer_costs)
    metrics["runtime.topology.cpu_us_per_tuple"] = cpu
    metrics["runtime.topology.layer_sum_us_per_tuple"] = layer_sum
    metrics["runtime.topology.overhead_us_per_tuple"] = overhead
    return metrics


def noise_summary(reps: List[Dict[str, Any]]) -> Dict[str, float]:
    samples = [rep["noise"][when] for rep in reps for when in ("before", "after")]
    calibrations = [sample["calibration_s"] for sample in samples]
    return {
        "loadavg_1m_max": max(sample["loadavg_1m"] for sample in samples),
        "steal_s_during_runs": sum(
            rep["noise"]["after"]["steal_s"] - rep["noise"]["before"]["steal_s"] for rep in reps
        ),
        "calibration_s_min": min(calibrations),
        "calibration_s_max": max(calibrations),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to benchmark under {ROOT / 'src'}", file=sys.stderr)
        return 2
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)

    reps = run_reps(args)
    crashed = [rep for rep in reps if "crashed" in rep]
    done = [rep for rep in reps if "crashed" not in rep]
    for rep in crashed:
        print(f"repetition seed {rep['seed']} ({rep['mode']}) crashed: {rep['crashed']}")
    # A crashed or aborted run has no measures; it only counts as failed.
    usable = [rep for rep in done if not rep["aborted"]]
    if {rep["mode"] for rep in usable} != ({"plain", "traced"} if args.trace else {"plain"}):
        print("error: no repetition of every mode produced measures", file=sys.stderr)
        return 1
    attempted = sum(int(rep["offered"]) for rep in done) + len(crashed)
    failed = sum(round(rep["offered"] * rep["failed_frac"]) for rep in done) + len(crashed)
    correct = not crashed and all(all(rep["checks"].values()) for rep in done)
    # Every repetition counts for correctness; only those the host left
    # alone are measured.
    for rep in done:
        rep["steal_share"] = steal_share(rep)
    measured = undisturbed(usable)
    for rep in done:
        rep["measured"] = any(rep is kept for kept in measured)

    report: Dict[str, Any] = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "repetitions": [
            {key: value for key, value in rep.items() if key != "layers"}
            for rep in reps
        ],
        "noise": noise_summary(done),
        "failed_frac": failed / attempted,
    }
    plain = [rep for rep in measured if rep["mode"] == "plain"]
    if args.trace:
        values, units = per_layer(args.workload, measured), LAYER_UNITS
    else:
        values, units = end_to_end(args.workload, plain, report), E2E_UNITS
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    report["metrics"] = metrics
    (OUT / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, default=str)
    )

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"repetitions {len(reps)}  failed_frac {report['failed_frac']:.6f}")
    for rep in done:
        failing = [name for name, ok in rep["checks"].items() if not ok]
        print(f"  {rep['mode']:6s} seed {rep['seed']}: {rep['rep_s']:.1f} s, "
              f"checks {'ok' if not failing else 'FAILED ' + ','.join(failing)}, "
              f"steal {100 * rep['steal_share']:.1f} %"
              f"{'' if rep['measured'] else ' (host-disturbed, not measured)'}")
    print("  noise: " + ", ".join(f"{k} {v:.3f}" for k, v in report["noise"].items()))
    if "latency_samples" in report:
        print(f"  latency samples: {json.dumps(report['latency_samples'])}")
    if "host_slowdown" in report:
        print(f"  {', '.join(HOST_SCALED[args.workload])} scaled to the reference host "
              f"speed; median host slowdown {report['host_slowdown']:.3f}, unscaled: "
              + ", ".join(f"{k} {v:.6g}" for k, v in report["unscaled_metrics"].items()))
    for name, metric in metrics.items():
        print(f"  {name:48s} {metric['value']:.6g} {metric['unit']}")
    finite = all(math.isfinite(metric["value"]) for metric in metrics.values())
    print(json.dumps({
        "correct": correct and finite,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
