"""One repetition of one workload, in a fresh interpreter.

``run.py`` starts this script once per repetition, so each repetition pays
its own imports and TPC-H generation (the bench caches that dataset per
process) and ``getrusage(RUSAGE_CHILDREN)`` covers exactly this run's worker
processes.  It writes one JSON object to ``--out``.

    python3 perfbench/rep.py --workload q5_drain --seed 7 --mode plain --out r.json

``--mode traced`` runs the live workload under the protocol sanitizer with
spans around each call, then the layer replays, and dumps the spans.
"""

from __future__ import annotations

import os
import time

# A fixed pure-Python loop: its duration before and after the run shows how
# much a noisy neighbour slowed this interpreter (run.py scales the timings
# of single-threaded workloads by it).
CALIBRATION_LOOPS = 1_000_000


def calibration_s() -> float:
    started = time.perf_counter()
    total = 0
    for index in range(CALIBRATION_LOOPS):
        total += index * index % 7
    return time.perf_counter() - started


def steal_s() -> float:
    """CPU time the hypervisor gave to other guests, summed over CPUs."""
    with open("/proc/stat") as stat:
        fields = stat.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK") if len(fields) > 8 else 0.0


def noise_sample() -> dict:
    return {
        "loadavg_1m": os.getloadavg()[0],
        "steal_s": steal_s(),
        "calibration_s": calibration_s(),
    }


NOISE_BEFORE = noise_sample()
STARTED = time.perf_counter()  # set-up is timed from here, imports included

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from pb_spans import Tracer  # noqa: E402


def live_rep(name: str, seed: int, traced: bool, scratch: Path) -> dict:
    from pb_live import LiveRun

    tracer = Tracer(f"{name}-{seed}", enabled=traced)
    run = LiveRun(name, seed, tracer)
    ready = time.perf_counter()
    measures = run.run(scratch, sanitize=traced)
    # TopologyRuntime.run spawns every process before its clock starts.
    measures["setup_s"] = ready - STARTED + measures["call_s"] - measures["wall_s"]
    measures["checks"] = live_checks(measures, traced)
    if traced:
        from pb_layers import layer_metrics

        layers = layer_metrics(run, tracer)
        measures["layers"] = layers
        measures["checks"]["replay_conserves"] = all(
            routed == layers["inputs"][stage] for stage, routed in layers["routed"].items()
        ) and layers["sequential_completed"] == measures["offered"]
        measures["stream_build_s"] = tracer.named("workloads.build_stream")[0].wall
    return {"measures": measures, "tracer": tracer}


def live_checks(measures: dict, traced: bool) -> dict:
    checks = {
        "no_abort": not measures["aborted"],
        "conservation": measures["completed"] == measures["offered"],
        "zero_shed": measures["shed"] == 0,
    }
    if traced:
        checks["sanitizer_clean"] = measures.get("sanitizer_violations") == 0
    return checks


def fluid_rep(seed: int, traced: bool) -> dict:
    from pb_fluid import FluidRun

    tracer = Tracer(f"fluid_rebalance-{seed}", enabled=traced)
    run = FluidRun(seed, tracer)
    measures = run.run()
    measures["setup_s"] = measures["run_started"] - STARTED
    measures["checks"] = {
        "conservation": measures["conserved"],
        "table_within_cap": measures["max_table_size"] <= measures["table_cap"],
    }
    if traced:
        from pb_layers import planner_metrics

        measures["stream_build_s"] = tracer.named("workloads.build_stream")[0].wall
        measures.update(planner_metrics(tracer, measures["offered"]))
        selves = tracer.self_times()
        measures["engine.simulator.interval_ms"] = statistics.median(
            selves[span.span_id]["wall"] * 1e3
            for span in tracer.named("engine.simulator.interval")
        )
    return {"measures": measures, "tracer": tracer}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("plain", "traced"), default="plain")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args()
    traced = args.mode == "traced"
    scratch = args.out.parent
    if args.workload == "fluid_rebalance":
        outcome = fluid_rep(args.seed, traced)
    else:
        outcome = live_rep(args.workload, args.seed, traced, scratch)
    if traced and args.spans is not None:
        outcome["tracer"].dump(args.spans)
    measures = outcome["measures"]
    # A failed check fails every tuple of the repetition.
    if not all(measures["checks"].values()):
        measures["failed_frac"] = 1.0
    measures["noise"] = {"before": NOISE_BEFORE, "after": noise_sample()}
    measures["spans"] = len(outcome["tracer"].spans)
    args.out.write_text(json.dumps(measures))
    return 0


if __name__ == "__main__":
    sys.exit(main())
