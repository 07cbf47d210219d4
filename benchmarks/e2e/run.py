#!/usr/bin/env python3
"""The socket-to-socket benchmark: one command, every metric by name.

    python benchmarks/e2e/run.py [--workload NAME] [--seed 42]
        [--seconds S] [--trace 0|1] [--repeats R] [--smoke] [--out DIR]
    python benchmarks/e2e/run.py compare A B

A run starts the system under test as a child process
(``server_proc.py``), drives it over two loopback connections
(``loadgen.py``) with inputs generated from ``--seed``
(``workloads.py``), verifies every delivery against the naive oracle
(``check.py``), prints each metric with its unit, writes
``results-*.json`` (and ``trace-*.json`` when traced) under ``--out``,
and ends with one JSON line: ``correct``, ``attempted``, ``failed``,
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones,
measured untraced; ``--trace 1`` adds one traced pass and reports the
per-layer metrics (``layers.py``).  Names, units and bounds live in
``BENCHMARK.json`` at the repository root; see ``README.md`` here.
"""

from __future__ import annotations

import argparse
import asyncio
import bisect
import gc
import json
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if not (ROOT / "src" / "repro").is_dir():
    sys.stderr.write(
        "run.py: %s has no src/repro — the benchmark measures the repository "
        "it is checked out in\n" % ROOT
    )
    sys.exit(2)
sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402

import check  # noqa: E402
import compare  # noqa: E402
import layers  # noqa: E402
import loadgen  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {metric["name"]: metric for metric in BENCHMARK["end_to_end"]}
PER_LAYER = {metric["name"]: metric for metric in BENCHMARK["per_layer"]}

#: Latency percentiles are medians over windows of this many consecutive
#: paced events (the ingress's ``max_batch``, the adaptive cycle's length).
PACED_WINDOW_EVENTS = 64

#: Set-up is sampled this many times per workload (the measured server
#: plus throw-away launches); sub-second timings need the median.
SETUP_SAMPLES = 3


def split_cpus() -> Tuple[Optional[int], Optional[int]]:
    """Pin the generator to one CPU and give the server another.

    Sub-millisecond round trips are mostly thread wake-ups, whose cost
    depends on where the scheduler places the threads; left free, the
    same server drifted by a factor of two within one phase.  With a
    single CPU nothing is pinned.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None, None
    os.sched_setaffinity(0, {cpus[0]})
    return cpus[0], cpus[1]


def host_context(
    generator_cpu: Optional[int], server_cpu: Optional[int]
) -> Dict[str, Any]:
    return {
        "nproc": 2,  # connections: one publisher, one subscriber
        "link": "loopback",
        "cpu_count": os.cpu_count(),
        "generator_cpu": generator_cpu,
        "server_cpu": server_cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


#: The generator's own spans (client frame decoding).  One per process:
#: installing it wraps a class attribute.
CLIENT_TRACER = tracing.Tracer()


# -- one run -----------------------------------------------------------------


def measure(run: loadgen.LoadRun) -> Tuple[Dict[str, float], Dict[str, float]]:
    """End-to-end metrics and generator metrics of one run."""
    first, last = run.ranges["paced"]
    window = run.windows["paced"]
    by_event = run.paced_latencies()
    values = [latency for _eid, latency in by_event]
    # Percentiles are taken per window of PACED_WINDOW_EVENTS consecutive
    # events and the median window is reported: one stall of the host
    # then spoils one window, not the run's tail.
    windowed: Dict[int, List[float]] = {}
    for eid, latency in by_event:
        windowed.setdefault((eid - first) // PACED_WINDOW_EVENTS, []).append(latency)
    full = [
        samples
        for window_index, samples in sorted(windowed.items())
        if (window_index + 1) * PACED_WINDOW_EVENTS <= last - first
    ] or list(windowed.values())

    first_s, last_s = run.ranges["saturated"]
    completions = sorted(
        run.complete_ns[eid] for eid in range(first_s, last_s) if run.complete_ns[eid]
    )
    rates = []
    cpu_ms = []
    for (began, cpu_began), (ended, cpu_ended) in zip(
        run.saturated_marks, run.saturated_marks[1:]
    ):
        completed = bisect.bisect_left(completions, ended) - bisect.bisect_left(
            completions, began
        )
        rates.append(completed / ((ended - began) / 1e9))
        cpu_ms.append((cpu_ended - cpu_began) * 1e3 / max(1, completed))

    # Churn beside the paced phase is timed there; otherwise in its own.
    began, ended = run.windows.get("churn", window)
    rtts = [
        (end - start) / 1e6
        for _op, start, end in run.churn_ops
        if began <= start < ended
    ]
    if run.spec.paced_churn_rate > 0:
        churn_ms = rtts
    else:
        # One value per pass over the churn trees (the mean of its round
        # trips).  Single operations, and even whole subscribe/replace/
        # unsubscribe cycles, fall into cost clusters by the class of the
        # trees involved, and a median over them flips between clusters
        # with the seed's class mix; every pass sees the same trees.
        per_pass = 3 * len(run.inputs.churn_trees)
        churn_ms = [
            sum(rtts[i : i + per_pass]) / per_pass
            for i in range(0, len(rtts) - per_pass + 1, per_pass)
        ]

    end_to_end = {
        "setup_s": run.setup_s,
        "delivery_p50_ms": statistics.median(
            loadgen.percentile(samples, 0.50) for samples in full
        ),
        "delivery_p95_ms": statistics.median(
            loadgen.percentile(samples, 0.95) for samples in full
        ),
        "saturated_events_per_s": statistics.median(rates),
        "server_cpu_ms_per_event": statistics.median(cpu_ms),
        "server_rss_mb": run.rss_mb,
        "churn_op_p50_ms": loadgen.percentile(churn_ms, 0.50),
    }
    late_p99_ms, cpu_share = run.generator_load()
    generator = {
        "generator.late_p99_ms": late_p99_ms,
        "generator.cpu_share": cpu_share,
        "generator.delivery_p99_ms": loadgen.percentile(values, 0.99),
        "paced_notifications": len(values),
        "paced_windows": len(full),
        "saturated_events": len(completions),
        "saturated_samples": len(rates),
        "churn_ops": len(churn_ms),
    }
    return end_to_end, generator


def observe(
    run: loadgen.LoadRun, report: Dict[str, Any], overloaded: bool, leaks: List[str]
) -> check.Observation:
    """The run in the oracle's terms: required and allowed pairs."""
    inputs = run.inputs
    pool = len(inputs.pool)
    wire_ids = [handle.id for handle in run.wire_handles]
    churn_ids = [handle.id for handle in run.churn_handles]
    required = []
    allowed = set()
    for eid in range(len(run.due_ns)):
        index = eid % pool
        for wire in inputs.oracle[index]:
            required.append((eid, wire_ids[wire]))
        for churn, count in enumerate(inputs.churn_oracle[index]):
            if count == 2:
                required.append((eid, churn_ids[churn]))
            elif count == 1:
                allowed.add((eid, churn_ids[churn]))
    return check.Observation(
        required=required,
        allowed=allowed,
        received=[(seq, eid, sub) for seq, eid, sub, _arrived in run.received],
        publishes_sent=len(run.due_ns),
        publishes_replied=sum(1 for replied in run.reply_ns if replied),
        publish_errors=run.publish_errors,
        churn_ops=len(run.churn_ops),
        churn_errors=run.churn_errors,
        dead_letters=report["dead_letters"],
        overloaded=overloaded,
        leaks=leaks,
    )


def run_once(
    inputs: workloads.Inputs,
    work_dir: Path,
    phases: loadgen.Phases,
    traced: bool,
    server_cpu: Optional[int],
) -> Dict[str, Any]:
    """One server process through every phase, measured and verified."""
    run = loadgen.LoadRun(inputs, work_dir, traced, server_cpu)
    shm_before = check.shm_segments()
    CLIENT_TRACER.clear()
    CLIENT_TRACER.enabled = traced
    try:
        asyncio.run(loadgen.drive(run, phases))
    finally:
        CLIENT_TRACER.enabled = False
    assert run.process is not None
    leaks = check.leaks_after_exit(run.process.returncode, run.port, shm_before)
    report = json.loads(run.report_path.read_text(encoding="utf-8"))
    end_to_end, generator = measure(run)
    verdict = check.verify(observe(run, report, run.overloaded, leaks))
    result: Dict[str, Any] = {
        "paced_events": list(run.ranges["paced"]),
        "end_to_end": end_to_end,
        "generator": generator,
        "check": verdict,
        "invalid_paced": run.invalid_paced,
        "generator_valid": run.generator_honest,
    }
    if traced:
        assert run.trace_path is not None
        trace = layers.Trace(json.loads(run.trace_path.read_text(encoding="utf-8")))
        client_trace = layers.Trace(
            {"spans": CLIENT_TRACER.spans, "counters": CLIENT_TRACER.counters}
        )
        stages = layers.stage_samples(trace, run)
        per_layer = layers.per_layer_metrics(trace, client_trace, report, run, stages)
        medians = {stage: layers.median_of(samples) for stage, samples in stages.items()}
        # Per notification the stages sum to due time -> on_event exactly;
        # what the medians leave unattributed is how far a sum of medians
        # is from the median of the sums.
        traced_p50 = layers.median_of(sum(row) for row in zip(*stages.values()))
        per_layer["trace.unattributed_share"] = 1.0 - sum(medians.values()) / max(
            traced_p50, 1e-9
        )
        result["traced_p50_ms"] = traced_p50
        result["per_layer"] = per_layer
        result["stage_table"] = [
            {"stage": stage, "median_ms": medians[stage], "samples": len(stages[stage])}
            for stage in layers.STAGES
        ]
        result["busy_share"] = layers.busy_shares(trace, run)
    return result


# -- one workload ------------------------------------------------------------


def summarize(samples: Sequence[float], unit: str) -> Dict[str, Any]:
    middle, q1, q3 = compare.spread(samples)
    return {
        "value": middle,
        "unit": unit,
        "q1": q1,
        "q3": q3,
        "n": len(samples),
        "samples": list(samples),
    }


def run_workload(spec: workloads.WorkloadSpec, args: argparse.Namespace) -> Dict[str, Any]:
    phases = loadgen.Phases.smoke() if args.smoke else loadgen.Phases.for_seconds(
        args.seconds
    )
    inputs = workloads.build_inputs(spec, args.seed, smoke=args.smoke)
    work_dir = args.out / ("work-%s-%d" % (spec.name, os.getpid()))
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        (work_dir / "server-inputs.json").write_text(
            json.dumps(inputs.server_inputs()), encoding="utf-8"
        )
        # The generated tables stay alive for the whole run; keep the
        # collector from walking them while the paced schedule runs.
        gc.collect()
        gc.freeze()
        setup_samples: List[float] = []
        if not args.smoke and not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                probe = loadgen.LoadRun(inputs, work_dir, False, args.server_cpu)
                setup_samples.append(asyncio.run(loadgen.setup_only(probe)))
        runs = [
            run_once(inputs, work_dir, phases, False, args.server_cpu)
            for _ in range(args.repeats)
        ]
        end_to_end = {}
        for name, metric in END_TO_END.items():
            samples = [run["end_to_end"][name] for run in runs]
            if name == "setup_s":
                samples = samples + setup_samples
            end_to_end[name] = summarize(samples, metric["unit"])
        generator = {
            name: statistics.median(run["generator"][name] for run in runs)
            for name in runs[0]["generator"]
        }
        reported = list(runs)
        workload: Dict[str, Any] = {
            "why": spec.why,
            "inputs_sha256": inputs.sha256,
            "paced_events": runs[0]["paced_events"],
            "end_to_end": end_to_end,
            "generator": generator,
        }
        if args.trace:
            traced = run_once(inputs, work_dir, phases, True, args.server_cpu)
            reported.append(traced)
            per_layer = dict(traced["per_layer"])
            for name in PER_LAYER:
                if name.startswith("generator."):
                    per_layer[name] = traced["generator"][name]
            per_layer["trace.overhead_cpu_ratio"] = (
                traced["end_to_end"]["server_cpu_ms_per_event"]
                / end_to_end["server_cpu_ms_per_event"]["value"]
            )
            workload["per_layer"] = {
                name: {"value": per_layer[name], "unit": metric["unit"]}
                for name, metric in PER_LAYER.items()
            }
            workload["traced_p50_ms"] = traced["traced_p50_ms"]
            # The exact counts are taken over the traced pass's events.
            workload["paced_events"] = traced["paced_events"]
            workload["stage_table"] = traced["stage_table"]
            workload["busy_share"] = traced["busy_share"]
            trace_file = args.out / (
                "trace-%s-seed%d-%s.json" % (spec.name, args.seed, args.stamp)
            )
            shutil.move(str(work_dir / "server-trace.json"), str(trace_file))
            workload["trace_file"] = trace_file.name
        attempted = sum(run["check"]["attempted"] for run in reported)
        failed = sum(run["check"]["failed"] for run in reported)
        failures: Dict[str, int] = {}
        for run in reported:
            for kind, count in run["check"]["failures"].items():
                failures[kind] = failures.get(kind, 0) + count
        workload.update(
            invalid_paced=sum(run["invalid_paced"] for run in reported),
            generator_valid=all(run["generator_valid"] for run in reported),
            attempted=attempted,
            failed=failed,
            failed_ratio=failed / attempted,
            failures=failures,
            leaks=[leak for run in reported for leak in run["check"]["leaks"]],
        )
        return workload
    finally:
        gc.unfreeze()
        shutil.rmtree(work_dir, ignore_errors=True)


def print_workload(name: str, workload: Dict[str, Any]) -> None:
    print("== %s — %s" % (name, workload["why"]))
    print("   inputs_sha256 %s" % workload["inputs_sha256"])
    for metric, summary in workload["end_to_end"].items():
        print(
            "   %-34s %12.4f %-6s [q1 %.4f, q3 %.4f, n=%d; %s is better, bound %.2f]"
            % (
                metric, summary["value"], summary["unit"], summary["q1"],
                summary["q3"], summary["n"], END_TO_END[metric]["better"],
                END_TO_END[metric]["bound"],
            )
        )
    for metric, value in workload["generator"].items():
        print("   %-34s %12.4f" % (metric, value))
    print(
        "   attempted %d  failed %d  failed_ratio %.6f  invalid_paced %d%s%s"
        % (
            workload["attempted"], workload["failed"], workload["failed_ratio"],
            workload["invalid_paced"],
            "" if workload["generator_valid"] else "  GENERATOR INVALID",
            "".join(
                "  %s=%d" % (kind, count)
                for kind, count in workload["failures"].items()
                if count
            ),
        )
    )
    for leak in workload["leaks"]:
        print("   LEAK %s" % leak)
    if "per_layer" not in workload:
        return
    for metric, entry in workload["per_layer"].items():
        print("   %-42s %14.4f %s" % (metric, entry["value"], entry["unit"]))
    print("   stage table (paced phase, median ms per notification):")
    for row in workload["stage_table"]:
        print("     %-24s %10.4f  (n=%d)" % (row["stage"], row["median_ms"], row["samples"]))
    print(
        "     %-24s %10.4f  (traced p50 of their sum; unattributed share %.4f)"
        % (
            "due -> on_event",
            workload["traced_p50_ms"],
            workload["per_layer"]["trace.unattributed_share"]["value"],
        )
    )
    print(
        "   share of server CPU (saturated phase): %s"
        % "  ".join("%s %.3f" % item for item in workload["busy_share"].items())
    )


def final_line(workload: Dict[str, Any], traced: bool) -> str:
    source = workload["per_layer"] if traced else workload["end_to_end"]
    return json.dumps(
        {
            "correct": workload["failed"] == 0,
            "attempted": workload["attempted"],
            "failed": workload["failed"],
            "metrics": {
                name: {"value": entry["value"], "unit": entry["unit"]}
                for name, entry in source.items()
            },
        }
    )


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "compare":
        return compare.main(argv[1:], BENCHMARK)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", choices=sorted(workloads.WORKLOADS), default=None,
        help="one workload (default: all four)",
    )
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--seconds", type=float, default=float(BENCHMARK["run_seconds"]),
        help="seconds one run measures, split over the phases",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0,
        help="1: add a traced pass and report the per-layer metrics",
    )
    parser.add_argument(
        "--repeats", type=int, default=1,
        help="untraced runs of the same seed; values are their median",
    )
    parser.add_argument(
        "--smoke", action="store_true", help="1 s phases on 100-200 subscriptions"
    )
    parser.add_argument("--out", type=Path, default=HERE / "out")
    args = parser.parse_args(argv)
    if args.repeats < 1 or args.seconds <= 0:
        parser.error("--repeats and --seconds must be positive")
    args.out.mkdir(parents=True, exist_ok=True)
    args.stamp = "%s-%d" % (time.strftime("%Y%m%dT%H%M%S"), os.getpid())
    tracing.install_client(CLIENT_TRACER)
    generator_cpu, args.server_cpu = split_cpus()

    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    results: Dict[str, Any] = {
        "schema": 1,
        "host": host_context(generator_cpu, args.server_cpu),
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "repeats": args.repeats,
        "traced": bool(args.trace),
        "workloads": {},
    }
    print(
        "e2e benchmark: seed %d, %s, link %s, nproc %d, generator cpu %s, "
        "server cpu %s, python %s, numpy %s, %s"
        % (
            args.seed,
            "smoke" if args.smoke else "%.0f s per run" % args.seconds,
            results["host"]["link"], results["host"]["nproc"],
            generator_cpu, args.server_cpu,
            results["host"]["python"], results["host"]["numpy"],
            results["host"]["platform"],
        )
    )
    lines = []
    for name in names:
        workload = run_workload(workloads.WORKLOADS[name], args)
        results["workloads"][name] = workload
        print_workload(name, workload)
        lines.append(final_line(workload, bool(args.trace)))
    results["claim"] = None  # this benchmark defines the baseline; it claims no gain
    (args.out / ("results-%s.json" % args.stamp)).write_text(
        json.dumps(results, indent=1), encoding="utf-8"
    )
    for line in lines:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
