"""End-to-end and per-layer benchmark of the full simulated WorkflowSystem.

Run from the root of a checkout::

    python3 perfbench/run.py --workload steady-pipeline --seed 1 --seconds 20 --trace 0

``--trace 0`` drives the workload untraced and prints the end-to-end
metrics; ``--trace 1`` drives one round untraced and the same round traced,
and prints the per-layer metrics of the traced round with the tracing
overhead.  Earlier lines of standard output carry a header (Python version,
git revision, nproc, seed, the workload's reason) and a readable summary;
the last line is one JSON object: ``correct``, ``attempted`` (arrivals
offered), ``failed`` (arrivals not completed) and ``metrics``.

The amount of work is fixed by ``--seconds``: one round per five seconds
(at least one), each round a fresh system with the same number of offers.
Times are reference seconds, corrected for the host's speed (``speed.py``).
Spans of a traced round are written to ``perfbench/out/``; ``report.py``
compares the span split with a cProfile split for every workload.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
from typing import Any, Callable, Dict, List, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
ROUND_SECONDS = 5          # nominal wall seconds of one round
SETUP_SAMPLES = 5          # set-ups timed per run, at least
# Tail percentiles, highest first.  p99 and p95 are left out: on a shared
# host their few samples are dominated by host noise and collector pauses,
# and they spread between runs by more than the benchmark's bounds allow.
TAIL_LEVELS = (0.9, 0.75, 0.5)


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in [0, 1])."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail_level(count: int) -> float:
    """The highest of :data:`TAIL_LEVELS` with at least ten samples beyond."""
    for level in TAIL_LEVELS:
        if count * (1.0 - level) >= 10:
            return level
    return 0.5


def tail(values: Sequence[float]) -> Tuple[float, float]:
    level = tail_level(len(values))
    return percentile(values, level), level


def git_revision() -> str:
    """HEAD of the checkout, read from ``.git`` when there is one."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head_path) as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            ref_path = os.path.join(ROOT, ".git", ref)
            if os.path.exists(ref_path):
                with open(ref_path) as fh:
                    return fh.read().strip()
            with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
        return head
    except OSError:
        return "unknown"


def workload_reasons() -> Dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {w["name"]: w["why"] for w in json.load(fh)["workloads"]}


def metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


def end_to_end(results: List[Any], setups: List[float]) -> Tuple[Dict[str, Any], List[str]]:
    """Rates and the slowest restart are medians over rounds; percentiles
    pool the samples of every round."""
    def median_of(per_round: Callable[[Any], float]) -> float:
        return statistics.median(per_round(r) for r in results)

    instantiate = [x for r in results for x in r.instantiate_ms]
    reads = [x for r in results for x in r.read_ms]
    sojourns = [x for r in results for x in r.sojourns()]
    inst_tail, inst_level = tail(instantiate)
    read_tail, read_level = tail(reads)
    soj_tail, soj_level = tail(sojourns)
    metrics = {
        "instances_per_s": metric(median_of(lambda r: len(r.completed()) / r.drive_s), "1/s"),
        "steps_per_s": metric(median_of(lambda r: r.executions.distinct / r.drive_s), "1/s"),
        "instantiate_p50_ms": metric(percentile(instantiate, 0.5), "ms"),
        "instantiate_tail_ms": metric(inst_tail, "ms"),
        "read_p50_ms": metric(percentile(reads, 0.5), "ms"),
        "read_tail_ms": metric(read_tail, "ms"),
        "sojourn_p50_s": metric(percentile(sojourns, 0.5), "s"),
        "sojourn_tail_s": metric(soj_tail, "s"),
        "recovery_p50_s": metric(statistics.median(x for r in results for x in r.recovery_s), "s"),
        "recovery_max_s": metric(median_of(lambda r: max(r.recovery_s)), "s"),
        "completed_frac": metric(
            median_of(lambda r: len(r.completed()) / len(r.records)), "ratio"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
        ),
        "setup_s": metric(statistics.median(setups), "s"),
    }
    notes = [
        f"tails: instantiate p{inst_level * 100:g} of {len(instantiate)} calls, "
        f"read p{read_level * 100:g} of {len(reads)} calls, "
        f"sojourn p{soj_level * 100:g} of {len(sojourns)} completions",
        "recovery per round: " + "; ".join(
            " ".join(f"{x:.4f}" for x in r.recovery_s) for r in results),
        f"setup: {len(setups)} set-ups " + " ".join(f"{x:.4f}" for x in setups),
        "drive per round (reference s / wall s): " + "; ".join(
            f"{r.drive_s:.3f} / {r.drive_wall:.3f}" for r in results),
        f"completed {sum(len(r.completed()) for r in results)}, distinct task "
        f"executions {sum(r.executions.distinct for r in results)}",
    ]
    return metrics, notes


def per_layer(traced: Any, untraced: Any, tracer: Any) -> Dict[str, Any]:
    """Per-layer metrics of the traced round.  Span times are wall seconds;
    they are converted to reference seconds with the round's mean speed
    correction, like the end-to-end times."""
    scale = traced.drive_s / traced.drive_wall

    def seconds(wall: float) -> Dict[str, Any]:
        return metric(wall * scale, "s")

    calls, layer_self = tracer.layer_calls(), tracer.layer_self()
    steps = traced.executions.distinct
    execute_calls = tracer.count("services.TaskWorker.execute")
    admission = [part[0] for part in traced.split()]
    metrics: Dict[str, Any] = {}
    for layer in sorted(calls):
        metrics[f"{layer}.calls"] = metric(calls[layer], "count")
        metrics[f"{layer}.self_s"] = seconds(layer_self[layer])
    metrics["bench.self_s"] = seconds(layer_self["bench"])
    metrics.update({
        "txn.release_all_s": seconds(tracer.inclusive("txn.LockManager.release_all")),
        "txn.commits": metric(tracer.count("txn.Transaction.commit"), "count"),
        "txn.replay_calls": metric(tracer.count("txn.wal.replay"), "count"),
        "txn.replay_s": seconds(tracer.inclusive("txn.wal.replay")),
        "txn.forces": metric(tracer.count("txn.WriteAheadLog.force"), "count"),
        "txn.fsyncs": metric(tracer.count("txn.os.fsync"), "count"),
        "txn.fsyncs_per_step": metric(tracer.count("txn.os.fsync") / steps, "ratio"),
        "txn.wal_records_peak": metric(traced.peaks["wal_records"], "count"),
        "services.runtimes_peak": metric(traced.peaks["runtimes"], "count"),
        "engine.tree_build_s": seconds(tracer.inclusive("engine.InstanceTree.__init__")),
        "orb.invokes": metric(
            tracer.count("orb.ObjectBroker.invoke")
            + tracer.count("orb.ObjectBroker.invoke_deferred"), "count"),
        "lang.compile_calls": metric(
            tracer.count("lang.repository.compile_script")
            + tracer.count("lang.execution.compile_script"), "count"),
        "lang.compile_s": seconds(
            tracer.inclusive("lang.repository.compile_script")
            + tracer.inclusive("lang.execution.compile_script")),
        "services.instantiate_self_s": seconds(
            tracer.exclusive("services.ExecutionService.instantiate")),
        "services.on_message_self_s": seconds(
            tracer.exclusive("services.ExecutionService.on_message")),
        "services.recover_s": seconds(
            tracer.inclusive("services.ExecutionService.on_recover")
            + tracer.inclusive("replication.ReplicatedExecutionService.on_recover")),
        "services.execute_calls": metric(execute_calls, "count"),
        "services.execute_useful_ratio": metric(steps / execute_calls, "ratio"),
        "resilience.duplicate_executes": metric(execute_calls - steps, "count"),
        "net.messages": metric(tracer.count("net.Network.sample_delays"), "count"),
        "net.events": metric(tracer.count("net.EventClock.step"), "count"),
        "net.clock_pending_peak": metric(traced.peaks["clock_pending"], "count"),
        "overload.decisions": metric(tracer.count("overload.AdmissionController.decide"), "count"),
        "overload.rejects": metric(tracer.count("overload.AdmissionController.on_reject"), "count"),
        "overload.sheds": metric(tracer.count("overload.AdmissionController.on_shed"), "count"),
        "overload.admission_wait_p99_s": metric(percentile(admission, 0.99), "s"),
        "replication.ships": metric(
            tracer.count("replication.ReplicatedExecutionService.replicate"), "count"),
        "replication.apply_s": seconds(
            tracer.inclusive("replication.ReplicatedExecutionService.replicate")),
        "trace.overhead_ratio": metric(traced.drive_s / untraced.drive_s, "ratio"),
    })
    return metrics


def sojourn_split_note(results: List[Any]) -> str:
    parts = [part for r in results for part in r.split()]
    if not parts:
        return "sojourn split: no completions"
    cells = []
    for index, label in enumerate(("admission wait", "worker lane", "rest")):
        values = [part[index] for part in parts]
        cells.append(f"{label} p50 {percentile(values, 0.5):.2f} "
                     f"p99 {percentile(values, 0.99):.2f}")
    sojourns = [x for r in results for x in r.sojourns()]
    return (f"sojourn split (virtual s, {len(parts)} completions): "
            + "; ".join(cells)
            + f"; total p50 {percentile(sojourns, 0.5):.2f} p99 {percentile(sojourns, 0.99):.2f}")


def main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no repro package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from rounds import run_round, setup_only
    from speed import SpeedMeter
    from tracing import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    header = {
        "python": platform.python_version(),
        "git_revision": git_revision(),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "why": workload_reasons().get(args.workload, ""),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    print(json.dumps({"header": header}), flush=True)

    rounds = max(1, round(args.seconds / ROUND_SECONDS))
    seeds = [args.seed * 1000 + index for index in range(rounds)]
    workdir = os.path.join(OUT, f"tmp-{os.getpid()}")
    results: List[Any] = []
    notes: List[str] = []
    meter = SpeedMeter()
    if args.trace == 0:
        for index, seed in enumerate(seeds):
            result, _ = run_round(workload, seed, f"{workdir}-{index}", meter)
            results.append(result)
        setups = [r.setup_s for r in results]
        while len(setups) < SETUP_SAMPLES:
            setups.append(setup_only(workload, seeds[0], f"{workdir}-setup", meter))
        metrics, notes = end_to_end(results, setups)
    else:
        untraced, _ = run_round(workload, seeds[0], f"{workdir}-plain", meter)
        traced, tracer = run_round(workload, seeds[0], f"{workdir}-traced", meter, Tracer)
        results = [untraced, traced]
        if traced.virtual_fingerprint() != untraced.virtual_fingerprint():
            traced.mismatches.append("tracing changed the simulated outcome")
        metrics = per_layer(traced, untraced, tracer)
        spans = os.path.join(OUT, f"spans-{args.workload}.tsv.gz")
        tracer.write(spans)
        split = tracer.layer_self()
        notes = [
            "layer self s: " + ", ".join(
                f"{layer} {seconds:.3f}"
                for layer, seconds in sorted(split.items(), key=lambda kv: -kv[1])),
            f"spans: {len(tracer.spans)} written to {os.path.relpath(spans, ROOT)}",
        ]

    fates: Dict[str, int] = {}
    for result in results:
        for fate, count in result.fates().items():
            fates[fate] = fates.get(fate, 0) + count
    attempted = sum(len(r.records) for r in results)
    completed = fates.get("completed", 0)
    mismatches = [m for r in results for m in r.mismatches]
    notes.append(f"ledger: offered {attempted} = " + " + ".join(
        f"{fate} {count}" for fate, count in sorted(fates.items())))
    notes.append(f"failed_frac {(attempted - completed) / attempted:.6f}")
    notes.append(sojourn_split_note(results))
    for line in notes + [f"MISMATCH {m}" for m in mismatches[:20]]:
        print(line)
    print(json.dumps({
        "correct": not mismatches,
        "attempted": attempted,
        "failed": attempted - completed,
        "metrics": metrics,
    }), flush=True)
    return 0 if not mismatches else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
