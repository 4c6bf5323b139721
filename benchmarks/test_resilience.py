"""Adaptive dispatch resilience vs a frozen fixed-interval baseline.

A stream of order instances arrives while ``RandomCrasher`` repeatedly takes
worker nodes down.  The retired fixed-interval dispatcher waited a fixed
``dispatch_timeout`` and rotated blindly, so every dispatch that landed on a
dead worker stalled its instance for a full timeout (or several).  Its
numbers on this scenario are frozen below: the run is deterministic in
virtual time, so they are exactly what it measured.  The adaptive layer
routes around unhealthy workers, hedges slow flights and backs off with
deterministic jitter — same chaos, same seeds, strictly better mean
completion time.

Also asserts the safety side of hedging: duplicated dispatches must never
be *applied* twice (the journal dedupes by task path + execution index).
"""

import json
import os

from repro.core.selection import EventKind
from repro.net import RandomCrasher
from repro.services import WorkflowSystem
from repro.workloads import paper_order

from .conftest import report

SCENARIO = dict(interval=40.0, downtime=20.0, chaos_seed=7, instances=10, gap=15.0)

# The retired fixed-interval dispatcher on SCENARIO, measured at the last
# commit that still had it (virtual time, so exact and machine-independent).
BASELINE_FROZEN_FROM = "8560ec63a165b7808f72d491ecaa328ac9f989bd"
BASELINE_MEAN_LATENCY = 35.0934
BASELINE_MAX_LATENCY = 72.2233
BASELINE_REDISPATCHES = 16


def run_stream(interval, downtime, chaos_seed, instances, gap):
    """Run a staggered stream of order instances under worker chaos.

    Returns per-instance completion latencies (virtual time from arrival to
    the root outcome) plus the system for stats/journal inspection.
    """
    system = WorkflowSystem(
        workers=3,
        seed=42,
        dispatch_timeout=20.0,
        sweep_interval=5.0,
    )
    paper_order.default_registry(registry=system.registry)
    system.deploy("order", paper_order.SCRIPT_TEXT)
    crasher = RandomCrasher(
        system.clock,
        system.worker_nodes,  # workers only: the coordinator's journal stays put
        interval=interval,
        downtime=downtime,
        seed=chaos_seed,
    ).start()
    arrivals, iids = [], []
    for i in range(instances):
        arrivals.append(system.clock.now)
        iids.append(
            system.instantiate("order", paper_order.ROOT_TASK, {"order": f"o-{i}"})
        )
        system.clock.advance(gap)
    latencies = []
    for iid, arrived in zip(iids, arrivals):
        result = system.run_until_terminal(iid, max_time=100_000)
        assert result["status"] == "completed", (iid, result)
        assert result["outcome"] == "orderCompleted"
        log = system.execution.runtimes[iid].tree.log
        done = max(
            e.time
            for e in log.entries
            if e.event.kind is EventKind.OUTCOME and "/" not in e.producer_path
        )
        latencies.append(done - arrived)
    crasher.stop()
    assert len(crasher.injected) > 0  # chaos actually happened
    return latencies, system, iids


def assert_no_double_application(system, iids):
    """No reply — hedged duplicate or otherwise — was journaled twice."""
    for iid in iids:
        journal = system.execution.export_instance(iid)["journal"]
        seen = set()
        for entry in journal:
            if entry.get("type") != "result":
                continue
            key = (entry["path"], entry["exec"])
            assert key not in seen, (iid, key)
            seen.add(key)


def test_resilience_beats_fixed_interval_baseline(benchmark):
    res_lat, res_sys, res_iids = run_stream(**SCENARIO)

    base_mean = BASELINE_MEAN_LATENCY
    res_mean = sum(res_lat) / len(res_lat)
    stats = res_sys.execution.stats
    rows = [
        ("fixed-interval (frozen)", f"{base_mean:.2f}",
         f"{BASELINE_MAX_LATENCY:.2f}", BASELINE_REDISPATCHES, 0, 0, 0),
        ("adaptive", f"{res_mean:.2f}", f"{max(res_lat):.2f}",
         stats["redispatches"], stats["hedges"], stats["breaker_trips"],
         stats["abandoned"]),
    ]
    report(
        "Resilience: order stream under worker chaos "
        "(interval=40, downtime=20, seed=7, 10 instances)",
        ["dispatcher", "mean latency", "max latency", "redispatches",
         "hedges", "breaker trips", "abandoned"],
        rows,
    )

    # the claim: same chaos, same seeds, strictly better mean completion time
    assert res_mean < base_mean
    # the adaptive mechanisms actually engaged and are visible in stats
    for key in ("hedges", "breaker_trips", "abandoned", "failovers", "staggered"):
        assert key in stats
    assert stats["hedges"] >= 1
    # safety: at-least-once dispatch, exactly-once application
    assert_no_double_application(res_sys, res_iids)

    summary = {
        "scenario": SCENARIO,
        "baseline": {"mean_latency": base_mean, "max_latency": BASELINE_MAX_LATENCY,
                     "redispatches": BASELINE_REDISPATCHES,
                     "frozen_from": BASELINE_FROZEN_FROM},
        "adaptive": {"mean_latency": res_mean, "max_latency": max(res_lat),
                     "stats": dict(res_sys.execution.stats)},
        "speedup": base_mean / res_mean,
    }
    out = os.environ.get(
        "RESILIENCE_SUMMARY",
        os.path.join(os.path.dirname(__file__), "resilience_summary.json"),
    )
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2)

    benchmark.pedantic(lambda: run_stream(**SCENARIO), rounds=2, iterations=1)


def test_resilience_severity_sweep(benchmark):
    """Harsher chaos engages more of the machinery (breakers trip, backoff
    caps kick in) while every instance still completes."""
    rows = []
    for label, interval, downtime, gap in (
        ("mild", 40.0, 20.0, 15.0),
        # harsh: burst arrival piles concurrent flights onto each crashed
        # worker, so its breaker sees enough consecutive timeouts to trip
        ("harsh", 15.0, 40.0, 0.0),
    ):
        scenario = dict(SCENARIO, interval=interval, downtime=downtime, gap=gap)
        latencies, system, iids = run_stream(**scenario)
        stats = system.execution.stats
        rows.append(
            (
                label,
                f"{sum(latencies) / len(latencies):.2f}",
                stats["redispatches"],
                stats["hedges"],
                stats["breaker_trips"],
            )
        )
        assert_no_double_application(system, iids)
    report(
        "Resilience: severity sweep (adaptive dispatcher)",
        ["chaos", "mean latency", "redispatches", "hedges", "breaker trips"],
        rows,
    )
    # the harsh row exercises the breakers
    assert rows[1][4] >= 1

    benchmark.pedantic(
        lambda: run_stream(**dict(SCENARIO, interval=15.0, downtime=40.0, gap=0.0)),
        rounds=2,
        iterations=1,
    )
