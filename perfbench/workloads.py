"""The benchmark's four workloads on the full ``WorkflowSystem``.

Each workload says how to build and deploy a system (the timed set-up), what
the client offers (an open-loop schedule or a closed-loop client), which
faults the run injects, and how to compute the expected result of every
offer with a :class:`~repro.engine.LocalEngine` reference.  All inputs come
from the seed; the system receives only the generated inputs.

Sizes are fixed per round, so every round of a workload does the same
amount of work and reaches the same history length.  They were chosen so
that one round takes a few seconds on the seed code (2 cores): history
growth makes the steady pipeline superlinear there (2,000 instances took
76 s), which rules out rounds of thousands of instances.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, Hashable, List, Optional, Tuple

from repro.engine import ImplementationRegistry, LocalEngine, outcome, repeat
from repro.lang import compile_script, format_script
from repro.overload import OverloadConfig
from repro.services import WorkflowSystem
from repro.services.serialization import refs_to_plain
from repro.workloads import (
    TrafficSpec,
    arrival_schedule,
    cohort_script,
    fan,
    paper_order,
    paper_service_impact,
    paper_trip,
    script_text,
    traffic_registry,
)


@dataclass(frozen=True)
class Offer:
    """One arrival the client offers to the system."""

    number: int
    due: float               # virtual seconds after the round starts
    script: str              # deployed script name
    root: str
    inputs: Dict[str, Any]
    reference: Hashable      # key of the expected result


@dataclass(frozen=True)
class Expected:
    """What a completed instance must report: status, outcome and the root
    objects in the wire form ``ExecutionService.result`` uses."""

    status: str
    outcome: Optional[str]
    objects: Dict[str, Any]


def expected_of(script: Any, root: str, inputs: Dict[str, Any],
                registry: ImplementationRegistry) -> Expected:
    result = LocalEngine(registry).run(script, root, inputs=inputs)
    return Expected(result.status.value, result.outcome, refs_to_plain(result.objects))


@dataclass
class Workload:
    name: str
    build: Callable[[int, str], WorkflowSystem]   # (seed, work directory) -> deployed system
    offers: Callable[[int], List[Offer]]
    expected: Callable[[Hashable], Expected]
    closed_loop: bool = False        # one client: next offer after the last settles
    restarts: int = 2                # cold restarts after the drain, timed
    poll_every: float = 1.0          # virtual seconds between client polls
    faults: Optional[Callable[["Faults", WorkflowSystem, int], None]] = None


class Faults:
    """Fault actions of a round.  The round supplies ``restart`` (store
    recover plus node recover, timed) and calls every ``on_offer`` hook with
    the number of offers made so far."""

    def __init__(self, restart: Callable[[Any, Any], None]) -> None:
        self.restart = restart
        self.on_offer: List[Callable[[int], None]] = []


def _cohort_scripts(cohorts: int) -> Dict[int, Tuple[Any, str]]:
    return {cohort: cohort_script(cohort, 3) for cohort in range(cohorts)}


def _deploy_cohorts(system: WorkflowSystem, scripts: Dict[int, Tuple[Any, str]]) -> None:
    for cohort, (script, _root) in scripts.items():
        system.deploy(f"cohort-{cohort}", format_script(script))


def _arrivals(spec: TrafficSpec, count: int) -> List[Any]:
    """The first ``count`` arrivals of the schedule: every round offers the
    same number, so history length does not vary with the seed."""
    arrivals = arrival_schedule(spec)[:count]
    if len(arrivals) < count:
        raise ValueError(f"schedule too short: {len(arrivals)} < {count} arrivals")
    return arrivals


def _cohort_offers(spec: TrafficSpec, count: int,
                   scripts: Dict[int, Tuple[Any, str]]) -> List[Offer]:
    return [
        Offer(
            number=arrival.number,
            due=arrival.at,
            script=f"cohort-{arrival.cohort}",
            root=scripts[arrival.cohort][1],
            inputs={"inp": arrival.key},
            reference=(arrival.cohort, arrival.key),
        )
        for arrival in _arrivals(spec, count)
    ]


def _cohort_expected(scripts: Dict[int, Tuple[Any, str]]) -> Callable[[Hashable], Expected]:
    registry = traffic_registry()
    cache: Dict[Hashable, Expected] = {}

    def expected(key: Hashable) -> Expected:
        if key not in cache:
            cohort, value = key
            script, root = scripts[cohort]
            cache[key] = expected_of(script, root, {"inp": value}, registry)
        return cache[key]

    return expected


# -- steady-pipeline -----------------------------------------------------------

STEADY_ARRIVALS = 600      # arrivals per round
STEADY_RATE = 2.0          # arrivals per virtual second; workers are instant


def steady_pipeline() -> Workload:
    scripts = _cohort_scripts(3)

    def build(seed: int, workdir: str) -> WorkflowSystem:
        system = WorkflowSystem(workers=4, registry=traffic_registry(), seed=seed)
        _deploy_cohorts(system, scripts)
        return system

    def offers(seed: int) -> List[Offer]:
        spec = TrafficSpec(
            rate=STEADY_RATE, duration=2 * STEADY_ARRIVALS / STEADY_RATE, seed=seed
        )
        return _cohort_offers(spec, STEADY_ARRIVALS, scripts)

    return Workload("steady-pipeline", build, offers, _cohort_expected(scripts))


# -- fan-wide ---------------------------------------------------------------------

FAN_WIDTH = 256
FAN_INSTANCES = 20         # closed-loop instances per round
FAN_KEYS = 6               # distinct input payloads per round


def fan_wide() -> Workload:
    script, registry, root, _inputs = fan(FAN_WIDTH)
    text = script_text((script, registry, root, _inputs))

    def build(seed: int, workdir: str) -> WorkflowSystem:
        _script, fan_registry, _root, _ = fan(FAN_WIDTH)
        system = WorkflowSystem(
            workers=4,
            registry=fan_registry,
            seed=seed,
            journal_batch=True,
            group_commit=True,
            mirror_path=os.path.join(workdir, "execution-wal.jsonl"),
        )
        system.deploy("fan", text)
        return system

    def offers(seed: int) -> List[Offer]:
        rng = random.Random(seed)
        keys = [f"payload-{rng.randrange(10**6)}" for _ in range(FAN_KEYS)]
        picks = [rng.choice(keys) for _ in range(FAN_INSTANCES)]
        return [
            Offer(number + 1, 0.0, "fan", root, {"inp": key}, key)
            for number, key in enumerate(picks)
        ]

    cache: Dict[Hashable, Expected] = {}

    def expected(key: Hashable) -> Expected:
        if key not in cache:
            cache[key] = expected_of(script, root, {"inp": key}, registry)
        return cache[key]

    return Workload(
        "fan-wide", build, offers, expected,
        closed_loop=True, poll_every=0.25, restarts=1,
    )


# -- chaos-mix ----------------------------------------------------------------------

CHAOS_RATE = 0.5           # arrivals per virtual second
CHAOS_ARRIVALS = 325       # arrivals per round
CHAOS_LOSS = 0.02
CHAOS_WORKER_CRASH_EVERY = 20     # offers between worker crashes
CHAOS_WORKER_DOWNTIME = 20.0       # virtual seconds
CHAOS_EXEC_CRASH_EVERY = 50       # offers between execution-node crashes
CHAOS_EXEC_DOWNTIME = 15.0         # virtual seconds

# (script name, root task, root input, input prefix, variant tags)
PAPER_APPS = (
    ("order", paper_order.ROOT_TASK, "order", "o", ("", "", "deny", "nodispatch")),
    ("trip", paper_trip.ROOT_TASK, "user", "u", ("", "", "noflight", "comp")),
    ("service-impact", paper_service_impact.ROOT_TASK, "alarmsSource", "a",
     ("", "", "analyse", "unresolvable")),
)
PAPER_TEXTS = {
    "order": paper_order.SCRIPT_TEXT,
    "trip": paper_trip.SCRIPT_TEXT,
    "service-impact": paper_service_impact.SCRIPT_TEXT,
}


def _tag_of(ctx: Any) -> str:
    """The variant tag carried in the instance's input payload (``o17~deny``);
    the payload reaches every task of the paper apps through their inputs."""
    for ref in ctx.inputs.values():
        value = str(ref.value)
        if "~" in value:
            return value.split("~", 1)[1].split(",", 1)[0].split(")", 1)[0].split("@", 1)[0]
    return ""


def paper_registry() -> ImplementationRegistry:
    """One registry for the three paper apps whose behaviour follows the
    variant tag of each instance's input, so one system runs the normal,
    cancelled, aborted and compensated paths side by side."""
    variants: Dict[str, Dict[str, ImplementationRegistry]] = {
        "order": {
            "": paper_order.default_registry(),
            "deny": paper_order.default_registry(authorise=False),
            "nodispatch": paper_order.default_registry(dispatch_ok=False),
        },
        # one airline quotes: with two, the first reply wins a race whose
        # order the reference engine cannot reproduce
        "trip": {
            "": paper_trip.default_registry(airline_quotes=(None, 420.0, None)),
            "noflight": paper_trip.default_registry(airline_quotes=(None, None, None)),
            "comp": paper_trip.default_registry(airline_quotes=(None, 420.0, None)),
        },
        "service-impact": {
            "": paper_service_impact.default_registry(),
            "analyse": paper_service_impact.default_registry(fail_stage="analyse"),
            "unresolvable": paper_service_impact.default_registry(resolvable=False),
        },
    }
    registry = ImplementationRegistry()
    hotel_rounds: Dict[str, int] = {}

    def compensated_hotel(ctx: Any) -> Any:
        # First business-reservation round: every booking attempt fails, so
        # the flight is cancelled (compensation) and the round repeats.
        request = str(ctx.value("request"))
        if ctx.repeats == 0:
            hotel_rounds[request] = hotel_rounds.get(request, 0) + 1
        if hotel_rounds.get(request, 1) > 1:
            return variants["trip"]["comp"].resolve("refHotelReservation")(ctx)
        return repeat("tryAgain") if ctx.repeats + 1 < 3 else outcome("failed")

    def dispatcher(app: str, code: str) -> Callable[[Any], Any]:
        def run(ctx: Any) -> Any:
            tag = _tag_of(ctx)
            if app == "trip" and tag == "comp" and code == "refHotelReservation":
                return compensated_hotel(ctx)
            chosen = variants[app].get(tag, variants[app][""])
            return chosen.resolve(code)(ctx)

        return run

    codes = {
        "order": ("refPaymentAuthorisation", "refCheckStock", "refDispatch",
                  "refPaymentCapture"),
        "trip": ("refDataAcquisition", "refQueryAirlineOne", "refQueryAirlineTwo",
                 "refQueryAirlineThree", "refFlightReservation", "refHotelReservation",
                 "refFlightCancellation", "refPrintTickets"),
        "service-impact": ("refAlarmCorrelator", "refServiceImpactAnalysis",
                           "refServiceImpactResolution"),
    }
    for app, names in codes.items():
        for code in names:
            registry.register(code, dispatcher(app, code))
    return registry


def chaos_mix() -> Workload:
    compiled = {name: compile_script(text) for name, text in PAPER_TEXTS.items()}
    # a fixed rotation of (app, variant), so every round journals the same mix
    mix = [(app, tag) for app in PAPER_APPS for tag in app[4]]

    def build(seed: int, workdir: str) -> WorkflowSystem:
        system = WorkflowSystem(
            workers=4, registry=paper_registry(), seed=seed, loss_rate=CHAOS_LOSS
        )
        for name, text in PAPER_TEXTS.items():
            system.deploy(name, text)
        return system

    def offers(seed: int) -> List[Offer]:
        spec = TrafficSpec(
            rate=CHAOS_RATE, duration=2 * CHAOS_ARRIVALS / CHAOS_RATE, seed=seed
        )
        result = []
        for arrival in _arrivals(spec, CHAOS_ARRIVALS):
            (name, root, field_name, prefix, _tags), tag = mix[arrival.number % len(mix)]
            payload = f"{prefix}{arrival.number}" + (f"~{tag}" if tag else "")
            result.append(Offer(
                arrival.number, arrival.at, name, root, {field_name: payload},
                (name, root, field_name, payload),
            ))
        return result

    def expected(key: Hashable) -> Expected:
        name, root, field_name, payload = key
        # a fresh registry per instance: the compensated-hotel variant keeps
        # per-request round counts
        return expected_of(compiled[name], root, {field_name: payload}, paper_registry())

    def faults(plan: Faults, system: WorkflowSystem, seed: int) -> None:
        # Faults follow the offers, so every round restarts the execution
        # node at the same history lengths; the seed picks which worker dies.
        rng = random.Random(seed)
        clock = system.clock
        node, store = system.execution_node, system.execution_store

        def on_offer(count: int) -> None:
            if count % CHAOS_WORKER_CRASH_EVERY == 0:
                worker = rng.choice(system.worker_nodes)
                if worker.alive:
                    worker.crash()
                    clock.call_after(CHAOS_WORKER_DOWNTIME, worker.recover,
                                     label="bench:worker-recover")
            if count % CHAOS_EXEC_CRASH_EVERY == 0 and node.alive:
                store.crash()
                node.crash()
                clock.call_after(CHAOS_EXEC_DOWNTIME, lambda: plan.restart(store, node),
                                 label="bench:restart")

        plan.on_offer.append(on_offer)

    return Workload(
        "chaos-mix", build, offers, expected,
        poll_every=2.0, faults=faults,
    )


# -- burst-failover -----------------------------------------------------------------

BURST_RATE = 0.15          # off-burst arrivals per virtual second
BURST_FACTOR = 8.0         # burst rate 1.2/s against a capacity of 0.67/s
BURST_ARRIVALS = 260       # arrivals per round (mean load 62% of capacity)
BURST_KILL_AT = 60.0       # the primary dies while the first burst drains ...
BURST_RESURRECT_AT = 150.0  # ... and comes back (as a standby) here
BURST_OVERLOAD = dict(
    queue_capacity=8, initial_window=8, min_window=4,
    sojourn_target=30.0, control_interval=10.0,
)


def burst_failover() -> Workload:
    scripts = _cohort_scripts(3)

    def build(seed: int, workdir: str) -> WorkflowSystem:
        system = WorkflowSystem(
            workers=2,
            registry=traffic_registry(),
            seed=seed,
            replicas=2,
            lease_duration=30.0,
            repl_interval=5.0,
            worker_service_time=1.0,
            worker_lanes=1,
            overload=OverloadConfig(**BURST_OVERLOAD),
        )
        _deploy_cohorts(system, scripts)
        return system

    def offers(seed: int) -> List[Offer]:
        spec = TrafficSpec(
            arrival="burst", rate=BURST_RATE, duration=10 * BURST_ARRIVALS, seed=seed,
            burst_factor=BURST_FACTOR, burst_period=120.0, burst_duty=0.25,
        )
        return _cohort_offers(spec, BURST_ARRIVALS, scripts)

    def faults(plan: Faults, system: WorkflowSystem, seed: int) -> None:
        primary = system.execution_replicas[0]
        node, store = primary.node, primary.store

        def kill() -> None:
            store.crash()
            node.crash()

        system.clock.call_after(BURST_KILL_AT, kill, label="bench:kill-primary")
        system.clock.call_after(
            BURST_RESURRECT_AT, lambda: plan.restart(store, node),
            label="bench:resurrect",
        )

    return Workload(
        "burst-failover", build, offers, _cohort_expected(scripts), faults=faults,
    )


WORKLOADS: Dict[str, Callable[[], Workload]] = {
    "steady-pipeline": steady_pipeline,
    "fan-wide": fan_wide,
    "chaos-mix": chaos_mix,
    "burst-failover": burst_failover,
}
