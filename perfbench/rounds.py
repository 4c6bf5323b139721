"""Drive one round of a workload on a fresh ``WorkflowSystem`` and account
for every offered arrival.

A round is: set-up (build and deploy, timed), drive (offers until every
arrival has a fate, timed), cold restarts of the execution node (timed),
and the output check (every completed instance's ``result`` read through the
ORB after the restarts and compared with its ``LocalEngine`` reference).

Every offered arrival gets exactly one fate:

* ``completed`` -- the instance reached a terminal completed/aborted state;
* ``shed``      -- the service ended it with a decisive ``overloaded`` outcome;
* ``failed``    -- any other terminal failure;
* ``refused``   -- the client gave up after repeated ``Overloaded`` refusals;
* ``lost``      -- the client gave up after repeated outages (``CommFailure``);
* ``unfinished``-- still live, or still backing off, when the drain limit hit.

Submissions go through :func:`repro.orb.call_with_backoff`; an outage is
retried with the client policy's backoff.  The round does not stop while a
submission is still backing off.
"""

from __future__ import annotations

import gc
import os
import random
import shutil
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.errors import ExecutionError
from repro.engine.instance import InstanceTree
from repro.orb import CommFailure, DelayedResult, Overloaded, call_with_backoff
from repro.resilience import RetryPolicy
from repro.services.worker import TaskWorker

from speed import SpeedMeter
from workloads import Faults, Offer, Workload

TERMINAL = ("completed", "aborted", "failed")
FATES = ("completed", "shed", "failed", "refused", "lost", "unfinished")
OVERLOAD_ATTEMPTS = 4      # client patience with Overloaded refusals
OUTAGE_ATTEMPTS = 8        # client patience with outages (~11 min of backoff)
DRAIN_LIMIT = 3_000.0      # virtual seconds a round may run after its last offer
THINK_S = 1.0              # closed loop: the client's mean virtual think time
_OUTAGE = object()


@dataclass
class Record:
    """The ledger entry of one offered arrival."""

    offer: Offer
    due: float = 0.0                  # absolute virtual time it was offered
    fate: Optional[str] = None
    iid: Optional[str] = None
    finished_at: Optional[float] = None
    result: Optional[Dict[str, Any]] = None   # as read by a polling client


@dataclass
class Executions:
    """What the worker ``execute`` boundary saw during the drive."""

    calls: int = 0
    first: Dict[Tuple[str, str, int], Tuple[float, float]] = field(default_factory=dict)
    first_at: Dict[str, float] = field(default_factory=dict)  # iid -> first call

    def observe(self, request: Dict[str, Any], now: float, reply: Any) -> None:
        self.calls += 1
        iid = request.get("instance_id")
        key = (iid, request.get("task_path"), request.get("execution_index"))
        if key not in self.first:
            delay = reply.delay if isinstance(reply, DelayedResult) else 0.0
            self.first[key] = (now, delay)
        self.first_at.setdefault(iid, now)

    @property
    def distinct(self) -> int:
        return len(self.first)


@dataclass
class RoundResult:
    seed: int
    setup_s: float                    # reference seconds (see speed.py)
    drive_s: float = 0.0              # reference seconds of the drive
    drive_wall: float = 0.0           # wall seconds of the drive
    records: List[Record] = field(default_factory=list)
    executions: Executions = field(default_factory=Executions)
    instantiate_ms: List[float] = field(default_factory=list)
    read_ms: List[float] = field(default_factory=list)
    recovery_s: List[float] = field(default_factory=list)
    peaks: Dict[str, int] = field(default_factory=lambda: Counter())
    mismatches: List[str] = field(default_factory=list)

    def fates(self) -> Counter:
        return Counter(record.fate for record in self.records)

    def completed(self) -> List[Record]:
        return [r for r in self.records if r.fate == "completed"]

    def sojourns(self) -> List[float]:
        return [r.finished_at - r.due for r in self.completed()]

    def split(self) -> List[Tuple[float, float, float]]:
        """Per completed arrival: (admission wait, worker lane wait plus
        execution, rest) in virtual seconds.  Admission wait runs from the
        due time to the first worker ``execute`` of the instance; the lane
        part sums the modelled lane delay of each distinct execution."""
        lanes: Dict[str, float] = Counter()
        for (iid, _path, _index), (_at, delay) in self.executions.first.items():
            lanes[iid] += delay
        parts = []
        for record in self.completed():
            sojourn = record.finished_at - record.due
            first = self.executions.first_at.get(record.iid, record.finished_at)
            admission = first - record.due
            lane = lanes.get(record.iid, 0.0)
            parts.append((admission, lane, sojourn - admission - lane))
        return parts

    def virtual_fingerprint(self) -> List[Tuple[Any, ...]]:
        """The round's simulated outcome, which tracing must not change."""
        return [(r.offer.number, r.fate, r.iid, r.due, r.finished_at) for r in self.records]


class Round:
    """One round of ``workload`` under ``seed`` in directory ``workdir``."""

    def __init__(self, workload: Workload, seed: int, workdir: str,
                 meter: SpeedMeter) -> None:
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.meter = meter
        self.traced = False
        gc.collect()
        with meter.stretch() as setup:
            self.system = workload.build(seed, workdir)
        self.result = RoundResult(seed=seed, setup_s=setup.total)
        self.proxy = self.system.execution_proxy()
        self.policy = RetryPolicy(seed=seed)

    # -- the drive -----------------------------------------------------------------

    def drive(self, tracer: Any = None) -> RoundResult:
        system, workload, result = self.system, self.workload, self.result
        clock = system.clock
        offers = workload.offers(self.seed)
        result.records = [Record(offer) for offer in offers]
        live: Dict[str, Record] = {}
        state = {"unsettled": len(offers), "next": 0, "last_at": 0.0}
        base = clock.now
        faults = Faults(self._timed_restart)

        think = random.Random(self.seed).expovariate

        def settle(record: Record, fate: str) -> None:
            record.fate = fate
            record.finished_at = clock.now
            state["unsettled"] -= 1
            if workload.closed_loop and state["next"] < len(offers):
                # the one client thinks, then offers its next instance
                clock.call_after(think(1.0 / THINK_S), offer_next,
                                 label="bench:offer")

        def submit(record: Record, outage_attempt: int = 0) -> None:
            offer = record.offer

            def invoke() -> Any:
                begin = time.perf_counter()
                try:
                    iid = self.proxy.instantiate(
                        offer.script, offer.root, "main", dict(offer.inputs)
                    )
                except Overloaded:
                    raise
                except CommFailure:
                    return _OUTAGE
                self.meter.record(result.instantiate_ms, time.perf_counter() - begin, 1e3)
                return iid

            def on_result(iid: Any) -> None:
                if iid is not _OUTAGE:
                    record.iid = iid
                    live[iid] = record
                elif outage_attempt + 1 >= OUTAGE_ATTEMPTS:
                    settle(record, "lost")
                else:
                    clock.call_after(
                        self.policy.delay(f"outage:{offer.number}", outage_attempt),
                        lambda: submit(record, outage_attempt + 1),
                        label="bench:resubmit",
                    )

            call_with_backoff(
                clock, self.policy, key=f"offer-{offer.number}", call=invoke,
                on_result=on_result,
                on_give_up=lambda _exc: settle(record, "refused"),
                max_attempts=OVERLOAD_ATTEMPTS,
            )

        def offer_next() -> None:
            record = result.records[state["next"]]
            state["next"] += 1
            record.due = clock.now
            submit(record)
            for hook in faults.on_offer:
                hook(state["next"])
            if state["next"] == len(offers):
                state["last_at"] = clock.now
            elif not workload.closed_loop:
                following = result.records[state["next"]]
                clock.call_at(base + following.offer.due, offer_next, label="bench:offer")

        observed = self._observe_executions(result.executions, clock)
        self.traced = tracer is not None
        if tracer is not None:
            tracer.install()
        gc.collect()
        with self.meter.stretch() as measured:
            try:
                if workload.faults is not None:
                    workload.faults(faults, system, self.seed)
                if workload.closed_loop:
                    offer_next()
                else:
                    clock.call_at(base + offers[0].due, offer_next, label="bench:offer")
                while state["unsettled"]:
                    clock.advance(workload.poll_every)
                    self._sample_gauges()
                    self._observe(live, settle)
                    self.meter.tick()
                    if state["next"] == len(offers) and (
                        clock.now > state["last_at"] + DRAIN_LIMIT
                    ):
                        break
            finally:
                if tracer is not None:
                    tracer.uninstall()
                self.traced = False
                observed()
        result.drive_s, result.drive_wall = measured.total, measured.wall
        if tracer is not None:
            tracer.wall = measured.wall
        for record in result.records:
            if record.fate is None:
                record.fate = "unfinished"
        return result

    def _observe_executions(self, executions: Executions, clock: Any) -> Callable[[], None]:
        """Watch the worker ``execute`` boundary; returns the undo."""
        original = TaskWorker.execute

        def execute(worker: TaskWorker, request_data: Dict[str, Any]) -> Any:
            reply = original(worker, request_data)
            executions.observe(request_data, clock.now, reply)
            return reply

        TaskWorker.execute = execute

        def undo() -> None:
            TaskWorker.execute = original

        return undo

    def _sample_gauges(self) -> None:
        system, peaks = self.system, self.result.peaks
        services = system.execution_replicas or [system.execution]
        peaks["runtimes"] = max(peaks["runtimes"], max(len(s.runtimes) for s in services))
        peaks["wal_records"] = max(
            peaks["wal_records"], max(len(s.store.wal) for s in services)
        )
        peaks["clock_pending"] = max(peaks["clock_pending"], system.clock.pending())

    def _observe(self, live: Dict[str, Record], settle: Callable) -> None:
        """The client polls ``status`` of each live instance through the
        ORB, and reads ``result`` once it is terminal."""
        for iid in list(live):
            try:
                status = self._read("status", iid)
            except CommFailure:
                return  # the execution node is down: poll again later
            except ExecutionError:
                continue  # not recovered yet
            if status["status"] in TERMINAL:
                try:
                    reply = self._read("result", iid)
                except CommFailure:
                    return
                record = live.pop(iid)
                record.result = reply
                settle(record, self._fate(status["status"], status.get("error") or ""))

    @staticmethod
    def _fate(status: str, error: str) -> str:
        if status in ("completed", "aborted"):
            return "completed"
        return "shed" if error.startswith("overloaded") else "failed"

    def _read(self, operation: str, iid: str) -> Dict[str, Any]:
        begin = time.perf_counter()
        reply = getattr(self.proxy, operation)(iid)
        self.meter.record(self.result.read_ms, time.perf_counter() - begin, 1e3)
        return reply

    # -- restarts --------------------------------------------------------------------

    def _timed_restart(self, store: Any, node: Any) -> None:
        if self.traced:
            # untimed: the timing machinery below would land inside spans
            store.recover()
            node.recover()
            return
        # The collector is off while the restart is timed: in this one-process
        # simulation it would scan every other node's objects too, which a
        # restarting process does not, and that scan made identical restarts
        # differ by a third.  The garbage is collected, untimed, on each side.
        self.meter.exclude(gc.collect)
        # Recalibrate between the instances the restart rebuilds, so a change
        # of host speed inside a long restart is corrected too.
        original = InstanceTree.__init__
        meter = self.meter

        def ticking(tree: InstanceTree, *args: Any, **kwargs: Any) -> None:
            meter.tick()
            original(tree, *args, **kwargs)

        InstanceTree.__init__ = ticking
        gc.disable()
        try:
            with meter.stretch() as measured:
                store.recover()
                node.recover()
        finally:
            gc.enable()
            InstanceTree.__init__ = original
        meter.exclude(gc.collect)
        self.result.recovery_s.append(measured.total)

    def restart(self) -> None:
        """Cold-restart the execution node holding the instances, timed."""
        service = self._wait_for_primary()
        store, node = service.store, service.node
        store.crash()
        node.crash()
        self._timed_restart(store, node)
        self._wait_for_primary()

    def _wait_for_primary(self) -> Any:
        system = self.system
        for _ in range(1_000):
            service = system.primary_execution()
            if service is not None:
                return service
            system.clock.advance(1.0)
        raise RuntimeError("no primary execution service after restart")

    # -- the check ---------------------------------------------------------------------

    def check(self) -> None:
        """Compare every completed instance's result with its reference."""
        result = self.result
        self.meter.calibrate()
        for record in result.completed():
            expected = self.workload.expected(record.offer.reference)
            replies = [self._read("result", record.iid)]
            self.meter.tick()
            if record.result is not None:
                replies.append(record.result)
            for reply in replies:
                got = (reply["status"], reply["outcome"], reply["objects"])
                want = (expected.status, expected.outcome, expected.objects)
                if got != want:
                    result.mismatches.append(
                        f"offer {record.offer.number} ({record.iid}): got {got!r}, "
                        f"expected {want!r}"
                    )
        self.meter.calibrate()
        if any(record.fate not in FATES for record in result.records):
            result.mismatches.append(f"ledger lacks a fate for some offer: {result.fates()}")

    def close(self) -> None:
        for service in self.system.execution_replicas or [self.system.execution]:
            service.store.wal.close()
        shutil.rmtree(self.workdir, ignore_errors=True)


def run_round(workload: Workload, seed: int, workdir: str, meter: SpeedMeter,
              tracer_factory: Any = None) -> Tuple[RoundResult, Any]:
    """Set up, drive, restart and check one round; returns its result and
    the tracer used for the drive (None when untraced)."""
    os.makedirs(workdir, exist_ok=True)
    round_ = Round(workload, seed, workdir, meter)
    tracer = tracer_factory(round_.system.clock) if tracer_factory else None
    try:
        round_.drive(tracer)
        for _ in range(workload.restarts):
            round_.restart()
        round_.check()
    finally:
        round_.close()
    return round_.result, tracer


def setup_only(workload: Workload, seed: int, workdir: str, meter: SpeedMeter) -> float:
    """One extra timed set-up, for a steadier median of ``setup_s``."""
    os.makedirs(workdir, exist_ok=True)
    round_ = Round(workload, seed, workdir, meter)
    round_.close()
    return round_.result.setup_s
