"""Workflow Execution Service (paper Fig. 4).

Coordinates workflow instances with the paper's system-level guarantees:

* **Durable coordination state.**  Everything needed to reconstruct an
  instance — script text, initial inputs, and a journal of task results,
  marks, failures, reconfigurations, forced aborts, deadline expiries and
  sheds — is recorded in persistent atomic objects under transactions.
  This is the paper's "records inter-task dependencies in persistent atomic
  objects and uses atomic transactions for propagating coordination
  information".  :meth:`_apply` is the one definition of how an entry takes
  effect; the live path (:meth:`_record`) applies it, then journals it in
  the same event, so an entry that fails to apply is never journaled, and
  the entry is durable before any dependent dispatch, terminal transition
  or acknowledgement (docs/PROTOCOLS.md §4.1, §11).
* **Crash recovery.**  After a node crash, :meth:`on_recover` replays each
  instance's journal over a fresh tree; because scheduling is deterministic,
  the rebuilt tree reaches exactly the pre-crash state, and still-unfinished
  tasks are re-dispatched.  The same incremental :meth:`_replay` serves
  instance import, the replay-agreement oracle and a replication standby's
  warm image, and one resume path (:meth:`_resume_all`) serves both crash
  recovery and standby promotion.
* **Acknowledgement.**  Every synchronous mutating operation ends in the
  :meth:`_acknowledge` hook: a no-op standalone, the replication barrier
  and demotion check on a replica (:mod:`repro.replication`).
* **At-least-once dispatch, exactly-once application.**  Tasks are dispatched
  to worker nodes through deferred ORB invocations (which ride the lossy
  network); a periodic sweeper re-dispatches anything unanswered; duplicate
  replies are deduplicated against the journal.
* **Adaptive dispatch resilience** (:mod:`repro.resilience`): each flight
  carries its own next-attempt deadline from a jittered exponential-backoff
  :class:`~repro.resilience.RetryPolicy`; routing is health-aware (EWMA
  latency, in-flight counts, per-worker circuit breakers) instead of blind
  rotation; slow flights are optionally *hedged* — duplicated to a second
  worker, safe because the journal applies exactly one reply; a flight past
  its redispatch cap is abandoned into an ordinary system failure.  This is
  the service's one dispatch path.
* **Automatic retries** of tasks that fail for system-level reasons, with the
  retry budget from the task's ``retries`` implementation property (§3).

Setting ``durable=False`` turns the journal volatile — the ablation of
experiment E14: without transactional propagation, crashes lose instances.
"""

from __future__ import annotations

import itertools
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Set, Tuple

from ..core.errors import ExecutionError, WorkflowError
from ..core.instrument import IOPATH_STATS
from ..core.schema import Implementation, Script
from ..core.values import ObjectRef
from ..engine.events import WorkflowStatus
from ..engine.instance import InstanceTree, TaskNode
from ..lang import compile_script
from ..net.node import Message, Service
from ..orb.broker import CommFailure, Interface, ObjectBroker, Overloaded
from ..overload import AdmissionController, OverloadConfig, criticality_of
from ..resilience import HealthRegistry, ResilienceConfig, ResilienceLog
from ..sim.crashpoints import crash_point
from ..txn.manager import TransactionManager
from ..txn.store import ObjectStore
from .serialization import (
    refs_from_plain,
    refs_to_plain,
    result_from_plain,
    result_to_plain,
    taskclass_from_plain,
    taskclass_to_plain,
)
from .worker import WorkRequest

EXECUTION_INTERFACE = Interface(
    "WorkflowExecution",
    (
        "instantiate",
        "status",
        "result",
        "list_instances",
        "reconfigure",
        "force_abort",
        "complete_task",
        "external_tasks",
        "trace",
        "tasks",
        "compact",
        "export_instance",
        "import_instance",
        "resilience_report",
    ),
)


@dataclass
class _InFlight:
    request: Dict[str, Any]
    redispatches: int = 0
    sent: bool = False
    # resilience bookkeeping: when this flight becomes overdue (per-flight
    # backoff deadline), when an un-answered flight earns a hedge, whether a
    # hedge has been sent, and per-worker send times of the current wave
    next_attempt_at: float = math.inf
    hedge_at: Optional[float] = None
    hedged: bool = False
    sent_to: Dict[str, float] = field(default_factory=dict)


@dataclass
class _Runtime:
    """Volatile per-instance state (rebuilt from the journal on recovery)."""

    iid: str
    script: Script
    tree: InstanceTree
    journal_keys: Set[Tuple] = field(default_factory=set)
    in_flight: Dict[Tuple[str, int], _InFlight] = field(default_factory=dict)
    volatile_journal: List[Dict[str, Any]] = field(default_factory=list)
    armed_deadlines: Set[Tuple[str, int]] = field(default_factory=set)
    external: Set[Tuple[str, int]] = field(default_factory=set)  # parked tasks
    # journaled absolute deadline expiries, so recovery resumes a task's
    # *remaining* deadline instead of granting a fresh full one
    deadline_expiries: Dict[Tuple[str, int], float] = field(default_factory=dict)
    # Monotonic execution numbering per task path.  machine.starts is NOT
    # unique across compound repeat rounds (children are rebuilt fresh), so
    # journal keys use this counter; replay reproduces it deterministically.
    exec_counter: Dict[str, int] = field(default_factory=dict)
    live_exec: Dict[str, int] = field(default_factory=dict)
    # False when the script declares no ``deadline`` implementation property
    # anywhere: _arm_deadlines can skip its whole-tree walk (recomputed on
    # reconfiguration, which may introduce deadlines)
    has_deadlines: bool = True
    # how many durable journal entries replay has applied to this runtime:
    # the cursor an incremental _replay resumes from
    replayed: int = 0


def _script_has_deadlines(script: Script) -> bool:
    """True when any task declaration carries a ``deadline`` implementation
    property — the only case _arm_deadlines' whole-tree walk can act on."""
    return any(
        decl.implementation.get("deadline") is not None
        for _path, decl in script.walk_tasks()
    )


# Compiled scripts keyed by their exact source text.  Scripts are immutable
# (frozen declaration dataclasses); instance state lives in the tree, so one
# compiled Script can safely back every instance, replay shadow and recovery
# of the same text.  Keying by text (not name/version) makes staleness
# impossible.  Bounded: a pathological stream of distinct scripts clears the
# cache rather than growing it without limit.
_COMPILE_CACHE: Dict[str, Script] = {}
_COMPILE_CACHE_MAX = 128

# Wire forms of the compiled scripts' frozen parts (task classes,
# implementation properties), keyed by id() with a strong reference to the
# keyed object so ids cannot be recycled under the memo.  Cleared together
# with _COMPILE_CACHE, so it holds no more history than the cache does.
_WIRE_FORMS: Dict[int, Tuple[Any, Any]] = {}

# Bound on the hedge-loser ack table (_pending_acks): age-based reaping in the
# sweeper is the primary mechanism; this cap is the backstop under sustained
# overload, when losers can accrue faster than the reap horizon drains them.
_PENDING_ACK_CAP = 1024


def _compile_cached(text: str) -> Script:
    script = _COMPILE_CACHE.get(text)
    if script is None:
        script = compile_script(text)
        if len(_COMPILE_CACHE) >= _COMPILE_CACHE_MAX:
            _COMPILE_CACHE.clear()
            _WIRE_FORMS.clear()
        _COMPILE_CACHE[text] = script
    return script


def _wire_form(part: Any, to_plain: Callable[[Any], Any]) -> Any:
    """Memoized wire form of a frozen script part.  Task classes and
    implementations are shared by every execution of the declaring script,
    so the plain form is computed once; ORB marshalling copies it at the
    boundary, keeping the cached instance unaliased."""
    cached = _WIRE_FORMS.get(id(part))
    if cached is None or cached[0] is not part:
        cached = (part, to_plain(part))
        _WIRE_FORMS[id(part)] = cached
    return cached[1]


class ExecutionService(Service):
    """The workflow execution service servant."""

    def __init__(
        self,
        name: str,
        store: ObjectStore,
        broker: ObjectBroker,
        repository_name: str,
        worker_names: List[str],
        resilience: ResilienceConfig,
        durable: bool = True,
        sweep_interval: float = 10.0,
        journal_batch: bool = True,
        journal_window: float = 5.0,
        overload: Optional[OverloadConfig] = None,
    ) -> None:
        """``journal_batch`` turns on batched journal appends: entries
        produced within one scheduling pump (and across pumps that trigger
        no dispatch) accumulate in a buffer and commit in a single
        transaction/force at the next durability barrier — before any
        dependent dispatch, when an instance reaches a terminal state, in
        every public mutating operation, or at the latest ``journal_window``
        simulated seconds after the first buffered entry.  Recovery, replay
        determinism and exactly-once dedup are byte-identical to per-entry
        journaling (``journal_batch=False``)."""
        super().__init__(name)
        self.store = store
        self.broker = broker
        self.repository_name = repository_name
        self.worker_names = list(worker_names)
        self.durable = durable
        self.sweep_interval = sweep_interval
        self.journal_batch = journal_batch
        self.journal_window = journal_window
        self._jbuf: List[Tuple[_Runtime, Dict[str, Any]]] = []
        self._jflush_armed = False
        self.resilience = resilience
        self.manager = TransactionManager(f"{name}-tm")
        self.runtimes: Dict[str, _Runtime] = {}
        # Fencing epoch: a durable incarnation counter stamped on every
        # journal entry and worker dispatch.  For a standalone service it
        # simply counts store-backed incarnations; under replication
        # (repro.replication) it is the lease epoch, and stale-epoch traffic
        # is rejected so a resurrected old primary cannot split-brain the
        # journal (docs/PROTOCOLS.md §12).
        self.epoch = 0
        self._sweep_armed = False
        self.stats = {
            "dispatches": 0,
            "redispatches": 0,
            "duplicate_replies": 0,
            "recoveries": 0,
            "hedges": 0,
            "breaker_trips": 0,
            "abandoned": 0,
            "failovers": 0,
            "staggered": 0,
            "fenced_replies": 0,
            "shed": 0,
            "overload_rejections": 0,
        }
        self.rlog = ResilienceLog(self.resilience.event_limit)
        self.health = HealthRegistry(
            self.worker_names, self.resilience, log=self.rlog, stats=self.stats
        )
        # Overload layer (docs/PROTOCOLS.md §13): bounded admission queue,
        # delay-gradient concurrency window, priority shedding.  Defaults are
        # generous enough that lightly loaded systems never notice it.
        self.overload = overload or OverloadConfig()
        self.admission = AdmissionController(self.overload, rlog=self.rlog)
        self._promoting = False  # re-entrancy guard for _promote_ready
        # hedge losers: sends still awaiting a (late) reply after their
        # flight resolved, kept so the reply credits the worker's health
        self._pending_acks: Dict[Tuple[str, str, int, str], float] = {}

    # -- life-cycle -------------------------------------------------------------------

    def on_start(self) -> None:
        self.epoch = self._advance_epoch()
        self._arm_sweeper()

    def on_recover(self) -> None:
        """Rebuild every instance from its durable journal (the crux of the
        paper's fault-tolerance story).  The health registry is volatile by
        design: the recovered coordinator relearns the fleet."""
        self.stats["recoveries"] += 1
        crash_point("exec.recover.pre", self)
        self.epoch = self._advance_epoch()
        self.runtimes = {}
        self._reset_volatile()
        # the sweep chain and the journal window timer died with the crash
        self._sweep_armed = self._jflush_armed = False
        if self.durable:
            self._catch_up_all()
        self._resume_all()
        crash_point("exec.recover.replayed", self)
        self._arm_sweeper()

    def _reset_volatile(self) -> None:
        """Drop coordinator state that survives neither a crash nor a change
        of role: worker health is relearned, and buffered journal entries go
        like the tree state they described — the durable journal is truth."""
        self.health.reset()
        self._pending_acks.clear()
        self._jbuf.clear()

    def _advance_epoch(self) -> int:
        """Durably advance the fencing epoch for this incarnation.

        The counter lives in the service's own store so a recovered service
        never reuses an epoch it already journaled under — the property the
        recovery stagger key and the journal's epoch-monotonicity oracle
        rely on.  Replicated services override this: their epoch is the
        lease epoch, granted by the lease service."""
        if not self.durable:
            return self.epoch + 1
        advanced = self.store.get_committed("exec-epoch", 0) + 1
        self.manager.run(lambda txn: txn.write(self.store, "exec-epoch", advanced))
        self.store.sync()
        return advanced

    def is_primary(self) -> bool:
        """Whether this service currently owns its instances' journals.  A
        standalone service always does; replicated standbys return False and
        stay passive (no dispatch, no journaling) until promoted."""
        return True

    def replication_settled(self) -> bool:
        """Whether every durability barrier taken so far is also replicated
        (trivially true without replication).  The harness gates its
        durability observations on this: an outcome only counts as
        *acknowledged* once no single failure can lose it."""
        return True

    def _post_barrier(self) -> None:
        """Hook run after every durability barrier; replication ships the
        newly durable log suffix here.  No-op standalone."""

    def _acknowledge(self) -> None:
        """Hook ending every synchronous mutating operation, before the
        client may take the reply as acknowledged.  No-op standalone;
        replication makes the journal durable on every in-sync standby and
        refuses the acknowledgement if serving the call demoted it."""

    @contextmanager
    def _journal_guard(self) -> Iterator[None]:
        """Error-path durability for buffered journal entries.

        An exception between buffering an entry and the next durability
        barrier must not strand the buffer: the tree has already applied the
        entry, so losing it would let the in-memory state run ahead of the
        durable journal for up to ``journal_window``.  Flushing on the error
        path closes that gap.  ``SimulatedCrash`` is a BaseException and is
        deliberately *not* caught — a machine crash loses the buffer together
        with the volatile tree state it described, which is the modelled
        semantics."""
        try:
            yield
        except Exception:
            self.flush_journal()
            raise

    # -- ORB operations ---------------------------------------------------------------------

    def instantiate(
        self,
        script_name: str,
        root_task: str,
        input_set: str = "main",
        inputs: Optional[Dict[str, Any]] = None,
    ) -> str:
        """Create and start a workflow instance from a stored script."""
        text = self.broker.invoke(
            self.node, self.repository_name, "get_script", script_name
        )
        script = _compile_cached(text)
        # Admission decision BEFORE anything is persisted: a rejected arrival
        # leaves no trace but the typed refusal, so the client's cooperative
        # backoff is the whole cost.  Shed verdicts, by contrast, persist the
        # instance and journal a decisive ``overloaded`` outcome — the caller
        # gets an instance id whose fate is queryable, never a silent drop.
        criticality = criticality_of(script, root_task)
        now = self._now()
        verdict = self.admission.decide(criticality, now)
        if verdict == "reject":
            hint = self.admission.retry_after(now)
            self.admission.on_reject(now, hint)
            self.stats["overload_rejections"] += 1
            raise Overloaded(
                f"{self.name}: admission queue full "
                f"({len(self.admission.queue)}/{self.overload.queue_capacity})",
                retry_after=hint,
            )
        if self.durable:
            counter = self.store.get_committed("instance-counter", 0) + 1
        else:
            self._volatile_counter = getattr(self, "_volatile_counter", 0) + 1
            counter = self._volatile_counter
        iid = f"wf-{counter}"
        meta = {
            "script_text": text,
            "root_task": root_task,
            "input_set": input_set,
            "inputs": dict(inputs or {}),
            "journal_len": 0,
        }
        if self.durable:
            def body(txn) -> None:
                txn.write(self.store, "instance-counter", counter)
                index = list(txn.read(self.store, "instance-index", []))
                index.append(iid)
                txn.write(self.store, "instance-index", index)
                txn.write(self.store, f"instance:{iid}:meta", meta)

            self.manager.run(body)
        crash_point("exec.instantiate.persisted", self)
        runtime = self._fresh_runtime(iid, meta)
        self.runtimes[iid] = runtime
        if verdict == "shed":
            self._shed(runtime, criticality, f"pressure {self.admission.pressure}")
        elif verdict == "queue":
            self.admission.enqueue(iid, criticality, now)
            # flights stay built-but-unsent until a window slot frees up;
            # the sweeper skips unsent flights, so nothing retransmits early
        else:
            self.admission.on_start(iid, now)
            self._dispatch_pending(runtime)
        self._acknowledge()
        return iid

    def status(self, iid: str) -> Dict[str, Any]:
        runtime = self._runtime(iid)
        tree = runtime.tree
        status = tree.status
        if (
            status is WorkflowStatus.RUNNING
            and not runtime.in_flight
            and not runtime.external
            and not tree.has_work()
        ):
            status = WorkflowStatus.STALLED
        return {
            "instance": iid,
            "status": status.value,
            "outcome": tree.root.machine.outcome,
            "error": tree.error,
            "events": len(tree.log),
            "in_flight": len(runtime.in_flight),
            "awaiting_external": len(runtime.external),
        }

    def result(self, iid: str) -> Dict[str, Any]:
        runtime = self._runtime(iid)
        tree = runtime.tree
        objects: Dict[str, Any] = {}
        marks: List[Dict[str, Any]] = []
        from ..core.selection import EventKind

        for entry in tree.log.entries:
            if entry.producer_path != tree.root.path:
                continue
            if entry.event.kind in (EventKind.OUTCOME, EventKind.ABORT):
                objects = refs_to_plain(entry.event.objects)
            elif entry.event.kind is EventKind.MARK:
                marks.append({"name": entry.event.name, "objects": refs_to_plain(entry.event.objects)})
        return {
            "instance": iid,
            "status": tree.status.value,
            "outcome": tree.root.machine.outcome,
            "objects": objects,
            "marks": marks,
            "error": tree.error,
        }

    def list_instances(self) -> List[str]:
        return sorted(self.runtimes)

    def reconfigure(self, iid: str, new_script_text: str) -> bool:
        """Atomically apply a modified script to the *running* instance."""
        runtime = self._runtime(iid)
        with self._journal_guard():
            self._record(runtime, {"type": "reconfig", "script_text": new_script_text})
            self._dispatch_pending(runtime)
            self.flush_journal()  # client observes the reconfiguration as durable
        self._acknowledge()
        return True

    def force_abort(self, iid: str, task_path: str, abort_name: Optional[str] = None) -> bool:
        runtime = self._runtime(iid)
        with self._journal_guard():
            self._record(
                runtime, {"type": "force_abort", "path": task_path, "name": abort_name}
            )
            self._dispatch_pending(runtime)
            self.flush_journal()  # client observes the abort as durable
        self._acknowledge()
        return True

    def external_tasks(self, iid: str) -> List[str]:
        """Paths of tasks parked awaiting an external completion."""
        return sorted(path for path, _exec in self._runtime(iid).external)

    def tasks(self, iid: str) -> List[Dict[str, Any]]:
        """Per-task-instance states: the admin console's detail view."""
        runtime = self._runtime(iid)
        rows: List[Dict[str, Any]] = []
        for node in runtime.tree.walk():
            rows.append(
                {
                    "path": node.path,
                    "taskclass": node.taskclass.name,
                    "compound": node.is_compound,
                    "state": node.machine.state.value,
                    "outcome": node.machine.outcome,
                    "starts": node.machine.starts,
                    "repeats": node.machine.repeats,
                    "marks": list(node.machine.marks_emitted),
                    "in_flight": (node.path, runtime.live_exec.get(node.path))
                    in runtime.in_flight,
                    "awaiting_external": (node.path, runtime.live_exec.get(node.path))
                    in runtime.external,
                }
            )
        return rows

    def trace(self, iid: str) -> str:
        """Human-readable chronological trace (the Fig. 4 monitoring view),
        followed by the dispatch layer's resilience decisions for the
        instance (redispatches, hedges, breaker transitions, failovers)."""
        from ..engine.trace import render_trace

        return render_trace(
            self._runtime(iid).tree.log,
            resilience=self.rlog.for_instance(iid),
        )

    def resilience_report(self) -> Dict[str, Any]:
        """Operator view of the dispatch layer: cumulative stats, per-worker
        health (breaker state, EWMA latency, streaks) and event counts."""
        now = self._now()
        return {
            "stats": dict(self.stats),
            "workers": self.health.snapshot(now),
            "events": self.rlog.summary(),
            "overload": self.admission.report(),
        }

    def export_instance(self, iid: str) -> Dict[str, Any]:
        """Portable snapshot of an instance: its meta + full journal.

        Because the journal is the instance (everything else replays
        deterministically), this is all another execution service needs to
        adopt the workflow — coordinator migration, the strongest form of
        the paper's "services being moved" motivation.
        """
        runtime = self._runtime(iid)
        if self.durable:
            self.flush_journal()  # export the full history, not a prefix
            meta = self.store.get_committed(f"instance:{iid}:meta")
            journal = self._journal_entries(iid, 0, meta["journal_len"])
        else:
            meta = None
            journal = list(runtime.volatile_journal)
        if meta is None:
            raise ExecutionError(f"{iid}: no durable state to export")
        return {"instance": iid, "meta": dict(meta), "journal": journal}

    def import_instance(self, snapshot: Dict[str, Any]) -> str:
        """Adopt an exported instance: persist its state locally, replay the
        journal, resume scheduling.  The id is preserved; importing an id
        this service already runs is refused."""
        iid = snapshot["instance"]
        if iid in self.runtimes:
            raise ExecutionError(f"{iid}: already present on this execution service")
        meta = dict(snapshot["meta"])
        journal = list(snapshot["journal"])
        meta["journal_len"] = len(journal)
        if self.durable:
            def body(txn) -> None:
                index = list(txn.read(self.store, "instance-index", []))
                if iid not in index:
                    index.append(iid)
                    txn.write(self.store, "instance-index", index)
                txn.write(self.store, f"instance:{iid}:meta", meta)
                for n, entry in enumerate(journal):
                    txn.write(self.store, f"instance:{iid}:journal:{n}", entry)

            self.manager.run(body)
            runtime = self._replay(iid)
        else:
            runtime = self._fresh_runtime(iid, meta)
            self._apply_journal(runtime, journal)
            runtime.volatile_journal = journal
        self.runtimes[iid] = runtime
        if runtime.tree.status is WorkflowStatus.RUNNING:
            # adopted work is already paid for: it bypasses the admission
            # queue and takes a window slot directly
            self.admission.on_start(iid, self._now())
        self._resume(runtime)
        self._acknowledge()
        return iid

    def compact(self) -> int:
        """Checkpoint the durable store: fold the WAL into a snapshot.

        Long-running instances accumulate journal entries; compaction bounds
        recovery time without losing any instance (the journal entries are
        ordinary committed objects, so they live inside the checkpoint).
        Returns the number of live log records after compaction.
        """
        crash_point("exec.compact.pre", self)
        if self.durable:
            self.flush_journal()  # fold buffered entries into the checkpoint
            self.store.checkpoint()
        crash_point("exec.compact.post", self)
        return len(self.store.wal)

    def complete_task(
        self,
        iid: str,
        task_path: str,
        output_name: str,
        objects: Optional[Dict[str, Any]] = None,
    ) -> bool:
        """Supply the outcome of a parked external task (§1's interactive
        tasks).  Journaled like a worker result, so it survives crashes."""
        runtime = self._runtime(iid)
        node = runtime.tree.node_at(task_path)
        exec_index = runtime.live_exec.get(task_path, 0)
        if (task_path, exec_index) not in runtime.external:
            raise ExecutionError(f"{task_path}: not awaiting an external completion")
        spec = node.taskclass.output(output_name)
        if spec is None:
            raise ExecutionError(
                f"{task_path}: taskclass {node.taskclass.name!r} has no output "
                f"{output_name!r}"
            )
        from ..engine.context import TaskResult

        result = TaskResult(spec.kind, output_name, dict(objects or {}))
        entry = {
            "type": "result",
            "path": task_path,
            "exec": exec_index,
            "result": result_to_plain(result),
        }
        with self._journal_guard():
            self._record(runtime, entry)
            self._dispatch_pending(runtime)
            self.flush_journal()  # client observes the completion as durable
        self._acknowledge()
        return True

    # -- dispatching -------------------------------------------------------------------------

    def _fresh_runtime(self, iid: str, meta: Dict[str, Any]) -> _Runtime:
        script = _compile_cached(meta["script_text"])
        tree = InstanceTree(script, meta["root_task"], now=self._now)
        runtime = _Runtime(iid, script, tree)
        runtime.has_deadlines = _script_has_deadlines(script)
        tree.start(meta["input_set"], meta["inputs"])
        self._drain(runtime)
        return runtime

    def _now(self) -> float:
        return self.node.clock.now if self.node is not None else 0.0

    def _drain(self, runtime: _Runtime) -> None:
        """Begin execution of every ready task; queue the work requests."""
        while True:
            node = runtime.tree.take_ready()
            if node is None:
                break
            input_set, inputs = runtime.tree.begin_execution(node)
            exec_index = runtime.exec_counter.get(node.path, 0) + 1
            runtime.exec_counter[node.path] = exec_index
            runtime.live_exec[node.path] = exec_index
            request = WorkRequest(
                instance_id=runtime.iid,
                task_path=node.path,
                execution_index=exec_index,
                taskclass=_wire_form(node.taskclass, taskclass_to_plain),
                code=node.decl.implementation.code,
                input_set=input_set,
                inputs=refs_to_plain(inputs),
                properties=_wire_form(node.decl.implementation, Implementation.as_dict),
                attempt=node.attempt + 1,
                repeats=node.machine.repeats,
                reply_to=self.node.name if self.node else "",
            ).to_plain()
            runtime.in_flight[(node.path, exec_index)] = _InFlight(request)

    def _dispatch_pending(self, runtime: _Runtime) -> None:
        self._drain(runtime)
        if runtime.iid not in self.admission.queue:
            # an instance still waiting in the admission queue keeps its
            # flights built-but-unsent; promotion dispatches them
            for key, flight in list(runtime.in_flight.items()):
                if not flight.sent:
                    self._send(runtime, key, flight)
        self._arm_deadlines(runtime)
        if runtime.tree.status is not WorkflowStatus.RUNNING:
            # terminal barrier: the deciding entry must be durable before the
            # terminal state can be observed between events (see the
            # durability oracle) — flush inside the same event that applied it
            self.flush_journal()
            # the terminal instance's window slot frees up: promote queued work
            self.admission.forget(runtime.iid)  # terminal while still queued
            self.admission.release(runtime.iid, self._now())
            self._promote_ready()

    def _shed(self, runtime: _Runtime, criticality: str, reason: str) -> None:
        """Decisive ``overloaded`` outcome for a not-yet-started instance.

        Journaled like every other outcome, so replay and recovery reproduce
        the shed exactly and the no-silent-drop oracle can hold the service
        to it.  Only instances that have not dispatched
        anything are ever shed — started work (flights, 2PC participation,
        journaled progress) is never thrown away."""
        self.admission.on_shed(runtime.iid, criticality, self._now(), reason)
        self.stats["shed"] += 1
        entry = {
            "type": "overloaded",
            "reason": reason,
            "criticality": criticality,
        }
        with self._journal_guard():
            self._record(runtime, entry)
            self.flush_journal()  # terminal outcome: durable before observable

    def _promote_ready(self) -> None:
        """Dispatch queued instances into freed window slots.

        Iterative with a re-entrancy guard: a promoted instance can complete
        synchronously (timer-free scripts on a quiet network), which frees
        its slot and would otherwise recurse back in here; the outer loop
        picks the freed slot up instead."""
        if self._promoting:
            return
        self._promoting = True
        try:
            while True:
                promoted = self.admission.promote_ready(self._now())
                if not promoted:
                    return
                for iid, _criticality, _sojourn in promoted:
                    runtime = self.runtimes.get(iid)
                    if runtime is None:
                        self.admission.release(iid, self._now())
                        continue
                    self._dispatch_pending(runtime)
        finally:
            self._promoting = False

    def _arm_deadlines(self, runtime: _Runtime) -> None:
        """Fig. 3's abort-from-WAIT by timer: a task whose ``deadline``
        implementation property expires while it still waits for inputs is
        force-aborted into its first abort outcome.  The abort is journaled,
        so recovery replays it.  Timers themselves are volatile, but the
        *absolute expiry* is journaled the first time a deadline is armed,
        so a recovered task resumes with its remaining deadline (and a
        deadline that lapsed during the outage fires immediately) instead of
        being granted a fresh full one."""
        if self.node is None or not self.node.alive:
            return
        if not runtime.has_deadlines:
            return  # script declares no deadline property: skip the tree walk
        from ..core.schema import OutputKind
        from ..core.states import TaskState

        journaled = False
        for node in runtime.tree.walk():
            raw = node.decl.implementation.get("deadline")
            if raw is None or node.machine.state is not TaskState.WAIT:
                continue
            if not node.taskclass.outputs_of_kind(OutputKind.ABORT):
                continue
            # key by the per-path execution counter, which is unique across
            # compound repeat rounds (machine.starts is not)
            key = (node.path, runtime.exec_counter.get(node.path, 0))
            if key in runtime.armed_deadlines:
                continue
            try:
                delay = float(raw)
            except ValueError:
                continue
            expires_at = runtime.deadline_expiries.get(key)
            if expires_at is None:
                expires_at = self._now() + delay
                self._record(
                    runtime,
                    {
                        "type": "deadline",
                        "path": node.path,
                        "exec": key[1],
                        "expires_at": expires_at,
                    },
                )
                journaled = True
            delay = max(0.0, expires_at - self._now())
            runtime.armed_deadlines.add(key)

            def fire(
                runtime=runtime,
                path=node.path,
                count=runtime.exec_counter.get(node.path, 0),
            ) -> None:
                if not self.is_primary():
                    return  # demoted: the new primary re-arms from its journal
                if runtime is not self.runtimes.get(runtime.iid):
                    return  # superseded by a recovery replay
                if runtime.tree.status.value != "running":
                    return
                try:
                    live = runtime.tree.node_at(path)
                except Exception:
                    return
                if (
                    not live.alive
                    or live.machine.state is not TaskState.WAIT
                    or runtime.exec_counter.get(path, 0) != count
                ):
                    return
                self._record(
                    runtime, {"type": "force_abort", "path": path, "name": None}
                )
                self._dispatch_pending(runtime)

            self.node.call_after(delay, fire, label=f"deadline:{node.path}")
        if journaled:
            # a deadline's absolute expiry must survive a crash for recovery
            # to resume the *remaining* deadline — flush it right away
            self.flush_journal()

    def _send(
        self,
        runtime: _Runtime,
        key: Tuple[str, int],
        flight: _InFlight,
        hedge: bool = False,
    ) -> None:
        if not self.is_primary():
            # Demoted *mid-event* (e.g. the durability barrier below demoted
            # us because the lease service was unreachable): the rest of this
            # scheduling pump must not dispatch under the stale epoch.
            return
        # Durability barrier: a dispatched task's execution (and eventual
        # reply) depends on every journal entry that made it ready.  Were the
        # send to outrun the journal, a crash could replay a shorter journal
        # while the reply to the *longer* history arrives and is deduped —
        # wedging the instance.  Flush-before-send makes that impossible.
        self.flush_journal()
        if flight.request.get("code") == "system.timer":
            self._arm_timer_task(runtime, key, flight)
            return
        if not self.worker_names:
            raise ExecutionError("no workers configured")
        # stamp at send time, not build time: a flight drained before a
        # promotion must carry the promoted epoch when it finally goes out
        flight.request["epoch"] = self.epoch
        now = self._now()
        cfg = self.resilience
        # The `location` implementation property (§4.3's placement keywords)
        # pins the first attempt and exempts it from hedging; redispatches
        # and hedges leave the pin.
        pinned = None
        if not hedge and flight.redispatches == 0:
            location = flight.request.get("properties", {}).get("location")
            if location in self.worker_names:
                pinned = location
        worker = self._route(runtime, key, flight, hedge, pinned, now)
        if worker is None:
            return  # hedge with no distinct worker available: skip
        if hedge:
            flight.hedged = True
            self.stats["hedges"] += 1
            self.rlog.record(now, "hedge", runtime.iid, key[0], worker)
        else:
            keymat = f"{runtime.iid}:{key[0]}:{key[1]}"
            flight.sent = True
            flight.next_attempt_at = cfg.policy.next_attempt_at(
                keymat, flight.redispatches, now
            )
            flight.hedge_at = (
                now + cfg.hedge_delay
                if cfg.hedge_delay is not None and not flight.hedged and pinned is None
                else None
            )
            self.rlog.record(
                now,
                "redispatch" if flight.redispatches else "dispatch",
                runtime.iid,
                key[0],
                worker,
                detail=f"attempt {flight.redispatches + 1}",
            )
        self.health.on_dispatch(worker, now)
        flight.sent_to[worker] = now
        self.stats["dispatches"] += 1
        try:
            self.broker.invoke_deferred(
                self.node,
                worker,
                "execute",
                (flight.request,),
                on_reply=lambda reply, iid=runtime.iid: self._handle_reply(iid, reply),
            )
        except CommFailure:
            pass  # sweeper retries

    def _route(
        self,
        runtime: _Runtime,
        key: Tuple[str, int],
        flight: _InFlight,
        hedge: bool,
        pinned: Optional[str],
        now: float,
    ) -> Optional[str]:
        """Health-aware worker choice.

        A ``pinned`` worker takes the attempt — unless its breaker is open,
        in which case the pin fails over immediately to the healthiest
        alternative (recorded as a ``failover`` event) rather than burning a
        whole timeout on a known-bad worker.  Hedges exclude workers already
        carrying this flight's current wave.
        """
        if pinned is not None:
            if self.health.allows(pinned, now):
                return pinned
            alternative = self.health.route(now, exclude={pinned})
            self.stats["failovers"] += 1
            self.rlog.record(
                now,
                "failover",
                runtime.iid,
                key[0],
                alternative or pinned,
                detail=f"pin {pinned} breaker open",
            )
            return alternative or pinned
        exclude = set(flight.sent_to) if hedge else ()
        return self.health.route(now, exclude=exclude)

    def _arm_timer_task(self, runtime: _Runtime, key: Tuple[str, int], flight: _InFlight) -> None:
        """Built-in timer tasks (§4.2: "a set for an exceptional input such
        as a timer enabling a task to wait for normal inputs with a
        timeout").

        A task whose implementation names the reserved code ``system.timer``
        never goes to a worker: the execution service fires its first
        declared outcome after the ``delay`` property elapses.  The firing
        goes through the ordinary reply path, so it is journaled and
        crash-safe; after a recovery the in-flight timer is simply re-armed.
        """
        flight.sent = True
        try:
            delay = float(flight.request.get("properties", {}).get("delay", "0"))
        except ValueError:
            delay = 0.0
        # keep the sweeper quiet until the timer is genuinely overdue
        flight.next_attempt_at = (
            self._now() + delay + self.resilience.policy.base_delay
        )
        flight.hedge_at = None  # timer tasks never go to a worker: no hedging
        taskclass = taskclass_from_plain(flight.request["taskclass"])
        outcomes = [o for o in taskclass.outputs if o.kind.name == "OUTCOME"]
        reply: Dict[str, Any] = {
            "instance_id": runtime.iid,
            "task_path": key[0],
            "execution_index": key[1],
            "ok": bool(outcomes),
            "marks": [],
            "error": None if outcomes else "system.timer task class declares no outcome",
        }
        if outcomes:
            from ..engine.context import TaskResult
            from ..core.schema import OutputKind

            reply["result"] = result_to_plain(
                TaskResult(OutputKind.OUTCOME, outcomes[0].name, {})
            )
        self.node.call_after(
            max(delay, 0.0),
            lambda: self._handle_reply(runtime.iid, reply),
            label=f"timer-task:{key[0]}",
        )

    def _arm_sweeper(self) -> None:
        if self.node is None or not self.node.alive or self._sweep_armed:
            return
        self._sweep_armed = True

        def sweep() -> None:
            if not self.is_primary():
                # demoted to standby: let the chain die; promotion re-arms it
                self._sweep_armed = False
                return
            now = self._now()
            cfg = self.resilience
            # Overload controller tick: adjust the window from the sojourn
            # signal, shed queued low-criticality work once pressure says so,
            # and promote into any headroom the adjustment opened up.
            self.admission.control(now)
            for victim_iid, victim_class in self.admission.evict_low(now):
                victim = self.runtimes.get(victim_iid)
                if victim is not None:
                    self._shed(
                        victim, victim_class,
                        f"evicted from queue at pressure {self.admission.pressure}",
                    )
            self._promote_ready()
            for runtime in list(self.runtimes.values()):
                for key, flight in list(runtime.in_flight.items()):
                    if key not in runtime.in_flight or not flight.sent:
                        continue
                    if (
                        self.admission.allow_hedge()
                        and not flight.hedged
                        and flight.hedge_at is not None
                        and flight.hedge_at <= now < flight.next_attempt_at
                    ):
                        self._send(runtime, key, flight, hedge=True)
                    if key not in runtime.in_flight:
                        continue
                    if now >= flight.next_attempt_at:
                        for worker in list(flight.sent_to):
                            self.health.on_timeout(worker, now)
                            self.rlog.record(
                                now, "timeout", runtime.iid, key[0], worker
                            )
                        flight.sent_to.clear()
                        if cfg.policy.exhausted(flight.redispatches) and (
                            flight.request.get("code") != "system.timer"
                        ):
                            self._abandon(runtime, key, flight, now)
                            continue
                        flight.redispatches += 1
                        self.stats["redispatches"] += 1
                        self._send(runtime, key, flight)
            if self._pending_acks:
                # hedge losers that never replied: count the timeout so a
                # dead hedge target still trips its breaker
                horizon = cfg.policy.base_delay
                for ack_key, sent_at in list(self._pending_acks.items()):
                    if now - sent_at >= horizon:
                        del self._pending_acks[ack_key]
                        self.health.on_timeout(ack_key[3], now)
            self._sweep_armed = False
            self._arm_sweeper()

        self.node.call_after(self.sweep_interval, sweep, label=f"{self.name}-sweep")

    def _abandon(
        self, runtime: _Runtime, key: Tuple[str, int], flight: _InFlight, now: float
    ) -> None:
        """The redispatch cap is spent: stop retransmitting and surface a
        system failure for the task.  From here the paper's §3 semantics take
        over — automatic retries per the task's ``retries`` property, then
        its first declared abort outcome — so the workflow still terminates
        decisively instead of retrying forever."""
        self.stats["abandoned"] += 1
        self.rlog.record(
            now,
            "abandon",
            runtime.iid,
            key[0],
            detail=f"redispatch cap ({flight.redispatches}) spent",
        )
        entry = {
            "type": "failure",
            "path": key[0],
            "exec": key[1],
            "error": f"dispatch abandoned after {flight.redispatches} redispatches",
        }
        self._record(runtime, entry)
        self._dispatch_pending(runtime)

    # -- replies and marks ----------------------------------------------------------------------

    def on_message(self, message: Message) -> None:
        payload = message.payload
        if isinstance(payload, dict) and payload.get("type") == "mark":
            self._handle_mark(payload)

    def _handle_mark(self, payload: Dict[str, Any]) -> None:
        if not self.is_primary():
            return  # demoted: the current primary owns this instance now
        crash_point("exec.mark.recv", self)
        runtime = self.runtimes.get(payload.get("instance_id", ""))
        if runtime is None:
            return
        with self._journal_guard():
            if self._record_mark(
                runtime, payload["task_path"], payload["execution_index"], payload
            ):
                self._dispatch_pending(runtime)

    def _record_mark(
        self, runtime: _Runtime, path: str, exec_index: int, mark: Dict[str, Any]
    ) -> bool:
        """Record a mark unless one of its two copies (the datagram, the
        copy carried in the final reply) already was; True when new."""
        if ("mark", path, exec_index, mark["name"]) in runtime.journal_keys:
            return False
        self._record(
            runtime,
            {
                "type": "mark",
                "path": path,
                "exec": exec_index,
                "name": mark["name"],
                "objects": mark["objects"],
            },
        )
        return True

    def _handle_reply(self, iid: str, reply: Dict[str, Any]) -> None:
        if not self.is_primary():
            return  # demoted: late replies belong to the current primary
        if reply.get("fenced"):
            # a worker refused a stale-epoch dispatch: never journaled as a
            # task failure — the flight stays open for the rightful primary
            self.stats["fenced_replies"] += 1
            self._on_fenced_reply(reply)
            return
        crash_point("exec.reply.recv", self)
        runtime = self.runtimes.get(iid)
        if runtime is None:
            return
        path = reply["task_path"]
        exec_index = reply["execution_index"]
        flight_key = (path, exec_index)
        self._credit_reply(runtime, flight_key, reply)
        journal_key = ("result", path, exec_index)
        if journal_key in runtime.journal_keys:
            self.stats["duplicate_replies"] += 1
            return
        with self._journal_guard():
            # marks carried in the reply (the datagram copies may have been lost)
            for mark in reply.get("marks", ()):
                self._record_mark(runtime, path, exec_index, mark)
            if reply.get("ok") and reply.get("external"):
                # the task parked itself awaiting an external completion; stop
                # the sweeper from re-dispatching it and remember it durably
                if flight_key in runtime.external:
                    self.stats["duplicate_replies"] += 1
                    return
                self._record(runtime, {"type": "external", "path": path, "exec": exec_index})
                return
            if reply.get("ok"):
                entry = {
                    "type": "result",
                    "path": path,
                    "exec": exec_index,
                    "result": reply["result"],
                }
            else:
                entry = {
                    "type": "failure",
                    "path": path,
                    "exec": exec_index,
                    "error": reply.get("error", "unknown"),
                }
            self._record(runtime, entry)
            crash_point("exec.reply.applied", self)
            self._dispatch_pending(runtime)

    def _on_fenced_reply(self, reply: Dict[str, Any]) -> None:
        """Hook for replication: a fenced reply carries the highest epoch the
        worker has seen, evidence that a newer primary exists."""

    def _credit_reply(
        self, runtime: _Runtime, flight_key: Tuple[str, int], reply: Dict[str, Any]
    ) -> None:
        """Health accounting for any reply, duplicates included: the worker
        demonstrably served the request, so credit its latency and close its
        breaker — even when the journal then discards the reply as a
        duplicate (e.g. a hedge that lost the race)."""
        worker = reply.get("worker")
        if not worker:
            return  # timer-task self-replies carry no worker
        now = self._now()
        flight = runtime.in_flight.get(flight_key)
        sent_at = flight.sent_to.pop(worker, None) if flight is not None else None
        if sent_at is None:
            sent_at = self._pending_acks.pop(
                (runtime.iid, flight_key[0], flight_key[1], worker), None
            )
        if sent_at is not None:
            self.health.on_reply(worker, now - sent_at, now)

    def _resolve_flight(
        self, runtime: _Runtime, flight_key: Tuple[str, int]
    ) -> Optional[_InFlight]:
        """Retire a flight; any other workers still carrying its current
        wave (hedge losers) are parked in ``_pending_acks`` so their late
        replies still feed the health registry."""
        flight = runtime.in_flight.pop(flight_key, None)
        if flight is not None:
            for worker, sent_at in flight.sent_to.items():
                self._pending_acks[
                    (runtime.iid, flight_key[0], flight_key[1], worker)
                ] = sent_at
            flight.sent_to.clear()
            # Hard cap behind the sweeper's age-based reaping: under sustained
            # overload hedge losers can accumulate faster than the horizon
            # drains them, and an unbounded table is exactly the kind of
            # hidden queue this layer exists to remove.  Oldest entries go
            # first — their workers already took the latency hit.
            if len(self._pending_acks) > _PENDING_ACK_CAP:
                overflow = sorted(
                    self._pending_acks.items(), key=lambda kv: (kv[1], kv[0])
                )[: len(self._pending_acks) - _PENDING_ACK_CAP]
                for ack_key, _sent_at in overflow:
                    del self._pending_acks[ack_key]
        return flight

    # -- journal ----------------------------------------------------------------------------------

    def _record(self, runtime: _Runtime, entry: Dict[str, Any]) -> None:
        """The live path of every journal entry: apply it, then journal it.
        An entry whose application raises (an illegal reconfiguration, a
        force_abort of an unknown path) is therefore never journaled."""
        self._apply(runtime, entry)
        self._journal(runtime, entry)

    def _apply(self, runtime: _Runtime, entry: Dict[str, Any]) -> None:
        """How a journal entry takes effect on a runtime — the one definition,
        shared by the live path (:meth:`_record`) and replay, so a replayed
        runtime is the live one by construction."""
        kind = entry["type"]
        key = (entry.get("path"), entry.get("exec"))
        if kind == "deadline":
            # inert for the tree: remembers the absolute expiry so recovery
            # re-arms the timer with the *remaining* deadline
            runtime.deadline_expiries[key] = entry["expires_at"]
            return
        if kind == "reconfig":
            new_script = _compile_cached(entry["script_text"])
            runtime.tree.reconfigure(new_script)  # raises without effect if illegal
            runtime.script = new_script
            runtime.has_deadlines = _script_has_deadlines(new_script)
            return
        if kind == "force_abort":
            runtime.tree.force_abort(entry["path"], entry.get("name"))
            return
        if kind == "overloaded":
            # decisive shed outcome: the whole instance fails terminally
            # before any of its tasks dispatched, so nothing was sent
            runtime.in_flight.clear()
            runtime.external.clear()
            runtime.tree.fail(f"overloaded: {entry['reason']}")
            return
        if kind == "external":
            self._resolve_flight(runtime, key)
            runtime.external.add(key)
            return
        if kind == "mark":
            runtime.journal_keys.add(("mark", *key, entry["name"]))
        else:  # result / failure
            runtime.journal_keys.add(("result", *key))
            # through _resolve_flight (not a bare pop): any workers still
            # carrying the flight's wave are parked in _pending_acks, so their
            # late replies keep feeding the health registry
            self._resolve_flight(runtime, key)
            runtime.external.discard(key)
        try:
            node = runtime.tree.node_at(entry["path"])
        except ExecutionError:
            return
        if runtime.live_exec.get(entry["path"]) != entry["exec"]:
            return  # stale: a newer execution of this path supersedes it
        if kind == "mark":
            runtime.tree.apply_mark(node, entry["name"], refs_from_plain(entry["objects"]))
        elif kind == "result":
            try:
                runtime.tree.apply_result(node, result_from_plain(entry["result"]))
            except ExecutionError as exc:
                # the result did not match the task class signature: treat it
                # as a system failure (deterministic at replay too)
                runtime.tree.apply_failure(node, exc)
        else:
            runtime.tree.apply_failure(node, WorkflowError(entry["error"]))

    def _journal(self, runtime: _Runtime, entry: Dict[str, Any]) -> None:
        # Provenance stamp: which incarnation wrote this entry.  Inert for
        # dedup keys and replay; the epoch-monotonicity and single-writer
        # oracles (sim/oracles.py) audit these fields across failovers.
        entry["epoch"] = self.epoch
        entry["writer"] = self.name
        if not self.durable:
            runtime.volatile_journal.append(entry)
            return
        IOPATH_STATS.journal_entries += 1
        crash_point("exec.journal.pre", self)
        if self.journal_batch:
            # buffered: becomes durable at the next barrier (flush_journal).
            # The applied entry's dedup key and this buffered entry are both
            # volatile, so a crash loses them together — redelivered
            # replies simply journal again after recovery.
            self._jbuf.append((runtime, entry))
            self._arm_journal_window()
            return
        meta_key = f"instance:{runtime.iid}:meta"

        def body(txn) -> None:
            meta = dict(txn.read(self.store, meta_key))
            n = meta["journal_len"]
            txn.write(self.store, f"instance:{runtime.iid}:journal:{n}", entry)
            meta["journal_len"] = n + 1
            txn.write(self.store, meta_key, meta)

        self.manager.run(body)
        IOPATH_STATS.journal_batches += 1
        crash_point("exec.journal.post", self)
        self.store.sync()
        self._post_barrier()

    def flush_journal(self) -> int:
        """Durability barrier: commit every buffered journal entry in one
        transaction (one WAL force), update each touched instance's
        ``journal_len`` once, then drain the WAL group-commit window.

        The batch is all-or-nothing — every write rides a single COMMIT
        record, so a torn force during the flush presumed-aborts the whole
        batch and recovery sees a contiguous journal either way.  Returns
        the number of entries made durable."""
        if not self._jbuf:
            self._post_barrier()  # replication still ships any unshipped suffix
            return 0
        batch, self._jbuf = self._jbuf, []

        def body(txn) -> None:
            metas: Dict[str, Dict[str, Any]] = {}
            for runtime, entry in batch:
                meta = metas.get(runtime.iid)
                if meta is None:
                    meta = dict(txn.read(self.store, f"instance:{runtime.iid}:meta"))
                    metas[runtime.iid] = meta
                n = meta["journal_len"]
                txn.write(self.store, f"instance:{runtime.iid}:journal:{n}", entry)
                meta["journal_len"] = n + 1
            for iid, meta in metas.items():
                txn.write(self.store, f"instance:{iid}:meta", meta)

        self.manager.run(body)
        IOPATH_STATS.journal_batches += 1
        crash_point("exec.journal.post", self)
        self.store.sync()
        self._post_barrier()
        return len(batch)

    def _arm_journal_window(self) -> None:
        """Bound how long a buffered entry may stay volatile: one flush timer
        per non-empty buffer, armed when the first entry lands."""
        if self._jflush_armed or self.node is None or not self.node.alive:
            return
        self._jflush_armed = True

        def fire() -> None:
            self._jflush_armed = False
            if self.node is not None and self.node.alive:
                self.flush_journal()

        self.node.call_after(self.journal_window, fire, label=f"{self.name}-jflush")

    # -- recovery -----------------------------------------------------------------------------------

    def _journal_entries(self, iid: str, start: int, stop: int) -> List[Any]:
        """Durable journal entries ``start:stop``; a hole reads as None."""
        return self.store.get_committed_many(
            f"instance:{iid}:journal:{n}" for n in range(start, stop)
        )

    def _replay(self, iid: str, runtime: Optional[_Runtime] = None) -> Optional[_Runtime]:
        """Rebuild an instance from its durable journal onto a fresh runtime
        or, given one an earlier replay built, apply only the entries it has
        not applied yet (a standby's warm image).  Leaves the service itself
        untouched — callers adopt the runtime.  None without durable meta."""
        meta = self.store.get_committed(f"instance:{iid}:meta")
        if meta is None:
            return None
        if runtime is None:
            runtime = self._fresh_runtime(iid, meta)
        if meta["journal_len"] > runtime.replayed:  # a standby's idle instances
            self._apply_journal(
                runtime, self._journal_entries(iid, runtime.replayed, meta["journal_len"])
            )
        return runtime

    def _apply_journal(self, runtime: _Runtime, journal: List[Any]) -> None:
        """Apply journal entries to a replaying runtime, up to the first hole."""
        for entry in journal:
            if entry is None:
                break
            self._apply(runtime, entry)
            self._drain(runtime)
            runtime.replayed += 1

    def _catch_up_all(self) -> None:
        """Bring every durable instance's runtime up to its durable journal,
        replaying from scratch the instances that have none yet."""
        for iid in self.store.get_committed("instance-index", []):
            runtime = self._replay(iid, self.runtimes.get(iid))
            if runtime is not None:
                self.runtimes[iid] = runtime

    def _resume_all(self) -> None:
        """Take over every replayed instance, after a crash recovery or a
        standby promotion.

        Admission state is volatile: the queue died with the process (or
        with the old primary), so every non-terminal instance counts as
        admitted — its journal is durable work the service must finish —
        and the controller restarts unpressured."""
        self.admission.rebuild(
            [
                iid
                for iid, runtime in self.runtimes.items()
                if runtime.tree.status is WorkflowStatus.RUNNING
            ],
            self._now(),
        )
        for runtime in list(self.runtimes.values()):
            self._resume(runtime)

    def _resume(self, runtime: _Runtime) -> None:
        """Resume a replayed instance: re-send its surviving flights and
        re-arm its deadlines with their journaled remaining time.

        A flight that survived the replay was unanswered when the journal
        stopped, so it counts as a redispatch and loses its location pin:
        the original target may be what crashed.  Each resend gets a deterministic jittered offset inside
        ``policy.recovery_stagger``, so the herd does not hit the fleet in
        one burst.  The jitter key includes the durable fencing epoch, which
        (unlike ``stats["recoveries"]``, restarting at the same value on a
        freshly promoted standby) differs across restarts and failovers.
        """
        for flight in runtime.in_flight.values():
            flight.redispatches += 1
        cfg = self.resilience
        epoch = self.epoch
        for key, flight in sorted(runtime.in_flight.items(), key=lambda kv: kv[0]):
            delay = (
                0.0
                if flight.request.get("code") == "system.timer"
                else cfg.policy.stagger(f"{runtime.iid}:{key[0]}:{key[1]}:{epoch}")
            )
            if delay <= 0.0:
                self._send(runtime, key, flight)
                continue
            flight.sent = True  # reserve: _dispatch_pending must not double-send
            self.stats["staggered"] += 1
            self.rlog.record(
                self._now(),
                "stagger",
                runtime.iid,
                key[0],
                detail=f"resend +{delay:.2f}",
            )

            def fire(runtime=runtime, key=key) -> None:
                if not self.is_primary():
                    return  # demoted while the stagger timer was pending
                if self.runtimes.get(runtime.iid) is not runtime:
                    return  # superseded by another recovery replay
                flight = runtime.in_flight.get(key)
                if flight is not None:
                    self._send(runtime, key, flight)

            self.node.call_after(delay, fire, label=f"stagger:{key[0]}")
        self._arm_deadlines(runtime)

    # -- helpers --------------------------------------------------------------------------------------

    def _runtime(self, iid: str) -> _Runtime:
        try:
            return self.runtimes[iid]
        except KeyError:
            raise ExecutionError(f"unknown workflow instance {iid!r}") from None
