"""Spans around the public entry points of each layer of ``repro``.

The benchmark does not instrument the program: it wraps, from its own code,
the public functions and methods where one layer calls another, for the
duration of one traced drive, and restores the originals afterwards.  Each
call becomes a span with its name, wall start/end, virtual start/end, parent
span and instance id (where the arguments or the result name one).  Spans
stay in memory; :meth:`Tracer.write` stores them when the benchmark ends.

A layer's self time is the wall time of its spans minus the part covered by
their child spans.  Time outside every span (the benchmark's own driving
code and the event loop's bookkeeping) is reported as ``bench``.

No internal counter or statistics class of ``repro`` is read: every count
and time here comes from a wrapped call.
"""

from __future__ import annotations

import gzip
import importlib
import os
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

# (layer, module, owner, attributes).  ``owner`` names a class in the module,
# or is None for module-level functions (patched where the caller looks them
# up, e.g. ``compile_script`` as imported by the services).
ENTRY_POINTS: List[Tuple[str, str, Optional[str], Tuple[str, ...]]] = [
    ("lang", "repro.services.repository", None, ("compile_script",)),
    ("lang", "repro.services.execution", None, ("compile_script",)),
    ("engine", "repro.engine.instance", "InstanceTree", (
        "__init__", "start", "pump", "take_ready", "drain_ready", "peek_ready",
        "has_work", "begin_execution", "try_begin_execution", "apply_mark",
        "apply_result", "apply_failure", "force_abort", "fail", "reconfigure",
        "node_at", "walk",
    )),
    ("orb", "repro.orb.broker", "ObjectBroker", ("invoke", "invoke_deferred", "resolve")),
    ("orb", "repro.orb.broker", None, ("marshal", "marshal_call")),
    ("orb", "repro.orb.proxy", "Proxy", ("__getattr__",)),
    ("services", "repro.services.execution", "ExecutionService", (
        "instantiate", "status", "result", "on_message", "complete_task",
        "flush_journal", "on_start", "on_recover",
    )),
    ("services", "repro.services.worker", "TaskWorker", ("execute", "on_recover")),
    ("services", "repro.services.repository", "RepositoryService", (
        "store_script", "get_script",
    )),
    ("txn", "repro.txn.manager", "TransactionManager", ("run", "begin")),
    ("txn", "repro.txn.manager", "Transaction", ("read", "write", "commit", "abort")),
    ("txn", "repro.txn.locks", "LockManager", ("acquire", "try_acquire", "release_all")),
    ("txn", "repro.txn.store", "ObjectStore", (
        "get_committed", "get_committed_many", "commit", "crash", "recover", "sync",
    )),
    ("txn", "repro.txn.wal", "WriteAheadLog", ("append", "force", "sync")),
    ("txn", "repro.txn.wal", None, ("replay",)),
    ("txn", "os", None, ("fsync",)),
    ("net", "repro.net.clock", "EventClock", ("step", "call_at")),
    ("net", "repro.net.network", "Network", ("send", "sample_delays")),
    ("net", "repro.net.node", "Node", ("send", "call_after", "crash", "recover")),
    ("overload", "repro.overload.admission", "AdmissionController", (
        "decide", "enqueue", "on_start", "on_shed", "on_reject", "release",
        "forget", "promote_ready", "control", "evict_low", "retry_after", "rebuild",
    )),
    ("resilience", "repro.resilience.health", "HealthRegistry", (
        "on_dispatch", "on_reply", "on_timeout", "route", "allows", "reset",
    )),
    ("resilience", "repro.resilience.policy", "RetryPolicy", (
        "delay", "next_attempt_at", "overload_backoff", "stagger",
    )),
    ("replication", "repro.replication.replica", "ReplicatedExecutionService", (
        "replicate", "repl_status", "on_start", "on_recover", "instantiate",
        "reconfigure", "force_abort", "complete_task",
    )),
    ("replication", "repro.replication.lease", "LeaseService", (
        "acquire", "renew", "release", "demote", "enlist",
    )),
]

LAYERS = ("lang", "engine", "orb", "services", "txn", "net", "overload",
          "resilience", "replication")


def _iid_of_first_arg(args: Tuple[Any, ...], result: Any) -> Optional[str]:
    return args[1] if len(args) > 1 and isinstance(args[1], str) else None


def _iid_of_result(args: Tuple[Any, ...], result: Any) -> Optional[str]:
    return result if isinstance(result, str) else None


def _iid_of_request(args: Tuple[Any, ...], result: Any) -> Optional[str]:
    request = args[1] if len(args) > 1 else None
    return request.get("instance_id") if isinstance(request, dict) else None


def _iid_of_message(args: Tuple[Any, ...], result: Any) -> Optional[str]:
    payload = getattr(args[1], "payload", None) if len(args) > 1 else None
    return payload.get("instance_id") if isinstance(payload, dict) else None


# Span name -> how to find the instance id the call concerns.
INSTANCE_OF: Dict[str, Callable[[Tuple[Any, ...], Any], Optional[str]]] = {
    "services.ExecutionService.instantiate": _iid_of_result,
    "services.ExecutionService.status": _iid_of_first_arg,
    "services.ExecutionService.result": _iid_of_first_arg,
    "services.ExecutionService.on_message": _iid_of_message,
    "services.TaskWorker.execute": _iid_of_request,
    "replication.ReplicatedExecutionService.instantiate": _iid_of_result,
}


class Tracer:
    """In-memory span recorder with per-name call counts and times.

    ``clock`` is the event clock of the system being traced; virtual times
    are read from it at span start and end."""

    def __init__(self, clock: Any) -> None:
        self.clock = clock
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        # (name id, parent index, wall start, wall end, virtual start,
        #  virtual end, instance id); parent -1 marks a root span
        self.spans: List[Optional[Tuple[int, int, float, float, float, float, Optional[str]]]] = []
        self.calls: List[int] = []
        self.total: List[float] = []      # inclusive wall seconds
        self.self_time: List[float] = []  # exclusive wall seconds
        self._stack: List[int] = []
        self._child: List[float] = []
        self._saved: List[Tuple[Any, str, Any]] = []
        self.wall = 0.0

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        index = self._name_ids.get(name)
        if index is None:
            index = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.total.append(0.0)
            self.self_time.append(0.0)
        return index

    def _wrap(self, fn: Callable[..., Any], name: str) -> Callable[..., Any]:
        name_id = self._name_id(name)
        iid_of = INSTANCE_OF.get(name)
        spans, stack, child, calls, total, self_time = (
            self.spans, self._stack, self._child, self.calls, self.total,
            self.self_time,
        )
        clock = self.clock
        now = time.perf_counter

        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            child.append(0.0)
            result = None
            v0 = clock.now
            w0 = now()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                w1 = now()
                stack.pop()
                covered = child.pop()
                duration = w1 - w0
                if child:
                    child[-1] += duration
                calls[name_id] += 1
                total[name_id] += duration
                self_time[name_id] += duration - covered
                iid = iid_of(args, result) if iid_of is not None else None
                spans[index] = (name_id, parent, w0, w1, v0, clock.now, iid)

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def install(self) -> None:
        """Wrap every entry point in :data:`ENTRY_POINTS`."""
        for layer, module_name, owner_name, attributes in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            owner = getattr(module, owner_name) if owner_name else module
            label = f"{layer}.{owner_name or module_name.rsplit('.', 1)[-1]}"
            for attribute in attributes:
                if owner_name is not None and attribute not in vars(owner):
                    continue  # inherited: the defining class is wrapped instead
                original = getattr(owner, attribute)
                self._saved.append((owner, attribute, original))
                setattr(owner, attribute, self._wrap(original, f"{label}.{attribute}"))

    def uninstall(self) -> None:
        """Restore every wrapped entry point."""
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)

    # -- results -----------------------------------------------------------

    def count(self, name: str) -> int:
        index = self._name_ids.get(name)
        return self.calls[index] if index is not None else 0

    def inclusive(self, name: str) -> float:
        index = self._name_ids.get(name)
        return self.total[index] if index is not None else 0.0

    def exclusive(self, name: str) -> float:
        index = self._name_ids.get(name)
        return self.self_time[index] if index is not None else 0.0

    def layer_self(self) -> Dict[str, float]:
        """Self seconds per layer, plus ``bench`` for time outside spans."""
        split = {layer: 0.0 for layer in LAYERS}
        for name, seconds in zip(self.names, self.self_time):
            split[name.split(".", 1)[0]] += seconds
        split["bench"] = max(0.0, self.wall - sum(split.values()))
        return split

    def layer_calls(self) -> Dict[str, int]:
        counts = {layer: 0 for layer in LAYERS}
        for name, calls in zip(self.names, self.calls):
            counts[name.split(".", 1)[0]] += calls
        return counts

    def write(self, path: str) -> None:
        """Store every span as one tab-separated line, gzip-compressed:
        index, name, parent, wall start, wall end, virtual start, virtual
        end, instance id.  Wall times are relative to the first span."""
        origin = next((span[2] for span in self.spans if span is not None), 0.0)
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("index\tname\tparent\twall_start\twall_end\tvirt_start\tvirt_end\tinstance\n")
            for index, span in enumerate(self.spans):
                if span is None:
                    continue
                name_id, parent, w0, w1, v0, v1, iid = span
                out.write(
                    f"{index}\t{self.names[name_id]}\t{parent}\t{w0 - origin:.9f}\t"
                    f"{w1 - origin:.9f}\t{v0!r}\t{v1!r}\t{iid or ''}\n"
                )
