"""The transaction layer's state is bounded by active work, not history.

* After a drained standalone run, the execution store's lock table is empty:
  every commit releases its locks and their entries go with them.
* A hot standby applying a shipped batch folds exactly the shipped records
  into its store cache, however long its log already is.
* The execution service's wire-form memo lets go of a script's task
  classes once the bounded compile cache has evicted the script.
"""

import gc
import weakref

from repro.replication import ReplicatedExecutionService
from repro.services import WorkflowSystem
from repro.services import execution
from repro.txn import wal as wal_mod
from repro.workloads import TrafficSpec, paper_order, run_traffic, traffic_registry


def test_lock_table_empty_after_drained_cohort_pipelines():
    system = WorkflowSystem(workers=4, registry=traffic_registry(), seed=0)
    report = run_traffic(system, TrafficSpec(rate=0.5, duration=60.0, drain=240.0, seed=3))
    assert report.completed > 10 and report.unfinished == 0
    locks = system.execution_store.locks
    assert len(locks) == 0
    assert not locks._held and not locks._queued and not locks._waits_for


def test_standby_folds_exactly_the_shipped_records(monkeypatch):
    folds = []  # (store, records folded) for every incremental fold
    replay = wal_mod.replay

    def counting_replay(records, state=None):
        records = list(records)
        folds.append((state, len(records)))
        return replay(records, state)

    checked = []
    apply_batch = ReplicatedExecutionService.replicate

    def replicate(service, batch):
        # fold the standby's own writes since the last batch (its cursor
        # tail), so the next fold is the batch's alone
        service.store.recover()
        state = service.store._replay
        start = len(folds)
        reply = apply_batch(service, batch)
        if reply.get("ok") and not batch["reset"]:
            mine = [count for fold_state, count in folds[start:] if fold_state is state]
            assert mine == [len(batch["records"])]
            checked.append((len(batch["records"]), service.store.wal.durable_length))
        return reply

    monkeypatch.setattr(wal_mod, "replay", counting_replay)
    monkeypatch.setattr(ReplicatedExecutionService, "replicate", replicate)
    system = WorkflowSystem(replicas=2, lease_duration=30.0, repl_interval=5.0)
    paper_order.default_registry(registry=system.registry)
    system.deploy("order", paper_order.SCRIPT_TEXT)
    for number in range(4):
        iid = system.instantiate("order", paper_order.ROOT_TASK, {"order": f"o-{number}"})
        assert system.run_until_terminal(iid)["status"] == "completed"
    system.clock.advance(20.0)
    assert len(checked) >= 4
    # late batches are small next to the log they land on
    shipped, history = checked[-1]
    assert shipped < history


def test_wire_form_memo_releases_evicted_scripts():
    system = WorkflowSystem(workers=1)
    paper_order.default_registry(registry=system.registry)
    first = None
    # one more distinct text than the compile cache holds forces at least
    # one clear after the first script was cached
    for n in range(execution._COMPILE_CACHE_MAX + 1):
        name = f"order-{n}"
        system.deploy(name, f"{paper_order.SCRIPT_TEXT}\n// variant {n}\n")
        iid = system.instantiate(name, paper_order.ROOT_TASK, {"order": f"o-{n}"})
        assert system.run_until_terminal(iid)["status"] == "completed"
        # drop the terminal runtime, so only a memo could keep its tree's
        # task classes alive
        runtime = system.execution.runtimes.pop(iid)
        if first is None:
            leaf = next(node for node in runtime.tree.walk() if not node.is_compound)
            first = weakref.ref(leaf.taskclass)
            del leaf
        del runtime
    gc.collect()
    assert first() is None
