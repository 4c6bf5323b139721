"""Incremental store recovery: ``ObjectStore.recover()`` folds only the
durable records past its replay cursor, yet must always leave the same
committed cache as a full replay of the durable log.

Random sequences of one-phase commits, two-phase prepares whose commit or
abort comes after later ``recover()`` calls, checkpoints, crashes and log
resets drive one store.  After every ``recover()`` the store-agreement
oracle must hold, the cache must equal a model of the committed state, and
the in-doubt set and its logged writes must match the durable log.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.oracles import check_store_agreement
from repro.txn import wal as wal_mod
from repro.txn.ids import TransactionId
from repro.txn.recovery import resolve_in_doubt
from repro.txn.store import ObjectStore

KEYS = ["a", "b", "c"]

_writes = st.dictionaries(st.sampled_from(KEYS), st.integers(0, 9), min_size=1, max_size=3)
_operation = st.one_of(
    st.tuples(st.just("commit"), _writes),
    st.tuples(st.just("prepare"), _writes),
    st.tuples(st.just("decide"), st.integers(0, 3), st.booleans()),
    st.tuples(st.just("recover")),
    st.tuples(st.just("checkpoint")),
    st.tuples(st.just("crash")),
    st.tuples(st.just("reset")),
)


def _logged_writes_by_scan(store, tid):
    """In-doubt writes as the durable log states them, by a full scan."""
    return {
        record.obj.name: record.value
        for record in store.wal.durable_records()
        if record.kind == wal_mod.UPDATE and record.txn == tid
    }


def _check(store, committed, prepared):
    assert check_store_agreement(store) == []
    assert store.snapshot() == committed
    durable = list(store.wal.durable_records())
    assert store.in_doubt() == wal_mod.in_doubt(durable) == sorted(prepared)
    for tid, writes in prepared.items():
        assert store.logged_writes(tid) == _logged_writes_by_scan(store, tid) == writes


@settings(max_examples=200, deadline=None)
@given(st.lists(_operation, max_size=40))
def test_incremental_recover_matches_full_replay(operations):
    store = ObjectStore("s")
    committed = {}   # model of the committed state
    prepared = {}    # tid -> writes, prepared and undecided
    numbers = iter(range(1, 10_000))
    for operation in operations:
        kind = operation[0]
        if kind == "commit":
            tid = TransactionId(next(numbers))
            store.log_updates(tid, operation[1])
            store.commit(tid, operation[1])
            committed.update(operation[1])
        elif kind == "prepare":
            tid = TransactionId(next(numbers))
            store.log_updates(tid, operation[1])
            store.prepare(tid)
            prepared[tid] = operation[1]
        elif kind == "decide" and prepared:
            tid = sorted(prepared)[operation[1] % len(prepared)]
            writes = prepared.pop(tid)
            if operation[2]:
                store.commit(tid, writes)
                committed.update(writes)
            else:
                store.abort(tid)
        elif kind == "recover":
            store.recover()
            _check(store, committed, prepared)
        elif kind == "checkpoint":
            store.checkpoint()
        elif kind == "crash":
            store.crash()  # every record above was forced: nothing is lost
        elif kind == "reset":
            store.wal.reset()  # local stable storage wiped
            committed, prepared = {}, {}
    store.recover()
    _check(store, committed, prepared)


def test_recover_folds_only_new_records(monkeypatch):
    store = ObjectStore("s")
    for number in range(1, 6):
        tid = TransactionId(number)
        store.log_updates(tid, {"k": number})
        store.commit(tid, {"k": number})
    store.recover()
    folded = []
    replay = wal_mod.replay

    def counting(records, state=None):
        records = list(records)
        folded.append(len(records))
        return replay(records, state)

    monkeypatch.setattr(wal_mod, "replay", counting)
    tid = TransactionId(6)
    store.log_updates(tid, {"k": 6})
    store.commit(tid, {"k": 6})
    store.recover()
    store.recover()
    assert folded == [3, 0]  # BEGIN, UPDATE, COMMIT once; then nothing
    store.wal.reset()
    store.recover()  # a reset log restarts LSNs: one full replay
    assert store.snapshot() == {}


def test_checkpoint_keeps_prepared_transactions_records():
    """A checkpoint taken while a participant is prepared must not drop its
    logged writes: a later commit has to survive recovery."""
    store = ObjectStore("s")
    tid = TransactionId(1)
    store.log_updates(tid, {"x": 1})
    store.prepare(tid)
    store.checkpoint()
    assert store.in_doubt() == [tid]
    resolve_in_doubt(store, lambda _tid: True)
    store.crash()
    assert store.snapshot() == {"x": 1}
    assert check_store_agreement(store) == []
