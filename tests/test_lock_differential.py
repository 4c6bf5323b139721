"""Differential test of the indexed lock manager against the full-scan one.

``ScanLockManager`` below is the lock manager as it was before release was
indexed: every ``release_all`` walks the whole lock table and every
waits-for set, and the table never shrinks.  It lives here only, as the
oracle.  Random operation sequences drive both managers; after every step
they must agree on what each call returned or raised, on every holder set,
on every ``held_by`` set and on the waits-for graph.

One documented difference: within one ``release_all`` the scan reports
grants in the order objects first entered its never-shrinking table, while
the indexed manager reports them in ``ObjectId`` order.  Grants on
different objects are independent, so the oracle's list is stable-sorted by
object before comparing; each object's FIFO order is compared as is.
"""

from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Set, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.txn.ids import ObjectId, TransactionId
from repro.txn.locks import DeadlockError, LockConflict, LockManager, LockMode


@dataclass
class _ScanEntry:
    holders: Dict[TransactionId, LockMode] = field(default_factory=dict)
    waiters: Deque[Tuple[TransactionId, LockMode]] = field(default_factory=deque)

    def compatible(self, txn: TransactionId, mode: LockMode) -> bool:
        others = {t: m for t, m in self.holders.items() if t != txn}
        if not others:
            return True
        if mode is LockMode.EXCLUSIVE:
            return False
        return all(m is LockMode.SHARED for m in others.values())


class ScanLockManager:
    """The full-scan reference model."""

    def __init__(self) -> None:
        self._table: Dict[ObjectId, _ScanEntry] = defaultdict(_ScanEntry)
        self._held: Dict[TransactionId, Set[ObjectId]] = defaultdict(set)
        self._waits_for: Dict[TransactionId, Set[TransactionId]] = defaultdict(set)

    def holders(self, obj: ObjectId) -> Dict[TransactionId, LockMode]:
        return dict(self._table[obj].holders)

    def held_by(self, txn: TransactionId) -> Set[ObjectId]:
        return set(self._held.get(txn, ()))

    def try_acquire(self, txn: TransactionId, obj: ObjectId, mode: LockMode) -> bool:
        entry = self._table[obj]
        current = entry.holders.get(txn)
        if current is LockMode.EXCLUSIVE or current is mode:
            return True
        if not entry.compatible(txn, mode):
            return False
        entry.holders[txn] = mode
        self._held[txn].add(obj)
        return True

    def acquire(self, txn: TransactionId, obj: ObjectId, mode: LockMode, wait: bool = False) -> None:
        if self.try_acquire(txn, obj, mode):
            return
        entry = self._table[obj]
        holders = {t for t in entry.holders if t != txn}
        if not wait:
            raise LockConflict(txn, obj, holders)
        self._waits_for[txn] |= holders
        cycle = self._find_cycle(txn)
        if cycle:
            self._waits_for.pop(txn, None)
            raise DeadlockError(txn, cycle)
        entry.waiters.append((txn, mode))

    def _find_cycle(self, start: TransactionId) -> Optional[List[TransactionId]]:
        seen: Set[TransactionId] = set()
        path: List[TransactionId] = []

        def visit(txn: TransactionId) -> Optional[List[TransactionId]]:
            if txn in path:
                return path[path.index(txn):]
            if txn in seen:
                return None
            seen.add(txn)
            path.append(txn)
            for other in self._waits_for.get(txn, ()):
                found = visit(other)
                if found:
                    return found
            path.pop()
            return None

        return visit(start)

    def transfer_all(self, child: TransactionId, parent: TransactionId) -> None:
        for obj in self._held.pop(child, set()):
            entry = self._table[obj]
            mode = entry.holders.pop(child, None)
            if mode is None:
                continue
            current = entry.holders.get(parent)
            if current is not LockMode.EXCLUSIVE:
                entry.holders[parent] = (
                    LockMode.EXCLUSIVE if mode is LockMode.EXCLUSIVE else
                    current or mode
                )
            self._held[parent].add(obj)
        self._waits_for.pop(child, None)
        for waiters in self._waits_for.values():
            waiters.discard(child)

    def release_all(self, txn: TransactionId) -> List[Tuple[TransactionId, ObjectId]]:
        grants: List[Tuple[TransactionId, ObjectId]] = []
        for obj in self._held.pop(txn, set()):
            entry = self._table[obj]
            entry.holders.pop(txn, None)
        self._waits_for.pop(txn, None)
        for waiters in self._waits_for.values():
            waiters.discard(txn)
        for entry in self._table.values():
            if any(waiter == txn for waiter, _mode in entry.waiters):
                entry.waiters = deque(
                    (waiter, mode) for waiter, mode in entry.waiters if waiter != txn
                )
        for obj, entry in list(self._table.items()):
            made_grant = True
            while made_grant and entry.waiters:
                waiter, mode = entry.waiters[0]
                if entry.compatible(waiter, mode):
                    entry.waiters.popleft()
                    entry.holders[waiter] = mode
                    self._held[waiter].add(obj)
                    self._waits_for.pop(waiter, None)
                    grants.append((waiter, obj))
                else:
                    made_grant = False
        return grants


TXNS = [TransactionId(n) for n in range(1, 6)]
OBJS = [ObjectId(name) for name in ("d", "b", "a", "c")]  # not in sorted order

# (kind, txn, object, mode, other txn); kinds are weighted towards
# acquisitions, so queues build up and a release has several objects'
# waiters to grant
_KINDS = ["try"] * 4 + ["wait"] * 4 + ["nowait", "transfer", "release", "release"]
_operation = st.tuples(
    st.sampled_from(_KINDS),
    st.sampled_from(TXNS),
    st.sampled_from(OBJS),
    st.sampled_from(list(LockMode)),
    st.sampled_from(TXNS),
)


def _apply(manager, operation):
    """Run one operation; return its result or the type of what it raised."""
    kind, txn, obj, mode, other = operation
    try:
        if kind == "try":
            return manager.try_acquire(txn, obj, mode)
        if kind == "wait":
            return manager.acquire(txn, obj, mode, wait=True)
        if kind == "nowait":
            return manager.acquire(txn, obj, mode, wait=False)
        if kind == "transfer":
            return manager.transfer_all(txn, other)
        return manager.release_all(txn)
    except (DeadlockError, LockConflict) as error:
        return type(error)


def _assert_same_state(indexed: LockManager, scan: ScanLockManager) -> None:
    for obj in OBJS:
        assert indexed.holders(obj) == scan.holders(obj), obj
    for txn in TXNS:
        assert indexed.held_by(txn) == scan.held_by(txn), txn
    assert indexed._waits_for == {t: w for t, w in scan._waits_for.items() if w}


@settings(max_examples=300, deadline=None)
@given(st.lists(_operation, min_size=10, max_size=100), st.permutations(TXNS))
def test_indexed_release_matches_scan(operations, release_order):
    indexed, scan = LockManager(), ScanLockManager()
    for operation in operations:
        got = _apply(indexed, operation)
        want = _apply(scan, operation)
        if operation[0] == "release":
            want = sorted(want, key=lambda grant: grant[1])
        assert got == want, operation
        _assert_same_state(indexed, scan)
    for txn in release_order:
        got = indexed.release_all(txn)
        want = sorted(scan.release_all(txn), key=lambda grant: grant[1])
        assert got == want
        _assert_same_state(indexed, scan)
    # once every transaction has released, nothing is left behind
    assert len(indexed) == 0
    assert not (indexed._held or indexed._queued or indexed._waits_for or indexed._regrant)
