"""Unit tests for the strict-2PL lock manager."""

import pytest

from repro.txn.ids import ObjectId, TransactionId
from repro.txn.locks import DeadlockError, LockConflict, LockManager, LockMode

T1, T2, T3 = TransactionId(1), TransactionId(2), TransactionId(3)
A, B = ObjectId("a"), ObjectId("b")


@pytest.fixture
def locks():
    return LockManager()


class TestBasicModes:
    def test_exclusive_acquire(self, locks):
        assert locks.try_acquire(T1, A, LockMode.EXCLUSIVE)
        assert locks.mode_of(T1, A) is LockMode.EXCLUSIVE

    def test_shared_locks_compatible(self, locks):
        assert locks.try_acquire(T1, A, LockMode.SHARED)
        assert locks.try_acquire(T2, A, LockMode.SHARED)

    def test_exclusive_blocks_shared(self, locks):
        locks.try_acquire(T1, A, LockMode.EXCLUSIVE)
        assert not locks.try_acquire(T2, A, LockMode.SHARED)

    def test_shared_blocks_exclusive(self, locks):
        locks.try_acquire(T1, A, LockMode.SHARED)
        assert not locks.try_acquire(T2, A, LockMode.EXCLUSIVE)

    def test_reacquire_same_mode_is_noop(self, locks):
        locks.try_acquire(T1, A, LockMode.SHARED)
        assert locks.try_acquire(T1, A, LockMode.SHARED)

    def test_upgrade_by_sole_holder(self, locks):
        locks.try_acquire(T1, A, LockMode.SHARED)
        assert locks.try_acquire(T1, A, LockMode.EXCLUSIVE)
        assert locks.mode_of(T1, A) is LockMode.EXCLUSIVE

    def test_upgrade_refused_with_other_sharers(self, locks):
        locks.try_acquire(T1, A, LockMode.SHARED)
        locks.try_acquire(T2, A, LockMode.SHARED)
        assert not locks.try_acquire(T1, A, LockMode.EXCLUSIVE)

    def test_exclusive_holder_may_downgrade_request(self, locks):
        locks.try_acquire(T1, A, LockMode.EXCLUSIVE)
        assert locks.try_acquire(T1, A, LockMode.SHARED)
        # holding exclusive already covers shared
        assert locks.mode_of(T1, A) is LockMode.EXCLUSIVE


class TestConflictsAndRelease:
    def test_acquire_raises_lock_conflict(self, locks):
        locks.try_acquire(T1, A, LockMode.EXCLUSIVE)
        with pytest.raises(LockConflict) as info:
            locks.acquire(T2, A, LockMode.SHARED)
        assert info.value.holders == {T1}

    def test_release_all_frees_objects(self, locks):
        locks.try_acquire(T1, A, LockMode.EXCLUSIVE)
        locks.try_acquire(T1, B, LockMode.SHARED)
        locks.release_all(T1)
        assert locks.try_acquire(T2, A, LockMode.EXCLUSIVE)
        assert locks.try_acquire(T2, B, LockMode.EXCLUSIVE)

    def test_held_by_tracks_objects(self, locks):
        locks.try_acquire(T1, A, LockMode.SHARED)
        locks.try_acquire(T1, B, LockMode.EXCLUSIVE)
        assert locks.held_by(T1) == {A, B}

    def test_release_grants_to_fifo_waiter(self, locks):
        locks.try_acquire(T1, A, LockMode.EXCLUSIVE)
        locks.acquire(T2, A, LockMode.EXCLUSIVE, wait=True)
        grants = locks.release_all(T1)
        assert (T2, A) in grants
        assert locks.mode_of(T2, A) is LockMode.EXCLUSIVE

    def test_release_grants_multiple_compatible_shared_waiters(self, locks):
        locks.try_acquire(T1, A, LockMode.EXCLUSIVE)
        locks.acquire(T2, A, LockMode.SHARED, wait=True)
        locks.acquire(T3, A, LockMode.SHARED, wait=True)
        grants = locks.release_all(T1)
        assert {(T2, A), (T3, A)} <= set(grants)


class TestDeadlock:
    def test_two_party_deadlock_detected(self, locks):
        locks.try_acquire(T1, A, LockMode.EXCLUSIVE)
        locks.try_acquire(T2, B, LockMode.EXCLUSIVE)
        locks.acquire(T1, B, LockMode.EXCLUSIVE, wait=True)  # T1 waits on T2
        with pytest.raises(DeadlockError):
            locks.acquire(T2, A, LockMode.EXCLUSIVE, wait=True)

    def test_three_party_cycle_detected(self, locks):
        C = ObjectId("c")
        locks.try_acquire(T1, A, LockMode.EXCLUSIVE)
        locks.try_acquire(T2, B, LockMode.EXCLUSIVE)
        locks.try_acquire(T3, C, LockMode.EXCLUSIVE)
        locks.acquire(T1, B, LockMode.EXCLUSIVE, wait=True)
        locks.acquire(T2, C, LockMode.EXCLUSIVE, wait=True)
        with pytest.raises(DeadlockError):
            locks.acquire(T3, A, LockMode.EXCLUSIVE, wait=True)

    def test_waiting_without_cycle_is_fine(self, locks):
        locks.try_acquire(T1, A, LockMode.EXCLUSIVE)
        locks.acquire(T2, A, LockMode.EXCLUSIVE, wait=True)  # no cycle
        assert locks.mode_of(T2, A) is None  # still waiting

    def test_release_clears_waits_for_edges(self, locks):
        locks.try_acquire(T1, A, LockMode.EXCLUSIVE)
        locks.acquire(T2, A, LockMode.EXCLUSIVE, wait=True)
        locks.release_all(T2)  # waiter gives up
        locks.release_all(T1)
        assert locks.try_acquire(T3, A, LockMode.EXCLUSIVE)


class TestTableStaysBounded:
    def test_queries_of_unknown_objects_leave_table_unchanged(self, locks):
        locks.try_acquire(T1, A, LockMode.EXCLUSIVE)
        before = len(locks)
        for name in ("x", "y", "z"):
            assert locks.holders(ObjectId(name)) == {}
            assert locks.mode_of(T1, ObjectId(name)) is None
        assert locks.held_by(T2) == set()
        assert len(locks) == before == 1

    def test_release_deletes_entries_without_holders_or_waiters(self, locks):
        locks.try_acquire(T1, A, LockMode.EXCLUSIVE)
        locks.try_acquire(T1, B, LockMode.SHARED)
        locks.try_acquire(T2, B, LockMode.SHARED)
        locks.release_all(T1)
        assert len(locks) == 1  # b is still held by T2
        locks.release_all(T2)
        assert len(locks) == 0

    def test_release_while_queued_removes_the_waiter(self, locks):
        locks.try_acquire(T1, A, LockMode.EXCLUSIVE)
        locks.acquire(T2, A, LockMode.EXCLUSIVE, wait=True)
        assert locks.release_all(T2) == []
        assert locks.release_all(T1) == []
        assert len(locks) == 0

    def test_grants_are_reported_in_object_order(self, locks):
        C = ObjectId("c")
        for obj in (C, A, B):
            locks.try_acquire(T1, obj, LockMode.EXCLUSIVE)
        locks.acquire(T2, C, LockMode.EXCLUSIVE, wait=True)
        locks.acquire(T3, A, LockMode.SHARED, wait=True)
        locks.acquire(T2, A, LockMode.SHARED, wait=True)
        assert locks.release_all(T1) == [(T3, A), (T2, A), (T2, C)]

    def test_transfer_lets_next_release_grant_the_parent(self, locks):
        child, parent = T1, T2
        locks.try_acquire(child, A, LockMode.EXCLUSIVE)
        locks.acquire(parent, A, LockMode.EXCLUSIVE, wait=True)
        locks.transfer_all(child, parent)  # parent now holds A, still queued
        assert locks.release_all(T3) == [(parent, A)]
