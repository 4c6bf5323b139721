"""Durable object store.

One :class:`ObjectStore` models one node's stable storage, holding the
committed states of persistent atomic objects plus the write-ahead log that
makes updates recoverable.  The in-memory ``committed`` map is just a cache of
what the durable log says; :meth:`crash` drops unforced log records and
rebuilds the cache from the log — the store's entire crash semantics.
:meth:`recover` keeps the replay's state between calls and folds in only the
durable records it has not seen, so a standby applying a shipped batch pays
for the batch, not for the history.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, KeysView, List, Optional

from ..sim.crashpoints import crash_point
from .ids import ObjectId, TransactionId
from .locks import LockManager
from . import wal as wal_mod
from .wal import WriteAheadLog


class NoSuchObject(KeyError):
    """Read of an object that has never been committed."""


class ObjectStore:
    """Stable storage for one node: committed object images + WAL + locks."""

    def __init__(
        self,
        name: str,
        mirror_path: Optional[str] = None,
        group_commit: bool = False,
        group_max: int = 128,
    ) -> None:
        self.name = name
        self.wal = WriteAheadLog(mirror_path, group_commit=group_commit, group_max=group_max)
        self.locks = LockManager()
        self._replay = wal_mod.ReplayState()
        self._committed: Dict[str, Any] = self._replay.committed

    # -- committed-state access -------------------------------------------------

    def read_committed(self, key: str) -> Any:
        try:
            return self._committed[key]
        except KeyError:
            raise NoSuchObject(key) from None

    def get_committed(self, key: str, default: Any = None) -> Any:
        return self._committed.get(key, default)

    def get_committed_many(self, keys: Iterable[str], default: Any = None) -> List[Any]:
        """Batched committed read: one store round-trip for a whole key range
        (an instance journal, a scan) instead of one ``get_committed`` per
        key.  Missing keys yield ``default`` at their position."""
        committed = self._committed
        return [committed.get(key, default) for key in keys]

    def exists(self, key: str) -> bool:
        return key in self._committed

    def keys(self) -> KeysView[str]:
        return self._committed.keys()

    def snapshot(self) -> Dict[str, Any]:
        return dict(self._committed)

    # -- transactional application (called by the transaction manager) ----------

    def log_updates(self, txn: TransactionId, writes: Dict[str, Any]) -> None:
        """Append BEGIN+UPDATE records for ``writes`` (not yet durable)."""
        self.wal.append(wal_mod.BEGIN, txn)
        for key, value in writes.items():
            self.wal.append(wal_mod.UPDATE, txn, ObjectId(key), value)
        crash_point("store.log_updates.post", self)

    def prepare(self, txn: TransactionId) -> None:
        """2PC vote: force a PREPARE record."""
        crash_point("store.prepare.pre", self)
        self.wal.append(wal_mod.PREPARE, txn)
        self.wal.force()
        crash_point("store.prepare.post", self)

    def commit(self, txn: TransactionId, writes: Dict[str, Any]) -> None:
        """Force the COMMIT record, then install the after-images."""
        crash_point("store.commit.pre", self)
        self.wal.append(wal_mod.COMMIT, txn)
        self.wal.force()
        crash_point("store.commit.forced", self)
        self._committed.update(writes)
        crash_point("store.commit.post", self)

    def abort(self, txn: TransactionId) -> None:
        crash_point("store.abort.pre", self)
        self.wal.append(wal_mod.ABORT, txn)
        self.wal.force()

    def sync(self) -> bool:
        """Group-commit barrier: drain the WAL's pending mirror syncs."""
        return self.wal.sync()

    # -- failure model -----------------------------------------------------------

    def crash(self) -> int:
        """Lose volatile state: unforced log records vanish and the committed
        cache is rebuilt from the durable log.  Returns records lost.

        The lock table is volatile too — locks held by transactions that were
        in flight at crash time die with them, so recovery-time transactions
        start against a clean table instead of deadlocking on ghosts.
        """
        lost = self.wal.lose_unforced()
        self._replay_all()
        self.locks = LockManager()
        return lost

    def recover(self) -> None:
        """Bring the committed cache up to the durable log (idempotent).

        Folds the durable records past the replay cursor into the cache.
        Only a cursor the log no longer continues — the log was reset, or
        checkpoint truncation dropped records the cursor has not seen —
        replays the whole retained log instead.
        """
        wal = self.wal
        state = self._replay
        if state.generation != wal.generation or state.lsn < wal.first_retained_lsn - 1:
            self._replay_all()
        else:
            wal_mod.replay(wal.durable_since(state.lsn), state)

    def _replay_all(self) -> None:
        self._replay = wal_mod.ReplayState(self.wal.generation)
        self._committed = wal_mod.replay(self.wal.durable_records(), self._replay)

    def in_doubt(self) -> List[TransactionId]:
        """Transactions prepared here whose outcome is unknown locally (after
        :meth:`recover`, which this calls)."""
        self.recover()
        return sorted(self._replay.prepared)

    def logged_writes(self, txn: TransactionId) -> Dict[str, Any]:
        """The after-images ``txn`` logged here that still await its outcome:
        exactly what replay installs if a COMMIT for it is logged now.
        Current as of the last :meth:`recover` / :meth:`in_doubt`."""
        return {update.obj.name: update.value for update in self._replay.pending.get(txn, ())}

    def checkpoint(self) -> None:
        """Compact the log around the current committed snapshot.  In-doubt
        transactions keep their logged records: the snapshot holds only
        decided state, and their outcome may still be commit."""
        in_doubt = self.in_doubt()  # recovers first: the snapshot is current
        self.wal.checkpoint(self.snapshot(), keep=in_doubt)
