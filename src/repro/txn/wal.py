"""Write-ahead log.

Redo-only logging: a transaction's updates are appended as ``UPDATE`` records
and become durable exactly when its ``COMMIT`` record is forced.  The log
lives in *stable storage* — in the simulation, a plain Python list attached to
a node's stable store that deliberately survives :meth:`Node.crash` — and can
optionally be mirrored to a JSON-lines file on disk for inspection.  The
mirror trails ``_forced_upto``: it receives records only when they are
*forced*, so after any crash — torn writes included — the file holds exactly
the durable prefix.

Two mirror disciplines (see docs/PROTOCOLS.md §11):

* **Per-force** (``group_commit=False``, the default): every ``force()``
  writes its records through a persistent file handle and fsyncs before
  returning — one physical sync per durability point.
* **Group commit** (``group_commit=True``): ``force()`` writes its records
  (buffered) but defers the fsync; adjacent forces coalesce behind a single
  :meth:`sync` issued by the caller's durability barrier, or automatically
  once ``group_max`` forces are pending.  Simulated durability
  (``_forced_upto``) is advanced per force exactly as before, and every
  crash path (:meth:`lose_unforced`, :meth:`torn_force`) syncs the pending
  mirror rows first, so post-mortem the file is still exactly the durable
  prefix.

Record kinds::

    BEGIN    txn
    UPDATE   txn, object, after-image
    PREPARE  txn                     (2PC participant vote)
    COMMIT   txn
    ABORT    txn
    CHECKPOINT snapshot              (compaction point)
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Optional

from ..core.instrument import IOPATH_STATS
from ..sim.crashpoints import crash_point
from .ids import ObjectId, TransactionId


BEGIN = "BEGIN"
UPDATE = "UPDATE"
PREPARE = "PREPARE"
COMMIT = "COMMIT"
ABORT = "ABORT"
CHECKPOINT = "CHECKPOINT"

_KINDS = {BEGIN, UPDATE, PREPARE, COMMIT, ABORT, CHECKPOINT}


@dataclass(frozen=True)
class LogRecord:
    """One durable log record."""

    lsn: int
    kind: str
    txn: Optional[TransactionId] = None
    obj: Optional[ObjectId] = None
    value: Any = None

    def to_json(self) -> str:
        return json.dumps(
            {
                "lsn": self.lsn,
                "kind": self.kind,
                "txn": [self.txn.number, self.txn.origin] if self.txn else None,
                "obj": self.obj.name if self.obj else None,
                "value": self.value,
            },
            default=repr,
        )


class WriteAheadLog:
    """Append-only redo log.

    ``force()`` is the durability point; appends before a force are volatile
    and are discarded by :meth:`lose_unforced` (which node crash invokes).
    """

    def __init__(
        self,
        mirror_path: Optional[str] = None,
        group_commit: bool = False,
        group_max: int = 128,
    ) -> None:
        self._records: List[LogRecord] = []
        self._forced_upto = 0  # index one past the last durable record
        self._next_lsn = 1
        self._mirror_path = mirror_path
        self._mirror_fh = None  # persistent handle, opened on first mirror write
        self.group_commit = group_commit
        self.group_max = max(1, group_max)
        self._pending_syncs = 0  # forces mirrored but not yet fsynced
        self.generation = 0  # bumped by reset(): LSNs restart at 1

    # -- append/force ------------------------------------------------------------

    def append(
        self,
        kind: str,
        txn: Optional[TransactionId] = None,
        obj: Optional[ObjectId] = None,
        value: Any = None,
    ) -> LogRecord:
        if kind not in _KINDS:
            raise ValueError(f"unknown log record kind {kind!r}")
        record = LogRecord(self._next_lsn, kind, txn, obj, value)
        self._next_lsn += 1
        self._records.append(record)
        return record

    def force(self) -> int:
        """Make all appended records durable; returns the durable LSN.

        In group-commit mode the simulated durability point is identical —
        ``_forced_upto`` advances here, and the ``wal.force.pre/post`` crash
        points bracket it exactly as before — only the physical fsync of the
        mirror file is deferred to the next :meth:`sync` barrier (or until
        ``group_max`` forces are pending)."""
        crash_point("wal.force.pre", self)
        IOPATH_STATS.wal_forces += 1
        start = self._forced_upto
        self._forced_upto = len(self._records)
        self._mirror(start, self._forced_upto)
        crash_point("wal.force.post", self)
        return self._records[-1].lsn if self._records else 0

    def torn_force(self) -> int:
        """A force cut short by a crash: every pending record except the last
        becomes durable; the last write is torn and will be discarded by
        :meth:`lose_unforced` (recovery drops a record with a bad checksum).
        Returns how many records were made durable.

        Only meaningful from a crash injector — normal operation never
        half-forces.  The on-disk mirror receives exactly the records that
        became durable, so mirror and simulated stable storage agree.
        """
        target = len(self._records) - 1
        if target <= self._forced_upto:
            self.sync()  # coalesced rows from earlier forces still hit disk
            return 0  # zero or one pending record: nothing becomes durable
        start = self._forced_upto
        self._forced_upto = target
        self._mirror(start, target)
        self.sync()
        return target - start

    def _mirror(self, start: int, end: int) -> None:
        """Append records ``[start, end)`` to the JSON-lines mirror.

        The mirror only ever receives *forced* records — it trails
        ``_forced_upto``, never the volatile tail — so after any crash the
        file is exactly the durable prefix.  Writes go through a persistent
        handle (reopening the file per force cost more than the write
        itself); per-force mode fsyncs immediately, group-commit mode marks
        the rows pending and leaves the fsync to the next :meth:`sync`
        barrier.
        """
        if end <= start:
            return
        if not self._mirror_path:
            # no physical mirror: still account the sync discipline, so the
            # fsyncs-per-step counters are meaningful in pure simulation
            if self.group_commit:
                self._pending_syncs += 1
                if self._pending_syncs >= self.group_max:
                    self.sync()
            else:
                IOPATH_STATS.wal_syncs += 1
            return
        if self._mirror_fh is None:
            self._mirror_fh = open(self._mirror_path, "a", encoding="utf-8")
        fh = self._mirror_fh
        fh.write("".join(record.to_json() + "\n" for record in self._records[start:end]))
        fh.flush()  # visible to same-host readers; durability is the fsync
        IOPATH_STATS.wal_records_mirrored += end - start
        if self.group_commit:
            self._pending_syncs += 1
            if self._pending_syncs >= self.group_max:
                self.sync()
        else:
            os.fsync(fh.fileno())
            IOPATH_STATS.wal_syncs += 1

    def sync(self) -> bool:
        """Group-commit barrier: fsync every mirror row written since the
        last sync, in one physical operation.  Returns True if a sync was
        actually performed (False when nothing was pending).  Callers invoke
        this before any externally observable action that depends on a
        force — that is what bounds the coalescing window."""
        if self._pending_syncs == 0:
            return False
        self._pending_syncs = 0
        if self._mirror_fh is not None:
            os.fsync(self._mirror_fh.fileno())
        IOPATH_STATS.wal_syncs += 1
        return True

    def close(self) -> None:
        """Sync and release the persistent mirror handle."""
        self.sync()
        if self._mirror_fh is not None:
            self._mirror_fh.close()
            self._mirror_fh = None

    def reset(self) -> None:
        """Discard the entire log and restart LSN numbering.

        This is *not* a crash path: it models a standby wiping its local
        stable storage before a full resync from the primary (the shipped
        log is checkpoint-rooted, so the replacement prefix is complete).
        Pending mirror rows are synced first so the on-disk file never
        claims records the reborn log does not have.
        """
        self.sync()
        self._records = []
        self._forced_upto = 0
        self._next_lsn = 1
        self.generation += 1

    def lose_unforced(self) -> int:
        """Simulate a crash: drop records appended since the last force.
        Returns how many records were lost.  Pending group-commit rows are
        synced first: they cover records *before* ``_forced_upto``, so after
        the crash the mirror file is still exactly the durable prefix."""
        self.sync()
        lost = len(self._records) - self._forced_upto
        del self._records[self._forced_upto:]
        return lost

    # -- reading ---------------------------------------------------------------

    def durable_records(self) -> Iterator[LogRecord]:
        """Iterate records that survived (i.e. were forced)."""
        return iter(self._records[: self._forced_upto])

    def durable_since(self, lsn: int) -> List[LogRecord]:
        """Durable records with an LSN above ``lsn``, in log order: what a
        replay cursor or a replication cursor at ``lsn`` has not seen yet.
        O(log n + result): retained LSNs increase, so the start is bisected."""
        records = self._records
        low, high = 0, self._forced_upto
        while low < high:
            mid = (low + high) // 2
            if records[mid].lsn <= lsn:
                low = mid + 1
            else:
                high = mid
        return records[low:self._forced_upto]

    def all_records(self) -> Iterator[LogRecord]:
        return iter(self._records)

    def __len__(self) -> int:
        return len(self._records)

    @property
    def durable_length(self) -> int:
        return self._forced_upto

    @property
    def last_durable_lsn(self) -> int:
        """LSN of the newest durable record (0 when nothing is durable yet).

        LSNs are stable across checkpoint truncation, which makes them the
        cursor replication ships by (docs/PROTOCOLS.md §12)."""
        return self._records[self._forced_upto - 1].lsn if self._forced_upto else 0

    @property
    def first_retained_lsn(self) -> int:
        """LSN of the oldest record still in the log (0 when empty).  A
        replication cursor pointing before this has been checkpoint-truncated
        away and the follower needs a full resync."""
        return self._records[0].lsn if self._records else 0

    # -- compaction ---------------------------------------------------------------

    def checkpoint(self, snapshot: Dict[str, Any], keep: Iterable[TransactionId] = ()) -> None:
        """Write a checkpoint carrying a full committed snapshot, force it and
        truncate everything before it — except the records of the ``keep``
        transactions (prepared, outcome still unknown), which the snapshot
        cannot cover: they stay, in LSN order, ahead of the checkpoint.

        Crash-consistent at every step: before the force the CHECKPOINT
        record is volatile (recovery sees the pre-compaction log); after the
        force but before the truncation the durable log ends in a CHECKPOINT
        whose replay supersedes everything before it but the kept
        transactions (recovery sees the post-compaction state); the
        truncation itself only discards records the checkpoint already
        covers.  There is no half-compacted state.
        """
        crash_point("wal.checkpoint.pre", self)
        record = self.append(CHECKPOINT, value=snapshot)
        self.force()
        self.sync()  # compaction is a durability barrier: drain the window
        crash_point("wal.checkpoint.forced", self)
        index = self._records.index(record)
        keep = set(keep)
        carried = [rec for rec in self._records[:index] if rec.txn in keep] if keep else []
        self._records = carried + self._records[index:]
        self._forced_upto = len(self._records)
        crash_point("wal.checkpoint.post", self)


class ReplayState:
    """What a replay carries from one call to the next.

    ``committed`` is the image folded so far, ``pending`` the update records
    of transactions that began but have no COMMIT or ABORT yet, ``prepared``
    the transactions among those that voted (an insertion-ordered set), and
    ``lsn`` the LSN of the last record folded — the cursor the next fold
    starts after.  ``generation`` names the log incarnation the cursor
    belongs to (see :meth:`WriteAheadLog.reset`).
    """

    __slots__ = ("committed", "pending", "prepared", "lsn", "generation")

    def __init__(self, generation: int = 0) -> None:
        self.committed: Dict[str, Any] = {}
        self.pending: Dict[TransactionId, List[LogRecord]] = {}
        self.prepared: Dict[TransactionId, bool] = {}
        self.lsn = 0
        self.generation = generation


def replay(records: Iterable[LogRecord], state: Optional[ReplayState] = None) -> Dict[str, Any]:
    """Rebuild the committed state from a durable record stream.

    Only updates of transactions whose COMMIT record is present take effect
    (redo-only, presumed abort for the rest) — the standard recovery rule the
    execution service's guarantees rest on.

    With ``state``, the records are folded into it — they must be the
    durable records following ``state.lsn`` — and its ``committed`` image is
    returned; without, the stream is replayed from scratch.
    """
    if state is None:
        state = ReplayState()
    snapshot = state.committed
    pending = state.pending
    prepared = state.prepared
    lsn = state.lsn
    for record in records:
        kind = record.kind
        if kind == UPDATE:
            pending.setdefault(record.txn, []).append(record)
        elif kind == BEGIN:
            pending[record.txn] = []
        elif kind == COMMIT:
            for update in pending.pop(record.txn, ()):
                snapshot[update.obj.name] = update.value
            prepared.pop(record.txn, None)
        elif kind == ABORT:
            pending.pop(record.txn, None)
            prepared.pop(record.txn, None)
        elif kind == PREPARE:
            # the txn stays pending; its outcome is resolved by the
            # coordinator (see repro.txn.recovery)
            prepared[record.txn] = True
        elif kind == CHECKPOINT:
            # the snapshot supersedes every decided transaction; a prepared
            # one still awaits its outcome (checkpoint() keeps its records)
            snapshot.clear()
            snapshot.update(record.value or {})
            for txn in [txn for txn in pending if txn not in prepared]:
                del pending[txn]
        lsn = record.lsn
    state.lsn = lsn
    return snapshot


def in_doubt(records: Iterable[LogRecord]) -> List[TransactionId]:
    """Transactions that PREPAREd but have no COMMIT/ABORT in the stream
    (a checkpoint does not decide them)."""
    state = ReplayState()
    replay(records, state)
    return sorted(state.prepared)
