"""Lock manager: strict two-phase locking with deadlock detection.

Two acquisition disciplines are offered:

* ``try_acquire`` — non-blocking; on conflict the caller typically aborts and
  retries (the execution service uses this: its transactions are short).
* ``acquire(..., wait=True)`` — enqueue behind the conflicting holders; a
  waits-for cycle raises :class:`DeadlockError` for the requester closing the
  cycle (its transaction should abort).

Locks are held until :meth:`release_all` at commit/abort — strict 2PL, which
is what gives the paper's atomic objects serialisable updates.
"""

from __future__ import annotations

import enum
from collections import defaultdict, deque
from typing import Deque, Dict, Iterable, List, Optional, Set, Tuple

from .ids import ObjectId, TransactionId


class LockMode(enum.Enum):
    SHARED = "shared"
    EXCLUSIVE = "exclusive"


class LockConflict(RuntimeError):
    """Non-blocking acquisition failed."""

    def __init__(self, txn: TransactionId, obj: ObjectId, holders: Set[TransactionId]) -> None:
        super().__init__(f"{txn} cannot lock {obj}: held by {sorted(holders)}")
        self.txn = txn
        self.obj = obj
        self.holders = set(holders)


class DeadlockError(RuntimeError):
    """Blocking acquisition would create a waits-for cycle."""

    def __init__(self, txn: TransactionId, cycle: List[TransactionId]) -> None:
        super().__init__(f"deadlock: {txn} joins cycle {cycle}")
        self.txn = txn
        self.cycle = cycle


class _LockEntry:
    """One object's lock: its holders and its FIFO queue of waiters."""

    __slots__ = ("holders", "waiters")

    def __init__(self) -> None:
        self.holders: Dict[TransactionId, LockMode] = {}
        self.waiters: Deque[Tuple[TransactionId, LockMode]] = deque()

    def compatible(self, txn: TransactionId, mode: LockMode) -> bool:
        for other, held in self.holders.items():
            if other != txn and (mode is LockMode.EXCLUSIVE or held is LockMode.EXCLUSIVE):
                return False
        return True


class LockManager:
    """Table of object locks, one per store.

    Release and transfer cost O(what the transaction touches), never
    O(table): the table holds an entry only while the object has a holder
    or a waiter, and each transaction indexes the objects it holds (``_held``)
    and the objects it has queued on (``_queued``).  Releasing a transaction
    visits exactly those objects; its waits-for edges are found in the
    queues of the objects it held, the only place a waiter on it can be.
    """

    def __init__(self) -> None:
        self._table: Dict[ObjectId, _LockEntry] = {}
        self._held: Dict[TransactionId, Set[ObjectId]] = defaultdict(set)
        # objects a transaction has queued on, until it releases
        self._queued: Dict[TransactionId, Set[ObjectId]] = defaultdict(set)
        # waits-for graph: txn -> transactions it waits on (no empty sets)
        self._waits_for: Dict[TransactionId, Set[TransactionId]] = {}
        # objects whose holders ``transfer_all`` changed while they had
        # waiters: their queues join the next release's grant pass
        self._regrant: Set[ObjectId] = set()

    # -- queries (read-only) -----------------------------------------------------

    def holders(self, obj: ObjectId) -> Dict[TransactionId, LockMode]:
        entry = self._table.get(obj)
        return dict(entry.holders) if entry is not None else {}

    def held_by(self, txn: TransactionId) -> Set[ObjectId]:
        return set(self._held.get(txn, ()))

    def mode_of(self, txn: TransactionId, obj: ObjectId) -> Optional[LockMode]:
        entry = self._table.get(obj)
        return entry.holders.get(txn) if entry is not None else None

    def __len__(self) -> int:
        """Objects with a holder or a waiter."""
        return len(self._table)

    # -- acquisition ----------------------------------------------------------

    def try_acquire(self, txn: TransactionId, obj: ObjectId, mode: LockMode) -> bool:
        """Acquire without waiting.  Returns False (and acquires nothing) if a
        conflicting holder exists.  Lock upgrades (shared -> exclusive by the
        sole holder) are supported."""
        entry = self._table.get(obj)
        if entry is None:
            entry = self._table[obj] = _LockEntry()
        else:
            current = entry.holders.get(txn)
            if current is LockMode.EXCLUSIVE or current is mode:
                return True
            if not entry.compatible(txn, mode):
                return False
        entry.holders[txn] = mode
        self._held[txn].add(obj)
        return True

    def acquire(self, txn: TransactionId, obj: ObjectId, mode: LockMode, wait: bool = False) -> None:
        """Acquire, raising :class:`LockConflict` (``wait=False``) or
        registering as a waiter and raising :class:`DeadlockError` on a
        waits-for cycle (``wait=True``)."""
        if self.try_acquire(txn, obj, mode):
            return
        entry = self._table[obj]
        holders = {t for t in entry.holders if t != txn}
        if not wait:
            raise LockConflict(txn, obj, holders)
        self._waits_for.setdefault(txn, set()).update(holders)
        cycle = self._find_cycle(txn)
        if cycle:
            self._waits_for.pop(txn, None)
            raise DeadlockError(txn, cycle)
        entry.waiters.append((txn, mode))
        self._queued[txn].add(obj)

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

    def _drop_waits_on(self, txn: TransactionId, held: Iterable[ObjectId]) -> None:
        """Drop ``txn``'s waits-for edges, both ways.  An edge ``w -> txn``
        exists only while ``w`` is queued on an object ``txn`` holds, so the
        queues of ``held`` name every such ``w``."""
        self._waits_for.pop(txn, None)
        waits_for = self._waits_for
        for obj in held:
            for waiter, _mode in self._table[obj].waiters:
                edges = waits_for.get(waiter)
                if edges is not None and txn in edges:
                    edges.discard(txn)
                    if not edges:
                        del waits_for[waiter]

    # -- lock inheritance (nested transactions) ---------------------------------

    def transfer_all(self, child: TransactionId, parent: TransactionId) -> None:
        """Move every lock held by ``child`` to ``parent`` (Arjuna-style lock
        anti-inheritance: a committing nested transaction's locks are
        retained by its parent rather than released)."""
        held = self._held.pop(child, set())
        self._drop_waits_on(child, held)
        for obj in held:
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
            if entry.waiters:
                self._regrant.add(obj)

    # -- release --------------------------------------------------------------

    def release_all(self, txn: TransactionId) -> List[Tuple[TransactionId, ObjectId]]:
        """Release every lock held by ``txn`` (strict 2PL release point) and
        grant queued waiters where now possible.  Returns the grants made as
        ``(waiter, object)`` pairs, objects in ``ObjectId`` order and each
        object's waiters in FIFO order, so the caller can resume those
        transactions."""
        table = self._table
        held = self._held.pop(txn, set())
        self._drop_waits_on(txn, held)
        for obj in held:
            table[obj].holders.pop(txn, None)
        touched = held
        queued = self._queued.pop(txn, None)
        if queued:
            # it may have been waiting elsewhere when it aborted
            for obj in queued:
                entry = table.get(obj)
                if entry is not None and any(waiter == txn for waiter, _mode in entry.waiters):
                    entry.waiters = deque(
                        (waiter, mode) for waiter, mode in entry.waiters if waiter != txn
                    )
            touched = touched | queued
        if self._regrant:
            touched = touched | self._regrant
            self._regrant = set()
        waiting: List[ObjectId] = []
        for obj in touched:
            entry = table.get(obj)
            if entry is None:
                continue
            if entry.waiters:
                waiting.append(obj)
            elif not entry.holders:
                del table[obj]
        grants: List[Tuple[TransactionId, ObjectId]] = []
        # grant pass: admit compatible waiters FIFO.  It leaves every entry
        # with a holder: a queue head with no other holder is compatible.
        for obj in sorted(waiting):
            entry = table[obj]
            while entry.waiters:
                waiter, mode = entry.waiters[0]
                if not entry.compatible(waiter, mode):
                    break
                entry.waiters.popleft()
                entry.holders[waiter] = mode
                self._held[waiter].add(obj)
                self._waits_for.pop(waiter, None)
                grants.append((waiter, obj))
        return grants
