"""Crash recovery for stores participating in two-phase commit.

Single-store (one-phase) recovery is fully handled by
:meth:`ObjectStore.recover` — redo committed transactions, presume-abort the
rest.  Stores that hold PREPARE records without a matching decision are *in
doubt* and must ask the coordinator; this module implements that resolution
step.
"""

from __future__ import annotations

from typing import Callable, Dict

from .ids import TransactionId
from .manager import TransactionManager
from .store import ObjectStore


def resolve_in_doubt(store: ObjectStore, decide: Callable[[TransactionId], bool]) -> Dict[TransactionId, bool]:
    """Resolve every in-doubt transaction in ``store``.

    ``decide(tid)`` returns the coordinator's verdict (True = commit).  For
    each in-doubt transaction the outcome record is appended and, on commit,
    its logged after-images are installed.  Returns the decisions applied.

    One fold of the log serves every transaction: :meth:`ObjectStore.in_doubt`
    brings the store's replay state up to date, and that state already holds
    each pending transaction's logged writes.
    """
    decisions: Dict[TransactionId, bool] = {}
    for tid in store.in_doubt():
        committed = bool(decide(tid))
        decisions[tid] = committed
        if committed:
            store.commit(tid, store.logged_writes(tid))
        else:
            store.abort(tid)
    return decisions


def recover_with_coordinator(store: ObjectStore, manager: TransactionManager) -> Dict[TransactionId, bool]:
    """Full recovery of ``store``: replay the durable log, then resolve any
    in-doubt prepared transactions against ``manager``'s decision log."""
    store.recover()
    return resolve_in_doubt(store, manager.decision)

