"""Retry scheduling: exponential backoff, deterministic jitter, caps.

The execution service's sweeper used one global ``dispatch_timeout`` for
every unanswered flight.  :class:`RetryPolicy` replaces that with a
per-flight schedule: attempt *n* is awaited for ``base_delay *
multiplier**n`` (clamped to ``max_delay``), spread by a jitter fraction so
simultaneous flights do not retry in lock-step.  The jitter is **not**
random at run time — it is derived by hashing ``(seed, flight key,
attempt)``, so a replayed simulation (and a hypothesis test) sees the exact
same schedule.

``max_redispatches`` bounds the loop: a flight redispatched that many times
is *abandoned* — the execution service journals a system failure for the
task, which then takes the ordinary path of the paper's §3 semantics
(automatic retries per the task's ``retries`` property, then the first
declared abort outcome).  Forward progress is preserved either way; what the
cap removes is the unbounded retransmission of a request the fleet clearly
cannot serve.

``recovery_stagger`` spaces out the post-recovery redispatch herd: after a
coordinator crash every surviving flight must be re-sent, and doing so in
one burst is exactly the load spike that knocked the fleet over in the first
place.  :meth:`RetryPolicy.stagger` gives each flight a deterministic offset
in ``[0, recovery_stagger)``.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import List, Optional


def _unit(seed: int, material: str) -> float:
    """Deterministic pseudo-uniform draw in ``[0, 1)`` from hashed material."""
    return zlib.crc32(f"{seed}:{material}".encode()) / 2**32


@dataclass(frozen=True)
class RetryPolicy:
    """Backoff schedule for one dispatch flight.

    ``attempt`` throughout is the number of redispatches already performed:
    attempt 0 is the first send, whose reply is awaited ``~base_delay``.
    """

    base_delay: float = 30.0
    multiplier: float = 2.0
    max_delay: float = 120.0
    jitter: float = 0.15            # ± fraction applied to each delay
    max_redispatches: Optional[int] = 40   # None = retry forever
    recovery_stagger: float = 5.0   # window for post-recovery spreading
    seed: int = 0

    def __post_init__(self) -> None:
        if self.base_delay <= 0:
            raise ValueError("base_delay must be positive")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")

    # -- the schedule ------------------------------------------------------------

    def raw_delay(self, attempt: int) -> float:
        """Un-jittered backoff for ``attempt`` (clamped to ``max_delay``)."""
        return min(self.base_delay * self.multiplier ** max(attempt, 0), self.max_delay)

    def delay(self, key: str, attempt: int) -> float:
        """Jittered await-interval for ``attempt`` of flight ``key``.

        Deterministic: the same ``(seed, key, attempt)`` always yields the
        same delay, inside ``[raw * (1-jitter), raw * (1+jitter)]``.
        """
        raw = self.raw_delay(attempt)
        if self.jitter == 0.0:
            return raw
        spread = _unit(self.seed, f"{key}:{attempt}")  # [0, 1)
        return raw * (1.0 - self.jitter + 2.0 * self.jitter * spread)

    def next_attempt_at(self, key: str, attempt: int, now: float) -> float:
        """Absolute virtual time at which the flight becomes overdue."""
        return now + self.delay(key, attempt)

    def schedule(self, key: str, attempts: int) -> List[float]:
        """The first ``attempts`` jittered delays (for tests and reports)."""
        return [self.delay(key, n) for n in range(attempts)]

    # -- bounds -------------------------------------------------------------------

    def exhausted(self, redispatches: int) -> bool:
        """Has this flight used up its redispatch budget?"""
        return self.max_redispatches is not None and redispatches >= self.max_redispatches

    # -- cooperative overload backoff ---------------------------------------------

    def overload_backoff(self, key: str, attempt: int, retry_after: float = 0.0) -> float:
        """Client-side delay before retrying an ``Overloaded`` refusal.

        Never earlier than the service's deterministic ``retry_after`` hint,
        never in lock-step with other refused clients: the hint is stretched
        by this policy's jittered exponential schedule (keyed separately
        from dispatch flights, so the two schedules cannot correlate).
        """
        return max(retry_after, self.delay(f"overload:{key}", attempt))

    # -- recovery staggering ------------------------------------------------------

    def stagger(self, key: str) -> float:
        """Deterministic offset in ``[0, recovery_stagger)`` for flight ``key``."""
        if self.recovery_stagger <= 0:
            return 0.0
        return self.recovery_stagger * _unit(self.seed, f"stagger:{key}")
