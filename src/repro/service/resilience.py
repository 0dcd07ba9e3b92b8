"""Resilience primitives for the compile service: deterministic retry
backoff and the clocks it sleeps on.

Everything here obeys the same determinism discipline as
:mod:`repro.faults`: no global random state, no wall-clock dependence in
decisions.  Backoff jitter is a counter-based hash of (fingerprint,
attempt), and sleeping goes through a :class:`Clock` so tests
substitute :class:`SimClock` and never call ``time.sleep``.
"""

from __future__ import annotations

import hashlib
import threading
import time

__all__ = [
    "Clock",
    "SystemClock",
    "SimClock",
    "backoff_s",
]


class Clock:
    """The time source the service sleeps and measures on."""

    def now(self) -> float:  # pragma: no cover - interface
        raise NotImplementedError

    def sleep(self, seconds: float) -> None:  # pragma: no cover - interface
        raise NotImplementedError


class SystemClock(Clock):
    """Real monotonic time + real sleeping (the production default)."""

    def now(self) -> float:
        return time.monotonic()

    def sleep(self, seconds: float) -> None:
        if seconds > 0:
            time.sleep(seconds)


class SimClock(Clock):
    """A simulated clock: ``sleep`` advances time instantly and records
    the request.  Tests assert on ``sleeps`` instead of waiting —
    ``time.sleep`` never runs under a SimClock."""

    def __init__(self, start_s: float = 0.0) -> None:
        self._now = start_s
        self._lock = threading.Lock()
        self.sleeps: list[float] = []

    def now(self) -> float:
        with self._lock:
            return self._now

    def sleep(self, seconds: float) -> None:
        with self._lock:
            self._now += max(seconds, 0.0)
            self.sleeps.append(seconds)


#: retry backoff: the delay before retry *k* (0-based) is
#: ``min(BACKOFF_BASE_S * BACKOFF_MULTIPLIER**k, BACKOFF_MAX_S)`` scaled
#: by a jitter factor in ``[1 - BACKOFF_JITTER, 1 + BACKOFF_JITTER)``
BACKOFF_BASE_S = 0.02
BACKOFF_MULTIPLIER = 2.0
BACKOFF_MAX_S = 1.0
BACKOFF_JITTER = 0.5


def backoff_s(fingerprint: str, attempt: int) -> float:
    """The sleep before retry *attempt* (0-based) of *fingerprint*:
    exponential, capped, with a jitter hashed from (fingerprint,
    attempt) — reproducible, but de-synchronized across fingerprints so
    a burst of transient failures does not retry in lock-step (same
    hashing discipline as :func:`repro.faults.plan._hash01`)."""
    digest = hashlib.sha256(
        f"repro-backoff-v1|0|{fingerprint}|{attempt}".encode()
    ).digest()
    jitter01 = int.from_bytes(digest[:8], "big") / float(1 << 64)
    base = min(BACKOFF_BASE_S * BACKOFF_MULTIPLIER ** attempt, BACKOFF_MAX_S)
    return base * (1.0 + BACKOFF_JITTER * (2.0 * jitter01 - 1.0))
