"""Admission control for the compile daemon: queue bounds + token buckets.

Two independent gates run *before* any compile work is queued, so an
overloaded daemon fails fast with an explicit 429-style rejection
instead of letting latency grow without bound:

* :class:`AdmissionController` — a global bound on admitted-but-
  unfinished work (queue depth).  Depth is counted in *points* (a sweep
  of 72 points costs 72), matching the unit the scheduler actually
  queues.
* :class:`TokenBucket` per client — sustained-rate + burst quotas.
  Buckets refill continuously on an injectable
  :class:`~repro.service.resilience.Clock`, so tests drive them on a
  :class:`~repro.service.resilience.SimClock` and never sleep.

Draining is a third, terminal state: a daemon that received ``shutdown``
finishes everything already admitted and answers 503 to everything new —
clients distinguish "busy, retry" (429) from "going away, go elsewhere"
(503) by code.

Every decision is returned as an :class:`Admission` value, never an
exception: the daemon turns refusals into protocol error frames, and the
decisions are counted (admitted points, rejections per reason) as
``server.*`` counters in the controller's registry — the daemon's
service registry when the daemon builds it.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from ..service.resilience import Clock, SystemClock
from ..telemetry.registry import MetricsRegistry

__all__ = ["Admission", "AdmissionController", "TokenBucket"]


@dataclass(frozen=True)
class Admission:
    """One admission decision.  ``allowed`` or a refusal with a machine-
    readable ``reason`` in {"queue-full", "quota", "draining"} and a
    human-readable ``detail``."""

    allowed: bool
    reason: str = ""
    detail: str = ""

    @classmethod
    def ok(cls) -> "Admission":
        return cls(True)

    @classmethod
    def refuse(cls, reason: str, detail: str) -> "Admission":
        return cls(False, reason, detail)


class TokenBucket:
    """A continuously-refilling token bucket (one per client).

    ``rate`` tokens accrue per second up to ``burst``; admitting a
    request spends its point count.  A fresh bucket starts full, so a
    new client can always burst before settling to the sustained rate.
    """

    def __init__(self, rate: float, burst: float,
                 clock: Clock | None = None) -> None:
        if rate <= 0 or burst <= 0:
            raise ValueError("rate and burst must be > 0")
        self.rate = rate
        self.burst = burst
        self._clock = clock if clock is not None else SystemClock()
        self._tokens = burst
        self._stamp = self._clock.now()
        self._lock = threading.Lock()

    def _refill(self) -> None:
        now = self._clock.now()
        elapsed = max(now - self._stamp, 0.0)
        self._stamp = now
        self._tokens = min(self.burst, self._tokens + elapsed * self.rate)

    def try_spend(self, cost: float) -> bool:
        """Spend *cost* tokens if available; never blocks."""
        with self._lock:
            self._refill()
            if self._tokens + 1e-9 < cost:
                return False
            self._tokens -= cost
            return True

    def available(self) -> float:
        with self._lock:
            self._refill()
            return self._tokens


class AdmissionController:
    """The daemon's front gate: queue depth, per-client quotas, drain.

    ``admit(client, points)`` is the only entry point; a refusal names
    its reason so the protocol layer can answer 429 (load) or 503
    (draining) precisely.  ``release(points)`` is called as work
    finishes — depth counts admitted-but-unfinished points.
    """

    def __init__(
        self,
        max_queue_depth: int = 256,
        quota_rate: float | None = None,
        quota_burst: float | None = None,
        clock: Clock | None = None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        if max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1")
        self.max_queue_depth = max_queue_depth
        self.quota_rate = quota_rate
        self.quota_burst = (
            quota_burst if quota_burst is not None
            else (quota_rate * 2 if quota_rate is not None else None)
        )
        self._clock = clock if clock is not None else SystemClock()
        self._lock = threading.Lock()
        self._depth = 0
        self._draining = False
        self._idle = threading.Condition(self._lock)
        self._buckets: dict[str, TokenBucket] = {}
        self._count = (registry or MetricsRegistry()).counters("server", (
            "admitted", "rejected_queue", "rejected_quota",
            "rejected_draining"))

    # -- the gate --------------------------------------------------------------

    def admit(self, client: str, points: int = 1) -> Admission:
        """Decide one request of *points* compile points for *client*."""
        points = max(1, int(points))
        with self._lock:
            if self._draining:
                self._count["rejected_draining"].inc()
                return Admission.refuse(
                    "draining", "server is draining; no new work accepted"
                )
            if self._depth + points > self.max_queue_depth:
                self._count["rejected_queue"].inc()
                return Admission.refuse(
                    "queue-full",
                    f"queue depth {self._depth} + {points} would exceed "
                    f"{self.max_queue_depth}",
                )
            bucket = self._bucket(client)
            if bucket is not None and not bucket.try_spend(float(points)):
                self._count["rejected_quota"].inc()
                return Admission.refuse(
                    "quota",
                    f"client {client!r} is over its rate quota "
                    f"({bucket.available():.1f} of {points} tokens "
                    f"available)",
                )
            self._depth += points
            self._count["admitted"].inc(points)
            return Admission.ok()

    def release(self, points: int = 1) -> None:
        """Return *points* of finished (or failed) work to the budget."""
        with self._lock:
            self._depth = max(0, self._depth - max(1, int(points)))
            if self._depth == 0:
                self._idle.notify_all()

    # -- drain -----------------------------------------------------------------

    def start_draining(self) -> None:
        with self._lock:
            self._draining = True

    @property
    def draining(self) -> bool:
        with self._lock:
            return self._draining

    def wait_idle(self, timeout_s: float | None = None) -> bool:
        """Block until every admitted point has been released (graceful
        drain); returns False on timeout."""
        with self._lock:
            return self._idle.wait_for(lambda: self._depth == 0,
                                       timeout=timeout_s)

    # -- views -----------------------------------------------------------------

    @property
    def depth(self) -> int:
        with self._lock:
            return self._depth

    def _bucket(self, client: str) -> TokenBucket | None:
        if self.quota_rate is None:
            return None
        bucket = self._buckets.get(client)
        if bucket is None:
            bucket = TokenBucket(self.quota_rate,
                                 self.quota_burst or self.quota_rate * 2,
                                 clock=self._clock)
            self._buckets[client] = bucket
        return bucket

    def snapshot(self) -> dict[str, object]:
        with self._lock:
            clients = {
                name: round(bucket.available(), 3)
                for name, bucket in sorted(self._buckets.items())
            }
            return {
                "depth": self._depth,
                "max_queue_depth": self.max_queue_depth,
                "draining": self._draining,
                **{name: c.value for name, c in self._count.items()},
                "quota_rate": self.quota_rate,
                "quota_burst": self.quota_burst,
                "client_tokens": clients,
            }
