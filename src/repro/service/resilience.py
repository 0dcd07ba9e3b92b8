"""Resilience primitives for the compile service: retry policies with
deterministic backoff, simulated clocks, per-target circuit breakers,
and the sweep checkpoint journal.

Everything here obeys the same determinism discipline as
:mod:`repro.faults`: no global random state, no wall-clock dependence in
decisions.  Backoff jitter is a counter-based hash of (seed,
fingerprint, attempt); the breaker's state advances in *gather order*
(request order), never in thread-completion order, so a ``--jobs 4``
sweep trips and recovers at exactly the same points as a serial one;
and sleeping goes through a :class:`Clock` so tests substitute
:class:`SimClock` and never call ``time.sleep``.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable

__all__ = [
    "Clock",
    "SystemClock",
    "SimClock",
    "RetryPolicy",
    "CircuitBreaker",
    "DEFAULT_FALLBACKS",
    "SweepJournal",
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


def _jitter01(seed: int, fingerprint: str, attempt: int) -> float:
    """Deterministic uniform [0, 1) for backoff jitter (same hashing
    discipline as :func:`repro.faults.plan._hash01`)."""
    digest = hashlib.sha256(
        f"repro-backoff-v1|{seed}|{fingerprint}|{attempt}".encode()
    ).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64)


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with deterministic jitter.

    ``max_retries`` counts *re*-attempts: a job runs at most
    ``max_retries + 1`` times.  The backoff before retry *k* (0-based)
    is ``min(base_s * multiplier**k, max_backoff_s)`` scaled by a
    jitter factor in ``[1 - jitter, 1 + jitter)`` hashed from (seed,
    fingerprint, k) — reproducible, but de-synchronized across
    fingerprints so a burst of transient failures does not retry in
    lock-step.
    """

    max_retries: int = 3
    base_s: float = 0.02
    multiplier: float = 2.0
    max_backoff_s: float = 1.0
    jitter: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")

    def backoff_s(self, fingerprint: str, attempt: int) -> float:
        base = min(self.base_s * self.multiplier ** attempt,
                   self.max_backoff_s)
        scale = 1.0 + self.jitter * (
            2.0 * _jitter01(self.seed, fingerprint, attempt) - 1.0
        )
        return base * scale


#: graceful-degradation routes: when the breaker for a (compiler,
#: target) opens, failed points are re-routed here.  The paper's own
#: fallback is the model: when CAPS's OpenCL backend misbehaved the
#: authors fell back to its CUDA backend (and PGI never had a non-NVIDIA
#: backend to begin with).
DEFAULT_FALLBACKS: dict[tuple[str, str], tuple[str, str]] = {
    ("caps", "opencl"): ("caps", "cuda"),
    ("pgi", "opencl"): ("pgi", "cuda"),
}


@dataclass
class CircuitBreaker:
    """A per-(compiler, target) failure breaker, advanced in gather
    order.

    After ``failure_threshold`` *consecutive* failures for one key the
    breaker opens; while open, failed points are degraded to the key's
    fallback route (recorded as ``degraded=True`` on the artifact —
    never silent).  Because every primary result is computed anyway
    (results gather in request order), any primary success while open
    acts as the half-open probe and closes the breaker immediately.
    """

    failure_threshold: int = 3
    fallbacks: dict[tuple[str, str], tuple[str, str]] = field(
        default_factory=lambda: dict(DEFAULT_FALLBACKS)
    )
    _consecutive: dict[tuple[str, str], int] = field(
        default_factory=dict, repr=False
    )
    _open: set = field(default_factory=set, repr=False)

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        self._lock = threading.Lock()

    @staticmethod
    def key_for(compiler: str, target: str) -> tuple[str, str]:
        return (compiler.lower(), target.lower())

    def on_result(self, key: tuple[str, str], failed: bool) -> str | None:
        """Advance the breaker; returns ``"tripped"``/``"closed"`` on a
        state transition, else ``None`` (the service counts the
        transitions)."""
        with self._lock:
            if failed:
                count = self._consecutive.get(key, 0) + 1
                self._consecutive[key] = count
                if count >= self.failure_threshold and key not in self._open:
                    self._open.add(key)
                    return "tripped"
                return None
            self._consecutive[key] = 0
            if key in self._open:
                self._open.discard(key)
                return "closed"
            return None

    def is_open(self, key: tuple[str, str]) -> bool:
        with self._lock:
            return key in self._open

    def fallback_for(self, compiler: str,
                     target: str) -> tuple[str, str] | None:
        return self.fallbacks.get(self.key_for(compiler, target))

    # -- views -----------------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        with self._lock:
            return {"open": sorted("-".join(k) for k in self._open)}


class SweepJournal:
    """A JSONL checkpoint of completed sweep points.

    Each completed slot appends one line — ``{"fp": ..., "status":
    "ok" | "degraded" | "error", ...}`` — flushed immediately, so a
    killed sweep leaves a valid prefix.  On resume the journal is
    loaded first; journaled fingerprints are *not* resubmitted:

    * ``ok`` — the artifact is re-materialized through the service's
      cache (free with a ``--cache-dir`` disk tier; recompiled
      otherwise — byte-identical either way, the compilers are pure);
    * ``degraded`` — the recorded fallback route is recompiled and
      re-marked;
    * ``error`` — the :class:`~repro.service.scheduler.JobError` is
      reconstructed field-for-field from the journal line.

    A resumed sweep therefore equals an uninterrupted one byte for
    byte (test-enforced in ``tests/test_service_resilience.py``).
    """

    def __init__(self, path: str | Path, resume: bool = True) -> None:
        self.path = Path(path)
        self._lock = threading.Lock()
        self._entries: dict[str, dict[str, Any]] = {}
        if resume and self.path.exists():
            for line in self.path.read_text(encoding="utf-8").splitlines():
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                except json.JSONDecodeError:
                    continue  # a torn final line from a killed run
                if isinstance(entry, dict) and "fp" in entry:
                    self._entries[entry["fp"]] = entry
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = self.path.open("a", encoding="utf-8")

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def lookup(self, fingerprint: str) -> dict[str, Any] | None:
        with self._lock:
            return self._entries.get(fingerprint)

    def record(self, fingerprint: str, entry: dict[str, Any]) -> None:
        """Append one completed point (idempotent per fingerprint)."""
        entry = {"fp": fingerprint, **entry}
        with self._lock:
            if fingerprint in self._entries:
                return
            self._entries[fingerprint] = entry
            self._fh.write(json.dumps(entry, sort_keys=True) + "\n")
            self._fh.flush()

    def fingerprints(self) -> Iterable[str]:
        with self._lock:
            return list(self._entries)

    def close(self) -> None:
        with self._lock:
            if not self._fh.closed:
                self._fh.close()

    def __enter__(self) -> "SweepJournal":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
