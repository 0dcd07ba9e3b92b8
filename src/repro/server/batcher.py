"""Request batching and coalescing over one shared :class:`CompileService`.

The daemon's workload is many small requests from many clients, and the
compilers are pure — so the batcher applies two collapses before any
compile runs:

* **coalescing** — while a fingerprint is in flight, every further
  request for it (from *any* client) joins the same flight and receives
  the same result; N concurrent identical requests cost exactly one
  compile.  The index is a :class:`~repro.service.cache.SingleFlight`,
  the same primitive as the scheduler's in-flight dedup, but this one
  spans *connections*, not just threads, and it counts (``coalesced``)
  so the savings are visible in the service registry's ``server.*``
  counters.
* **micro-batching** — admitted points are collected for up to
  :data:`BATCH_WINDOW_S` (or :data:`MAX_BATCH` points, whichever first)
  and submitted as one :meth:`CompileService.sweep`, so a burst of
  single compiles from independent clients rides one scheduler batch
  (pooled workers kept busy).

Determinism: batching changes *when* a compile runs and *which* sweep it
shares, never its inputs — fingerprints are content addresses and the
service's cache/dedup guarantee byte-identical artifacts regardless of
batch composition.  A sweep request's slots come back in *its* request
order even when its points were interleaved with other clients'.

The batcher owns one dispatch thread; ``close()`` drains the queue,
finishes in-flight sweeps, and only then stops — the graceful-shutdown
path of the daemon.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import TimeoutError as FutureTimeoutError
from typing import Any

from ..service.cache import Flight, SingleFlight
from ..service.fingerprint import CompileRequest
from ..service.scheduler import CompileService, JobError
from ..telemetry.spans import get_tracer

__all__ = ["BATCH_WINDOW_S", "MAX_BATCH", "BatchTicket", "CoalescingBatcher"]

#: how long the dispatcher holds a batch open after its first point
BATCH_WINDOW_S = 0.005
#: the most points one scheduler sweep carries
MAX_BATCH = 32


class BatchTicket:
    """One request's handle on its fingerprint's flight, which every
    coalesced request shares.  ``wait()`` returns the artifact or the
    :class:`JobError` (never raises — slots are data, exactly like
    ``sweep`` slots)."""

    __slots__ = ("fingerprint", "request", "flight")

    def __init__(self, request: CompileRequest, flight: Flight) -> None:
        self.fingerprint = request.fingerprint
        self.request = request
        self.flight = flight

    def wait(self, timeout_s: float | None = None) -> Any:
        try:
            return self.flight.result(timeout_s)
        except FutureTimeoutError:
            return JobError(
                self.request.label or self.request.module.name,
                self.fingerprint, "timeout",
                f"server result not ready within {timeout_s:g}s",
                timeout_s or 0.0,
            )


class CoalescingBatcher:
    """Fingerprint-coalescing micro-batcher in front of a
    :class:`CompileService`."""

    def __init__(self, service: CompileService) -> None:
        self.service = service
        self._lock = threading.Lock()
        self._wakeup = threading.Condition(self._lock)
        #: the leaders' tickets, waiting for the dispatcher
        self._queue: list[BatchTicket] = []
        #: every unsettled flight (queued or mid-sweep), by fingerprint —
        #: the coalescing index
        self._flights = SingleFlight()
        self._closed = False
        #: ``server.*`` counters, in the service's registry
        self._count = service.registry.counters(
            "server", ("submitted", "coalesced", "batches", "batched_points"))
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="repro-server-batcher",
            daemon=True,
        )
        self._dispatcher.start()

    # -- producer side ---------------------------------------------------------

    def submit(self, request: CompileRequest) -> BatchTicket:
        """Enqueue one point; identical in-flight fingerprints coalesce
        onto the existing flight (no new queue entry, no new compile)."""
        with self._lock:
            if self._closed:
                raise RuntimeError("batcher is closed")
            self._count["submitted"].inc()
            flight, leader = self._flights.join(request.fingerprint)
            ticket = BatchTicket(request, flight)
            if leader:
                self._queue.append(ticket)
                self._wakeup.notify()
                return ticket
            self._count["coalesced"].inc()
            tracer = get_tracer()
            if tracer.enabled:
                tracer.record_span(
                    "server.coalesce", 0.0, category="server",
                    label=request.label or request.module.name,
                    fingerprint=request.fingerprint[:12],
                    waiters=flight.waiters,
                )
            return ticket

    def submit_many(self, requests: list[CompileRequest]) -> list[BatchTicket]:
        return [self.submit(request) for request in requests]

    # -- dispatch side ---------------------------------------------------------

    def _dispatch_loop(self) -> None:
        while True:
            batch = self._collect_batch()
            if batch is None:
                return
            self._run_batch(batch)

    def _collect_batch(self) -> list[BatchTicket] | None:
        """Block for the first ticket, then keep the window open until it
        expires or the batch is full.  Returns None when closed and
        drained."""
        with self._lock:
            while not self._queue and not self._closed:
                self._wakeup.wait()
            if not self._queue:
                return None  # closed and drained
        deadline = None
        while True:
            with self._lock:
                if len(self._queue) >= MAX_BATCH or self._closed:
                    break
                if deadline is None:
                    deadline = time.monotonic() + BATCH_WINDOW_S
                    remaining = BATCH_WINDOW_S
                else:
                    remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._wakeup.wait(timeout=remaining)
        with self._lock:
            batch = self._queue[:MAX_BATCH]
            del self._queue[:MAX_BATCH]
            return batch

    def _run_batch(self, batch: list[BatchTicket]) -> None:
        waiters = sum(ticket.flight.waiters for ticket in batch)
        with get_tracer().span(
            "server.batch", category="server",
            points=len(batch), coalesced_waiters=waiters - len(batch),
        ):
            try:
                results = self.service.sweep([t.request for t in batch])
            except Exception as exc:  # defensive: sweep slots errors itself
                results = [
                    JobError(t.request.label or t.request.module.name,
                             t.fingerprint, "error", str(exc))
                    for t in batch
                ]
        self._count["batches"].inc()
        self._count["batched_points"].inc(len(batch))
        for ticket, result in zip(batch, results):
            # settling unindexes before it resolves: a new identical
            # request after resolution gets a fresh flight (which the
            # service cache answers instantly), not a finished one
            self._flights.settle(ticket.fingerprint, ticket.flight, result)

    # -- lifecycle -------------------------------------------------------------

    def close(self, timeout_s: float | None = 30.0) -> bool:
        """Stop accepting work, flush the queue, join the dispatcher.
        Returns False if the dispatcher did not finish in time."""
        with self._lock:
            if self._closed:
                return True
            self._closed = True
            self._wakeup.notify_all()
        self._dispatcher.join(timeout=timeout_s)
        return not self._dispatcher.is_alive()

    def snapshot(self) -> dict[str, int | float]:
        snap = {name: counter.value for name, counter in self._count.items()}
        with self._lock:
            snap["queued"] = len(self._queue)
        snap["pending"] = len(self._flights)
        return snap
