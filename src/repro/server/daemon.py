"""The compile daemon: a threaded JSON-over-TCP server over
:class:`CompileService`.

One :class:`ReproServer` owns the whole server stack:

* a shared :class:`~repro.service.scheduler.CompileService` (worker
  pool, retries when configured, fault injection via
  ``--faults`` — the server path is inside the same resilience envelope
  as the library path);
* a :class:`~repro.service.cache.ShardedArtifactCache` disk tier
  (hash-prefix shards, per-shard locks, optional read-through peers);
* a :class:`~repro.server.batcher.CoalescingBatcher` (cross-client
  coalescing + micro-batching);
* an :class:`~repro.server.quotas.AdmissionController` (queue bound,
  per-client token buckets, drain state).

Each TCP connection is handled on its own thread
(``socketserver.ThreadingMixIn``) and may carry any number of
newline-delimited JSON frames (see :mod:`.protocol`).  A malformed frame
answers 400 *on the same connection* and the connection stays up; an
admission refusal answers 429/503 without queueing anything.

``compile`` and ``sweep`` are fingerprint-first: a point whose
fingerprint is stored is answered on the connection thread by
:meth:`CompileService.lookup` — no parse, no batch window, no pool hop.
Only the remaining points that carry source are parsed and go through
the batcher; the rest are answered ``miss`` so the client sends their
source.

Telemetry: every frame is handled inside a ``server.request`` span
(decode included; a malformed frame's span says ``status=bad-request``)
tagged ``client=<id>``, ``lane=client:<id>`` and ``cache=hit|miss`` —
the Chrome/Perfetto export groups ``lane``-tagged spans into one
synthetic timeline lane per client, so a daemon trace reads as
per-client swimlanes no matter which connection threads served them.
Every counter — the daemon's, the batcher's and admission's
``server.*``, the service's ``service.*``/``faults.*`` and the cache's
``cache.*`` — lives in the service's registry, so a traced ``repro
serve`` exports them all.

Shutdown is graceful by contract: ``drain()`` flips admission to
503-everything-new, waits for admitted work to finish, flushes the
batcher, then closes the listener.  ``repro serve`` wires SIGINT to it.
"""

from __future__ import annotations

import socket
import socketserver
import threading
import time
from dataclasses import dataclass, field
from typing import Any

from ..service.cache import MISS, ShardedArtifactCache
from ..service.scheduler import CompileService
from ..telemetry.registry import MetricsRegistry
from ..telemetry.spans import get_tracer
from . import protocol
from .batcher import CoalescingBatcher
from .quotas import Admission, AdmissionController

__all__ = ["ServerConfig", "ReproServer"]

#: server identity in `hello` responses
SERVER_NAME = "repro.server"

#: how long a connection handler waits for one request's results (a
#: safety net: the compilers are fast, so it fires only on a hang)
RESULT_TIMEOUT_S = 120.0


@dataclass
class ServerConfig:
    """Everything ``repro serve`` can set, in one place."""

    host: str = "127.0.0.1"
    port: int = 7453
    jobs: int = 4
    cache_dir: str | None = None
    shards: int = 16
    max_entries: int = 2048
    peer_dirs: tuple[str, ...] = ()
    max_queue_depth: int = 256
    quota_rate: float | None = None
    quota_burst: float | None = None
    #: extra CompileService kwargs (retries/fault_plan/registry/...)
    service_kwargs: dict[str, Any] = field(default_factory=dict)


class _Handler(socketserver.StreamRequestHandler):
    """One connection: read frames, answer frames, never crash the
    connection on bad input."""

    server: "_TcpServer"

    def handle(self) -> None:
        daemon = self.server.daemon
        daemon._count["connections"].inc()
        while True:
            try:
                line = self.rfile.readline(protocol.MAX_FRAME_BYTES + 1)
            except (ConnectionError, OSError):
                return
            if not line:
                return  # client closed
            if len(line) > protocol.MAX_FRAME_BYTES:
                # the rest of the line is still unread: the stream cannot
                # resync, so answer and close
                daemon._count["protocol_errors"].inc()
                response = {
                    **protocol.error_response(
                        None, protocol.BAD_REQUEST, "frame-too-large",
                        f"frame exceeds {protocol.MAX_FRAME_BYTES} bytes",
                    ),
                    "closing": True,
                }
            else:
                try:
                    response = daemon.handle_frame(line)
                except Exception as exc:  # a handler bug must not kill us
                    response = protocol.error_response(
                        None, protocol.INTERNAL, "internal",
                        f"{type(exc).__name__}: {exc}",
                    )
            try:
                self.wfile.write(protocol.encode_frame(response))
                self.wfile.flush()
            except (ConnectionError, OSError):
                return
            if response.get("closing"):
                return


class _TcpServer(socketserver.ThreadingMixIn, socketserver.TCPServer):
    allow_reuse_address = True
    daemon_threads = True
    daemon: "ReproServer"


class ReproServer:
    """The compile-as-a-service daemon (see docs/SERVER.md)."""

    def __init__(self, config: ServerConfig | None = None) -> None:
        self.config = config or ServerConfig()
        service_kwargs = {"registry": MetricsRegistry(),
                          **self.config.service_kwargs}
        registry = service_kwargs["registry"]
        cache = ShardedArtifactCache(
            shards=self.config.shards,
            max_entries=self.config.max_entries,
            cache_dir=self.config.cache_dir,
            peer_dirs=self.config.peer_dirs,
            registry=registry,
        )
        self.service = CompileService(
            cache=cache, jobs=self.config.jobs, **service_kwargs,
        )
        self.batcher = CoalescingBatcher(self.service)
        self.admission = AdmissionController(
            max_queue_depth=self.config.max_queue_depth,
            quota_rate=self.config.quota_rate,
            quota_burst=self.config.quota_burst,
            registry=registry,
        )
        self.started_at = time.monotonic()
        self._count = registry.counters(
            "server", ("requests", "connections", "protocol_errors"))
        self._tcp: _TcpServer | None = None
        self._thread: threading.Thread | None = None
        self._stopped = threading.Event()
        self._drain_lock = threading.Lock()

    # -- lifecycle -------------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        """The bound (host, port) — resolve after :meth:`start` when the
        configured port is 0 (ephemeral)."""
        if self._tcp is not None:
            return self._tcp.server_address[:2]
        return (self.config.host, self.config.port)

    def start(self) -> "ReproServer":
        """Bind and serve on a background thread; returns self."""
        if self._tcp is not None:
            raise RuntimeError("server already started")
        self._tcp = _TcpServer((self.config.host, self.config.port), _Handler,
                               bind_and_activate=True)
        self._tcp.daemon = self
        self._thread = threading.Thread(
            target=self._tcp.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="repro-server-accept", daemon=True,
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Foreground mode (the CLI): start, then block until drained."""
        if self._tcp is None:
            self.start()
        self._stopped.wait()

    def drain(self, timeout_s: float | None = 30.0) -> bool:
        """Graceful shutdown: refuse new work (503), finish admitted
        work, flush the batcher, stop the listener.  Idempotent."""
        self.admission.start_draining()
        drained = self.admission.wait_idle(timeout_s)
        with self._drain_lock:
            self.batcher.close(timeout_s)
            if self._tcp is not None:
                self._tcp.shutdown()
                self._tcp.server_close()
                self._tcp = None
            self.service.close()
            self._stopped.set()
        return drained

    def __enter__(self) -> "ReproServer":
        return self.start() if self._tcp is None else self

    def __exit__(self, *exc_info: object) -> None:
        self.drain()

    # -- the protocol surface --------------------------------------------------

    def handle_frame(self, line: bytes) -> dict[str, Any]:
        """Decode, admit, dispatch one frame; always returns a response
        frame (protocol errors included — the connection survives)."""
        with get_tracer().span("server.request", category="server") as span:
            try:
                message = protocol.decode_frame(line)
                op, client = protocol.validate_request(message)
            except protocol.ProtocolError as exc:
                self._count["protocol_errors"].inc()
                span.set(status="bad-request")
                return protocol.error_response(None, protocol.BAD_REQUEST,
                                               "bad-request", str(exc))
            span.set(label=client, client=client, lane=f"client:{client}",
                     op=op)
            request_id = message.get("id")
            self._count["requests"].inc()
            try:
                if op == "hello":
                    return protocol.ok_response(request_id, **self._hello())
                if op == "status":
                    return protocol.ok_response(request_id,
                                                status=self.status())
                if op == "stats":
                    return protocol.ok_response(request_id, stats=self.stats())
                if op == "shutdown":
                    # flip to draining *now*; finish the drain off-thread so
                    # this response still reaches the client
                    self.admission.start_draining()
                    threading.Thread(target=self.drain, daemon=True,
                                     name="repro-server-drain").start()
                    return {
                        **protocol.ok_response(request_id, draining=True),
                        "closing": True,
                    }
                if op == "compile":
                    return self._handle_compile(request_id, client, message,
                                                span)
                if op == "sweep":
                    return self._handle_sweep(request_id, client, message,
                                              span)
            except protocol.ProtocolError as exc:
                self._count["protocol_errors"].inc()
                span.set(status="bad-request")
                return protocol.error_response(request_id,
                                               protocol.BAD_REQUEST,
                                               "bad-request", str(exc))
            span.set(status="unknown-op")
            return protocol.error_response(
                request_id, protocol.UNKNOWN_OP, "unknown-op",
                f"unknown op {op!r} (expected one of {', '.join(protocol.OPS)})",
            )

    # -- op handlers -----------------------------------------------------------

    def _handle_compile(self, request_id: Any, client: str,
                        message: dict[str, Any], span: Any) -> dict[str, Any]:
        answer = self._answer(client, [message.get("point")], span)
        if isinstance(answer, Admission):
            return self._refusal(request_id, answer)
        (fingerprint,), (slot,) = answer
        span.set(status=slot["status"], fingerprint=fingerprint[:12])
        return protocol.ok_response(
            request_id,
            fingerprint=fingerprint,
            result=slot,
        )

    def _handle_sweep(self, request_id: Any, client: str,
                      message: dict[str, Any], span: Any) -> dict[str, Any]:
        points = message.get("points")
        if not isinstance(points, list) or not points:
            raise protocol.ProtocolError("'points' must be a non-empty list")
        answer = self._answer(client, points, span)
        if isinstance(answer, Admission):
            return self._refusal(request_id, answer)
        _fingerprints, slots = answer
        errors = sum(1 for s in slots if s["status"] == "error")
        span.set(points=len(slots), errors=errors, status="done")
        return protocol.ok_response(request_id, results=slots)

    def _answer(self, client: str, points: list[Any], span: Any
                ) -> tuple[list[str], list[dict[str, Any]]] | Admission:
        """``(fingerprints, slots)`` for *points*, fingerprint-first.

        Every claimed fingerprint is validated before any store access
        (a malformed one raises :class:`~.protocol.ProtocolError`: 400)
        and then read from the store: a hit is answered right here, with
        no parse, no batcher ticket and no pool hop.  Only points that
        carry source are parsed (their source must hash to the claimed
        fingerprint — a claim is only ever a lookup key); they go through
        the batcher as one scheduler sweep.  A point with neither a hit
        nor source gets the ``miss`` slot.  Admission charges the points
        answered here — hits and compiles, never misses — or the refusal
        is returned instead.
        """
        claims = [protocol.claimed_fingerprint(p) for p in points]
        slots: list[dict[str, Any] | None] = [None] * len(points)
        for index, (point, claimed) in enumerate(zip(points, claims)):
            if claimed is None:
                continue
            hit = self.service.lookup(claimed, protocol.point_label(point))
            if isinstance(hit, bytes):
                slots[index] = protocol.pickled_slot(hit)
            elif hit is not MISS:
                slots[index] = protocol.slot_to_wire(hit)
        hits = sum(slot is not None for slot in slots)
        span.set(cache="hit" if hits == len(points) else "miss")
        requests = {
            index: protocol.point_from_wire(point)
            for index, point in enumerate(points)
            if slots[index] is None and "source" in point
        }
        fingerprints = [
            claimed or requests[index].fingerprint
            for index, claimed in enumerate(claims)
        ]
        answered = hits + len(requests)
        if answered:
            admission = self.admission.admit(client, answered)
            if not admission.allowed:
                span.set(status=f"rejected-{admission.reason}")
                return admission
            try:
                tickets = self.batcher.submit_many(list(requests.values()))
                results = [t.wait(RESULT_TIMEOUT_S) for t in tickets]
            finally:
                self.admission.release(answered)
            for index, result in zip(requests, results):
                slots[index] = protocol.slot_to_wire(result)
        return fingerprints, [
            slot if slot is not None else dict(protocol.MISS_SLOT)
            for slot in slots
        ]

    def _refusal(self, request_id: Any, admission) -> dict[str, Any]:
        code = (protocol.DRAINING if admission.reason == "draining"
                else protocol.REJECTED)
        return protocol.error_response(request_id, code, admission.reason,
                                       admission.detail)

    # -- views -----------------------------------------------------------------

    def _hello(self) -> dict[str, Any]:
        return {
            "server": SERVER_NAME,
            "protocol": protocol.PROTOCOL,
            "jobs": self.config.jobs,
            "shards": self.config.shards,
            "max_queue_depth": self.config.max_queue_depth,
        }

    @property
    def protocol_errors(self) -> int:
        """Frames answered 400."""
        return self._count["protocol_errors"].value

    def status(self) -> dict[str, Any]:
        """The cheap liveness view (queue, drain, uptime)."""
        return {
            "uptime_s": round(time.monotonic() - self.started_at, 3),
            "draining": self.admission.draining,
            "queue": self.admission.snapshot(),
            "batcher": self.batcher.snapshot(),
            "inflight": self.service.inflight_count(),
            "connections_total": self._count["connections"].value,
            "requests_total": self._count["requests"].value,
            "protocol_errors": self.protocol_errors,
        }

    def stats(self) -> dict[str, Any]:
        """The full counter dump: service + cache + server."""
        snap = self.service.stats_snapshot()
        snap["server"] = self.status()
        return snap

    def report_lines(self) -> list[str]:
        """Human summary (the CLI prints this on drain)."""
        status = self.status()
        batch, admission = status["batcher"], status["queue"]
        lines = [
            "-- compile server --",
            (
                f"requests {status['requests_total']} over "
                f"{status['connections_total']} connections "
                f"({status['protocol_errors']} protocol errors)"
            ),
            (
                f"batching: {batch['batches']} batches / "
                f"{batch['batched_points']} points, "
                f"{batch['coalesced']} coalesced"
            ),
            (
                f"admission: {admission['admitted']} admitted, "
                f"{admission['rejected_queue']} queue-full, "
                f"{admission['rejected_quota']} over-quota, "
                f"{admission['rejected_draining']} while draining"
            ),
        ]
        return lines + self.service.report_lines()


def free_port(host: str = "127.0.0.1") -> int:
    """An OS-assigned free TCP port (tests and ``--port 0`` helpers)."""
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind((host, 0))
        return sock.getsockname()[1]
