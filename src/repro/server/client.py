"""Client library for the compile daemon (and the ``repro client`` CLI).

:class:`ServerClient` is a thin, synchronous, thread-unsafe handle on
one TCP connection — open one per worker thread (connections are cheap;
the daemon is built for many).  It speaks :mod:`.protocol` frames and
gives back the same Python objects the in-process
:class:`~repro.service.scheduler.CompileService` would return (asking
by fingerprint first, and sending source only for the points the
daemon does not have):
``compile_module`` returns the artifact (or raises the replayed compiler
error), ``sweep`` returns artifact-or-:class:`JobError` slots in request
order.  An admission refusal raises
:class:`~repro.server.protocol.ServerRejected` — the caller decides
whether to back off, retry, or fail.

``spawn_local()`` starts an in-process daemon on an ephemeral port and
returns a connected client — the zero-setup path the docs examples and
``--spawn`` CLI flag use, and exactly the stack a remote deployment
runs, minus the network distance.
"""

from __future__ import annotations

import socket
from contextlib import contextmanager
from typing import Any, Iterator, Sequence

from ..service.fingerprint import CompileRequest
from ..service.scheduler import JobError
from ..telemetry.spans import get_tracer
from . import protocol
from .daemon import ReproServer, ServerConfig

__all__ = ["ServerClient", "spawn_local"]


class ServerClient:
    """One connection to a ``repro serve`` daemon."""

    def __init__(self, host: str = "127.0.0.1", port: int = 7453,
                 client_id: str = "anonymous",
                 timeout_s: float | None = 120.0) -> None:
        self.host = host
        self.port = port
        self.client_id = client_id
        self._ids = 0
        self._sock = socket.create_connection((host, port), timeout=timeout_s)
        self._rfile = self._sock.makefile("rb")

    # -- plumbing --------------------------------------------------------------

    def _call(self, op: str, **payload: Any) -> dict[str, Any]:
        self._ids += 1
        frame = {"id": self._ids, "op": op, "client": self.client_id,
                 **payload}
        with get_tracer().span("client.request", category="server",
                               label=self.client_id, op=op):
            self._sock.sendall(protocol.encode_frame(frame))
            line = self._rfile.readline()
        if not line:
            raise ConnectionError(
                f"server {self.host}:{self.port} closed the connection"
            )
        response = protocol.decode_frame(line)
        if response.get("id") not in (self._ids, None):
            raise protocol.ProtocolError(
                f"response id {response.get('id')!r} does not match "
                f"request id {self._ids}"
            )
        return protocol.raise_for_error(response)

    def close(self) -> None:
        try:
            self._rfile.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServerClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- endpoints -------------------------------------------------------------

    def hello(self) -> dict[str, Any]:
        response = self._call("hello")
        return {k: v for k, v in response.items() if k not in ("id", "ok")}

    def status(self) -> dict[str, Any]:
        return self._call("status")["status"]

    def stats(self) -> dict[str, Any]:
        return self._call("stats")["stats"]

    def shutdown(self) -> dict[str, Any]:
        """Ask the daemon to drain and exit (answers before it goes)."""
        return self._call("shutdown")

    def compile_request(self, request: CompileRequest) -> Any:
        """One compile through the daemon; same contract as
        :meth:`CompileService.compile_request` (raises the replayed
        compiler error on a deterministic refusal)."""
        (result,) = self._results("compile", [request])
        if isinstance(result, JobError):
            raise result
        return result

    def compile_source(self, source: str, compiler: str, target: str,
                       name: str = "module", **kwargs: Any) -> Any:
        """Compile mini-C source text without building IR client-side."""
        from ..frontend import parse_module

        return self.compile_request(
            CompileRequest(parse_module(source, name), compiler, target,
                           **kwargs)
        )

    def sweep(self, requests: Sequence[CompileRequest]) -> list[Any]:
        """A fault-tolerant batch, same contract as
        :meth:`CompileService.sweep`: one slot per request, in request
        order, each an artifact or a :class:`JobError`."""
        return self._results("sweep", requests)

    def _results(self, op: str, requests: Sequence[CompileRequest]
                 ) -> list[Any]:
        """One result per request, in request order, fingerprint-first:
        the points go out without source, and only those the daemon
        answers ``miss`` are resent with it."""
        with get_tracer().span("server.client", category="server",
                               label=self.client_id, op=op,
                               points=len(requests)) as span:
            slots = self._send(op, [protocol.point_to_wire(r, source=False)
                                    for r in requests])
            missed = [i for i, slot in enumerate(slots)
                      if slot.get("status") == "miss"]
            if missed:
                span.set(resent=len(missed))
                resent = self._send(op, [protocol.point_to_wire(requests[i])
                                         for i in missed])
                for index, slot in zip(missed, resent):
                    slots[index] = slot
            return [protocol.slot_from_wire(slot) for slot in slots]

    def _send(self, op: str, points: list[dict[str, Any]]
              ) -> list[dict[str, Any]]:
        if op == "compile":
            return [self._call(op, point=points[0])["result"]]
        return self._call(op, points=points)["results"]


@contextmanager
def spawn_local(
    config: ServerConfig | None = None,
    client_id: str = "local",
) -> Iterator[tuple[ReproServer, ServerClient]]:
    """Start an in-process daemon on an ephemeral port, yield
    ``(server, client)``, drain on exit."""
    config = config or ServerConfig()
    config.port = 0  # always ephemeral: never collide with a real daemon
    server = ReproServer(config).start()
    try:
        host, port = server.address
        with ServerClient(host, port, client_id=client_id) as client:
            yield server, client
    finally:
        server.drain()
