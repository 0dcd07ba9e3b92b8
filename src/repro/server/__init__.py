"""repro.server — compile-as-a-service: the daemon over the service layer.

The paper's methodology is a large sweep of (kernel x compiler x target)
compilations — exactly the workload shape of a shared build farm — and
ROADMAP item 1 asks for the service layer to stop being per-process.
This package is that server boundary: one long-lived daemon, many
concurrent clients, one shared verified compile pipeline:

* :mod:`.protocol` — newline-delimited JSON frames over TCP; compile
  points are keyed by fingerprint, and modules travel as their
  canonical mini-C print (fingerprint-stable round trip) only when the
  daemon answered ``miss``; artifacts travel as pickles; 429-style
  structured refusals;
* :mod:`.daemon` — :class:`ReproServer`: threaded TCP server exposing
  ``compile`` / ``sweep`` / ``status`` / ``stats`` / ``shutdown`` over
  one :class:`~repro.service.scheduler.CompileService` with a
  hash-prefix-sharded artifact store; a stored fingerprint is answered
  on the connection thread with its stored pickle bytes (no parse, no
  batch window, no copy), and a claimed fingerprint is only a lookup
  key — source that does not hash to it is refused;
* :mod:`.batcher` — cross-client request coalescing (N identical
  in-flight misses, one compile) and micro-batching into scheduler
  sweeps;
* :mod:`.quotas` — admission control: bounded queue depth, per-client
  token buckets, graceful drain (429 busy / 503 draining — reject,
  never hang);
* :mod:`.client` — :class:`ServerClient` + ``spawn_local`` (the
  ``repro client`` CLI rides on these);
* :mod:`.smoke` — the end-to-end self-test behind
  ``repro serve --self-test`` and the CI server-smoke gate.

Determinism contract: a sweep through the daemon is **byte-identical**
to the in-process path — the wire form is the canonical print the
fingerprint is computed over, print → parse → print is a fixpoint, and
the compilers are pure functions of the fingerprint.  See
docs/SERVER.md.
"""

from .batcher import BatchTicket, CoalescingBatcher
from .client import ServerClient, spawn_local
from .daemon import ReproServer, ServerConfig
from .protocol import (
    PROTOCOL,
    ProtocolError,
    ServerError,
    ServerRejected,
    decode_frame,
    encode_frame,
    point_from_wire,
    point_to_wire,
    slot_from_wire,
    slot_to_wire,
)
from .quotas import Admission, AdmissionController, TokenBucket
from .smoke import SmokeReport, artifact_signature, fig4_requests, run_server_smoke

__all__ = [
    "Admission",
    "AdmissionController",
    "BatchTicket",
    "CoalescingBatcher",
    "PROTOCOL",
    "ProtocolError",
    "ReproServer",
    "ServerClient",
    "ServerConfig",
    "ServerError",
    "ServerRejected",
    "SmokeReport",
    "TokenBucket",
    "artifact_signature",
    "decode_frame",
    "encode_frame",
    "fig4_requests",
    "point_from_wire",
    "point_to_wire",
    "run_server_smoke",
    "slot_from_wire",
    "slot_to_wire",
    "spawn_local",
]
