"""The wire protocol of the compile daemon: newline-delimited JSON frames.

One frame is one JSON object on one line (UTF-8, ``\\n``-terminated) —
grep-able, implementable from any language with a socket and a JSON
library, and streaming-friendly (the same framing as the telemetry JSONL
sink and the sweep journal).

Requests carry ``{"id": <int>, "op": <str>, "client": <str>, ...}``;
responses echo the ``id`` with either ``"ok": true`` and an op-specific
body, or ``"ok": false`` and a structured error
``{"code": <int>, "kind": <str>, "message": <str>}``.  The codes follow
HTTP where HTTP has the right word for it: 400 for a malformed frame,
404 for an unknown op, **429 for an admission-control rejection** (queue
full or quota exhausted — the explicit-rejection contract of
docs/SERVER.md), 503 while draining, 500 for a server bug.

Compile points are **fingerprint-first**: every point carries its
``fingerprint`` (the content address of the request), and the daemon
answers a stored fingerprint straight from its store.  The module's
canonical mini-C rendering (:func:`repro.ir.printer.print_module`) goes
along as ``source`` only when the daemon asked for it: a point without
source whose fingerprint is not stored comes back as the slot
``{"status": "miss"}`` ("send the source"), and the client resends just
those points with source.  Source is re-parsed server-side, and
print → parse → print is a fixpoint of the printer, so the server
recomputes the client's fingerprint exactly; a point whose source does
not hash to its claimed fingerprint is refused (400), so a claimed
fingerprint is only ever a lookup key.  A point with source and no
fingerprint (the original v1 form) still compiles.

Artifacts travel as base64-encoded pickles (the same serialization the
disk cache tier already trusts — the daemon is an *intra-trust-domain*
service; see the deployment notes in docs/SERVER.md).
"""

from __future__ import annotations

import base64
import json
import pickle
import re
from typing import Any

from ..compilers.flags import FlagSet
from ..devices import device_by_name
from ..frontend import parse_module
from ..ir.printer import print_module
from ..service.fingerprint import CompileRequest
from ..service.scheduler import JobError

PROTOCOL = "repro-server-v1"

#: request ops a server must answer
OPS = ("hello", "compile", "sweep", "status", "stats", "shutdown")

# -- error codes ---------------------------------------------------------------

BAD_REQUEST = 400
UNKNOWN_OP = 404
REJECTED = 429
INTERNAL = 500
DRAINING = 503

#: the longest request frame, newline included, a daemon reads: 16 MiB,
#: over 100x the largest frame the repo's own clients send (a 64-point
#: sweep with source, ~150 KB)
MAX_FRAME_BYTES = 16 * 1024 * 1024


class ProtocolError(ValueError):
    """A frame that does not parse or does not validate."""


class ServerError(RuntimeError):
    """Client-side view of an ``"ok": false`` response."""

    def __init__(self, code: int, kind: str, message: str) -> None:
        super().__init__(f"[{code} {kind}] {message}")
        self.code = code
        self.kind = kind
        self.message = message


class ServerRejected(ServerError):
    """An admission-control rejection (429/503): the request was refused
    *before* any compile work — retry later or against another daemon."""


# -- framing -------------------------------------------------------------------

def encode_frame(message: dict[str, Any]) -> bytes:
    """One message as one newline-terminated JSON line."""
    return (json.dumps(message, sort_keys=True) + "\n").encode("utf-8")


def decode_frame(line: bytes | str) -> dict[str, Any]:
    """Parse one frame; raises :class:`ProtocolError` on garbage (the
    server answers 400 and *keeps the connection alive*)."""
    if isinstance(line, bytes):
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"frame is not UTF-8: {exc}") from None
    line = line.strip()
    if not line:
        raise ProtocolError("empty frame")
    try:
        message = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"frame is not JSON: {exc}") from None
    except RecursionError:
        raise ProtocolError("frame nests too deeply") from None
    if not isinstance(message, dict):
        raise ProtocolError(
            f"frame must be a JSON object, got {type(message).__name__}"
        )
    return message


def validate_request(message: dict[str, Any]) -> tuple[str, str]:
    """Check the request envelope; returns ``(op, client)``."""
    op = message.get("op")
    if not isinstance(op, str):
        raise ProtocolError("request has no 'op' string")
    if "id" in message and not isinstance(message["id"], (int, str)):
        raise ProtocolError("'id' must be an int or string")
    client = message.get("client", "anonymous")
    if not isinstance(client, str) or not client:
        raise ProtocolError("'client' must be a non-empty string")
    return op, client


# -- responses -----------------------------------------------------------------

def ok_response(request_id: Any, **body: Any) -> dict[str, Any]:
    return {"id": request_id, "ok": True, **body}


def error_response(request_id: Any, code: int, kind: str,
                   message: str) -> dict[str, Any]:
    return {
        "id": request_id,
        "ok": False,
        "error": {"code": code, "kind": kind, "message": message},
    }


def raise_for_error(response: dict[str, Any]) -> dict[str, Any]:
    """Client side: pass an ok response through, raise a typed error
    otherwise."""
    if response.get("ok"):
        return response
    error = response.get("error") or {}
    code = int(error.get("code", INTERNAL))
    kind = str(error.get("kind", "error"))
    message = str(error.get("message", "unknown server error"))
    if code in (REJECTED, DRAINING):
        raise ServerRejected(code, kind, message)
    raise ServerError(code, kind, message)


# -- compile points on the wire ------------------------------------------------

def flags_to_wire(flags: FlagSet | None) -> dict[str, Any] | None:
    if flags is None:
        return None
    return {
        "compiler": flags.compiler,
        "flags": list(flags.flags),
        "gridify_blocksize": (
            list(flags.gridify_blocksize)
            if flags.gridify_blocksize is not None else None
        ),
    }


def flags_from_wire(payload: dict[str, Any] | None) -> FlagSet | None:
    if payload is None:
        return None
    if not isinstance(payload, dict) or "compiler" not in payload:
        raise ProtocolError(f"bad flags payload: {payload!r}")
    blocksize = payload.get("gridify_blocksize")
    return FlagSet(
        compiler=payload["compiler"],
        flags=tuple(payload.get("flags", ())),
        gridify_blocksize=tuple(blocksize) if blocksize else None,
    )


#: a fingerprint is a SHA-256 hex digest.  Nothing else is accepted: a
#: claimed fingerprint selects a store shard and names a file under the
#: cache directory, so it must never reach either unchecked.
_FINGERPRINT = re.compile(r"[0-9a-f]{64}")

#: the slot of a point sent without source whose fingerprint is not
#: stored: "send the source", not an error
MISS_SLOT = {"status": "miss"}


def point_to_wire(request: CompileRequest,
                  source: bool = True) -> dict[str, Any]:
    """A :class:`CompileRequest` as a JSON-safe dict, keyed by its
    fingerprint.  With *source*, the module goes out as its canonical
    print — the exact text the fingerprint is computed over, so
    re-parsing it server-side reproduces the fingerprint bit for bit;
    without, the point is a lookup the daemon may answer ``miss``."""
    point = {
        "fingerprint": request.fingerprint,
        "name": request.module.name,
        "compiler": request.compiler,
        "target": request.target,
        "flags": flags_to_wire(request.flags),
        "device": request.device.name if request.device is not None else None,
        "label": request.label,
    }
    if source:
        point["source"] = print_module(request.module)
    return point


def claimed_fingerprint(payload: Any) -> str | None:
    """The fingerprint a wire point claims (``None`` for a v1 point that
    carries only source).  Raises :class:`ProtocolError` on a malformed
    point, and on any fingerprint that is not exactly 64 lowercase hex
    characters — before it can touch the store."""
    if not isinstance(payload, dict):
        raise ProtocolError(f"compile point must be an object, "
                            f"got {type(payload).__name__}")
    claimed = payload.get("fingerprint")
    if claimed is None:
        if "source" not in payload:
            raise ProtocolError("compile point needs a 'fingerprint' or "
                                "a 'source'")
        return None
    if not isinstance(claimed, str) or not _FINGERPRINT.fullmatch(claimed):
        raise ProtocolError("'fingerprint' must be 64 lowercase hex "
                            "characters")
    return claimed


def point_label(payload: dict[str, Any]) -> str:
    """The label a slot for this point reports (the request's label, or
    its module name) — what :meth:`CompileService.sweep` puts in a
    :class:`JobError`."""
    return str(payload.get("label") or payload.get("name") or "module")


def point_from_wire(payload: dict[str, Any]) -> CompileRequest:
    """Rebuild a :class:`CompileRequest` from its wire form (parses the
    canonical source).  Raises :class:`ProtocolError` on a malformed
    payload — including source that does not parse, and source that
    does not hash to the point's claimed fingerprint."""
    claimed = claimed_fingerprint(payload)
    for key in ("source", "compiler", "target"):
        if not isinstance(payload.get(key), str) or not payload[key]:
            raise ProtocolError(f"compile point needs a non-empty {key!r}")
    name = payload.get("name") or "module"
    if not isinstance(name, str):
        raise ProtocolError("'name' must be a string")
    try:
        module = parse_module(payload["source"], name)
    except Exception as exc:
        raise ProtocolError(f"source does not parse: {exc}") from None
    device = None
    if payload.get("device") is not None:
        try:
            device = device_by_name(payload["device"])
        except Exception as exc:
            raise ProtocolError(f"unknown device {payload['device']!r}: "
                                f"{exc}") from None
    request = CompileRequest(
        module,
        payload["compiler"],
        payload["target"],
        flags_from_wire(payload.get("flags")),
        device,
        str(payload.get("label", "")),
    )
    if claimed is not None and request.fingerprint != claimed:
        raise ProtocolError(
            f"source fingerprints to {request.fingerprint[:12]}, not the "
            f"claimed {claimed[:12]}"
        )
    return request


# -- artifacts on the wire -----------------------------------------------------

def pack_artifact(artifact: Any) -> str:
    """Base64 text of the pickled artifact (JSON-safe)."""
    return base64.b64encode(
        pickle.dumps(artifact, protocol=pickle.HIGHEST_PROTOCOL)
    ).decode("ascii")


def pickled_slot(pickled: bytes) -> dict[str, Any]:
    """The ``ok`` slot of an artifact that is already pickled (the
    daemon's hit path sends the store's bytes as they are)."""
    return {"status": "ok",
            "artifact": base64.b64encode(pickled).decode("ascii")}


def unpack_artifact(packed: str) -> Any:
    try:
        return pickle.loads(base64.b64decode(packed.encode("ascii")))
    except Exception as exc:
        raise ProtocolError(f"artifact payload does not decode: {exc}") \
            from None


def slot_to_wire(result: Any) -> dict[str, Any]:
    """One sweep slot (artifact or JobError) as a wire dict."""
    if isinstance(result, JobError):
        return {
            "status": "error",
            "kind": result.kind,
            "message": result.message,
            "label": result.label,
            "fingerprint": result.fingerprint,
            "seconds": result.seconds,
        }
    return {"status": "ok", "artifact": pack_artifact(result)}


def slot_from_wire(payload: dict[str, Any]) -> Any:
    """Rebuild a sweep slot: the artifact, or a :class:`JobError` with
    its structured fields — byte-compatible with the in-process path."""
    if not isinstance(payload, dict) or "status" not in payload:
        raise ProtocolError(f"bad sweep slot: {payload!r}")
    if payload["status"] == "error":
        return JobError(
            str(payload.get("label", "")),
            str(payload.get("fingerprint", "")),
            str(payload.get("kind", "error")),
            str(payload.get("message", "")),
            float(payload.get("seconds", 0.0)),
        )
    if payload["status"] != "ok" or "artifact" not in payload:
        raise ProtocolError(f"bad sweep slot: {payload!r}")
    return unpack_artifact(payload["artifact"])
