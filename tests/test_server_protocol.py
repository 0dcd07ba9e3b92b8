"""Property tests on the daemon wire protocol (docs/SERVER.md).

The contracts a client can rely on:

* framing round trip — any JSON-safe message survives
  ``encode_frame -> decode_frame`` unchanged;
* compile points round trip **fingerprint-stably** — a
  :class:`CompileRequest` rebuilt from its wire form has the same
  fingerprint as the original (the determinism contract's foundation),
  for every golden point the daemon serves;
* a claimed fingerprint is exactly 64 lowercase hex characters, and
  source that does not hash to it is refused;
* sweep slots round trip — artifacts and :class:`JobError` slots both
  survive the wire with every structured field intact;
* malformed frames raise :class:`ProtocolError` (which the daemon turns
  into a 400 response) rather than anything that would kill the
  connection;
* error responses map to the right exception type: 429/503 become
  :class:`ServerRejected`, everything else :class:`ServerError`.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compilers.flags import FlagSet
from repro.frontend import parse_module
from repro.service.fingerprint import CompileRequest
from repro.service.scheduler import JobError
from repro.server import protocol
from repro.server.protocol import (
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

SOURCE = """
#pragma acc kernels
void demo(float *a, const float *b, int n) {
  int i;
  #pragma acc loop independent
  for (i = 0; i < n; i++) {
    a[i] = b[i] * 2.0f;
  }
}
"""


def demo_request(**kwargs):
    return CompileRequest(parse_module(SOURCE, "demo"), "caps", "cuda",
                          **kwargs)


# --------------------------------------------------------------------------
# framing
# --------------------------------------------------------------------------

_json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(min_value=-(2**31), max_value=2**31),
    st.floats(allow_nan=False, allow_infinity=False), st.text(max_size=40),
)
_json_values = st.recursive(
    _json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=10), children, max_size=4),
    ),
    max_leaves=20,
)
_messages = st.dictionaries(st.text(min_size=1, max_size=12), _json_values,
                            max_size=6)


@settings(max_examples=100, deadline=None)
@given(_messages)
def test_frame_round_trip(message):
    assert decode_frame(encode_frame(message)) == message


def test_frames_are_single_lines():
    frame = encode_frame({"op": "hello", "note": "a\nb"})
    assert frame.endswith(b"\n")
    assert frame.count(b"\n") == 1  # embedded newlines stay escaped


@pytest.mark.parametrize("garbage", [
    b"", b"\n", b"not json\n", b"[1, 2, 3]\n", b'"just a string"\n',
    b"{truncated\n", b"\xff\xfe\n", b"42\n", b"null\n",
    pytest.param(b'{"op": ' + b"[" * 100000 + b"]" * 100000 + b"}\n",
                 id="deeply-nested"),
])
def test_malformed_frames_raise_protocol_error(garbage):
    with pytest.raises(ProtocolError):
        decode_frame(garbage)


@settings(max_examples=50, deadline=None)
@given(st.binary(max_size=60))
def test_arbitrary_bytes_never_raise_anything_else(data):
    """Any byte garbage either decodes (valid frame) or raises exactly
    ProtocolError — the daemon's keep-the-connection-alive guarantee."""
    try:
        message = decode_frame(data)
    except ProtocolError:
        return
    assert isinstance(message, dict)


@pytest.mark.parametrize("bad", [
    {},                                # no op
    {"op": 7},                         # op not a string
    {"op": "sweep", "client": ""},     # empty client
    {"op": "sweep", "client": 1},      # client not a string
    {"op": "sweep", "id": [1]},        # id not int/str
])
def test_validate_request_rejects_bad_envelopes(bad):
    with pytest.raises(ProtocolError):
        protocol.validate_request(bad)


def test_validate_request_defaults_client():
    assert protocol.validate_request({"op": "hello"}) == ("hello", "anonymous")


# --------------------------------------------------------------------------
# compile points: the fingerprint-stable round trip
# --------------------------------------------------------------------------

_flag_sets = st.one_of(
    st.none(),
    st.builds(
        FlagSet,
        compiler=st.just("PGI"),
        flags=st.lists(
            st.sampled_from(["-O4", "-fast", "-Mvect", "-Munroll"]),
            max_size=3, unique=True,
        ).map(tuple),
    ),
    st.builds(
        FlagSet,
        compiler=st.just("CAPS"),
        gridify_blocksize=st.one_of(
            st.none(),
            st.tuples(st.integers(1, 1024), st.integers(1, 64)),
        ),
    ),
)


@settings(max_examples=30, deadline=None)
@given(flags=_flag_sets,
       label=st.text(max_size=20),
       compiler=st.sampled_from(["caps", "pgi"]),
       target=st.sampled_from(["cuda", "opencl"]))
def test_point_round_trip_is_fingerprint_stable(flags, label, compiler,
                                                target):
    request = CompileRequest(parse_module(SOURCE, "demo"), compiler, target,
                             flags, None, label)
    rebuilt = point_from_wire(point_to_wire(request))
    assert rebuilt.compiler == request.compiler
    assert rebuilt.target == request.target
    assert rebuilt.flags == request.flags
    assert rebuilt.label == request.label
    assert rebuilt.fingerprint == request.fingerprint


def test_point_round_trip_carries_device():
    from repro.devices import K40

    request = demo_request(device=K40)
    rebuilt = point_from_wire(point_to_wire(request))
    assert rebuilt.device is not None
    assert rebuilt.device.name == K40.name
    assert rebuilt.fingerprint == request.fingerprint


def _daemon_golden_requests():
    """The compile request behind every golden key a daemon can serve:
    the Fig. 4 grid and every benchmark stage (ladder rungs included)
    x (caps-cuda, caps-opencl, pgi-cuda)."""
    from repro.core.ladder import ladder_stages
    from repro.kernels import get_benchmark
    from repro.server import fig4_requests
    from tests.passes._golden import load_golden

    fig4 = {f"fig4/{r.label}": r for r in fig4_requests()}
    stages = {}
    requests = {}
    for key in sorted(load_golden()):
        if "/opencl/" in key:
            continue  # hand-written OpenCL programs never cross the wire
        if key in fig4:
            requests[key] = fig4[key]
            continue
        bench, stage, pair = key.split("/")
        if bench not in stages:
            benchmark = get_benchmark(bench)
            stages[bench] = dict(benchmark.stages())
            stages[bench].update(ladder_stages(benchmark.module()))
        compiler, target = pair.split("-")
        requests[key] = CompileRequest(stages[bench][stage], compiler, target)
    return requests


def test_every_daemon_golden_point_round_trips_fingerprint_stably():
    """The server re-derives the client's fingerprint for every point
    the benchmarks send — including tiled ladder stages, whose loop
    indices the printer declares itself."""
    requests = _daemon_golden_requests()
    assert len(requests) == 219
    drifted = []
    for key, request in requests.items():
        try:  # a drifted fingerprint fails the daemon's claim check
            rebuilt = point_from_wire(point_to_wire(request))
        except ProtocolError:
            drifted.append(key)
            continue
        if rebuilt.fingerprint != request.fingerprint:
            drifted.append(key)
    assert drifted == []


def test_point_without_source_carries_only_the_fingerprint():
    request = demo_request()
    point = point_to_wire(request, source=False)
    assert "source" not in point
    assert point["fingerprint"] == request.fingerprint
    assert protocol.claimed_fingerprint(point) == request.fingerprint
    with pytest.raises(ProtocolError):
        point_from_wire(point)  # nothing to parse


def test_v1_point_without_fingerprint_still_parses():
    request = demo_request()
    point = point_to_wire(request)
    del point["fingerprint"]
    assert protocol.claimed_fingerprint(point) is None
    assert point_from_wire(point).fingerprint == request.fingerprint


@pytest.mark.parametrize("claim", [
    "../" * 20 + "etc/passwd",          # traversal
    "g" * 64,                           # not hex
    "A" * 64,                           # not lowercase
    "ab" * 31,                          # too short
    "ab" * 33,                          # too long
    64,                                 # wrong JSON type
    ["ab" * 32],
])
def test_malformed_fingerprints_raise_protocol_error(claim):
    point = point_to_wire(demo_request(), source=False)
    point["fingerprint"] = claim
    with pytest.raises(ProtocolError):
        protocol.claimed_fingerprint(point)


def test_source_that_does_not_hash_to_the_claim_is_refused():
    point = point_to_wire(demo_request())
    point["fingerprint"] = "0" * 64
    with pytest.raises(ProtocolError, match="claimed"):
        point_from_wire(point)


@pytest.mark.parametrize("corrupt", [
    {},
    {"source": SOURCE},                                   # missing fields
    {"source": "", "compiler": "caps", "target": "cuda"},  # empty source
    {"source": "int x = ;", "compiler": "caps", "target": "cuda"},
    {"source": SOURCE, "compiler": "caps", "target": "cuda",
     "device": "no-such-device"},
    {"source": SOURCE, "compiler": "caps", "target": "cuda",
     "flags": {"no_compiler": True}},
    "not even a dict",
    {"source": SOURCE.replace("i < n", "i < $n"), "compiler": "caps",
     "target": "cuda"},                                 # '$' does not lex
])
def test_bad_points_raise_protocol_error(corrupt):
    with pytest.raises(ProtocolError):
        point_from_wire(corrupt)


# --------------------------------------------------------------------------
# sweep slots
# --------------------------------------------------------------------------

def test_artifact_slot_round_trip():
    from repro.core.method import compile_stage

    artifact = compile_stage(parse_module(SOURCE, "demo"), "caps", "cuda")
    rebuilt = slot_from_wire(slot_to_wire(artifact))
    assert rebuilt.compiler == artifact.compiler
    assert rebuilt.log == artifact.log
    assert [k.ptx.render() for k in rebuilt.kernels] == \
        [k.ptx.render() for k in artifact.kernels]


@settings(max_examples=40, deadline=None)
@given(label=st.text(max_size=20),
       fingerprint=st.text(st.sampled_from("0123456789abcdef"), max_size=16),
       kind=st.sampled_from(["transient", "fatal", "timeout"]),
       message=st.text(max_size=60),
       seconds=st.floats(min_value=0, max_value=1e3, allow_nan=False))
def test_job_error_slot_round_trip(label, fingerprint, kind, message,
                                   seconds):
    error = JobError(label, fingerprint, kind, message, seconds)
    rebuilt = slot_from_wire(slot_to_wire(error))
    assert isinstance(rebuilt, JobError)
    assert (rebuilt.label, rebuilt.fingerprint, rebuilt.kind,
            rebuilt.message, rebuilt.seconds) == \
        (label, fingerprint, kind, message, seconds)


@pytest.mark.parametrize("bad", [
    {}, {"status": "ok"}, {"status": "maybe"}, {"status": "ok",
                                                "artifact": "!!!not-b64!!!"},
    [],
])
def test_bad_slots_raise_protocol_error(bad):
    with pytest.raises(ProtocolError):
        slot_from_wire(bad)


# --------------------------------------------------------------------------
# error responses -> typed exceptions
# --------------------------------------------------------------------------

def test_ok_response_passes_through():
    response = protocol.ok_response(3, answer=42)
    assert protocol.raise_for_error(response) is response


@pytest.mark.parametrize("code,expected", [
    (protocol.REJECTED, ServerRejected),
    (protocol.DRAINING, ServerRejected),
    (protocol.BAD_REQUEST, ServerError),
    (protocol.UNKNOWN_OP, ServerError),
    (protocol.INTERNAL, ServerError),
])
def test_error_codes_map_to_exception_types(code, expected):
    response = protocol.error_response(1, code, "some-kind", "why")
    with pytest.raises(expected) as excinfo:
        protocol.raise_for_error(response)
    assert excinfo.value.code == code
    assert excinfo.value.kind == "some-kind"
