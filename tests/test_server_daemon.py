"""Integration tests on the compile daemon (docs/SERVER.md).

Real sockets on ephemeral ports throughout: coalescing across client
connections, admission control (queue bound, per-client quotas, drain),
connection survival through malformed frames, and the endpoint surface.
"""

import socket
import threading
import time

import pytest

from repro.frontend import parse_module
from repro.server import protocol
from repro.server.client import ServerClient, spawn_local
from repro.server.daemon import ReproServer, ServerConfig
from repro.server.quotas import AdmissionController, TokenBucket
from repro.server.smoke import artifact_signature, fig4_requests
from repro.service.fingerprint import CompileRequest
from repro.service.resilience import SimClock
from repro.service.scheduler import JobError

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


def demo_request() -> CompileRequest:
    return CompileRequest(parse_module(SOURCE, "demo"), "caps", "cuda")


def make_server(**overrides) -> ReproServer:
    config = ServerConfig(port=0, jobs=2, **overrides)
    return ReproServer(config).start()


# --------------------------------------------------------------------------
# coalescing across client connections
# --------------------------------------------------------------------------

def test_n_identical_concurrent_requests_compile_exactly_once():
    """The coalescing contract: N clients asking for the same fingerprint
    while it is in flight share ONE compile."""
    from repro.core.method import compile_stage

    clients = 4
    release = threading.Event()

    def held_compile(request):
        # the leader's compile stays in flight until every other client
        # has joined its flight
        assert release.wait(30)
        return compile_stage(request.module, request.compiler,
                             request.target, request.flags)

    server = make_server(service_kwargs={"compile_fn": held_compile})
    try:
        host, port = server.address
        barrier = threading.Barrier(clients)
        errors: list[str] = []
        results: dict[int, str] = {}

        def drive(index: int) -> None:
            try:
                with ServerClient(host, port,
                                  client_id=f"c{index}") as client:
                    barrier.wait(timeout=10)
                    artifact = client.compile_request(demo_request())
                results[index] = artifact_signature(artifact)
            except Exception as exc:  # noqa: BLE001 - collected for assert
                errors.append(f"{index}: {exc}")

        threads = [threading.Thread(target=drive, args=(i,))
                   for i in range(clients)]
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + 30
        while (server.batcher.snapshot()["coalesced"] < clients - 1
               and time.monotonic() < deadline):
            time.sleep(0.01)
        release.set()
        for thread in threads:
            thread.join(timeout=30)

        assert not errors
        assert len(set(results.values())) == 1  # same artifact for everyone
        assert server.service.metrics.snapshot()["compiles"] == 1
        batch = server.batcher.snapshot()
        assert batch["coalesced"] == clients - 1
    finally:
        server.drain()


def test_sequential_repeat_is_a_cache_hit_not_a_recompile():
    with spawn_local(ServerConfig(jobs=1)) as (server, client):
        first = client.compile_request(demo_request())
        second = client.compile_request(demo_request())
        assert artifact_signature(first) == artifact_signature(second)
        snap = server.service.metrics.snapshot()
        assert snap["compiles"] == 1
        assert snap["cache_hits"] >= 1


def test_sweep_through_daemon_matches_in_process_byte_for_byte():
    from repro.service.scheduler import CompileService

    requests = fig4_requests(6)
    baseline = [artifact_signature(s)
                for s in CompileService().sweep(requests)]
    with spawn_local(ServerConfig(jobs=2)) as (_server, client):
        got = [artifact_signature(s) for s in client.sweep(requests)]
    assert got == baseline


# --------------------------------------------------------------------------
# admission control
# --------------------------------------------------------------------------

def test_oversized_sweep_is_rejected_not_queued():
    server = make_server(max_queue_depth=3)
    try:
        host, port = server.address
        with ServerClient(host, port, client_id="greedy") as client:
            with pytest.raises(protocol.ServerRejected) as excinfo:
                client.sweep(fig4_requests(8))
        assert excinfo.value.code == protocol.REJECTED
        assert excinfo.value.kind == "queue-full"
        assert server.admission.snapshot()["rejected_queue"] == 1
        # the bound is on concurrency, not size: a fitting sweep still runs
        with ServerClient(host, port, client_id="modest") as client:
            slots = client.sweep(fig4_requests(2))
        assert len(slots) == 2
    finally:
        server.drain()


def test_per_client_quota_rejects_with_429():
    server = make_server(quota_rate=0.001, quota_burst=2.0)
    try:
        host, port = server.address
        with ServerClient(host, port, client_id="burster") as client:
            # the burst allowance covers 2 points...
            assert len(client.sweep(fig4_requests(2))) == 2
            # ...and the sustained rate is ~zero, so the next request
            # is over quota
            with pytest.raises(protocol.ServerRejected) as excinfo:
                client.sweep(fig4_requests(2))
        assert excinfo.value.kind == "quota"
        # quotas are per client: a different client still has its burst
        with ServerClient(host, port, client_id="fresh") as client:
            assert len(client.sweep(fig4_requests(2))) == 2
        assert server.admission.snapshot()["rejected_quota"] == 1
    finally:
        server.drain()


def test_token_bucket_refills_on_its_clock():
    clock = SimClock()
    bucket = TokenBucket(rate=2.0, burst=4.0, clock=clock)
    assert bucket.try_spend(4.0)          # full at birth
    assert not bucket.try_spend(1.0)      # empty
    clock.sleep(1.0)                    # +2 tokens
    assert bucket.try_spend(2.0)
    assert not bucket.try_spend(0.5)
    clock.sleep(100.0)                  # refill caps at burst
    assert bucket.available() == pytest.approx(4.0)


def test_admission_controller_depth_and_reasons():
    clock = SimClock()
    controller = AdmissionController(max_queue_depth=20, quota_rate=10.0,
                                     quota_burst=10.0, clock=clock)
    assert controller.admit("a", 3).allowed
    refusal = controller.admit("a", 18)         # 3 + 18 > 20
    assert not refusal.allowed and refusal.reason == "queue-full"
    # quota: "a" has 10 - 3 = 7 tokens left; 8 points is over (the depth
    # gate would allow it, so this exercises the quota gate specifically)
    refusal = controller.admit("a", 8)
    assert not refusal.allowed and refusal.reason == "quota"
    controller.release(3)
    assert controller.depth == 0
    clock.sleep(1.0)                            # +10, capped at 10
    assert controller.admit("a", 8).allowed
    controller.release(8)
    controller.start_draining()
    refusal = controller.admit("b", 1)
    assert not refusal.allowed and refusal.reason == "draining"
    snap = controller.snapshot()
    assert snap["rejected_queue"] == 1
    assert snap["rejected_quota"] == 1
    assert snap["rejected_draining"] == 1


# --------------------------------------------------------------------------
# drain / shutdown
# --------------------------------------------------------------------------

def test_draining_server_answers_503():
    server = make_server()
    try:
        host, port = server.address
        server.admission.start_draining()
        with ServerClient(host, port, client_id="late") as client:
            with pytest.raises(protocol.ServerRejected) as excinfo:
                client.sweep(fig4_requests(1))
        assert excinfo.value.code == protocol.DRAINING
        assert excinfo.value.kind == "draining"
    finally:
        server.drain()


def test_shutdown_op_answers_then_drains():
    server = make_server()
    host, port = server.address
    with ServerClient(host, port, client_id="admin") as client:
        response = client.shutdown()
    assert response["draining"] is True
    # the drain completes in the background and the listener goes away
    assert server._stopped.wait(timeout=10)
    with pytest.raises(OSError):
        socket.create_connection((host, port), timeout=0.5).close()


# --------------------------------------------------------------------------
# protocol robustness over a live socket
# --------------------------------------------------------------------------

def test_malformed_frames_get_400_and_the_connection_survives():
    server = make_server()
    try:
        host, port = server.address
        with socket.create_connection((host, port), timeout=10) as sock:
            reader = sock.makefile("rb")
            for garbage in (b"not json\n", b"[1,2]\n", b'{"op": 7}\n',
                            b'{"op": ' + b'[' * 100000 + b']' * 100000
                            + b'}\n'):
                sock.sendall(garbage)
                response = protocol.decode_frame(reader.readline())
                assert response["ok"] is False
                assert response["error"]["code"] == protocol.BAD_REQUEST
            # same connection, now a valid frame: still served
            sock.sendall(protocol.encode_frame(
                {"id": 1, "op": "hello", "client": "probe"}))
            response = protocol.decode_frame(reader.readline())
            assert response["ok"] is True
            assert response["protocol"] == protocol.PROTOCOL
        assert server.protocol_errors == 4
    finally:
        server.drain()


def test_over_long_frame_gets_400_and_a_close(monkeypatch):
    """A frame longer than MAX_FRAME_BYTES is never buffered whole: the
    daemon answers 400 frame-too-large, closes that connection (it cannot
    resync mid-line), and keeps serving new ones."""
    monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 1024)
    server = make_server()
    try:
        host, port = server.address
        hello = {"id": 1, "op": "hello", "client": "probe"}
        frame = protocol.encode_frame({**hello, "pad": ""})
        # exactly one byte over the limit, newline included
        frame = protocol.encode_frame(
            {**hello, "pad": "x" * (1025 - len(frame))})
        assert len(frame) == 1025
        with socket.create_connection((host, port), timeout=10) as sock:
            reader = sock.makefile("rb")
            sock.sendall(frame)
            response = protocol.decode_frame(reader.readline())
            assert response["ok"] is False
            assert response["error"]["code"] == protocol.BAD_REQUEST
            assert response["error"]["kind"] == "frame-too-large"
            assert reader.readline() == b""  # closed
        assert server.protocol_errors == 1
        with socket.create_connection((host, port), timeout=10) as sock:
            reader = sock.makefile("rb")
            sock.sendall(protocol.encode_frame(hello))
            assert protocol.decode_frame(reader.readline())["ok"] is True
    finally:
        server.drain()


def test_unknown_op_gets_404_and_the_connection_survives():
    with spawn_local() as (_server, client):
        with pytest.raises(protocol.ServerError) as excinfo:
            client._call("frobnicate")
        assert excinfo.value.code == protocol.UNKNOWN_OP
        # the same client object keeps working
        assert client.status()["draining"] is False


# --------------------------------------------------------------------------
# endpoints + telemetry lanes
# --------------------------------------------------------------------------

def test_status_and_stats_surfaces():
    with spawn_local(ServerConfig(jobs=1, shards=4)) as (_server, client):
        client.sweep(fig4_requests(2))
        status = client.status()
        assert status["queue"]["depth"] == 0
        assert status["requests_total"] >= 1
        stats = client.stats()
        assert stats["service"]["compiles"] == 2
        assert stats["server"]["batcher"]["batched_points"] == 2


def test_requests_are_traced_in_per_client_lanes():
    from repro.telemetry import configure_tracer, get_tracer, reset_tracer

    configure_tracer(enabled=True)
    try:
        with spawn_local(client_id="lane-me") as (_server, client):
            client.sweep(fig4_requests(1))
        spans = [s for s in get_tracer().spans()
                 if s.name == "server.request"]
        assert spans
        assert {s.attributes.get("lane") for s in spans} == {"client:lane-me"}
    finally:
        reset_tracer()


# --------------------------------------------------------------------------
# fingerprint-first: hits on the connection thread, source only on a miss
# --------------------------------------------------------------------------

def _raw_frame(host, port, frames):
    """Send *frames* over one raw connection; the decoded responses."""
    responses = []
    with socket.create_connection((host, port), timeout=10) as sock:
        reader = sock.makefile("rb")
        for frame in frames:
            sock.sendall(protocol.encode_frame(frame))
            responses.append(protocol.decode_frame(reader.readline()))
    return responses


def test_sequential_repeat_counts_one_hit_and_one_miss():
    """A hit counts one request and one cache hit; the miss that fell
    through to a compile counts one cache miss, not one per lookup."""
    with spawn_local(ServerConfig(jobs=1)) as (server, client):
        client.compile_request(demo_request())
        submitted = server.batcher.snapshot()["submitted"]
        client.compile_request(demo_request())
        snap = server.service.metrics.snapshot()
        assert snap["requests"] == 2
        assert snap["cache_hits"] == 1
        assert snap["compiles"] == 1
        assert server.service.cache.stats.misses == 1
        # the hit took no batcher ticket
        assert server.batcher.snapshot()["submitted"] == submitted


def test_hit_is_answered_without_parse_or_batch():
    from repro.telemetry import configure_tracer, get_tracer, reset_tracer

    request = demo_request()
    with spawn_local(ServerConfig(jobs=1)) as (_server, client):
        client.compile_request(request)
        configure_tracer(enabled=True)
        try:
            client.compile_request(request)
            spans = get_tracer().spans()
        finally:
            reset_tracer()
    names = {s.name for s in spans}
    assert "frontend.parse" not in names
    assert "server.batch" not in names
    (lookup,) = [s for s in spans if s.name == "service.lookup"]
    assert lookup.category == "service"
    assert lookup.attributes["cache"] == "hit"
    assert lookup.attributes["fingerprint"] == request.fingerprint[:12]
    (served,) = [s for s in spans if s.name == "server.request"]
    assert served.attributes["cache"] == "hit"
    (call,) = [s for s in spans if s.name == "server.client"]
    assert "resent" not in call.attributes  # no source went out


def test_sweep_resends_only_the_misses_in_request_order():
    from repro.service.scheduler import CompileService

    requests = fig4_requests(6)
    baseline = [artifact_signature(s)
                for s in CompileService().sweep(requests)]
    with spawn_local(ServerConfig(jobs=2)) as (server, client):
        client.sweep(requests[1::2])          # warm every other point
        submitted = server.batcher.snapshot()["submitted"]
        got = [artifact_signature(s) for s in client.sweep(requests)]
        assert got == baseline
        assert server.batcher.snapshot()["submitted"] - submitted == 3


def test_cached_refusal_on_the_hit_path_matches_the_sweep_slot():
    """PGI has no OpenCL backend: the cached refusal replays as the same
    compile-error slot the sweep path produced."""
    request = CompileRequest(parse_module(SOURCE, "demo"), "pgi", "opencl",
                             label="pgi-ocl")
    with spawn_local(ServerConfig(jobs=1)) as (server, client):
        (cold,) = client.sweep([request])
        (warm,) = client.sweep([request])
        assert server.service.metrics.snapshot()["cache_hits"] >= 1
        with pytest.raises(JobError) as raised:
            client.compile_request(request)
    fields = lambda e: (type(e), e.label, e.fingerprint, e.kind,  # noqa: E731
                        e.message, e.seconds)
    assert cold.kind == "compile-error"
    assert fields(warm) == fields(cold)
    assert fields(raised.value) == fields(cold)


def test_miss_probe_is_not_charged_to_the_quota():
    server = make_server(quota_rate=0.001, quota_burst=1.0)
    try:
        host, port = server.address
        probe = protocol.point_to_wire(demo_request(), source=False)
        responses = _raw_frame(host, port, [
            {"id": i, "op": "compile", "client": "prober", "point": probe}
            for i in range(3)
        ])
        assert [r["result"] for r in responses] == [{"status": "miss"}] * 3
        assert server.admission.snapshot()["admitted"] == 0
        # the one-point burst still covers the compile itself
        with ServerClient(host, port, client_id="prober") as client:
            client.compile_request(demo_request())
        assert server.admission.snapshot()["rejected_quota"] == 0
    finally:
        server.drain()


def test_injected_cache_read_fault_on_the_hit_path_degrades_to_a_miss():
    from repro.faults.plan import parse_fault_spec

    plan = parse_fault_spec("cache-read:p=1")
    with spawn_local(ServerConfig(jobs=1,
                                  service_kwargs={"fault_plan": plan})) \
            as (server, client):
        first = client.compile_request(demo_request())
        snap = server.service.metrics.snapshot()
        # probe lookup, resend lookup and the compile path's read all flake
        assert snap["cache_io_errors"] == 3
        assert snap["compiles"] == 1 and snap["cache_hits"] == 0
        second = client.compile_request(demo_request())
        assert server.service.metrics.snapshot()["compiles"] == 2
    assert artifact_signature(first) == artifact_signature(second)


@pytest.mark.parametrize("claim", [
    "../../../../etc/passwd" + "0" * 42,    # traversal, right length
    "z" * 64,                               # not hex
    1234,                                   # wrong JSON type
])
def test_malformed_claimed_fingerprint_gets_400_before_any_store_access(
        claim):
    server = make_server()
    try:
        host, port = server.address
        point = protocol.point_to_wire(demo_request(), source=False)
        point["fingerprint"] = claim
        before = server.service.cache.stats.snapshot()
        bad, hello = _raw_frame(host, port, [
            {"id": 1, "op": "compile", "client": "evil", "point": point},
            {"id": 2, "op": "hello", "client": "evil"},
        ])
        assert bad["ok"] is False
        assert bad["error"]["code"] == protocol.BAD_REQUEST
        assert hello["ok"] is True            # the connection survived
        assert server.service.cache.stats.snapshot() == before
        assert len(server.service.cache) == 0
    finally:
        server.drain()


def test_source_that_does_not_match_its_claim_gets_400_and_stores_nothing():
    server = make_server()
    try:
        host, port = server.address
        honest = protocol.point_to_wire(demo_request())
        other = CompileRequest(parse_module(SOURCE, "other"), "caps", "cuda")
        forged = dict(honest, fingerprint=other.fingerprint)
        bad, hello = _raw_frame(host, port, [
            {"id": 1, "op": "sweep", "client": "evil", "points": [forged]},
            {"id": 2, "op": "hello", "client": "evil"},
        ])
        assert bad["error"]["code"] == protocol.BAD_REQUEST
        assert "claimed" in bad["error"]["message"]
        assert hello["ok"] is True
        assert len(server.service.cache) == 0
        assert server.service.metrics.snapshot()["compiles"] == 0
    finally:
        server.drain()


def test_concurrent_hits_count_exactly_under_a_short_switch_interval():
    """More client threads than cores hammer the hit path; no hit
    counter loses an update and nothing recompiles."""
    import sys

    requests = fig4_requests(4)
    threads_n, repeats = 8, 5
    interval = sys.getswitchinterval()
    with spawn_local(ServerConfig(jobs=2)) as (server, client):
        client.sweep(requests)
        before = server.service.metrics.snapshot()
        hits_before = server.service.cache.stats.memory_hits
        host, port = server.address
        errors: list[str] = []

        def drive(index: int) -> None:
            try:
                with ServerClient(host, port, client_id=f"h{index}") as c:
                    for _ in range(repeats):
                        c.sweep(requests)
            except Exception as exc:  # noqa: BLE001 - collected for assert
                errors.append(f"{index}: {exc}")

        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=drive, args=(i,))
                       for i in range(threads_n)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        hits = threads_n * repeats * len(requests)
        after = server.service.metrics.snapshot()
        assert after["cache_hits"] - before["cache_hits"] == hits
        assert after["requests"] - before["requests"] == hits
        assert after["compiles"] == before["compiles"]
        assert server.service.cache.stats.memory_hits - hits_before == hits
