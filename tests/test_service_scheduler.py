"""CompileService: caching, dedup, pool scheduling, structured errors."""

import threading

import pytest

from repro.compilers.framework import CompilationError
from repro.frontend import parse_module
from repro.service import (
    ArtifactCache,
    CompileRequest,
    CompileService,
    JobError,
    get_default_service,
    reset_default_service,
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


@pytest.fixture
def module():
    return parse_module(SOURCE, "demo")


class TestCompile:
    def test_hit_avoids_recompile(self, module):
        service = CompileService()
        first = service.compile(module, "caps", "cuda")
        second = service.compile(module, "caps", "cuda")
        assert service.metrics.compiles == 1
        assert service.metrics.cache_hits == 1
        # invisible: both artifacts identical, neither aliased
        assert first is not second
        assert first.kernels[0].ptx.render() == second.kernels[0].ptx.render()

    def test_reparsed_module_hits(self, module):
        service = CompileService()
        service.compile(module, "caps", "cuda")
        service.compile(parse_module(SOURCE, "demo"), "caps", "cuda")
        assert service.metrics.compiles == 1

    def test_compiler_error_cached_and_replayed(self, module):
        calls = []

        def failing(request):
            calls.append(request.fingerprint)
            raise CompilationError("nope")

        service = CompileService(compile_fn=failing)
        with pytest.raises(CompilationError):
            service.compile(module, "caps", "cuda")
        with pytest.raises(CompilationError):
            service.compile(module, "caps", "cuda")
        assert len(calls) == 1  # the failure replayed from cache
        assert service.metrics.errors == 1
        assert service.metrics.cache_hits == 1

    def test_unknown_compiler_raises(self, module):
        with pytest.raises(ValueError):
            CompileService().compile(module, "gcc", "cuda")


class TestBatch:
    def test_sweep_preserves_order(self, module):
        other = parse_module(SOURCE.replace("2.0f", "3.0f"), "demo")
        requests = [
            CompileRequest(module, "caps", "cuda"),
            CompileRequest(other, "caps", "cuda"),
            CompileRequest(module, "pgi", "cuda"),
        ]
        serial = CompileService().sweep(requests)
        with CompileService(jobs=4) as service:
            pooled = service.sweep(requests)
        assert [r.compiler for r in serial] == ["CAPS", "CAPS", "PGI"]
        for a, b in zip(serial, pooled):
            assert a.kernels[0].ptx.render() == b.kernels[0].ptx.render()

    def test_sweep_captures_errors_in_slot(self, module):
        requests = [
            CompileRequest(module, "caps", "cuda", label="good"),
            CompileRequest(module, "gcc", "cuda", label="bad"),
            CompileRequest(module, "pgi", "cuda", label="also good"),
        ]
        results = CompileService().sweep(requests)
        assert results[0].compiler == "CAPS"
        assert isinstance(results[1], JobError)
        assert results[1].kind == "compile-error"
        assert results[1].label == "bad"
        assert results[2].compiler == "PGI"

    def test_identical_requests_batch(self, module):
        service = CompileService()
        requests = [CompileRequest(module, "caps", "cuda")] * 3
        results = service.sweep(requests)
        assert service.metrics.compiles == 1
        assert len(results) == 3


class TestPool:
    def test_inflight_dedup_shares_one_future(self, module):
        release = threading.Event()
        started = threading.Event()

        def slow(request):
            started.set()
            assert release.wait(5.0)
            return "artifact"

        service = CompileService(jobs=2, compile_fn=slow)
        request = CompileRequest(module, "caps", "cuda")
        first = service.submit(request)
        assert started.wait(5.0)
        second = service.submit(request)  # identical while in flight
        assert second is first
        assert service.metrics.dedup_hits == 1
        release.set()
        assert first.result(5.0) == "artifact"
        assert service.metrics.compiles == 1
        service.close()

    def test_context_manager_closes_pool(self, module):
        with CompileService(jobs=2) as service:
            service.sweep([CompileRequest(module, "caps", "cuda")])
        assert service._pool is None


class TestDefaultService:
    def test_singleton(self):
        reset_default_service()
        try:
            assert get_default_service() is get_default_service()
        finally:
            reset_default_service()

    def test_report_lines_include_cache_section(self, module):
        service = CompileService(cache=ArtifactCache(max_entries=8))
        service.compile(module, "caps", "cuda")
        service.compile(module, "caps", "cuda")
        text = "\n".join(service.report_lines())
        assert "compile service" in text
        assert "1 cache hits" in text
        assert "1 memory hits" in text


class TestJobErrorPickle:
    """JobError must survive the disk cache tier: the default
    Exception.__reduce__ would replay only ``args`` (the message) and
    crash the 5-argument constructor on load."""

    def test_round_trip_preserves_all_fields(self):
        import pickle

        err = JobError("lbl", "fp123", "timeout", "took too long", 1.5)
        clone = pickle.loads(pickle.dumps(err))
        assert clone.label == "lbl"
        assert clone.fingerprint == "fp123"
        assert clone.kind == "timeout"
        assert clone.message == "took too long"
        assert clone.seconds == 1.5
        assert str(clone) == str(err)


class TestFailureCaching:
    """Harness requirement (ISSUE 2): a failing fingerprint must replay
    the same error from the warm cache without recompiling, and must not
    poison successful artifacts cached beside it."""

    @pytest.fixture()
    def module(self):
        return parse_module(SOURCE, "demo")

    def test_failure_replays_without_recompiling(self, module):
        compiles = []

        def failing(request):
            compiles.append(request.fingerprint)
            raise CompilationError("boom")

        service = CompileService(compile_fn=failing)
        req = CompileRequest(module, "caps", "cuda", label="bad")
        (first,) = service.sweep([req])
        (second,) = service.sweep([req])
        assert isinstance(first, JobError) and first.kind == "compile-error"
        assert isinstance(second, JobError)
        assert second.message == first.message
        assert len(compiles) == 1  # second sweep hit the cached failure
        assert service.metrics.cache_hits == 1

    def test_failure_does_not_poison_good_entries(self, module):
        calls = []

        def sometimes(request):
            calls.append(request.target)
            if request.target == "opencl":
                raise CompilationError("no backend")
            return f"artifact-{request.target}"

        service = CompileService(compile_fn=sometimes)
        good = CompileRequest(module, "caps", "cuda")
        bad = CompileRequest(module, "caps", "opencl")
        results = service.sweep([good, bad])
        assert results[0] == "artifact-cuda"
        assert isinstance(results[1], JobError)
        # the good artifact still replays from cache, the failure too
        results2 = service.sweep([good, bad])
        assert results2[0] == "artifact-cuda"
        assert isinstance(results2[1], JobError)
        assert calls == ["cuda", "opencl"]  # nothing recompiled

    def test_cleared_cache_recompiles(self, module):
        compiles = []

        def failing(request):
            compiles.append(1)
            raise CompilationError("boom")

        service = CompileService(compile_fn=failing)
        req = CompileRequest(module, "caps", "cuda")
        service.sweep([req])
        service.cache.clear(memory_only=False)
        service.sweep([req])
        assert len(compiles) == 2

    def test_failure_replays_across_services_via_disk_tier(
        self, module, tmp_path
    ):
        def failing(request):
            raise JobError(request.label, request.fingerprint,
                           "compile-error", "structured boom")

        cache_dir = str(tmp_path / "cache")
        first = CompileService(
            cache=ArtifactCache(cache_dir=cache_dir), compile_fn=failing
        )
        req = CompileRequest(module, "caps", "cuda", label="persist")
        (err,) = first.sweep([req])
        assert isinstance(err, JobError)

        # a new service over the same disk tier must replay the pickled
        # JobError (exercises JobError.__reduce__) without compiling
        def never(request):
            raise AssertionError("should not compile")

        second = CompileService(
            cache=ArtifactCache(cache_dir=cache_dir), compile_fn=never
        )
        (replayed,) = second.sweep([req])
        assert isinstance(replayed, JobError)
        assert replayed.kind == "compile-error"
        assert replayed.message == "structured boom"
        assert replayed.fingerprint == req.fingerprint


class TestLookup:
    """The daemon's hit read forwards the stored bytes as they are: no
    re-pickle, and a cached refusal still comes back as a slot."""

    @pytest.fixture(params=["flat", "sharded", "fault-adapter"])
    def make_service(self, request):
        from repro.faults import FaultPlan
        from repro.service import ShardedArtifactCache

        def make(compile_fn=None):
            if request.param == "sharded":
                return CompileService(cache=ShardedArtifactCache(shards=4),
                                      compile_fn=compile_fn)
            if request.param == "fault-adapter":
                return CompileService(fault_plan=FaultPlan(),
                                      compile_fn=compile_fn)
            return CompileService(compile_fn=compile_fn)

        return make

    def test_hit_returns_the_stored_bytes_without_pickling(
            self, make_service, module, monkeypatch):
        import pickle

        service = make_service()
        request = CompileRequest(module, "caps", "cuda")
        compiled = service.compile_request(request)
        stored = service.cache.peek(request.fingerprint).blob

        dumps = []
        real_dumps = pickle.dumps

        def counting_dumps(*args, **kwargs):
            dumps.append(1)
            return real_dumps(*args, **kwargs)

        monkeypatch.setattr(pickle, "dumps", counting_dumps)
        hit = service.lookup(request.fingerprint)
        assert hit is stored
        assert dumps == []
        assert (pickle.loads(hit).kernels[0].ptx.render()
                == compiled.kernels[0].ptx.render())

    def test_cached_refusal_on_the_hit_path_is_a_compile_error(
            self, make_service, module):
        def refuse(request):
            raise CompilationError("pgi refuses")

        service = make_service(refuse)
        request = CompileRequest(module, "pgi", "opencl", label="sweep")
        (swept,) = service.sweep([request])
        assert service.cache.peek(request.fingerprint).refused

        hit = service.lookup(request.fingerprint, label="wire")
        assert isinstance(hit, JobError)
        assert hit.kind == swept.kind == "compile-error"
        assert hit.message == swept.message == "pgi refuses"
        assert hit.label == "wire"

    def test_refusal_flag_survives_disk_promotion(self, module, tmp_path):
        def refuse(request):
            raise CompilationError("no backend")

        request = CompileRequest(module, "caps", "opencl")
        CompileService(cache=ArtifactCache(cache_dir=tmp_path),
                       compile_fn=refuse).sweep([request])
        fresh = CompileService(cache=ArtifactCache(cache_dir=tmp_path))
        hit = fresh.lookup(request.fingerprint)
        assert isinstance(hit, JobError) and hit.message == "no backend"
        assert fresh.cache.stats.disk_hits == 1

    def test_unpicklable_artifact_is_an_error_not_a_dropped_store(
            self, module):
        import pickle

        service = CompileService(compile_fn=lambda request: lambda: None)
        request = CompileRequest(module, "caps", "cuda")
        with pytest.raises(pickle.PicklingError, match=request.fingerprint):
            service.compile_request(request)
        assert request.fingerprint not in service.cache
