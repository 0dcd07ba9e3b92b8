"""Telemetry wired through the real pipeline: scheduler lanes, CLI."""

import json

import pytest

from repro.cli import main
from repro.core.search import distribution_requests
from repro.kernels.lud import LudBenchmark
from repro.service.fingerprint import CompileRequest
from repro.service.scheduler import CompileService
from repro.telemetry.export import load_trace, timeline_coverage
from repro.telemetry.spans import configure_tracer, get_tracer, reset_tracer


@pytest.fixture(autouse=True)
def _fresh_tracer():
    yield
    reset_tracer()


def lud_requests(count: int = 6) -> list[CompileRequest]:
    """Distinct-fingerprint requests (one per gang value), so none
    dedup or hit the cache against each other."""
    gangs = (1, 2, 4, 8, 16, 32, 64, 128)[:count]
    return distribution_requests(LudBenchmark(), "caps", "cuda", gangs, (1,))


class TestTracedSweep:
    def test_jobs_spans_parented_to_sweep_across_threads(self):
        tracer = configure_tracer(enabled=True)
        service = CompileService(jobs=2)
        service.sweep(lud_requests(6))

        sweep, = tracer.spans_named("service.sweep")
        jobs = tracer.spans_named("service.job")
        assert len(jobs) == 6
        assert all(j.parent_id == sweep.span_id for j in jobs)
        # per-worker lanes: jobs ran on the pool's named threads
        worker_names = {j.thread_name for j in jobs}
        assert all(name.startswith("repro-compile") for name in worker_names)
        assert sweep.thread_name == "MainThread"

    def test_cache_hits_and_misses_distinguishable(self):
        tracer = configure_tracer(enabled=True)
        service = CompileService()
        requests = lud_requests(1)
        service.sweep(requests)
        service.sweep(requests)  # warm: all hits

        compiles = tracer.spans_named("service.compile")
        cache_attrs = [s.attributes["cache"] for s in compiles]
        assert cache_attrs.count("miss") == 1
        assert cache_attrs.count("hit") == 1

    def test_compile_pipeline_nests_under_job(self):
        tracer = configure_tracer(enabled=True)
        service = CompileService(jobs=2)
        service.sweep(lud_requests(2))

        job_ids = {s.span_id for s in tracer.spans_named("service.job")}
        compile_spans = tracer.spans_named("service.compile")
        assert all(s.parent_id in job_ids for s in compile_spans)
        compile_ids = {s.span_id for s in compile_spans}
        caps = tracer.spans_named("compile.caps")
        assert caps and all(s.parent_id in compile_ids for s in caps)

    def test_disabled_tracer_leaves_sweep_untraced(self):
        reset_tracer()
        service = CompileService(jobs=2)
        service.sweep(lud_requests(2))
        assert len(get_tracer().spans()) == 0


class TestCliTrace:
    def test_difftest_chrome_trace_end_to_end(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        rc = main(["difftest", "--seeds", "3", "--jobs", "2",
                   "--trace", str(trace), "--trace-format", "chrome"])
        assert rc == 0
        assert "trace:" in capsys.readouterr().err

        data = json.loads(trace.read_text())
        xs = [e for e in data["traceEvents"] if e["ph"] == "X"]
        assert xs
        tss = [e["ts"] for e in xs]
        assert tss == sorted(tss)
        names = {e["name"] for e in xs}
        assert {"difftest.case", "service.compile"} <= names
        lanes = {e["args"]["name"] for e in data["traceEvents"]
                 if e["ph"] == "M" and e["name"] == "thread_name"}
        assert any(n.startswith("repro-compile") for n in lanes)

        # acceptance: root spans account for >=95% of the wall-clock
        spans, metrics = load_trace(str(trace))
        assert timeline_coverage(spans) >= 0.95
        assert metrics is not None and metrics["counters"]

    def test_heatmap_jsonl_trace_and_telemetry_subcommand(self, tmp_path,
                                                          capsys):
        trace = tmp_path / "trace.jsonl"
        rc = main(["heatmap", "--size", "256", "--trace", str(trace)])
        assert rc == 0
        capsys.readouterr()

        rc = main(["telemetry", str(trace)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "covered by root spans" in out
        assert "search.heatmap" in out
        assert "-- metrics --" in out

    def test_traced_self_test_exports_the_daemon_counters(self, tmp_path,
                                                          capsys):
        """The daemon counts into the registry the trace exports; the
        self-test's baseline service and admission probe stay private."""
        trace = tmp_path / "trace.jsonl"
        rc = main(["serve", "--self-test", "--clients", "2", "--points", "8",
                   "--jobs", "2", "--trace", str(trace)])
        assert rc == 0, capsys.readouterr().out
        _spans, metrics = load_trace(str(trace))
        counters = metrics["counters"]
        assert counters["service.compiles"] == 8
        # which path answers a repeated point depends on timing; the sum
        # does not
        assert (counters["service.cache_hits"] + counters["service.dedup_hits"]
                + counters["server.coalesced"]) == 8

    def test_trace_flag_resets_global_tracer_after_run(self, tmp_path,
                                                       capsys):
        trace = tmp_path / "trace.jsonl"
        main(["heatmap", "--size", "256", "--trace", str(trace)])
        capsys.readouterr()
        assert get_tracer().enabled is False

    def test_untraced_run_writes_no_trace(self, capsys):
        rc = main(["heatmap", "--size", "256"])
        assert rc == 0
        assert "trace:" not in capsys.readouterr().err
        assert get_tracer().enabled is False
