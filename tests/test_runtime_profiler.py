"""The runtime profiler: event timeline, counters, report, trace bridge."""

import threading

import pytest

from repro.runtime.profiler import ProfileEvent, Profiler
from repro.telemetry.spans import configure_tracer, reset_tracer


class TestEvents:
    def test_record_and_counters(self):
        prof = Profiler()
        prof.record("h2d", "a", 0.001, nbytes=4096)
        prof.record("launch", "demo", 0.002, device="K40")
        prof.record("d2h", "a", 0.001, nbytes=4096)
        assert prof.memcpy_h2d == 1
        assert prof.memcpy_d2h == 1
        assert prof.kernel_launches == 1
        assert prof.device_kernel_launches() == 1
        assert prof.transfer_bytes() == 8192
        assert prof.total_s == pytest.approx(0.004)

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            Profiler().record("h2d", "a", -0.001)

    def test_time_by_kind(self):
        prof = Profiler()
        prof.record("h2d", "a", 0.001)
        prof.record("h2d", "b", 0.002)
        prof.record("launch", "demo", 0.004)
        assert prof.time_by_kind() == pytest.approx(
            {"h2d": 0.003, "launch": 0.004}
        )

    def test_event_str_mentions_kind_and_ms(self):
        event = ProfileEvent("h2d", "a", 0.0015, nbytes=64)
        assert "h2d" in str(event)
        assert "64 B" in str(event)
        assert "1.500 ms" in str(event)

    def test_clear(self):
        prof = Profiler()
        prof.record("h2d", "a", 0.001)
        prof.clear()
        assert prof.events == []
        assert prof.total_s == 0.0


class TestConcurrency:
    def test_concurrent_recording_loses_no_events(self):
        """Regression: one Profiler shared across sweep workers must not
        drop or corrupt events (record/query are lock-guarded)."""
        prof = Profiler()
        nthreads, per_thread = 4, 500

        def work(i):
            for k in range(per_thread):
                prof.record("launch", f"t{i}k{k}", 0.001)
                prof.record("h2d", f"t{i}k{k}", 0.0005, nbytes=8)
                # interleave reads with writes: must never raise
                prof.time_by_kind()
                prof.total_s

        threads = [threading.Thread(target=work, args=(i,))
                   for i in range(nthreads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        expected = nthreads * per_thread
        assert prof.kernel_launches == expected
        assert prof.memcpy_h2d == expected
        assert prof.transfer_bytes() == expected * 8
        assert prof.total_s == pytest.approx(expected * 0.0015)

    def test_snapshot_events_is_a_stable_copy(self):
        prof = Profiler()
        prof.record("h2d", "a", 0.001)
        snap = prof.snapshot_events()
        prof.record("h2d", "b", 0.001)
        assert len(snap) == 1
        assert len(prof.snapshot_events()) == 2


class TestTracerBridge:
    def test_record_bridges_modeled_spans_when_tracing(self):
        tracer = configure_tracer(enabled=True)
        try:
            prof = Profiler()
            prof.record("launch", "demo", 0.002, device="K40")
            prof.record("h2d", "a", 0.001, nbytes=64)
            launch, = tracer.spans_named("runtime.launch")
            assert launch.category == "modeled"
            assert launch.duration_s == pytest.approx(0.002)
            assert launch.attributes["label"] == "demo"
            h2d, = tracer.spans_named("runtime.h2d")
            assert h2d.attributes["nbytes"] == 64
        finally:
            reset_tracer()

    def test_no_spans_when_tracing_disabled(self):
        reset_tracer()
        from repro.telemetry.spans import get_tracer
        prof = Profiler()
        prof.record("launch", "demo", 0.002)
        assert get_tracer().spans() == []


class TestReport:
    def test_report_totals_line(self):
        prof = Profiler()
        prof.record("h2d", "a", 0.001)
        prof.record("launch", "demo", 0.002)
        lines = prof.report().splitlines()
        # one line per event plus the totals line: no other section
        assert len(lines) == 3
        assert lines[-1].startswith("-- total ")
        assert "1 H2D" in lines[-1]
        assert "1 launches" in lines[-1]
