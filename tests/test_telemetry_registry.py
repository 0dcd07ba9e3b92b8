"""Metrics registry: instruments, dedup of percentile(), Reportable."""

import threading

import pytest

from repro.frontend import parse_module
from repro.runtime.profiler import Profiler
import repro.service
from repro.service import CompileService
from repro.telemetry.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Reportable,
    percentile,
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


class TestInstruments:
    def test_counter(self):
        c = Counter("requests")
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter("requests").inc(-1)

    def test_gauge(self):
        g = Gauge("depth")
        g.set(3.0)
        g.add(-1.0)
        assert g.value == 2.0

    def test_histogram_summary(self):
        h = Histogram("latency")
        h.observe_many([1.0, 2.0, 3.0, 4.0])
        s = h.summary()
        assert s["count"] == 4.0
        assert s["sum"] == pytest.approx(10.0)
        assert s["min"] == 1.0
        assert s["max"] == 4.0
        assert h.quantile(0.5) == pytest.approx(percentile([1, 2, 3, 4], 0.5))

    def test_empty_histogram_summary_is_zeroes(self):
        s = Histogram("empty").summary()
        assert s["count"] == 0.0
        assert s["p95"] == 0.0


class TestPercentileDedup:
    def test_single_implementation(self):
        """percentile() is public only in repro.telemetry.registry; the
        service layer does not re-export it."""
        assert "percentile" not in repro.service.__all__
        assert not hasattr(repro.service, "percentile")

    def test_values(self):
        assert percentile([], 0.5) == 0.0
        assert percentile([5.0], 0.95) == 5.0
        assert percentile([1.0, 2.0, 3.0, 4.0], 0.0) == 1.0
        assert percentile([1.0, 2.0, 3.0, 4.0], 1.0) == 4.0


class TestReportable:
    def test_registry_is_reportable(self):
        assert isinstance(MetricsRegistry(), Reportable)

    def test_service_components_are_reportable(self):
        service = CompileService()
        assert isinstance(service, Reportable)
        assert isinstance(service.metrics, Reportable)

    def test_plain_object_is_not(self):
        assert not isinstance(object(), Reportable)

    def test_profiler_attach_uses_protocol(self):
        class FakeService:
            def report_lines(self):
                return ["-- fake --"]

        prof = Profiler()
        prof.attach_service(FakeService())
        assert "-- fake --" in prof.report()

    def test_profiler_attach_rejects_non_reportable(self):
        with pytest.raises(TypeError, match="report_lines"):
            Profiler().attach_service(object())


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")

    def test_name_unique_across_kinds(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError):
            reg.gauge("x")
        with pytest.raises(ValueError):
            reg.histogram("x")

    def test_snapshot_sorted_and_complete(self):
        reg = MetricsRegistry()
        reg.counter("b.count").inc(2)
        reg.counter("a.count").inc(1)
        reg.gauge("z.depth").set(1.5)
        reg.histogram("m.lat").observe(0.25)
        snap = reg.snapshot()
        assert list(snap["counters"]) == ["a.count", "b.count"]
        assert snap["counters"]["b.count"] == 2
        assert snap["gauges"]["z.depth"] == 1.5
        assert snap["histograms"]["m.lat"]["count"] == 1.0

    def test_report_lines_mention_every_instrument(self):
        reg = MetricsRegistry()
        reg.counter("hits").inc(3)
        reg.histogram("lat").observe(0.5)
        text = "\n".join(reg.report_lines())
        assert "hits = 3" in text
        assert "lat: n=1" in text

    def test_snapshot_deterministic_under_concurrent_increments(self):
        """Two registries fed identical totals through different thread
        interleavings serialize identically."""
        def hammer(reg, nthreads=4, per_thread=250):
            def work():
                for _ in range(per_thread):
                    reg.counter("ops").inc()
                    reg.gauge("level").set(7.0)
            threads = [threading.Thread(target=work) for _ in range(nthreads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

        a, b = MetricsRegistry(), MetricsRegistry()
        hammer(a)
        hammer(b)
        assert a.snapshot() == b.snapshot()
        assert a.snapshot()["counters"]["ops"] == 1000


class TestLiveCounters:
    def test_counters_are_live(self):
        """A service counts straight into the registry it was given:
        no publish step."""
        reg = MetricsRegistry()
        service = CompileService(registry=reg)
        module = parse_module(SOURCE, "demo")
        service.compile(module, "caps", "cuda")
        service.compile(module, "caps", "cuda")  # cache hit

        snap = reg.snapshot()
        assert snap["counters"]["service.requests"] == 2
        assert snap["counters"]["service.cache_hits"] == 1
        assert snap["counters"]["cache.misses"] == 1
        assert snap["histograms"]["service.compile_seconds"]["count"] == 1.0

    def test_private_registries_are_isolated(self):
        module = parse_module(SOURCE, "demo")
        first, second = CompileService(), CompileService()
        first.compile(module, "caps", "cuda")
        first.compile(module, "caps", "cuda")
        assert first.registry is not second.registry
        assert first.metrics.requests == 2
        assert second.metrics.snapshot()["requests"] == 0
        assert second.cache.stats.misses == 0
        second.compile(module, "caps", "cuda")
        assert first.metrics.compiles == 1
        assert second.metrics.compiles == 1
        assert first.metrics.requests == 2
