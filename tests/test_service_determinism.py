"""Determinism guard (ISSUE satellite): the cache and the worker pool are
*invisible* optimizations — cold vs. cache-hit and serial vs. parallel
sweeps must be byte-identical."""

from repro.core.search import lud_heatmap
from repro.devices import K40
from repro.experiments import ALL_EXPERIMENTS
from repro.kernels import get_benchmark
from repro.ptx.counter import InstructionProfile
from repro.service import CompileService

SMALL = dict(n=512, gangs=(1, 64, 256), workers=(1, 16), samples=2)


class TestColdVsCacheHit:
    def test_byte_identical_ptx_and_counters(self):
        service = CompileService()
        bench = get_benchmark("lud")
        module = bench.module()

        cold = service.compile(module, "caps", "cuda")
        assert service.metrics.compiles == 1
        warm = service.compile(module, "caps", "cuda")
        assert service.metrics.compiles == 1  # no recompilation
        assert service.metrics.cache_hits == 1

        for kernel_cold, kernel_warm in zip(cold.kernels, warm.kernels):
            assert kernel_cold.ptx.render() == kernel_warm.ptx.render()
            assert (InstructionProfile.of(kernel_cold.ptx).as_row()
                    == InstructionProfile.of(kernel_warm.ptx).as_row())
        assert cold.log == warm.log

    def test_heatmap_cold_vs_warm(self):
        service = CompileService()
        bench = get_benchmark("lud")
        cold = lud_heatmap(bench, K40, "caps", service=service, **SMALL)
        compiles_after_cold = service.metrics.compiles
        warm = lud_heatmap(bench, K40, "caps", service=service, **SMALL)
        assert service.metrics.compiles == compiles_after_cold
        assert warm.times == cold.times
        assert warm.render() == cold.render()


class TestNoDeepCopy:
    def test_cold_heatmap_never_deep_copies(self, monkeypatch):
        """The cache stores pickle bytes: a cold Fig. 4 map on a fresh
        service copies no artifact object graph."""
        import copy

        calls = []
        real_deepcopy = copy.deepcopy

        def counting_deepcopy(*args, **kwargs):
            calls.append(1)
            return real_deepcopy(*args, **kwargs)

        monkeypatch.setattr(copy, "deepcopy", counting_deepcopy)
        service = CompileService()
        lud_heatmap(get_benchmark("lud"), K40, "caps", service=service,
                    **SMALL)
        assert service.metrics.compiles == 6
        assert calls == []

class TestSerialVsParallel:
    def test_heatmap_jobs4_byte_identical(self):
        bench = get_benchmark("lud")
        serial = lud_heatmap(bench, K40, "caps",
                             service=CompileService(jobs=1), **SMALL)
        with CompileService(jobs=4) as service:
            parallel = lud_heatmap(bench, K40, "caps", service=service,
                                   **SMALL)
        assert parallel.times == serial.times
        assert parallel.render() == serial.render()

    def test_parallel_compiled_ptx_identical(self):
        from repro.core.search import distribution_requests

        bench = get_benchmark("lud")
        requests = distribution_requests(bench, "caps", "cuda",
                                         (1, 128), (1, 32))
        serial = CompileService(jobs=1).sweep(requests)
        with CompileService(jobs=4) as service:
            pooled = service.sweep(requests)
        for a, b in zip(serial, pooled):
            for ka, kb in zip(a.kernels, b.kernels):
                assert ka.ptx.render() == kb.ptx.render()


class TestExperimentRows:
    def test_fig4_rows_identical_across_runs(self):
        """fig4 shares the process-default service: a re-run is fully
        cache-hit and must produce identical rows."""
        first = ALL_EXPERIMENTS["fig4"]()
        second = ALL_EXPERIMENTS["fig4"]()
        assert first.rows == second.rows
        assert first.rendered == second.rendered
        assert [c.passed for c in first.claims] == [
            c.passed for c in second.claims
        ]
