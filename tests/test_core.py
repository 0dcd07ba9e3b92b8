"""Tests for the core package: method pipeline, heat maps, PPR."""

import math

import pytest

from repro.core.method import (
    compile_stage,
    format_rows,
    ptx_profile,
    run_opencl,
    run_stage,
)
from repro.core.ppr import PprEntry, format_ppr_table, ppr
from repro.core.search import lud_heatmap
from repro.devices import K40, PHI_5110P
from repro.kernels import get_benchmark
from repro.service import CompileService


class TestPpr:
    def test_equation_one(self):
        assert ppr(10.0, 5.0) == 2.0

    def test_lower_is_better_portability(self):
        assert ppr(1.1, 1.0) < ppr(9.0, 1.0)

    def test_zero_gpu_time(self):
        assert math.isinf(ppr(1.0, 0.0))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ppr(-1.0, 1.0)

    def test_entry_and_table(self):
        entry = PprEntry("x", "ge", "openacc", 2.0, 1.0)
        assert entry.ppr == 2.0
        text = format_ppr_table([entry])
        assert "ge" in text and "2.00" in text


class TestMethodPipeline:
    def test_run_stage_records_profile(self):
        bench = get_benchmark("lud")
        row = run_stage(bench, bench.stages()["base"], "base", "caps", "cuda",
                        K40, 64, service=CompileService())
        assert row.elapsed_s > 0
        assert row.thread_config == "1x1"
        assert row.kernel_launches == 2 * 64

    def test_run_stage_compilation_failure_recorded(self):
        bench = get_benchmark("hydro")
        row = run_stage(bench, bench.stages()["base"], "base", "pgi", "cuda",
                        K40, 16, service=CompileService(), steps=1)
        assert row.failed and "pointer" in row.error

    def test_run_stage_validation(self):
        bench = get_benchmark("bp")
        inputs = bench.inputs(bench.meta.test_size)
        row = run_stage(bench, bench.stages()["reduction"], "reduction",
                        "caps", "opencl", PHI_5110P, 256,
                        validate_inputs=inputs, service=CompileService())
        assert row.correct is False  # the paper's broken reduction

    def test_unknown_compiler(self):
        bench = get_benchmark("lud")
        with pytest.raises(ValueError):
            compile_stage(bench.stages()["base"], "icc", "cuda")

    def test_run_opencl_requires_program(self):
        bench = get_benchmark("lud")
        with pytest.raises(ValueError):
            run_opencl(bench, "opencl", K40, 64)

    def test_format_rows(self):
        bench = get_benchmark("lud")
        row = run_stage(bench, bench.stages()["base"], "base", "caps", "cuda",
                        K40, 32, service=CompileService())
        text = format_rows([row])
        assert "base" in text and "caps" in text

    def test_ptx_profile_none_for_opencl(self):
        bench = get_benchmark("lud")
        compiled = compile_stage(bench.stages()["base"], "caps", "opencl")
        assert ptx_profile(compiled) is None


class TestHeatMap:
    @pytest.fixture(scope="class")
    def heatmap(self):
        return lud_heatmap(get_benchmark("lud"), K40, "caps", n=512,
                           gangs=(1, 64, 256), workers=(1, 16, 64),
                           service=CompileService())

    def test_shape(self, heatmap):
        assert len(heatmap.times) == 3 and len(heatmap.times[0]) == 3

    def test_best_is_minimum(self, heatmap):
        gang, worker, seconds = heatmap.best()
        assert seconds == min(t for row in heatmap.times for t in row)
        assert heatmap.time(gang, worker) == seconds

    def test_corner_is_worst(self, heatmap):
        assert heatmap.time(1, 1) == max(t for row in heatmap.times for t in row)

    def test_render(self, heatmap):
        text = heatmap.render()
        assert "gang\\worker" in text and "best:" in text

    def test_best_worker_for(self, heatmap):
        assert heatmap.best_worker_for(256) in (1, 16, 64)
