"""Tests for data-region directives (the paper's future work)."""

import pytest

from repro.compilers import CapsCompiler
from repro.frontend import parse_kernel, parse_module
from repro.ir import AccData
from repro.passes.library.data import (
    DataRegionError,
    add_data_region,
    add_data_regions,
    has_data_region,
    infer_data_region,
)

SRC = """
void f(float *inout, const float *in, float *out, int n) {
  int i;
  for (i = 0; i < n; i++) {
    out[i] = in[i] * 2.0f;
    inout[i] += in[i];
  }
}
"""


class TestAddDataRegion:
    def test_attaches_directive(self):
        k = parse_kernel(SRC)
        out = add_data_region(k, copyin=("in",), copyout=("out",))
        assert has_data_region(out)
        assert not has_data_region(k)  # original untouched

    def test_unknown_array_rejected(self):
        k = parse_kernel(SRC)
        with pytest.raises(DataRegionError):
            add_data_region(k, copyin=("zzz",))


class TestInference:
    def test_classifies_by_access(self):
        k = parse_kernel(SRC)
        out = infer_data_region(k)
        data = out.directives.first(AccData)
        assert data.copy == ("inout",)
        assert "in" in data.copyin
        assert data.copyout == ("out",)

    def test_module_level(self):
        mod = parse_module(SRC, "m")
        out = add_data_regions(mod)
        assert all(has_data_region(k) for k in out.kernels)


class TestCompilerIntegration:
    def test_caps_records_region(self):
        mod = add_data_regions(parse_module(SRC, "m"))
        compiled = CapsCompiler().compile(mod, "cuda")
        assert compiled.kernels[0].has_data_region
        assert any("Data region" in m for m in compiled.kernels[0].messages)

    def test_without_region_flag_false(self):
        compiled = CapsCompiler().compile(parse_module(SRC, "m"), "cuda")
        assert not compiled.kernels[0].has_data_region


class TestBfsFutureWork:
    def test_dataregion_stage_hoists_transfers(self):
        from repro.devices import K40
        from repro.kernels import get_benchmark
        from repro.runtime import Accelerator

        bench = get_benchmark("bfs")
        n = 1 << 14
        counts = {}
        for stage in ("indep", "dataregion"):
            compiled = CapsCompiler().compile(bench.stages()[stage], "cuda")
            acc = Accelerator(K40)
            bench.run(acc, compiled, n, levels=8)
            # count data transfers the way Table VII does (the 8-byte
            # stop-flag updates are not data transfers)
            counts[stage] = sum(
                1 for e in acc.profiler.events
                if e.kind in ("h2d", "d2h") and e.nbytes >= 64
            )
        assert counts["dataregion"] <= 5
        assert counts["indep"] > 3 * counts["dataregion"]
