"""End-to-end integration tests: the whole pipeline on user kernels."""

import numpy as np
import pytest

from repro import (
    Accelerator,
    CapsCompiler,
    K40,
    PHI_5110P,
    compile_openacc,
    parse_module,
)
from repro.core import ppr, run_stage
from repro.ptx.counter import InstructionProfile
from repro.service import CompileService
from repro.passes.library.distribute import set_gang_worker
from repro.passes.library.independent import add_independent
from repro.passes.library.unroll import unroll_in_kernel

JACOBI = """
#pragma acc kernels
void jacobi_step(float *out, const float *in, int n) {
  int i;
  for (i = 1; i < n - 1; i++) {
    out[i] = 0.5f * (in[i - 1] + in[i + 1]);
  }
}
"""


class TestUserKernelPipeline:
    """A user applies the paper's method to their own kernel."""

    def _reference(self, data):
        out = data.copy()
        out[1:-1] = 0.5 * (data[:-2] + data[2:])
        return out

    def test_method_end_to_end(self):
        module = parse_module(JACOBI, "jacobi")
        n = 256
        rng = np.random.default_rng(3)
        data = rng.random(n)
        expected = self._reference(data)

        # Step 1: independent (provable here - disjoint in/out arrays)
        module.kernels = [add_independent(k).kernel for k in module.kernels]
        # Step 2: thread distribution
        module.kernels = [
            set_gang_worker(k, k.loops()[0].loop_id, 256, 16)
            for k in module.kernels
        ]
        # Step 3: unroll
        module.kernels = [
            unroll_in_kernel(k, k.loops()[0].loop_id, 4)
            for k in module.kernels
        ]

        results = {}
        for compiler, target, device in (
            ("caps", "cuda", K40),
            ("caps", "opencl", PHI_5110P),
            ("pgi", "cuda", K40),
        ):
            compiled = compile_openacc(module, compiler=compiler,
                                       target=target)
            accelerator = Accelerator(device)
            accelerator.to_device(out=data.copy(), **{"in": data.copy()})
            record = accelerator.launch(compiled.kernels[0], n=n)
            got = accelerator.from_device("out")["out"]
            assert np.allclose(got, expected), (compiler, target)
            results[(compiler, device.name)] = record.seconds

        # PPR is computable from the same runs
        ratio = ppr(results[("caps", PHI_5110P.name)],
                    results[("caps", K40.name)])
        assert ratio > 0

    def test_ptx_available_through_public_api(self):
        compiled = compile_openacc(parse_module(JACOBI, "jacobi"))
        profile = InstructionProfile.of(compiled.kernels[0].ptx)
        assert profile.total > 10
        assert profile.shared_memory == 0


class TestStageResultPlumbing:
    def test_run_stage_carries_profiling(self):
        from repro.kernels import get_benchmark

        bench = get_benchmark("ge")
        row = run_stage(bench, bench.stages()["indep"], "indep", "caps",
                        "cuda", K40, 64, service=CompileService())
        assert row.kernel_launches == 3 * 63
        assert row.memcpy_h2d == 3 and row.memcpy_d2h == 2
        assert row.ptx is not None and row.ptx.total > 0


class TestCrossCompilerConsistency:
    """Both compilers must compute identical results wherever both run."""

    @pytest.mark.parametrize("name", ["lud", "ge", "bp"])
    def test_caps_and_pgi_agree(self, name):
        from repro.kernels import get_benchmark

        bench = get_benchmark(name)
        n = bench.meta.test_size
        module = bench.stages()["base"]
        outputs = {}
        for compiler in ("caps", "pgi"):
            compiled = compile_openacc(module, compiler=compiler)
            accelerator = Accelerator(K40)
            res = bench.run(accelerator, compiled, n, inputs=bench.inputs(n))
            outputs[compiler] = res.outputs
        for key in outputs["caps"]:
            assert np.allclose(outputs["caps"][key], outputs["pgi"][key])


class TestDeterminism:
    def test_model_times_are_deterministic(self):
        from repro.kernels import get_benchmark

        bench = get_benchmark("bfs")
        times = []
        for _ in range(2):
            compiled = CapsCompiler().compile(bench.stages()["indep"], "cuda")
            accelerator = Accelerator(K40)
            bench.run(accelerator, compiled, 1 << 16, levels=6)
            times.append(accelerator.elapsed_s)
        assert times[0] == times[1]

    def test_inputs_are_seeded(self):
        from repro.kernels import get_benchmark

        bench = get_benchmark("bfs")
        a = bench.inputs(128, seed=5)
        b = bench.inputs(128, seed=5)
        assert np.array_equal(a["edges"], b["edges"])
        c = bench.inputs(128, seed=6)
        assert not np.array_equal(a["edges"], c["edges"])
