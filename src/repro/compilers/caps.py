"""The CAPS compiler model (CAPS Entreprise HMPP/OpenACC 3.4.1).

CAPS is a source-to-source compiler emitting CUDA or OpenCL codelets.
Behaviours implemented from the paper:

* **Default-distribution bug** (V-A2): without explicit distribution the
  compilation log claims "Loop 'i' was shared among gangs(192) and
  workers(256)", but the generated codelet actually runs gang(1) x
  worker(1) — sequentially.  ("we find it actually sets to gang(1) and
  worker(1) when we examine the generated HMPP codelet files ... it may
  be a bug of the CAPS compiler.")
* **Gang mode** (III-B): explicit ``gang(n)``/``worker(m)`` clauses are
  honored; grid [n,1,1], block threads m (Table VI prints [1,m,1]).
* **Gridify mode** (III-B): only when ``independent`` is present; block
  32x4 by default (``#pragma hmppcg blocksize`` or the
  ``-Xhmppcg -grid-block-size`` flag override it); 1-D grid for a single
  loop, 2-D for a nested independent pair.
* **Unroll-and-jam** (III-C, V-B3, V-D1): the CUDA backend silently fails
  to apply ``unroll(n), jam`` when jamming is actually required (a nested
  loop body), emitting a success message anyway — "the CAPS compiler just
  provided the fake successful message".  Plain unrolling of an innermost
  loop works.  The OpenCL backend applies the directive for real.
* **Tiling** (III-D): supported, but the tiled code still reads global
  memory — no shared-memory staging (Fig. 1b), so no ld.shared/st.shared
  appear and performance does not improve.
* **Reduction** (V-D2): the CUDA backend emits a shared-memory tree
  (st.shared/ld.shared appear in PTX) but fails to actually parallelize —
  no speedup; the OpenCL codelet run on MIC produces wrong results
  (lost updates).
"""

from __future__ import annotations

from ..ir.directives import AccData
from ..ir.stmt import KernelFunction, Module
from ..passes import PassContext, pipeline_for
from ..ptx.codegen import CodegenStyle, ParallelMapping, generate_ptx, stage_shared_ptx
from ..telemetry.spans import get_tracer
from .flags import FlagSet
from .framework import (
    CompilationError,
    CompilationResult,
    CompiledKernel,
    DistStrategy,
    ThreadDistribution,
)

#: CAPS CUDA backend PTX style: tight address CSE and value-CSE of loads
#: (HMPP codelets are restrict-qualified).  The module's *first* codelet
#: additionally loads the five-word HMPP group descriptor ("the CAPS
#: compiler generated five more global instructions than the OpenCL
#: compiler", Fig. 9) — see CAPS_CUDA_STYLE_FIRST.
CAPS_CUDA_STYLE = CodegenStyle(
    name="caps-cuda",
    cse_addresses=True,
    mov_per_stmt=0,
    extra_param_loads=0,
    use_fma=True,
    cse_loads=True,
)

CAPS_CUDA_STYLE_FIRST = CodegenStyle(
    name="caps-cuda-first",
    cse_addresses=True,
    mov_per_stmt=0,
    extra_param_loads=5,
    use_fma=True,
    cse_loads=True,
)

class CapsCompiler:
    """CAPS 3.4.1 front-end + CUDA/OpenCL backends."""

    name = "CAPS"
    version = "3.4.1"

    def __init__(self, flags: FlagSet | None = None) -> None:
        self.flags = flags or FlagSet("CAPS")

    # -- public API ----------------------------------------------------------

    def compile(self, module: Module, target: str = "cuda") -> CompilationResult:
        """Compile every kernel of *module* for ``target`` in
        {"cuda", "opencl"}."""
        if target not in ("cuda", "opencl"):
            raise CompilationError(f"CAPS has no {target!r} backend")
        with get_tracer().span("compile.caps", category="compile",
                               label=module.name, target=target):
            result = CompilationResult(module.name, self.name, target)
            for index, kernel in enumerate(module.kernels):
                compiled = self._compile_kernel(
                    kernel, target, result.log, first=(index == 0)
                )
                result.kernels.append(compiled)
            return result

    # -- per-kernel pipeline ---------------------------------------------------

    def _compile_kernel(
        self, kernel: KernelFunction, target: str, log: list[str],
        first: bool = False,
    ) -> CompiledKernel:
        ctx = PassContext(compiler="caps", target=target, flags=self.flags)
        work = pipeline_for("caps", target).run(kernel, ctx)
        messages = ctx.messages
        distribution = ctx.state["distribution"]
        parallel_ids = ctx.state["parallel_ids"]
        shared_reduction_ids = ctx.state.get("shared_reduction_ids", set())
        broken_reduction = ctx.state.get("broken_reduction", [])
        cache_staged = ctx.state.get("cache_staged", ())

        ptx = None
        traffic_reuse = 1.0
        if target == "cuda":
            # The codelet is gridified in *code* even when the runtime
            # configuration degenerates to gang(1) x worker(1): only the
            # launch geometry differs, which is why "the optimized thread
            # distribution version does not change PTX" (paper V-A3).
            ptx_ids = list(parallel_ids)
            if not ptx_ids:
                tops = work.top_level_loops()
                if tops:
                    ptx_ids = [tops[0].loop_id]
            mapping = ParallelMapping(
                dims={
                    loop_id: dim
                    for dim, loop_id in enumerate(reversed(ptx_ids))
                },
                shared_reductions=shared_reduction_ids,
            )
            style = CAPS_CUDA_STYLE_FIRST if first else CAPS_CUDA_STYLE
            ptx = generate_ptx(work, mapping, style)
            if cache_staged:
                # `acc cache` honored: the named arrays' reads are staged
                # through shared memory (paper Fig. 1a), halving their
                # global traffic relative to the plain tiled code
                ptx = stage_shared_ptx(ptx, cache_staged, rewrite_uses=True)
                traffic_reuse = 0.5

        data_region = work.directives.first(AccData) is not None
        if data_region:
            messages.append("Data region honored: transfers hoisted")

        log.extend(f"[{kernel.name}] {message}" for message in messages)
        return CompiledKernel(
            name=kernel.name,
            ir=work,
            target=target,
            compiler=self.name,
            distribution=distribution,
            parallel_loop_ids=parallel_ids,
            ptx=ptx,
            messages=messages,
            broken_reduction_loops=broken_reduction,
            broken_reduction_device="mic",
            shared_staged=cache_staged,
            traffic_reuse=traffic_reuse,
            dispatch_overhead_us=8.0,
            has_data_region=data_region,
        )


def generated_codelet(compiled: CompiledKernel) -> str:
    """Render the HMPP codelet call-site configuration (paper Fig. 8).

    For Gridify-mode kernels this shows the advanced thread-distribution
    pattern the paper extracted from CAPS and back-ported to OpenCL.
    """
    dist = compiled.distribution
    lines = [f"// HMPP codelet for {compiled.name} ({compiled.target})"]
    if dist.strategy is DistStrategy.GRIDIFY_2D:
        bx, by = dist.blocksize
        lines += [
            f"__hmppcg_call.setSizeX((size - i - 1) / {bx} + 1);"
            "  // global work group size X",
            f"__hmppcg_call.setSizeY((size - 1 - i - 1) / {by} + 1);"
            "  // global work group size Y",
            f"__hmppcg_call.setBlockSizeX({bx});  // local work group size",
            f"__hmppcg_call.setBlockSizeY({by});  // local work group size",
            "__hmppcg_call.setWorkDim(2);",
        ]
    elif dist.strategy is DistStrategy.GRIDIFY_1D:
        bx, by = dist.blocksize
        lines += [
            f"__hmppcg_call.setSizeX((n - 1) / ({bx} * {by} - 1));",
            f"__hmppcg_call.setBlockSizeX({bx});",
            f"__hmppcg_call.setBlockSizeY({by});",
            "__hmppcg_call.setWorkDim(1);",
        ]
    elif dist.strategy is DistStrategy.GANG_MODE:
        lines += [
            f"__hmppcg_call.setSizeX({dist.gang});",
            f"__hmppcg_call.setBlockSizeY({dist.worker});",
        ]
    else:
        lines += [
            "__hmppcg_call.setSizeX(1);   // gang(1)",
            "__hmppcg_call.setBlockSizeX(1);  // worker(1)",
        ]
    return "\n".join(lines)
