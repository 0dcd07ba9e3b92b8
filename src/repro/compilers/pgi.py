"""The PGI compiler model (PGI 14.9).

PGI compiles OpenACC to CUDA for NVIDIA GPUs only ("The PGI compiler can
only compile OpenACC codes for NVIDIA GPU and AMD GPU ... likely plans to
support Intel MIC in the future").  Behaviours implemented from the paper:

* **Automatic thread distribution** (III-B, Table VI): PGI picks the
  launch configuration itself — 1-D ``[ceil(n/128), 1, 1] x [128, 1, 1]``
  — and "cannot change thread distribution configuration once the
  independent directives are added": explicit gang/worker sizes are
  honored only on loops without ``independent``.
* **Strong dependence analysis, conservative fallback** (V-B1, V-C1):
  PGI parallelizes loops our exact analysis proves independent *and*
  loops whose only obstruction is an unprovable-disjointness subscript
  (it is the smarter analyzer of the two compilers; this is why the PGI
  LUD baseline is ~1000x faster than CAPS's).  Loops with *indirect*
  subscripts or distance dependences are left sequential even when the
  programmer writes ``independent``: "the PGI compiler adopts a more
  conservative strategy ... It may ignore the independent directives in
  complex loops to avoid the potential risk of getting wrong results."
* **Kernel elision** (V-C1): under the ``kernels`` construct, a kernel
  whose every loop is unparallelizable-and-indirect is not offloaded at
  all; the region runs on the host ("we find the kernels do not run on
  GPU after we set PGI_ACC_TIME ... and profile the kernels with
  nvprof"), and its PTX is nearly empty (Fig. 11).
* **-Munroll** (III-C): unrolls innermost loops with kernel-invariant
  bounds and no scalar cross-iteration dependence; the LUD inner loop
  (bound ``i``, reduction ``sum``) is skipped — its "PTX instructions
  remain the same" (Fig. 6) — while the GE inner loop is unrolled,
  roughly doubling arithmetic and data movement without improving the
  (memory-bound) performance (V-B3).
* **Reduction support** (V-D2): ``reduction`` clauses are lowered to a
  proper shared-memory tree and the loop is parallelized — "the PGI
  version executes the bpnn_layer_forward function in parallel".
* **Pointer sensitivity** (V-E): modules using multi-level pointers are
  rejected — "we cannot compile Hydro with the PGI compiler because PGI
  is sensitive with pointer allocations and pointer conversions".
"""

from __future__ import annotations

from ..ir.stmt import KernelFunction, Module
from ..ir.types import ArrayType
from ..passes import PassContext, pipeline_for
from ..ptx.codegen import (
    CodegenStyle,
    ParallelMapping,
    empty_ptx,
    generate_ptx,
    stage_shared_ptx,
)
from ..telemetry.spans import get_tracer
from .flags import FlagSet
from .framework import (
    CompilationError,
    CompilationResult,
    CompiledKernel,
    DistStrategy,
    ThreadDistribution,
)

#: PGI PTX style: literal translation, address chains re-derived per access,
#: register shuffles per statement — "PGI generates more PTX instructions
#: than CAPS" (Figs. 6/14).
PGI_CUDA_STYLE = CodegenStyle(
    name="pgi-cuda",
    cse_addresses=False,
    mov_per_stmt=1,
    extra_param_loads=0,
    use_fma=True,
    fold_immediates=False,
)

class PgiCompiler:
    """PGI 14.9 OpenACC -> CUDA."""

    name = "PGI"
    version = "14.9"

    def __init__(self, flags: FlagSet | None = None) -> None:
        self.flags = flags or FlagSet("PGI")

    def compile(self, module: Module, target: str = "cuda") -> CompilationResult:
        if target != "cuda":
            raise CompilationError(
                "PGI 14.9 targets NVIDIA GPUs only (no Intel MIC backend)"
            )
        self._check_pointers(module)
        with get_tracer().span("compile.pgi", category="compile",
                               label=module.name, target=target):
            result = CompilationResult(module.name, self.name, target)
            for kernel in module.kernels:
                result.kernels.append(self._compile_kernel(kernel, result.log))
            return result

    # -- pointer sensitivity ---------------------------------------------------

    @staticmethod
    def _check_pointers(module: Module) -> None:
        for kernel in module.kernels:
            for param in kernel.params:
                if isinstance(param.type, ArrayType) and param.type.rank > 1:
                    raise CompilationError(
                        f"PGI: unsupported pointer conversion for parameter "
                        f"'{param.name}' of kernel '{kernel.name}' "
                        f"(multi-level pointer; see paper V-E)"
                    )

    # -- per-kernel pipeline -----------------------------------------------------

    def _compile_kernel(
        self, kernel: KernelFunction, log: list[str]
    ) -> CompiledKernel:
        ctx = PassContext(compiler="pgi", target="cuda", flags=self.flags)
        work = pipeline_for("pgi", "cuda").run(kernel, ctx)
        messages = ctx.messages
        distribution = ctx.state["distribution"]
        parallel_ids = ctx.state["parallel_ids"]
        shared_reductions = ctx.state.get("shared_reductions", set())
        host_fallback = ctx.state.get("host_fallback", False)
        cache_staged = ctx.state.get("cache_staged", ())

        traffic_reuse = 1.0
        if host_fallback:
            ptx = empty_ptx(work.name)
        else:
            mapping = ParallelMapping(
                dims={
                    loop_id: dim
                    for dim, loop_id in enumerate(reversed(parallel_ids))
                },
                shared_reductions=shared_reductions,
            )
            ptx = generate_ptx(work, mapping, PGI_CUDA_STYLE)
            if cache_staged:
                # `acc cache` honored: stage the named arrays' reads
                # through shared memory, same lowering as CAPS
                ptx = stage_shared_ptx(ptx, cache_staged, rewrite_uses=True)
                traffic_reuse = 0.5

        log.extend(f"[{kernel.name}] {message}" for message in messages)
        return CompiledKernel(
            name=work.name,
            ir=work,
            target="cuda",
            compiler=self.name,
            distribution=distribution,
            parallel_loop_ids=parallel_ids,
            ptx=ptx,
            messages=messages,
            elided=host_fallback,
            shared_staged=cache_staged,
            traffic_reuse=traffic_reuse,
        )
