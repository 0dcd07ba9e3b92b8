"""The hand-written OpenCL path.

Each benchmark ships a hand-written OpenCL version (the Rodinia OpenCL
kernels / the Hydro OpenCL port).  We describe such a version as a list of
:class:`OpenCLKernelSpec` — the kernel body in the same IR, plus the
launch-geometry and memory-hierarchy decisions a human wrote into the
source: fixed global/local work sizes, explicit local-memory staging
(``__local`` tiles with barriers), and per-kernel work-item mappings.

Two "compilers" consume these specs:

* :class:`NvidiaOpenCLCompiler` — OpenCL on the K40.  Generates PTX (the
  paper compares OpenCL PTX against CAPS/PGI in Figs. 9/11) with a style
  close to CAPS's CUDA backend but without the HMPP descriptor loads.
* :class:`IntelOpenCLCompiler` — OpenCL on the MIC (Fig. 2: "the Intel
  C/C++ compiler to compile the OpenCL codes on MIC").  No PTX.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..ir.stmt import KernelFunction
from ..passes import PassContext, pipeline_for
from ..ptx.codegen import CodegenStyle, ParallelMapping, generate_ptx, stage_shared_ptx
from .framework import (
    CompilationError,
    CompilationResult,
    CompiledKernel,
    DistStrategy,
    ThreadDistribution,
)
from ..perf.model import LaunchConfig

#: NVIDIA's OpenCL compiler optimizes like nvcc: addresses CSE'd, fma on.
NV_OPENCL_STYLE = CodegenStyle(
    name="nvidia-opencl",
    cse_addresses=True,
    mov_per_stmt=0,
    extra_param_loads=0,
    use_fma=True,
)


@dataclass
class OpenCLKernelSpec:
    """One hand-written OpenCL kernel: IR + the launch decisions in the
    source code."""

    kernel: KernelFunction
    #: loops mapped to the NDRange (outer-first); [] = a single-work-item task
    parallel_loop_ids: list[int] = field(default_factory=list)
    #: fixed global/local sizes as written in the host source, or None for
    #: "cover the iteration space with this local size"
    local_size: tuple[int, int] = (128, 1)
    global_size: tuple[int, int] | None = None
    #: arrays staged through __local memory with barriers (paper Fig. 1a) —
    #: their repeated reads hit local memory, cutting global traffic
    shared_staged: tuple[str, ...] = ()
    traffic_reuse: float = 1.0
    #: "advanced thread distribution" (paper V-B2 / Fig. 8): per-launch
    #: 2-D sizes derived from the outer iteration, CAPS-codelet style
    advanced_distribution: bool = False


@dataclass
class OpenCLProgram:
    """A hand-written OpenCL version of one benchmark."""

    name: str
    specs: list[OpenCLKernelSpec] = field(default_factory=list)


def _distribution_for(spec: OpenCLKernelSpec) -> ThreadDistribution:
    if not spec.parallel_loop_ids:
        return ThreadDistribution(DistStrategy.SEQUENTIAL,
                                  advertised="single work-item task")
    if spec.advanced_distribution:
        return ThreadDistribution(
            DistStrategy.GRIDIFY_2D,
            blocksize=(32, 4),
            advertised="advanced 2D distribution (Fig. 8)",
        )
    lx, ly = spec.local_size
    if spec.global_size is not None:
        gx, gy = spec.global_size
        return ThreadDistribution(
            DistStrategy.FIXED,
            fixed=LaunchConfig(
                grid=(max(1, gx // max(lx, 1)), max(1, gy // max(ly, 1)), 1),
                block=(lx, ly, 1),
            ),
            advertised=f"global [{gx},{gy}] local [{lx},{ly}]",
        )
    if ly > 1:
        return ThreadDistribution(
            DistStrategy.GRIDIFY_2D, blocksize=(lx, ly),
            advertised=f"local [{lx},{ly}] 2D",
        )
    return ThreadDistribution(
        DistStrategy.AUTO_1D, worker=lx, advertised=f"local [{lx},1]"
    )


class NvidiaOpenCLCompiler:
    """OpenCL -> PTX on the K40."""

    name = "OpenCL"
    version = "CUDA 5.5"
    target = "opencl"

    def compile(self, program: OpenCLProgram) -> CompilationResult:
        result = CompilationResult(program.name, self.name, self.target)
        for spec in program.specs:
            ctx = PassContext(compiler="opencl", target="gpu",
                              options={"staged": spec.shared_staged})
            work = pipeline_for("opencl", "gpu").run(spec.kernel, ctx)
            staged = ctx.state.get("shared_staged", ())
            mapping = ParallelMapping(
                dims={
                    loop_id: dim
                    for dim, loop_id in enumerate(reversed(spec.parallel_loop_ids))
                }
            )
            ptx = generate_ptx(work, mapping, NV_OPENCL_STYLE)
            if staged:
                ptx = stage_shared_ptx(ptx, staged)
            result.kernels.append(
                CompiledKernel(
                    name=work.name,
                    ir=work,
                    target=self.target,
                    compiler=self.name,
                    distribution=_distribution_for(spec),
                    parallel_loop_ids=list(spec.parallel_loop_ids),
                    ptx=ptx,
                    shared_staged=staged,
                    traffic_reuse=spec.traffic_reuse,
                    messages=[f"built with local size {spec.local_size}"],
                )
            )
        return result


class IntelOpenCLCompiler:
    """OpenCL on the Xeon Phi (no PTX — paper V-D1: "we cannot profile the
    PTX codes of the generated OpenCL codes")."""

    name = "Intel OpenCL"
    version = "14.0"
    target = "opencl"

    def compile(self, program: OpenCLProgram) -> CompilationResult:
        result = CompilationResult(program.name, self.name, self.target)
        for spec in program.specs:
            ctx = PassContext(compiler="opencl", target="mic",
                              options={"staged": spec.shared_staged})
            work = pipeline_for("opencl", "mic").run(spec.kernel, ctx)
            result.kernels.append(
                CompiledKernel(
                    name=work.name,
                    ir=work,
                    target=self.target,
                    compiler=self.name,
                    distribution=_distribution_for(spec),
                    parallel_loop_ids=list(spec.parallel_loop_ids),
                    ptx=None,
                    shared_staged=ctx.state.get("shared_staged", ()),
                    # __local staging buys nothing on MIC: "local" memory is
                    # ordinary cached DRAM there
                    traffic_reuse=1.0,
                    messages=["Intel OpenCL for MIC (local memory = DRAM)"],
                )
            )
        return result


def compile_opencl(program: OpenCLProgram, device_kind: str) -> CompilationResult:
    """Compile a hand-written OpenCL program for "gpu" or "mic"."""
    from ..telemetry.spans import get_tracer

    with get_tracer().span("compile.opencl", category="compile",
                           label=program.name, device=device_kind):
        if device_kind == "gpu":
            return NvidiaOpenCLCompiler().compile(program)
        if device_kind == "mic":
            return IntelOpenCLCompiler().compile(program)
        raise CompilationError(
            f"no OpenCL runtime for device kind {device_kind!r}"
        )
