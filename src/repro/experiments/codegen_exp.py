"""Figures 1 and 2: code-generation demonstrations.

Figure 1 contrasts tiling in CUDA (shared-memory staging with barrier
synchronization) against tiling in OpenACC (the strip-mined loop still
reads global memory).  Figure 2 is the code-generation flow: which
compiler produces what for which device.
"""

from __future__ import annotations

from ..compilers.framework import CompilationError
from ..compilers.opencl import (
    IntelOpenCLCompiler,
    NvidiaOpenCLCompiler,
    OpenCLKernelSpec,
    OpenCLProgram,
)
from ..frontend.parser import parse_kernel, parse_module
from ..ptx.counter import InstructionProfile
from ..service import CompileService
from .common import Claim, ExperimentResult

#: a simple tiled matrix-vector body used for the Fig. 1 contrast
_ACC_TILED = """
#pragma acc kernels
void axpy_tiled(const float *a, float *y, int n) {
  int i;
  #pragma acc loop independent tile(16)
  for (i = 0; i < n; i++) {
    y[i] += a[i] * 2.0f;
  }
}
"""

_CUDA_HAND = """
void axpy_shared(const float *a, float *y, int n) {
  int i;
  for (i = 0; i < n; i++) {
    y[i] += a[i] * 2.0f;
  }
}
"""


def fig1(service: CompileService, paper_scale: bool = False) -> ExperimentResult:
    """Figure 1: tiling in CUDA (a) vs OpenACC (b)."""
    # (b) OpenACC tiling through CAPS: strip-mined, global memory only
    acc = service.compile(
        parse_module(_ACC_TILED, "tile-demo"), "caps", "cuda")
    acc_profile = InstructionProfile.of(acc.kernels[0].ptx)
    tiled_ir = acc.kernels[0].ir
    loop_count = len(tiled_ir.loops())

    # (a) the hand-written CUDA version stages `a` through shared memory
    hand = parse_kernel(_CUDA_HAND)
    program = OpenCLProgram(
        "cuda-hand",
        [
            OpenCLKernelSpec(
                kernel=hand,
                parallel_loop_ids=[hand.loops()[0].loop_id],
                local_size=(128, 1),
                shared_staged=("a",),
                traffic_reuse=0.6,
            )
        ],
    )
    cuda = NvidiaOpenCLCompiler().compile(program)
    cuda_profile = InstructionProfile.of(cuda.kernels[0].ptx)
    cuda_ops = cuda.kernels[0].ptx.opcodes()

    claims = [
        Claim(
            "OpenACC tiling transforms the single loop into a nested loop",
            loop_count == 2,
            f"loops after tiling = {loop_count}",
        ),
        Claim(
            "the OpenACC tiled code still accesses only global memory "
            "(no ld.shared/st.shared)",
            not acc_profile.uses_shared_memory,
        ),
        Claim(
            "the hand-written CUDA tile stages data in shared memory",
            cuda_profile.uses_shared_memory,
        ),
        Claim(
            "the CUDA tile synchronizes with a barrier",
            "bar.sync" in cuda_ops,
        ),
    ]
    from ..ir.printer import print_kernel

    rendered = (
        "OpenACC tiled loop (global memory only):\n"
        + print_kernel(tiled_ir)
    )
    return ExperimentResult("Figure 1", "Tiling in CUDA (a) and OpenACC (b)",
                            [acc_profile, cuda_profile], claims, rendered)


def fig2(service: CompileService, paper_scale: bool = False) -> ExperimentResult:
    """Figure 2: the code-generation process of the study."""
    source = """
#pragma acc kernels
void demo(float *x, int n) {
  int i;
  #pragma acc loop independent
  for (i = 0; i < n; i++) {
    x[i] = x[i] * 2.0f;
  }
}
"""
    module = parse_module(source, "demo")
    caps_cuda = service.compile(module, "caps", "cuda")
    caps_opencl = service.compile(module, "caps", "opencl")
    pgi_cuda = service.compile(module, "pgi", "cuda")
    try:
        service.compile(module, "pgi", "opencl")
        pgi_mic_rejected = False
    except CompilationError:
        pgi_mic_rejected = True

    hand = parse_kernel(source.replace("#pragma acc kernels", "")
                        .replace("#pragma acc loop independent", "")
                        .replace("void demo", "void ocl_demo"))
    program = OpenCLProgram(
        "demo-ocl",
        [OpenCLKernelSpec(kernel=hand,
                          parallel_loop_ids=[hand.loops()[0].loop_id])],
    )
    nv = NvidiaOpenCLCompiler().compile(program)
    intel = IntelOpenCLCompiler().compile(program)

    claims = [
        Claim("CAPS generates CUDA for the GPU (with PTX)",
              caps_cuda.kernels[0].ptx is not None),
        Claim("CAPS generates OpenCL for the MIC (no PTX to profile)",
              caps_opencl.kernels[0].ptx is None
              and caps_opencl.target == "opencl"),
        Claim("PGI generates CUDA for the GPU only",
              pgi_cuda.kernels[0].ptx is not None and pgi_mic_rejected),
        Claim("NVIDIA OpenCL compiles the hand-written kernels for the GPU",
              nv.kernels[0].ptx is not None),
        Claim("the Intel compiler compiles the OpenCL codes on MIC",
              intel.kernels[0].ptx is None
              and intel.compiler == "Intel OpenCL"),
    ]
    rendered = (
        "OpenACC source -> CAPS -> {CUDA (K40), OpenCL (K40, 5110P)}\n"
        "OpenACC source -> PGI  -> {CUDA (K40)}\n"
        "OpenCL source  -> NVIDIA OpenCL (K40) / Intel OpenCL (5110P)"
    )
    return ExperimentResult("Figure 2", "The code generation process",
                            [], claims, rendered)
