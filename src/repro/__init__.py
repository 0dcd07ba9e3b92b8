"""repro — a simulated reproduction of "Understanding Performance
Portability of OpenACC for Supercomputers" (IPPS 2015).

The package implements the paper's entire tool-chain as a faithful
simulation (see DESIGN.md):

* :mod:`repro.frontend` — mini-C + OpenACC/HMPP pragma parser
* :mod:`repro.ir` / :mod:`repro.analysis` / :mod:`repro.passes` —
  loop-nest IR, dependence analysis, and the method's optimization passes
* :mod:`repro.compilers` — CAPS 3.4.1 and PGI 14.9 compiler models (with
  their documented quirks) plus the hand-written OpenCL path
* :mod:`repro.ptx` — PTX-subset generation and static instruction counting
* :mod:`repro.devices` / :mod:`repro.perf` — K40 / Xeon Phi 5110P
  performance models
* :mod:`repro.runtime` — simulated accelerator runtime with functional
  execution over NumPy
* :mod:`repro.kernels` — LUD, GE, BFS, BP, and Hydro
* :mod:`repro.core` — the systematic optimization method, heat-map
  search, and the PPR metric
* :mod:`repro.experiments` — regeneration of every paper table and figure

Quickstart::

    from repro import compile_openacc, Accelerator, K40
    from repro.frontend import parse_module

    module = parse_module(source_text)
    compiled = compile_openacc(module, compiler="caps", target="cuda")
    accelerator = Accelerator(K40)
    accelerator.to_device(a=my_array)
    accelerator.launch(compiled.kernels[0], n=len(my_array))
"""

from .compilers import (
    CapsCompiler,
    CompilationError,
    CompilationResult,
    CompiledKernel,
    FlagSet,
    IntelOpenCLCompiler,
    NvidiaOpenCLCompiler,
    OpenCLKernelSpec,
    OpenCLProgram,
    PgiCompiler,
    compile_opencl,
)
from .core import lud_heatmap, ppr, run_opencl, run_stage
from .devices import E5_2670, GCC, ICC, K40, PCIE, PHI_5110P, DeviceSpec
from .frontend import parse_kernel, parse_module
from .kernels import BENCHMARKS, get_benchmark
from .runtime import Accelerator, execute_kernel

__version__ = "1.0.0"


def compile_openacc(module, compiler: str = "caps", target: str = "cuda",
                    flags: "FlagSet | None" = None) -> CompilationResult:
    """Compile an OpenACC module with the named tool-chain model."""
    from .core.method import compile_stage

    return compile_stage(module, compiler, target, flags)


__all__ = [
    "BENCHMARKS",
    "Accelerator",
    "CapsCompiler",
    "CompilationError",
    "CompilationResult",
    "CompiledKernel",
    "DeviceSpec",
    "E5_2670",
    "FlagSet",
    "GCC",
    "ICC",
    "IntelOpenCLCompiler",
    "K40",
    "NvidiaOpenCLCompiler",
    "OpenCLKernelSpec",
    "OpenCLProgram",
    "PCIE",
    "PHI_5110P",
    "PgiCompiler",
    "compile_openacc",
    "compile_opencl",
    "execute_kernel",
    "get_benchmark",
    "lud_heatmap",
    "parse_kernel",
    "parse_module",
    "ppr",
    "run_opencl",
    "run_stage",
]
