"""The systematic optimization method (paper section III) as a pipeline.

``evaluate_method`` runs every optimization stage of a benchmark through a
compiler onto a device, recording elapsed time, the thread configuration
the compiler chose, static PTX profiles, and functional correctness —
the raw material of the paper's Figures 3-16.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..compilers.caps import CapsCompiler
from ..compilers.flags import FlagSet
from ..compilers.framework import CompilationError, CompilationResult
from ..compilers.opencl import compile_opencl
from ..compilers.pgi import PgiCompiler
from ..devices.specs import DeviceSpec, HostToolchain, GCC
from ..kernels.base import Benchmark
from ..ptx.counter import InstructionProfile
from ..runtime.launcher import Accelerator
from ..telemetry.spans import get_tracer


@dataclass
class StageResult:
    """One (stage, compiler, device) cell of a paper figure."""

    benchmark: str
    stage: str
    compiler: str
    target: str
    device: str
    elapsed_s: float
    thread_config: str
    ptx: InstructionProfile | None = None
    correct: bool | None = None
    kernels_on_device: int = 0
    memcpy_h2d: int = 0
    memcpy_d2h: int = 0
    kernel_launches: int = 0
    error: str | None = None

    @property
    def failed(self) -> bool:
        return self.error is not None


def _thread_config_label(compiled: CompilationResult,
                         env: dict[str, int]) -> str:
    """The "Thread" row of the paper's figures: the launch geometry of the
    first non-trivial kernel (e.g. '256x16', '32x4', '1x1')."""
    for kernel in compiled.kernels:
        if kernel.elided:
            continue
        config = kernel.launch_config(env)
        if config.sequential:
            return "1x1"
        bx, by, _ = config.block
        if by > 1:
            return f"{bx}x{by}"
        gx = config.grid[0]
        return f"{gx}x{bx}" if kernel.distribution.gang else f"{bx}x1"
    return "1x1"


def ptx_profile(compiled: CompilationResult) -> InstructionProfile | None:
    """Aggregate static PTX profile of a compiled module (CUDA only)."""
    kernels = [k.ptx for k in compiled.kernels if k.ptx is not None]
    if not kernels:
        return None
    return InstructionProfile.of(*kernels)


def compile_stage(
    module,
    compiler: str,
    target: str,
    flags: FlagSet | None = None,
) -> CompilationResult:
    """Compile one stage module with the named tool-chain, uncached.

    This is the leaf a :class:`repro.service.CompileService` compiles
    with; drivers compile through the service they are given.
    """
    if compiler.lower() == "caps":
        return CapsCompiler(flags).compile(module, target)
    if compiler.lower() == "pgi":
        # pass the *requested* target through: PGI 14.9 has no OpenCL/MIC
        # backend and must refuse it (paper Table II), which the difftest
        # harness classifies as an expected compile error
        return PgiCompiler(flags).compile(module, target)
    raise ValueError(f"unknown OpenACC compiler {compiler!r}")


def run_stage(
    benchmark: Benchmark,
    module,
    stage: str,
    compiler: str,
    target: str,
    device: DeviceSpec,
    n: int,
    flags: FlagSet | None = None,
    toolchain: HostToolchain = GCC,
    validate_inputs: dict[str, object] | None = None,
    *,
    service,
    **run_kwargs,
) -> StageResult:
    """Compile one optimization stage through *service* (a
    :class:`repro.service.CompileService`) and drive it on one device."""
    with get_tracer().span(
        "method.stage", category="method",
        label=f"{benchmark.meta.short}:{stage}",
        compiler=compiler, target=target, device=device.name,
    ):
        return _run_stage(
            benchmark, module, stage, compiler, target, device, n,
            flags, toolchain, validate_inputs, service=service,
            **run_kwargs,
        )


def _run_stage(
    benchmark: Benchmark,
    module,
    stage: str,
    compiler: str,
    target: str,
    device: DeviceSpec,
    n: int,
    flags: FlagSet | None = None,
    toolchain: HostToolchain = GCC,
    validate_inputs: dict[str, object] | None = None,
    *,
    service,
    **run_kwargs,
) -> StageResult:
    try:
        compiled = service.compile(module, compiler, target, flags)
    except CompilationError as exc:
        return StageResult(
            benchmark=benchmark.meta.short,
            stage=stage,
            compiler=compiler,
            target=target,
            device=device.name,
            elapsed_s=float("nan"),
            thread_config="-",
            error=str(exc),
        )

    accelerator = Accelerator(device, toolchain=toolchain)
    result = benchmark.run(accelerator, compiled, n, inputs=None, **run_kwargs)

    correct: bool | None = None
    if validate_inputs is not None:
        check = Accelerator(device, toolchain=toolchain)
        test_n = benchmark.meta.test_size
        functional = benchmark.run(
            check, compiled, test_n, inputs=validate_inputs, **run_kwargs
        )
        expected = benchmark.reference(validate_inputs)
        correct = benchmark.validate(functional.outputs, expected)

    profiler = accelerator.profiler
    env_hint = {"size": n, "i": max(n // 2, 1), "t": max(n // 2, 1),
                "num_nodes": n, "n1": n, "n2": 16, "ndelta": 16, "nly": n,
                "n": n * n, "nx": n, "ny": n}
    return StageResult(
        benchmark=benchmark.meta.short,
        stage=stage,
        compiler=compiler,
        target=target,
        device=device.name,
        elapsed_s=result.elapsed_s,
        thread_config=_thread_config_label(compiled, env_hint),
        ptx=ptx_profile(compiled),
        correct=correct,
        kernels_on_device=profiler.device_kernel_launches(),
        memcpy_h2d=profiler.memcpy_h2d,
        memcpy_d2h=profiler.memcpy_d2h,
        kernel_launches=profiler.kernel_launches,
    )


def run_opencl(
    benchmark: Benchmark,
    stage: str,
    device: DeviceSpec,
    n: int,
    program=None,
    toolchain: HostToolchain = GCC,
    **run_kwargs,
) -> StageResult:
    """Drive the hand-written OpenCL version on one device."""
    if program is None:
        program = benchmark.opencl_program()
    if program is None:
        raise ValueError(f"{benchmark.meta.short} has no OpenCL version")
    kind = device.kind.value
    compiled = compile_opencl(program, kind)
    accelerator = Accelerator(device, toolchain=toolchain)
    result = benchmark.run(accelerator, compiled, n, inputs=None, **run_kwargs)
    env_hint = {"size": n, "t": max(n // 2, 1), "num_nodes": n, "n1": n,
                "n2": 16, "ndelta": 16, "nly": n, "n": n * n,
                "nx": n, "ny": n}
    profiler = accelerator.profiler
    return StageResult(
        benchmark=benchmark.meta.short,
        stage=stage,
        compiler="OpenCL",
        target="opencl",
        device=device.name,
        elapsed_s=result.elapsed_s,
        thread_config=_thread_config_label(compiled, env_hint),
        ptx=ptx_profile(compiled),
        kernels_on_device=profiler.device_kernel_launches(),
        memcpy_h2d=profiler.memcpy_h2d,
        memcpy_d2h=profiler.memcpy_d2h,
        kernel_launches=profiler.kernel_launches,
    )


def format_rows(rows: list[StageResult]) -> str:
    """Render stage results as an aligned table (one paper figure)."""
    headers = ["stage", "compiler", "device", "thread", "elapsed_s", "correct"]
    table = [
        [
            row.stage,
            row.compiler,
            row.device.split()[0] if row.device else "-",
            row.thread_config,
            "FAILED" if row.failed else f"{row.elapsed_s:.4g}",
            "-" if row.correct is None else str(row.correct),
        ]
        for row in rows
    ]
    widths = [
        max(len(headers[c]), *(len(line[c]) for line in table)) if table else
        len(headers[c])
        for c in range(len(headers))
    ]
    out = ["  ".join(headers[c].ljust(widths[c]) for c in range(len(headers)))]
    out.append("  ".join("-" * widths[c] for c in range(len(headers))))
    for line in table:
        out.append("  ".join(line[c].ljust(widths[c]) for c in range(len(headers))))
    return "\n".join(out)
