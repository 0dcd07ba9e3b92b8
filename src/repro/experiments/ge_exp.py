"""GE experiments: Figures 7, 8, and 9 (paper section V-B)."""

from __future__ import annotations

from ..compilers.caps import CapsCompiler, generated_codelet
from ..compilers.flags import FlagSet
from ..compilers.opencl import NvidiaOpenCLCompiler
from ..core.method import (
    StageResult,
    format_rows,
    ptx_profile,
    run_opencl,
    run_stage,
)
from ..devices.specs import K40, PHI_5110P
from ..kernels import get_benchmark
from ..ptx.counter import InstructionProfile, format_comparison
from ..service import get_default_service
from .common import Claim, ExperimentResult, ordering_claim, ratio_claim, size_for


def _pgi_flags(stage: str) -> FlagSet:
    flags = ["-O4", "-fast"]
    if stage == "unroll":
        flags.append("-Munroll")
    return FlagSet("PGI", tuple(flags))


def fig7(paper_scale: bool = False) -> ExperimentResult:
    """Figure 7: elapsed time of GE OpenACC on GPU and MIC."""
    bench = get_benchmark("ge")
    n = size_for("ge", paper_scale)
    stages = bench.stages()

    rows: list[StageResult] = []
    matrix = [
        ("base", "caps", "cuda", K40),
        ("base", "caps", "opencl", PHI_5110P),
        ("base", "pgi", "cuda", K40),
        ("indep", "caps", "cuda", K40),
        ("indep", "caps", "opencl", PHI_5110P),
        ("indep", "pgi", "cuda", K40),
        ("unroll", "caps", "cuda", K40),
        ("unroll", "pgi", "cuda", K40),
        ("tile", "caps", "cuda", K40),
        ("reorganized", "caps", "cuda", K40),
        ("reorganized", "caps", "opencl", PHI_5110P),
    ]
    service = get_default_service()
    for stage, compiler, target, device in matrix:
        flags = _pgi_flags(stage) if compiler == "pgi" else None
        rows.append(
            run_stage(bench, stages[stage], stage, compiler, target, device, n,
                      flags=flags, service=service)
        )
    # the hand-written OpenCL baseline and the advanced-distribution variant
    rows.append(run_opencl(bench, "opencl-base", K40, n))
    rows.append(run_opencl(bench, "opencl-base", PHI_5110P, n))
    rows.append(
        run_opencl(bench, "opencl-advanced", K40, n,
                   program=bench.opencl_program(advanced=True))
    )

    def t(stage: str, compiler: str, device) -> float:
        for row in rows:
            if (row.stage == stage and row.compiler.lower() == compiler.lower()
                    and row.device == device.name):
                return row.elapsed_s
        raise KeyError((stage, compiler, device.name))

    def cfg(stage: str, compiler: str, device) -> str:
        for row in rows:
            if (row.stage == stage and row.compiler.lower() == compiler.lower()
                    and row.device == device.name):
                return row.thread_config
        raise KeyError((stage, compiler, device.name))

    claims = [
        ratio_claim(
            "the baseline has similar performance on GPU and MIC",
            t("base", "caps", K40) / t("base", "caps", PHI_5110P), 0.2, 10.0,
        ),
        Claim(
            "the PGI baseline stays sequential (pointer aliasing)",
            cfg("base", "pgi", K40) == "1x1",
            f"config = {cfg('base', 'pgi', K40)}",
        ),
        Claim(
            "with independent, CAPS gridifies 2-D ([32,4])",
            cfg("indep", "caps", K40) == "32x4",
            f"config = {cfg('indep', 'caps', K40)}",
        ),
        Claim(
            "with independent, PGI goes 1-D ([128,1]), inner loop sequential",
            cfg("indep", "pgi", K40) == "128x1",
            f"config = {cfg('indep', 'pgi', K40)}",
        ),
        ordering_claim(
            "independent + auto distribution is a large win for CAPS on GPU",
            t("indep", "caps", K40), t("base", "caps", K40), margin=10.0,
        ),
        ratio_claim(
            "unroll-and-jam does not improve CAPS",
            t("unroll", "caps", K40) / t("indep", "caps", K40), 0.8, 1.5,
        ),
        ratio_claim(
            "-Munroll does not improve PGI",
            t("unroll", "pgi", K40) / t("indep", "pgi", K40), 0.8, 1.5,
        ),
        ratio_claim(
            "tiling does not improve CAPS (no shared-variable reuse)",
            t("tile", "caps", K40) / t("indep", "caps", K40), 0.8, 1.6,
        ),
        ordering_claim(
            "the optimized CAPS OpenACC runs faster than the baseline "
            "OpenCL (constant work sizes) on GPU",
            t("reorganized", "caps", K40), t("opencl-base", "OpenCL", K40),
            margin=1.0,
        ),
        ordering_claim(
            "the advanced-distribution OpenCL is the fastest GPU version",
            t("opencl-advanced", "OpenCL", K40),
            t("reorganized", "caps", K40),
            margin=1.0,
        ),
    ]
    return ExperimentResult("Figure 7", "Elapsed time of GE on GPU and MIC",
                            rows, claims, format_rows(rows))


def fig8(paper_scale: bool = False) -> ExperimentResult:
    """Figure 8: the advanced thread-distribution codelet configuration."""
    bench = get_benchmark("ge")
    compiled = CapsCompiler().compile(bench.stages()["indep"], "cuda")
    codelet = generated_codelet(compiled.kernel("ge_fan2"))
    claims = [
        Claim("the codelet sets a 2-D global work size",
              "setWorkDim(2)" in codelet),
        Claim("the global X size is derived from the outer iteration",
              "setSizeX((size - i - 1)" in codelet.replace("  ", " ")
              or "setSizeX((size - i - 1)" in codelet),
        Claim("the local work group is 32 x 4",
              "setBlockSizeX(32)" in codelet and "setBlockSizeY(4)" in codelet),
    ]
    return ExperimentResult(
        "Figure 8", "Advanced thread-distribution configuration (HMPP codelet)",
        [codelet], claims, codelet,
    )


def fig9(paper_scale: bool = False) -> ExperimentResult:
    """Figure 9: PTX instructions of GE for CAPS and PGI (+ OpenCL)."""
    bench = get_benchmark("ge")
    stages = bench.stages()

    service = get_default_service()  # reuses fig7's compiled artifacts
    caps = {
        stage: ptx_profile(service.compile(stages[stage], "caps", "cuda"))
        for stage in ("base", "indep", "unroll", "tile", "reorganized")
    }
    pgi = {
        stage: ptx_profile(
            service.compile(stages[stage], "pgi", "cuda", _pgi_flags(stage))
        )
        for stage in ("base", "indep", "unroll")
    }
    ocl_program = bench.opencl_program(advanced=True)
    ocl = ptx_profile(NvidiaOpenCLCompiler().compile(ocl_program))

    # per-kernel: ge_fan1 and the advanced ocl_fan1 are structurally
    # identical sources, isolating the pure style difference
    caps_fan1 = InstructionProfile.of(
        CapsCompiler().compile(stages["indep"], "cuda").kernel("ge_fan1").ptx
    )
    ocl_fan1 = InstructionProfile.of(
        NvidiaOpenCLCompiler().compile(ocl_program).kernel("ocl_fan1").ptx
    )

    # launch counts: 3 kernels per host iteration vs 2 after reorganization
    n = 64
    from ..runtime.launcher import Accelerator
    acc3 = Accelerator(K40)
    bench.run(acc3, CapsCompiler().compile(stages["indep"], "cuda"), n)
    acc2 = Accelerator(K40)
    bench.run(acc2, CapsCompiler().compile(stages["reorganized"], "cuda"), n)

    claims = [
        ratio_claim(
            "CAPS and the OpenCL compiler generate similar PTX totals",
            caps_fan1.total / max(ocl_fan1.total, 1), 0.7, 1.5,
        ),
        Claim(
            "CAPS generates exactly five more global-memory instructions "
            "than the OpenCL compiler (the HMPP codelet descriptor)",
            caps_fan1.global_memory - ocl_fan1.global_memory == 5,
            f"caps={caps_fan1.global_memory}, ocl={ocl_fan1.global_memory}",
        ),
        Claim(
            "the CAPS unroll-and-jam PTX is identical to the previous step "
            "(fake success message)",
            caps["unroll"].by_opcode == caps["indep"].by_opcode,
        ),
        ratio_claim(
            "-Munroll nearly doubles PGI's arithmetic instructions",
            pgi["unroll"].as_row()["arithmetic"]
            / max(pgi["indep"].as_row()["arithmetic"], 1),
            1.4, 2.6,
        ),
        ratio_claim(
            "-Munroll nearly doubles PGI's data-movement instructions",
            pgi["unroll"].as_row()["data_movement"]
            / max(pgi["indep"].as_row()["data_movement"], 1),
            1.3, 2.6,
        ),
        Claim(
            "CAPS tiling emits no shared-memory instructions",
            not caps["tile"].uses_shared_memory,
        ),
        Claim(
            "kernel launches drop from 3N to 2N after reorganization",
            acc3.profiler.kernel_launches == 3 * (n - 1)
            and acc2.profiler.kernel_launches == 2 * (n - 1),
            f"{acc3.profiler.kernel_launches} vs {acc2.profiler.kernel_launches}",
        ),
    ]
    profiles = {f"caps-{s}": p for s, p in caps.items()}
    profiles.update({f"pgi-{s}": p for s, p in pgi.items()})
    profiles["opencl-advanced"] = ocl
    return ExperimentResult("Figure 9", "PTX instructions of GE",
                            list(profiles.items()), claims,
                            format_comparison(profiles))
