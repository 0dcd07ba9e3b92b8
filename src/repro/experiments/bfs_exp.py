"""BFS experiments: Figures 10 and 11 (paper section V-C)."""

from __future__ import annotations

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
from ..ptx.counter import format_comparison
from ..service import CompileService
from .common import Claim, ExperimentResult, ordering_claim, ratio_claim, size_for

LEVELS = 12


def fig10(service: CompileService, paper_scale: bool = False) -> ExperimentResult:
    """Figure 10: elapsed time of BFS on GPU and MIC."""
    bench = get_benchmark("bfs")
    n = size_for("bfs", paper_scale)
    stages = bench.stages()

    rows: list[StageResult] = []
    matrix = [
        ("base", "caps", "cuda", K40),
        ("base", "caps", "opencl", PHI_5110P),
        ("base", "pgi", "cuda", K40),
        ("indep", "caps", "cuda", K40),
        ("indep", "caps", "opencl", PHI_5110P),
        ("indep", "pgi", "cuda", K40),
    ]
    for stage, compiler, target, device in matrix:
        rows.append(
            run_stage(bench, stages[stage], stage, compiler, target, device, n,
                      levels=LEVELS, service=service)
        )
    rows.append(run_opencl(bench, "opencl", K40, n, levels=LEVELS))
    rows.append(run_opencl(bench, "opencl", PHI_5110P, n, levels=LEVELS))

    def find(stage: str, compiler: str, device) -> StageResult:
        for row in rows:
            if (row.stage == stage and row.compiler.lower() == compiler.lower()
                    and row.device == device.name):
                return row
        raise KeyError((stage, compiler, device.name))

    claims = [
        ordering_claim(
            "the CAPS baseline runs faster on MIC than GPU (sequential "
            "kernels; higher single-thread performance)",
            find("base", "caps", PHI_5110P).elapsed_s,
            find("base", "caps", K40).elapsed_s,
            margin=1.5,
        ),
        Claim(
            "the PGI baseline does not run its kernels on the GPU "
            "(nvprof/PGI_ACC_TIME shows no device launches)",
            find("base", "pgi", K40).kernels_on_device == 0,
            f"device launches = {find('base', 'pgi', K40).kernels_on_device}",
        ),
        ordering_claim(
            "the PGI baseline nevertheless looks fastest",
            find("base", "pgi", K40).elapsed_s,
            min(find("base", "caps", K40).elapsed_s,
                find("base", "caps", PHI_5110P).elapsed_s),
            margin=1.0,
        ),
        ordering_claim(
            "independent gives CAPS a large speedup on GPU (paper: ~400x)",
            find("indep", "caps", K40).elapsed_s,
            find("base", "caps", K40).elapsed_s,
            margin=20.0,
        ),
        ordering_claim(
            "independent gives CAPS a solid speedup on MIC (paper: ~30x)",
            find("indep", "caps", PHI_5110P).elapsed_s,
            find("base", "caps", PHI_5110P).elapsed_s,
            margin=3.0,
        ),
        Claim(
            "PGI ignores independent on the complex loops (still sequential)",
            find("indep", "pgi", K40).thread_config == "1x1",
            f"config = {find('indep', 'pgi', K40).thread_config}",
        ),
        ordering_claim(
            "PGI with independent still beats CAPS with independent "
            "(4 transfers total vs 3 per iteration)",
            find("indep", "pgi", K40).elapsed_s,
            find("indep", "caps", K40).elapsed_s,
            margin=1.1,
        ),
        ordering_claim(
            "the OpenCL baseline is much slower on MIC than GPU (paper: 9x)",
            find("opencl", "OpenCL", K40).elapsed_s,
            find("opencl", "OpenCL", PHI_5110P).elapsed_s,
            margin=2.0,
        ),
    ]
    return ExperimentResult("Figure 10", "Elapsed time of BFS on GPU and MIC",
                            rows, claims, format_rows(rows))


def fig11(service: CompileService, paper_scale: bool = False) -> ExperimentResult:
    """Figure 11: PTX instructions of BFS."""
    bench = get_benchmark("bfs")
    stages = bench.stages()

    caps_base = ptx_profile(service.compile(stages["base"], "caps", "cuda"))
    caps_regrouped = ptx_profile(
        service.compile(stages["regrouped"], "caps", "cuda")
    )
    pgi_base = ptx_profile(service.compile(stages["base"], "pgi", "cuda"))
    pgi_regrouped = ptx_profile(
        service.compile(stages["regrouped"], "pgi", "cuda")
    )
    ocl = ptx_profile(NvidiaOpenCLCompiler().compile(bench.opencl_program()))

    # the regrouped PGI version parallelizes: the 128x1 columns of Fig. 11
    pgi_compiled = service.compile(stages["regrouped"], "pgi", "cuda")
    parallel_modes = [
        bool(k.parallel_loop_ids) and not k.elided for k in pgi_compiled.kernels
    ]

    def categories_close(a, b, factor: float) -> bool:
        rows_a, rows_b = a.as_row(), b.as_row()
        for key in ("arithmetic", "flow_control", "data_movement",
                    "global_memory"):
            va, vb = rows_a[key], rows_b[key]
            if va == 0 and vb == 0:
                continue
            if min(va, vb) == 0 or max(va, vb) / min(va, vb) > factor:
                return False
        return True

    claims = [
        Claim(
            "the PGI baseline emits almost no PTX (kernels not offloaded)",
            pgi_base.total <= 4,
            f"total = {pgi_base.total}",
        ),
        Claim(
            "the regrouped version is parallelized by PGI (128x1)",
            all(parallel_modes),
            f"parallel kernels = {parallel_modes}",
        ),
        Claim(
            "after regrouping, PGI and OpenCL PTX show no big difference "
            "in every category",
            categories_close(pgi_regrouped, ocl, 2.5),
            f"pgi={pgi_regrouped.as_row()}, ocl={ocl.as_row()}",
        ),
        ordering_claim(
            "CAPS generates fewer data-movement instructions than PGI",
            caps_regrouped.as_row()["data_movement"],
            pgi_regrouped.as_row()["data_movement"],
            margin=1.2,
        ),
        ordering_claim(
            "CAPS generates fewer global-memory instructions than OpenCL",
            caps_regrouped.global_memory, ocl.global_memory, margin=1.02,
        ),
        ordering_claim(
            "CAPS generates fewer global-memory instructions than PGI",
            caps_regrouped.global_memory, pgi_regrouped.global_memory,
            margin=1.02,
        ),
    ]
    profiles = {
        "opencl": ocl,
        "caps-base": caps_base,
        "caps-regrouped": caps_regrouped,
        "pgi-base": pgi_base,
        "pgi-regrouped": pgi_regrouped,
    }
    return ExperimentResult("Figure 11", "PTX instructions of BFS",
                            list(profiles.items()), claims,
                            format_comparison(profiles))
