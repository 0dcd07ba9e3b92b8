"""Hydro experiments: Figure 15 and the PGI failure (paper section V-E)."""

from __future__ import annotations

from ..compilers.framework import CompilationError
from ..core.method import StageResult, format_rows, run_opencl, run_stage
from ..devices.specs import GCC, ICC, K40, PHI_5110P
from ..kernels import get_benchmark
from ..service import CompileService
from .common import Claim, ExperimentResult, ordering_claim, ratio_claim, size_for

STEPS = 10


def fig15(service: CompileService, paper_scale: bool = False) -> ExperimentResult:
    """Figure 15: elapsed time of the OpenCL and CAPS OpenACC Hydro."""
    bench = get_benchmark("hydro")
    n = size_for("hydro", paper_scale)
    stages = bench.stages()

    rows: list[StageResult] = []
    matrix = [
        # (stage, target, device, toolchain, label)
        ("base", "cuda", K40, GCC),
        ("base", "opencl", PHI_5110P, GCC),
        ("base", "cuda", K40, ICC),
        ("base", "opencl", PHI_5110P, ICC),
        ("optimized", "cuda", K40, ICC),
        ("optimized", "opencl", PHI_5110P, ICC),
    ]
    for stage, target, device, toolchain in matrix:
        row = run_stage(
            bench, stages[stage], f"{stage}-{toolchain.name}", "caps", target,
            device, n, toolchain=toolchain, service=service, steps=STEPS,
        )
        rows.append(row)
    rows.append(run_opencl(bench, "opencl-gcc", K40, n, toolchain=GCC,
                           steps=STEPS))
    rows.append(run_opencl(bench, "opencl-gcc", PHI_5110P, n, toolchain=GCC,
                           steps=STEPS))
    rows.append(run_opencl(bench, "opencl-icc", K40, n, toolchain=ICC,
                           steps=STEPS))
    rows.append(run_opencl(bench, "opencl-icc", PHI_5110P, n, toolchain=ICC,
                           steps=STEPS))

    def t(stage: str, device) -> float:
        for row in rows:
            if row.stage == stage and row.device == device.name:
                return row.elapsed_s
        raise KeyError((stage, device.name))

    # the PGI failure (V-E): pointer conversions
    try:
        service.compile(stages["base"], "pgi", "cuda")
        pgi_failed, pgi_message = False, ""
    except CompilationError as exc:
        pgi_failed, pgi_message = True, str(exc)

    claims = [
        ordering_claim(
            "the baseline OpenACC runs faster on GPU than MIC (Gang-mode "
            "clauses defeat the MIC vectorizer)",
            t("base-gcc", K40), t("base-gcc", PHI_5110P), margin=2.0,
        ),
        ordering_claim(
            "the baseline OpenACC is slower than OpenCL on GPU",
            t("opencl-gcc", K40), t("base-gcc", K40), margin=1.05,
        ),
        ordering_claim(
            "the Intel host compiler beats GCC (OpenACC version)",
            t("base-icc", K40), t("base-gcc", K40), margin=1.02,
        ),
        ordering_claim(
            "the Intel host compiler beats GCC (OpenCL version)",
            t("opencl-icc", K40), t("opencl-gcc", K40), margin=1.02,
        ),
        ratio_claim(
            "independent + Gridify improves the GPU mildly (paper: 1.3x)",
            t("base-icc", K40) / t("optimized-icc", K40), 1.0, 3.0,
        ),
        ordering_claim(
            "independent + Gridify transforms the MIC (paper: 200x)",
            t("optimized-icc", PHI_5110P), t("base-icc", PHI_5110P),
            margin=8.0,
        ),
        Claim(
            "PGI cannot compile Hydro (pointer conversions)",
            pgi_failed and "pointer" in pgi_message,
            pgi_message[:70],
        ),
    ]
    return ExperimentResult(
        "Figure 15", "Elapsed time of Hydro (OpenCL vs CAPS OpenACC)",
        rows, claims, format_rows(rows),
    )
