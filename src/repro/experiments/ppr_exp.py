"""Figure 16: the Performance Portability Ratio across GPU and MIC
(paper section V-F).

PPR = MIC elapsed / GPU elapsed (Equation 1), computed for the optimized
CAPS OpenACC versions and the hand-written OpenCL versions of GE, BFS,
BP, and Hydro.  LUD is excluded: "the OpenACC version of LUD cannot be
compared fairly with the OpenCL version as they use different algorithms"
— and PGI appears nowhere because "the PGI compiler has not supported
MIC yet".
"""

from __future__ import annotations

from ..core.method import run_opencl, run_stage
from ..core.ppr import PprEntry, format_ppr_table
from ..devices.specs import ICC, K40, PHI_5110P
from ..kernels import get_benchmark
from ..service import CompileService
from .common import Claim, ExperimentResult, size_for

#: the optimized OpenACC stage per benchmark (the paper's best version)
OPTIMIZED_STAGE = {
    "ge": "reorganized",
    "bfs": "indep",
    "bp": "indep",
    "hydro": "optimized",
}

_RUN_KWARGS = {
    "bfs": {"levels": 12},
    "hydro": {"steps": 10},
}


def fig16(service: CompileService, paper_scale: bool = False) -> ExperimentResult:
    """Figure 16: PPR of optimized CAPS OpenACC vs OpenCL."""
    entries: list[PprEntry] = []
    for short, stage in OPTIMIZED_STAGE.items():
        bench = get_benchmark(short)
        n = size_for(short, paper_scale)
        kwargs = _RUN_KWARGS.get(short, {})
        stages = bench.stages()

        # optimized OpenACC: CAPS CUDA on the K40, CAPS OpenCL on the MIC
        acc_gpu = run_stage(bench, stages[stage], stage, "caps", "cuda",
                            K40, n, toolchain=ICC, service=service, **kwargs)
        acc_mic = run_stage(bench, stages[stage], stage, "caps", "opencl",
                            PHI_5110P, n, toolchain=ICC, service=service,
                            **kwargs)
        entries.append(
            PprEntry(f"{short} OAC-OCL 5110P / OAC-CUDA K40", short,
                     "openacc", acc_mic.elapsed_s, acc_gpu.elapsed_s)
        )

        # the hand-written OpenCL version on both devices
        ocl_gpu = run_opencl(bench, "opencl", K40, n, toolchain=ICC, **kwargs)
        ocl_mic = run_opencl(bench, "opencl", PHI_5110P, n, toolchain=ICC,
                             **kwargs)
        entries.append(
            PprEntry(f"{short} OCL 5110P / OCL K40", short, "opencl",
                     ocl_mic.elapsed_s, ocl_gpu.elapsed_s)
        )

    by_bench: dict[str, dict[str, float]] = {}
    for entry in entries:
        by_bench.setdefault(entry.benchmark, {})[entry.version] = entry.ppr

    openacc_wins = sum(
        1 for values in by_bench.values()
        if values["openacc"] <= values["opencl"]
    )
    claims = [
        Claim(
            "every PPR is larger than 1 (both versions run faster on the "
            "Kepler K40 than on the MIC 5110P)",
            all(entry.ppr > 1.0 for entry in entries),
            ", ".join(f"{e.benchmark}/{e.version}={e.ppr:.2f}" for e in entries),
        ),
        Claim(
            "the optimized OpenACC versions achieve a better (lower) PPR "
            "than the OpenCL versions in some cases",
            openacc_wins >= 2,
            f"OpenACC wins {openacc_wins}/4 benchmarks",
        ),
        Claim(
            "LUD is excluded (different algorithms in the two versions)",
            "lud" not in by_bench,
        ),
    ]
    return ExperimentResult(
        "Figure 16", "PPR of optimized CAPS OpenACC vs OpenCL across GPU/MIC",
        entries, claims, format_ppr_table(entries),
    )
