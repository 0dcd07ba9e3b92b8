#!/usr/bin/env python3
"""Run the paper's systematic optimization method on the Rodinia kernels.

For each benchmark this drives every optimization stage through the CAPS
and PGI compiler models on the K40 and the Xeon Phi 5110P, printing the
elapsed-time tables behind Figures 3, 7, 10, and 12, and finishing with
the Performance Portability Ratio of Figure 16.

Run:  python examples/rodinia_portability.py [--paper-scale]
"""

import argparse

from repro.core.method import format_rows, run_opencl, run_stage
from repro.core.ppr import PprEntry, format_ppr_table
from repro.devices import K40, PHI_5110P
from repro.experiments.common import size_for
from repro.kernels import get_benchmark
from repro.service import CompileService

STAGE_MATRIX = {
    "lud": ["base", "threaddist", "unroll", "tile"],
    "ge": ["base", "indep", "unroll", "tile", "reorganized"],
    "bfs": ["base", "indep"],
    "bp": ["base", "indep", "unroll", "reduction"],
}

OPTIMIZED = {"ge": "reorganized", "bfs": "indep", "bp": "indep"}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--paper-scale", action="store_true",
                        help="use the paper's full problem sizes (slow)")
    args = parser.parse_args()

    # one service for the whole run: the PPR pass re-runs stages the
    # tables already compiled, and those compiles come from its cache
    service = CompileService()
    ppr_entries = []
    for short, stage_names in STAGE_MATRIX.items():
        bench = get_benchmark(short)
        n = size_for(short, args.paper_scale)
        stages = bench.stages()
        print(f"\n==== {bench.meta.name} (n = {n}) ====")

        rows = []
        for stage in stage_names:
            rows.append(
                run_stage(bench, stages[stage], stage, "caps", "cuda", K40, n,
                          service=service)
            )
            rows.append(
                run_stage(bench, stages[stage], stage, "caps", "opencl",
                          PHI_5110P, n, service=service)
            )
            pgi_row = run_stage(bench, stages[stage], stage, "pgi", "cuda",
                                K40, n, service=service)
            if not pgi_row.failed:
                rows.append(pgi_row)
        if bench.opencl_program() is not None:
            rows.append(run_opencl(bench, "opencl", K40, n))
            rows.append(run_opencl(bench, "opencl", PHI_5110P, n))
        print(format_rows(rows))

        if short in OPTIMIZED:
            stage = OPTIMIZED[short]
            gpu = run_stage(bench, stages[stage], stage, "caps", "cuda",
                            K40, n, service=service)
            mic = run_stage(bench, stages[stage], stage, "caps", "opencl",
                            PHI_5110P, n, service=service)
            ppr_entries.append(
                PprEntry(f"{short} OpenACC", short, "openacc",
                         mic.elapsed_s, gpu.elapsed_s)
            )
            ocl_gpu = run_opencl(bench, "opencl", K40, n)
            ocl_mic = run_opencl(bench, "opencl", PHI_5110P, n)
            ppr_entries.append(
                PprEntry(f"{short} OpenCL", short, "opencl",
                         ocl_mic.elapsed_s, ocl_gpu.elapsed_s)
            )

    print("\n==== Performance Portability Ratio (Equation 1; lower = more "
          "portable) ====")
    print(format_ppr_table(ppr_entries))


if __name__ == "__main__":
    main()
