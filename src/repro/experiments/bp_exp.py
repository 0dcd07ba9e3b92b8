"""BP experiments: Figures 12, 13, and 14 (paper section V-D)."""

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
from ..ptx.isa import Category
from ..service import get_default_service
from .common import Claim, ExperimentResult, ordering_claim, ratio_claim, size_for


def fig12(paper_scale: bool = False) -> ExperimentResult:
    """Figure 12: elapsed time of BP on GPU and MIC."""
    bench = get_benchmark("bp")
    n = size_for("bp", paper_scale)
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
        ("unroll", "caps", "opencl", K40),   # CAPS-generated OpenCL on GPU
        ("unroll", "caps", "opencl", PHI_5110P),
        ("reduction", "caps", "cuda", K40),
        ("reduction", "caps", "opencl", PHI_5110P),
        ("reduction", "pgi", "cuda", K40),
    ]
    service = get_default_service()
    validate_inputs = bench.inputs(bench.meta.test_size)
    for stage, compiler, target, device in matrix:
        # functional validation alongside the model run: catches the CAPS
        # broken reduction on MIC
        rows.append(
            run_stage(bench, stages[stage], stage, compiler, target, device, n,
                      validate_inputs=dict(validate_inputs), service=service)
        )
    rows.append(run_opencl(bench, "opencl", K40, n))
    rows.append(run_opencl(bench, "opencl", PHI_5110P, n))

    def find(stage: str, compiler: str, device, target: str | None = None
             ) -> StageResult:
        for row in rows:
            if (row.stage == stage and row.compiler.lower() == compiler.lower()
                    and row.device == device.name
                    and (target is None or row.target == target)):
                return row
        raise KeyError((stage, compiler, device.name, target))

    claims = [
        ordering_claim(
            "the CAPS baseline is faster on MIC than GPU (sequential)",
            find("base", "caps", PHI_5110P).elapsed_s,
            find("base", "caps", K40).elapsed_s,
            margin=1.5,
        ),
        ordering_claim(
            "independent improves CAPS ~9x on GPU",
            find("indep", "caps", K40).elapsed_s,
            find("base", "caps", K40).elapsed_s,
            margin=3.0,
        ),
        ordering_claim(
            "independent improves CAPS ~2x on MIC",
            find("indep", "caps", PHI_5110P).elapsed_s,
            find("base", "caps", PHI_5110P).elapsed_s,
            margin=1.2,
        ),
        ordering_claim(
            "the CAPS-generated OpenCL with unroll-and-jam beats the "
            "CAPS-generated CUDA on GPU (the CUDA backend failed to apply it)",
            find("unroll", "caps", K40, "opencl").elapsed_s,
            find("unroll", "caps", K40, "cuda").elapsed_s,
            margin=1.02,
        ),
        ordering_claim(
            "with the reduction directive, PGI runs much faster than CAPS "
            "(PGI parallelizes bpnn_layer_forward)",
            find("reduction", "pgi", K40).elapsed_s,
            find("reduction", "caps", K40).elapsed_s,
            margin=1.3,
        ),
        Claim(
            "the CAPS reduction produces WRONG results on MIC",
            find("reduction", "caps", PHI_5110P).correct is False,
            f"correct = {find('reduction', 'caps', PHI_5110P).correct}",
        ),
        Claim(
            "the CAPS reduction stays correct on GPU (just not faster)",
            find("reduction", "caps", K40).correct is True,
        ),
        ratio_claim(
            "the CAPS reduction does not speed up the GPU version",
            find("reduction", "caps", K40).elapsed_s
            / find("indep", "caps", K40).elapsed_s,
            0.8, 1.5,
        ),
        ordering_claim(
            "the hand-written OpenCL (local-memory staging) beats the "
            "optimized OpenACC on GPU",
            find("opencl", "OpenCL", K40).elapsed_s,
            find("indep", "caps", K40).elapsed_s,
            margin=1.05,
        ),
    ]
    return ExperimentResult("Figure 12", "Elapsed time of BP on GPU and MIC",
                            rows, claims, format_rows(rows))


def fig13(paper_scale: bool = False) -> ExperimentResult:
    """Figure 13: the CUDA shared-memory tree reduction skeleton."""
    bench = get_benchmark("bp")
    compiled = get_default_service().compile(bench.stages()["reduction"],
                                             "pgi", "cuda")
    ptx = compiled.kernel("bp_layer_forward").ptx
    assert ptx is not None
    ops = ptx.opcodes()
    text = ptx.render()
    claims = [
        Claim("partials are stored to shared memory", "st.shared" in ops),
        Claim("pairs are combined from shared memory", "ld.shared" in ops),
        Claim("the tree loop synchronizes with barriers",
              ops.count("bar.sync") >= 2),
        Claim("the stride doubles with a shift (s *= 2)", "shl" in ops),
        Claim("thread 0 publishes the block result",
              "st.global" in ops),
    ]
    return ExperimentResult(
        "Figure 13", "Reduction in CUDA (shared-memory tree)",
        [ops], claims, "\n".join(text.splitlines()[-28:]),
    )


def fig14(paper_scale: bool = False) -> ExperimentResult:
    """Figure 14: PTX instructions of BP."""
    bench = get_benchmark("bp")
    stages = bench.stages()

    service = get_default_service()  # reuses fig12's compiled artifacts
    caps = {
        stage: ptx_profile(service.compile(stages[stage], "caps", "cuda"))
        for stage in ("base", "indep", "unroll", "reduction")
    }
    pgi = {
        stage: ptx_profile(service.compile(stages[stage], "pgi", "cuda"))
        for stage in ("base", "indep", "unroll", "reduction")
    }
    ocl = ptx_profile(NvidiaOpenCLCompiler().compile(bench.opencl_program()))

    claims = [
        ordering_claim(
            "PGI generates more PTX instructions than CAPS",
            caps["base"].total, pgi["base"].total, margin=1.05,
        ),
        Claim(
            "the PGI Base and Indep bars are identical (its own analysis "
            "already parallelizes the outer loops)",
            pgi["base"].by_opcode == pgi["indep"].by_opcode,
        ),
        Claim(
            "the reduction directive makes CAPS emit shared-memory "
            "instructions",
            caps["reduction"].shared_memory > 0,
        ),
        Claim(
            "the reduction directive makes PGI emit shared-memory "
            "instructions",
            pgi["reduction"].shared_memory > 0,
        ),
        Claim(
            "unrolling changes nothing for CAPS (CUDA backend fake success)",
            caps["unroll"].by_opcode == caps["indep"].by_opcode,
        ),
        Claim(
            "unrolling changes nothing for PGI (no -Munroll used for BP)",
            pgi["unroll"].by_opcode == pgi["indep"].by_opcode,
        ),
        Claim(
            "the hand-written OpenCL uses shared memory for the forward "
            "kernel (Fig. 1a) — OpenACC versions cannot",
            ocl.shared_memory > 0
            and caps["indep"].shared_memory == 0
            and pgi["indep"].shared_memory == 0,
        ),
    ]
    profiles = {f"caps-{s}": p for s, p in caps.items()}
    profiles.update({f"pgi-{s}": p for s, p in pgi.items()})
    profiles["opencl"] = ocl
    return ExperimentResult("Figure 14", "PTX instructions of BP",
                            list(profiles.items()), claims,
                            format_comparison(profiles))
