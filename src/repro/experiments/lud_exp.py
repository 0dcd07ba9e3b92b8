"""LUD experiments: Figures 3, 4, and 6 (paper section V-A)."""

from __future__ import annotations

from ..compilers.flags import FlagSet
from ..core.method import StageResult, format_rows, run_stage
from ..core.search import lud_heatmap
from ..devices.specs import K40, PHI_5110P
from ..kernels import get_benchmark
from ..service import CompileService
from .common import Claim, ExperimentResult, ordering_claim, ratio_claim, size_for

#: stages of Fig. 3 and the compilers that run them (PGI supports no tiling:
#: "we do not apply tiling with PGI", III-D)
FIG3_MATRIX = [
    ("base", "caps", "cuda", "gpu"),
    ("base", "caps", "opencl", "mic"),
    ("base", "pgi", "cuda", "gpu"),
    ("threaddist", "caps", "cuda", "gpu"),
    ("threaddist", "caps", "opencl", "mic"),
    ("threaddist", "pgi", "cuda", "gpu"),
    ("unroll", "caps", "cuda", "gpu"),
    ("unroll", "caps", "opencl", "mic"),
    ("unroll", "pgi", "cuda", "gpu"),
    ("tile", "caps", "cuda", "gpu"),
    ("tile", "caps", "opencl", "mic"),
]

_DEVICES = {"gpu": K40, "mic": PHI_5110P}


def _pgi_flags(stage: str) -> FlagSet:
    flags = ["-O4", "-fast"]
    if stage == "unroll":
        flags.append("-Munroll")
    return FlagSet("PGI", tuple(flags))


def fig3(service: CompileService, paper_scale: bool = False) -> ExperimentResult:
    """Figure 3: elapsed time of LUD OpenACC on GPU and MIC."""
    bench = get_benchmark("lud")
    n = size_for("lud", paper_scale)
    stages = bench.stages()

    rows: list[StageResult] = []
    for stage, compiler, target, device in FIG3_MATRIX:
        flags = _pgi_flags(stage) if compiler == "pgi" else None
        rows.append(
            run_stage(bench, stages[stage], stage, compiler, target,
                      _DEVICES[device], n, flags=flags, service=service)
        )

    def t(stage: str, compiler: str, device: str) -> float:
        for row in rows:
            if (row.stage == stage and row.compiler.lower() == compiler
                    and _DEVICES[device].name == row.device):
                return row.elapsed_s
        raise KeyError((stage, compiler, device))

    claims = [
        ratio_claim(
            "the CAPS baseline has almost the same performance on GPU and MIC",
            t("base", "caps", "gpu") / t("base", "caps", "mic"), 0.2, 10.0,
        ),
        ordering_claim(
            "the CAPS baseline is orders of magnitude (paper: ~1000x) slower "
            "than the PGI baseline on GPU",
            t("base", "pgi", "gpu"), t("base", "caps", "gpu"), margin=100.0,
        ),
        ratio_claim(
            "thread distribution bridges the CAPS-PGI gap on GPU",
            t("threaddist", "caps", "gpu") / t("threaddist", "pgi", "gpu"),
            0.2, 5.0,
        ),
        ratio_claim(
            "unrolling does not improve CAPS performance",
            t("unroll", "caps", "gpu") / t("threaddist", "caps", "gpu"),
            0.8, 1.5,
        ),
        ratio_claim(
            "unrolling does not improve PGI performance",
            t("unroll", "pgi", "gpu") / t("threaddist", "pgi", "gpu"),
            0.8, 1.5,
        ),
        ratio_claim(
            "tiling does not improve CAPS performance",
            t("tile", "caps", "gpu") / t("threaddist", "caps", "gpu"),
            0.8, 1.5,
        ),
    ]
    return ExperimentResult("Figure 3", "Elapsed time of LUD on GPU and MIC",
                            rows, claims, format_rows(rows))


def fig4(service: CompileService, paper_scale: bool = False) -> ExperimentResult:
    """Figure 4: heat maps of LUD elapsed time across thread distributions."""
    bench = get_benchmark("lud")
    # the heat-map structure needs enough per-launch parallelism to
    # resolve; below ~2048 the model plateaus into ties
    n = max(size_for("lud", paper_scale), 2048)
    # one shared service: the three maps reuse cached artifacts on re-runs
    gpu_caps = lud_heatmap(bench, K40, "caps", n, service=service)
    gpu_pgi = lud_heatmap(bench, K40, "pgi", n, service=service)
    mic_caps = lud_heatmap(bench, PHI_5110P, "caps", n, service=service)

    cg, cw, _ = gpu_caps.best()
    pg, pw, _ = gpu_pgi.best()
    mg, mw, _ = mic_caps.best()

    claims = [
        Claim(
            "K40/CAPS: the best distribution has many gangs (paper: >256) "
            "and a mid-size worker (paper: 16)",
            cg >= 128 and 8 <= cw <= 32,
            f"best = ({cg}, {cw})",
        ),
        Claim(
            "K40/PGI behaves like CAPS (similar optimum region)",
            pg >= 128 and 8 <= pw <= 32,
            f"best = ({pg}, {pw})",
        ),
        Claim(
            "MIC: the best distribution is (gang ~ cores*threads, worker 1) "
            "(paper: (240, 1))",
            60 <= mg <= 480 and mw == 1,
            f"best = ({mg}, {mw})",
        ),
        ordering_claim(
            "the (1,1) corner is by far the darkest (slowest) cell on GPU",
            gpu_caps.best()[2], gpu_caps.time(1, 1), margin=20.0,
        ),
        Claim(
            "on K40, worker=16 beats worker=256 at gang 256 (memory-bound)",
            gpu_caps.time(256, 16) <= gpu_caps.time(256, 256),
            f"{gpu_caps.time(256, 16):.3g} vs {gpu_caps.time(256, 256):.3g}",
        ),
    ]
    rendered = "\n\n".join(
        hm.render() for hm in (gpu_caps, gpu_pgi, mic_caps)
    )
    return ExperimentResult(
        "Figure 4", "LUD heat maps across thread distributions",
        [gpu_caps, gpu_pgi, mic_caps], claims, rendered,
    )


def fig6(service: CompileService, paper_scale: bool = False) -> ExperimentResult:
    """Figure 6: PTX instructions of LUD for CAPS and PGI."""
    from ..core.method import ptx_profile

    bench = get_benchmark("lud")
    stages = bench.stages()
    profiles = {}
    for stage in ("base", "threaddist", "unroll", "tile"):
        profiles[("caps", stage)] = ptx_profile(
            service.compile(stages[stage], "caps", "cuda")
        )
    for stage in ("base", "threaddist", "unroll"):
        profiles[("pgi", stage)] = ptx_profile(
            service.compile(stages[stage], "pgi", "cuda", _pgi_flags(stage))
        )

    caps_base = profiles[("caps", "base")]
    pgi_base = profiles[("pgi", "base")]
    claims = [
        ordering_claim(
            "PGI generates more PTX instructions than CAPS",
            caps_base.total, pgi_base.total, margin=1.05,
        ),
        Claim(
            "thread distribution does not change the PTX (CAPS)",
            profiles[("caps", "threaddist")].by_opcode
            == caps_base.by_opcode,
        ),
        Claim(
            "thread distribution does not change the PTX (PGI)",
            profiles[("pgi", "threaddist")].by_opcode == pgi_base.by_opcode,
        ),
        ordering_claim(
            "unrolling increases the CAPS PTX counts",
            profiles[("caps", "threaddist")].total,
            profiles[("caps", "unroll")].total,
            margin=1.5,
        ),
        Claim(
            "PGI unrolling leaves the PTX unchanged (-Munroll skips the "
            "reduction-carried inner loop)",
            profiles[("pgi", "unroll")].by_opcode == pgi_base.by_opcode,
        ),
        Claim(
            "CAPS tiling leaves the PTX unchanged (directive accepted, "
            "nothing generated: the loop is not independent)",
            profiles[("caps", "tile")].by_opcode
            == profiles[("caps", "threaddist")].by_opcode,
        ),
        Claim(
            "no shared-memory instructions appear in any LUD version",
            all(p.shared_memory == 0 for p in profiles.values()),
        ),
    ]
    from ..ptx.counter import format_comparison

    rendered = format_comparison(
        {f"{c}-{s}": p for (c, s), p in profiles.items()}
    )
    return ExperimentResult("Figure 6", "PTX instructions of LUD",
                            list(profiles.items()), claims, rendered)
