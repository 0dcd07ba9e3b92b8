"""The paper's primary contribution: the systematic optimization method,
thread-distribution search, and the Performance Portability Ratio."""

from .autotune import (
    TuneResult,
    exhaustive_tune,
    hill_climb_tune,
    make_lud_evaluator,
    portable_tune,
    prewarm_lud_grid,
)
from .ladder import (
    AVAILABLE_RUNGS,
    LadderError,
    apply_ladder,
    ladder_label,
    ladder_pipeline,
    ladder_stages,
    normalize_ladder,
)
from .method import (
    StageResult,
    compile_stage,
    format_rows,
    ptx_profile,
    run_opencl,
    run_stage,
)
from .matrix import (
    DEVICE_COUNTS,
    MATRIX_PAIRS,
    MatrixCell,
    MatrixReport,
    matrix_requests,
    run_matrix,
)
from .ppr import (
    MatrixPprEntry,
    PprEntry,
    format_ppr_matrix,
    format_ppr_table,
    ppr,
)
from .search import (
    DEFAULT_GANGS,
    DEFAULT_WORKERS,
    HeatMap,
    distribution_requests,
    lud_heatmap,
)

__all__ = [
    "AVAILABLE_RUNGS",
    "DEFAULT_GANGS",
    "DEFAULT_WORKERS",
    "DEVICE_COUNTS",
    "HeatMap",
    "LadderError",
    "MATRIX_PAIRS",
    "MatrixCell",
    "MatrixPprEntry",
    "MatrixReport",
    "PprEntry",
    "StageResult",
    "TuneResult",
    "apply_ladder",
    "compile_stage",
    "distribution_requests",
    "exhaustive_tune",
    "format_ppr_matrix",
    "format_ppr_table",
    "matrix_requests",
    "run_matrix",
    "format_rows",
    "hill_climb_tune",
    "ladder_label",
    "ladder_pipeline",
    "ladder_stages",
    "make_lud_evaluator",
    "lud_heatmap",
    "normalize_ladder",
    "portable_tune",
    "ppr",
    "prewarm_lud_grid",
    "ptx_profile",
    "run_opencl",
    "run_stage",
]
