"""Cross-compiler differential execution of generated kernels.

For every generated case the harness compiles the module through every
(compiler × target) pair — CAPS/PGI × CUDA/OpenCL — via
:class:`repro.service.CompileService` (so a bad seed is a structured
:class:`~repro.service.JobError` slot, never a crashed sweep), executes
each compiled kernel and the :mod:`repro.runtime.executor` ground truth
on the same random NumPy inputs, and diffs the outputs.

Every divergence is classified against the :mod:`.racecheck` oracle:

``match``
    outputs bit-identical to the sequential ground truth (the common
    case, and required when the oracle predicts no wrong answer).
``wrong-answer``
    outputs differ **and** the oracle predicted exactly that from the
    compiled kernel's advertised execution semantics — the paper V-D2
    scenario (bad ``independent``/``reduction`` directives silently
    corrupting results) reproduced and *explained*.
``transform-bug``
    the compiled IR itself is semantically different from the source
    (oracle: sequential-vs-sequential mismatch) — a real compiler-model
    bug; always counts as unexplained.
``compile-error-expected``
    a known, documented refusal (PGI has no OpenCL backend; PGI rejects
    multi-level pointers, paper V-E).
``unexplained``
    everything else: observed divergence the oracle did not predict,
    predicted divergence that did not materialize, an unsupported
    oracle verdict paired with a mismatch, or an unexpected compile
    error.  ``difftest`` exits non-zero iff this bucket is non-empty.

Tolerances: comparisons are *exact* (``np.array_equal``) because the
simulated executor runs the same Python arithmetic for ground truth and
"device" execution; dtype-aware relative error is still computed and
reported so a future backend with real floating-point divergence can
relax ``match`` to ``within_tolerance`` without changing the schema.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..frontend import parse_module
from ..ir.printer import print_module
from ..ir.stmt import KernelFunction
from ..ir.visitors import clone_kernel
from ..runtime.executor import execute_kernel
from ..service import CompileRequest, CompileService, JobError
from ..telemetry.spans import get_tracer
from .generator import (
    ExtentError,
    GeneratedCase,
    GeneratorError,
    generate_case,
    infer_extents,
    make_inputs,
)
from .racecheck import OraclePrediction, predict

__all__ = [
    "PAIRS",
    "KernelDiff",
    "PairResult",
    "CaseResult",
    "DifftestReport",
    "run_case",
    "run_difftest",
    "replay_file",
    "rel_tolerance",
]

#: (compiler, target, device kind) — every pair from the paper's matrix.
#: CAPS OpenCL is executed "on MIC" so its broken reduction lowering
#: (``broken_reduction_device="mic"``, paper V-D2) actually fires.
PAIRS: tuple[tuple[str, str, str], ...] = (
    ("caps", "cuda", "gpu"),
    ("caps", "opencl", "mic"),
    ("pgi", "cuda", "gpu"),
    ("pgi", "opencl", "gpu"),
)

#: dtype-aware relative tolerances (reporting only; matching is exact)
_RTOL = {"float32": 1e-5, "float64": 1e-9}

_EXPECTED_ERROR_MARKERS = (
    "targets NVIDIA GPUs only",
    "unsupported pointer conversion",
)


def rel_tolerance(dtype: np.dtype) -> float:
    return _RTOL.get(np.dtype(dtype).name, 0.0)


@dataclass(frozen=True)
class KernelDiff:
    """Ground truth vs one compiled kernel on one pair."""

    kernel: str
    #: "match" | "wrong-answer" | "benign-race" | "transform-bug"
    #: | "unexplained" | "error"
    status: str
    mismatched: tuple[str, ...] = ()
    max_rel_error: float = 0.0
    within_tolerance: bool = True
    prediction: OraclePrediction | None = None
    detail: str = ""

    @property
    def explained(self) -> bool:
        return self.status in ("match", "wrong-answer", "benign-race")


@dataclass(frozen=True)
class PairResult:
    compiler: str
    target: str
    device: str
    status: str  # "ok" | "compile-error-expected" | "compile-error" | "job-error"
    kernels: tuple[KernelDiff, ...] = ()
    detail: str = ""

    @property
    def explained(self) -> bool:
        if self.status == "ok":
            return all(k.explained for k in self.kernels)
        return self.status == "compile-error-expected"


@dataclass(frozen=True)
class CaseResult:
    seed: int
    tag: str
    source: str
    pairs: tuple[PairResult, ...] = ()
    error: str = ""
    reproducer: str = ""  # path of the shrunk mini-C dump, when written

    @property
    def explained(self) -> bool:
        if self.error:
            return False
        return all(p.explained for p in self.pairs)

    def unexplained_details(self) -> list[str]:
        if self.error:
            return [f"{self.tag}: {self.error}"]
        out = []
        for pair in self.pairs:
            where = f"{self.tag}:{pair.compiler}-{pair.target}"
            if pair.status in ("compile-error", "job-error"):
                out.append(f"{where}: {pair.status}: {pair.detail}")
                continue
            for diff in pair.kernels:
                if not diff.explained:
                    out.append(
                        f"{where}:{diff.kernel}: {diff.status}"
                        + (f" ({diff.detail})" if diff.detail else "")
                    )
        return out


@dataclass
class DifftestReport:
    cases: list[CaseResult] = field(default_factory=list)

    @property
    def unexplained(self) -> list[CaseResult]:
        return [c for c in self.cases if not c.explained]

    def count(self, status: str) -> int:
        return sum(
            1
            for case in self.cases
            for pair in case.pairs
            for diff in pair.kernels
            if diff.status == status
        )

    def summary_lines(self) -> list[str]:
        pair_errors = sum(
            1
            for case in self.cases
            for pair in case.pairs
            if pair.status == "compile-error-expected"
        )
        lines = [
            f"difftest: {len(self.cases)} cases "
            f"x {len(PAIRS)} compiler/target pairs",
            f"  matches:              {self.count('match')}",
            f"  explained wrong answers: {self.count('wrong-answer')} "
            f"(predicted by racecheck; paper V-D2)",
            f"  benign races:         {self.count('benign-race')} "
            f"(predicted, no numeric effect)",
            f"  expected compile errors: {pair_errors}",
            f"  UNEXPLAINED divergences: {len(self.unexplained)}",
        ]
        for case in self.unexplained[:20]:
            lines.extend("    " + d for d in case.unexplained_details())
        return lines


def _expected_compile_error(compiler: str, target: str, message: str) -> bool:
    return any(marker in message for marker in _EXPECTED_ERROR_MARKERS)


def _diff_kernel(
    original: KernelFunction,
    compiled,
    device: str,
    extents: dict[str, int],
    tag: str,
    exec_backend: str | None = None,
) -> KernelDiff:
    """Execute ground truth and one compiled kernel on identical inputs.

    ``exec_backend`` selects the executor backend (``scalar``, ``vector``
    or ``check``; ``None`` = the process default) for both runs — under
    ``check`` every execution also differentially validates the
    vectorizer against the scalar interpreter.
    """
    args = make_inputs(original, extents, f"{tag}:{original.name}")
    int_scalars = {k: v for k, v in args.items() if isinstance(v, int)}
    int_arrays = {
        k: [int(x) for x in v]
        for k, v in args.items()
        if isinstance(v, np.ndarray) and v.dtype.kind == "i"
    }

    def fresh():
        return {
            k: (v.copy() if isinstance(v, np.ndarray) else v)
            for k, v in args.items()
        }

    tracer = get_tracer()
    semantics = {} if compiled.elided else compiled.executor_semantics(device)
    try:
        with tracer.span("difftest.execute", category="difftest",
                         kernel=original.name, device=device):
            ref = fresh()
            execute_kernel(original, ref, None, backend=exec_backend)
            got = fresh()
            execute_kernel(clone_kernel(compiled.ir), got, semantics,
                           backend=exec_backend)
    except Exception as exc:  # executor crash: always unexplained
        return KernelDiff(
            original.name, "error", detail=f"{type(exc).__name__}: {exc}"
        )

    with tracer.span("difftest.classify", category="difftest",
                     kernel=original.name, device=device):
        mismatched = []
        max_rel = 0.0
        within = True
        for name, ref_val in ref.items():
            if not isinstance(ref_val, np.ndarray):
                continue
            got_val = got[name]
            if np.array_equal(ref_val, got_val):
                continue
            mismatched.append(name)
            denom = np.maximum(np.abs(ref_val), 1e-30)
            rel = float(np.max(np.abs(got_val - ref_val) / denom))
            max_rel = max(max_rel, rel)
            if rel > rel_tolerance(ref_val.dtype):
                within = False

        prediction = predict(
            original, compiled.ir, semantics, extents, int_scalars,
            int_arrays,
        )

    if not mismatched:
        if prediction.supported and prediction.wrong_answer:
            # the dataflow provably races (different symbolic trees) but
            # the numbers coincide on these inputs — e.g. a float32
            # x - (x - y) telescoping chain where the float64-compute /
            # float32-store rounding cancels the minuend exactly.  A
            # race with no observable effect is not a divergence.
            return KernelDiff(
                original.name,
                "benign-race",
                prediction=prediction,
                detail="predicted race has no numeric effect on these inputs",
            )
        return KernelDiff(
            original.name,
            "match",
            max_rel_error=max_rel,
            prediction=prediction,
        )

    mism = tuple(sorted(mismatched))
    if not prediction.supported:
        return KernelDiff(
            original.name,
            "unexplained",
            mismatched=mism,
            max_rel_error=max_rel,
            within_tolerance=within,
            prediction=prediction,
            detail=f"oracle unsupported: {prediction.detail}",
        )
    if prediction.transform_broken:
        return KernelDiff(
            original.name,
            "transform-bug",
            mismatched=mism,
            max_rel_error=max_rel,
            within_tolerance=within,
            prediction=prediction,
            detail="compiled IR differs from source even sequentially",
        )
    if prediction.wrong_answer:
        return KernelDiff(
            original.name,
            "wrong-answer",
            mismatched=mism,
            max_rel_error=max_rel,
            within_tolerance=within,
            prediction=prediction,
        )
    return KernelDiff(
        original.name,
        "unexplained",
        mismatched=mism,
        max_rel_error=max_rel,
        within_tolerance=within,
        prediction=prediction,
        detail="observed divergence the racecheck oracle did not predict",
    )


def run_case(
    case: GeneratedCase, service: CompileService, tag: str | None = None,
    exec_backend: str | None = None,
) -> CaseResult:
    """Compile *case* through every pair and diff every kernel."""
    tag = tag or case.tag
    with get_tracer().span("difftest.case", category="difftest",
                           seed=case.seed, label=tag):
        return _run_case(case, service, tag, exec_backend)


def _run_case(
    case: GeneratedCase, service: CompileService, tag: str,
    exec_backend: str | None = None,
) -> CaseResult:
    requests = [
        CompileRequest(
            case.module, compiler, target, label=f"{tag}:{compiler}-{target}"
        )
        for compiler, target, _device in PAIRS
    ]
    results = service.sweep(requests)

    pair_results: list[PairResult] = []
    for (compiler, target, device), result in zip(PAIRS, results):
        if isinstance(result, JobError):
            if result.kind == "compile-error" and _expected_compile_error(
                compiler, target, result.message
            ):
                status = "compile-error-expected"
            elif result.kind == "compile-error":
                status = "compile-error"
            else:
                status = "job-error"
            pair_results.append(
                PairResult(compiler, target, device, status,
                           detail=result.message)
            )
            continue
        diffs = []
        for original in case.module.kernels:
            try:
                compiled = result.kernel(original.name)
            except KeyError:
                diffs.append(
                    KernelDiff(
                        original.name,
                        "unexplained",
                        detail="kernel missing from compilation result",
                    )
                )
                continue
            diffs.append(
                _diff_kernel(
                    original, compiled, device,
                    case.extents[original.name], tag, exec_backend,
                )
            )
        pair_results.append(
            PairResult(compiler, target, device, "ok", tuple(diffs))
        )
    return CaseResult(case.seed, tag, case.source, tuple(pair_results))


def run_difftest(
    seeds,
    service: CompileService | None = None,
    shrink: bool = False,
    out_dir: str | None = None,
    log=None,
    exec_backend: str | None = None,
) -> DifftestReport:
    """The full differential sweep over an iterable of seeds."""
    from .shrink import write_reproducer  # local import: shrink imports us

    service = service or CompileService()
    report = DifftestReport()
    for seed in seeds:
        try:
            case = generate_case(seed)
        except (GeneratorError, ExtentError) as exc:
            report.cases.append(
                CaseResult(seed, f"seed{seed}", "", error=f"generator: {exc}")
            )
            continue
        result = run_case(case, service, exec_backend=exec_backend)
        if not result.explained and shrink and not result.error:
            path = write_reproducer(case, result, service, out_dir)
            result = CaseResult(
                result.seed, result.tag, result.source, result.pairs,
                result.error, reproducer=path,
            )
        report.cases.append(result)
        if log is not None and not result.explained:
            for detail in result.unexplained_details():
                log(detail)
    return report


def replay_file(path: str, service: CompileService) -> CaseResult:
    """Re-run a dumped reproducer (or any mini-C file) through the pairs."""
    with open(path, "r", encoding="utf-8") as fh:
        source = fh.read()
    module = parse_module(source)
    extents = {
        kernel.name: infer_extents(kernel) for kernel in module.kernels
    }
    case = GeneratedCase(
        seed=-1,
        salt=0,
        module=module,
        source=print_module(module),
        extents=extents,
    )
    return run_case(case, service, tag=f"replay:{path}")
