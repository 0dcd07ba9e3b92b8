"""Pass pipelines: ordered pass sequences with inter-pass verification.

A :class:`Pipeline` is a declarative ordering of registered pass names.
Running one clones the input kernel, then applies each pass under a
telemetry span, verifying IR well-formedness (:mod:`repro.ir.verify`,
``structure`` level) after every pass.  A pass that breaks an invariant
is named in the raised :class:`~repro.ir.verify.VerifyError` through its
provenance trail.

Verification is *differential*: failures already present on the input
kernel (the difftest fuzzer adversarially mis-labels loops, and shrunk
reproducers can be arbitrarily mangled) are baselined away, so only
failures a pass *introduced* raise.  Checks a pass declares in its
``invalidates`` metadata are skipped from that pass on.

``PIPELINES`` maps each (compiler, target) of the paper's matrix to its
pass ordering — the single place the per-compiler transform sequences
that used to be hand-wired inside ``compilers/*.py`` are now declared.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..ir.stmt import KernelFunction, Module
from ..ir.verify import VerifyError, check_kernel
from ..ir.visitors import clone_kernel
from ..telemetry.spans import get_tracer
from .context import PassContext
from .registry import Pass, PassNotApplicable, PassRegistryError, get_pass


class PipelineError(ValueError):
    """A pipeline is mis-declared (e.g. a pass requires an invariant a
    previous pass invalidated)."""


def _failure_key(failure) -> tuple[str, str, str]:
    return (failure.check, failure.kernel, failure.detail)


@dataclass(frozen=True)
class Pipeline:
    """An ordered sequence of registered pass names."""

    name: str
    passes: tuple[str, ...]

    def resolve(self) -> list[Pass]:
        """The registered :class:`Pass` objects, in order."""
        return [get_pass(name) for name in self.passes]

    def run(
        self, kernel: KernelFunction, ctx: PassContext | None = None
    ) -> KernelFunction:
        """Apply every pass to (a clone of) *kernel*; return the result.

        The input object is never mutated.  ``ctx`` collects messages,
        state, and provenance; a fresh one is made if not supplied.
        """
        ctx = ctx if ctx is not None else PassContext()
        work = clone_kernel(kernel)

        baseline = frozenset(
            _failure_key(f)
            for f in check_kernel(work, "structure", skip=ctx.invalidated)
        )

        tracer = get_tracer()
        for info in self.resolve():
            blocked = info.requires & ctx.invalidated
            if blocked:
                raise PipelineError(
                    f"pipeline {self.name!r}: pass {info.name!r} requires "
                    f"{sorted(blocked)}, invalidated by an earlier pass "
                    f"(trail: {' -> '.join(ctx.provenance)})"
                )
            with tracer.span(info.name, category="pass", kernel=work.name,
                             pipeline=self.name):
                try:
                    out = info.fn(work, ctx)
                except PassNotApplicable:
                    out = work
            ctx.provenance.append(info.name)
            ctx.invalidated |= info.invalidates
            introduced = [
                f
                for f in check_kernel(out, "structure", skip=ctx.invalidated)
                if _failure_key(f) not in baseline
            ]
            if introduced:
                raise VerifyError(introduced, tuple(ctx.provenance))
            work = out
        return work

    def run_module(
        self, module: Module, ctx: PassContext | None = None
    ) -> Module:
        """Apply the pipeline to every kernel of *module*."""
        ctx = ctx if ctx is not None else PassContext()
        return Module(module.name,
                      [self.run(kernel, ctx) for kernel in module.kernels])


#: Declarative per-(compiler, target) pass orderings — the paper's matrix.
#: CAPS transforms directives for real (unroll / tile), then schedules
#: (distribute) and lowers reductions; PGI applies -Munroll and its own
#: dependence-driven schedule; the hand-written OpenCL path only validates
#: and records its explicit ``__local`` staging decisions.
PIPELINES: dict[tuple[str, str], Pipeline] = {
    ("caps", "cuda"): Pipeline(
        "caps/cuda",
        ("caps-unroll", "caps-tile", "caps-distribute", "caps-reduction",
         "caps-cache"),
    ),
    ("caps", "opencl"): Pipeline(
        "caps/opencl",
        ("caps-unroll", "caps-tile", "caps-distribute", "caps-reduction",
         "caps-cache"),
    ),
    ("pgi", "cuda"): Pipeline(
        "pgi/cuda",
        ("pgi-munroll", "pgi-schedule", "pgi-cache"),
    ),
    ("opencl", "gpu"): Pipeline("opencl/gpu", ("opencl-stage-shared",)),
    ("opencl", "mic"): Pipeline("opencl/mic", ("opencl-stage-shared",)),
}


def pipeline_for(compiler: str, target: str) -> Pipeline:
    """The declared pipeline for a (compiler, target) pair."""
    try:
        return PIPELINES[(compiler.lower(), target.lower())]
    except KeyError:
        known = ", ".join("/".join(k) for k in sorted(PIPELINES))
        raise PipelineError(
            f"no pipeline declared for {compiler}/{target} "
            f"(declared: {known})"
        ) from None
