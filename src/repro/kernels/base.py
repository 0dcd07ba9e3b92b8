"""Common benchmark interface.

A benchmark bundles:

* the OpenACC mini-C source (per optimization *stage* of the systematic
  method — stages are produced by applying :mod:`repro.passes.library` passes
  to the baseline, exactly like editing the source),
* an optional hand-written OpenCL program,
* input generators and a NumPy reference implementation,
* a *driver*: the host program (transfer + launch sequence + host loops)
  for a compiled version on one accelerator.

Table IV of the paper is the metadata registry of the four Rodinia
kernels; Hydro is the mini-application.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

import numpy as np

from ..compilers.framework import CompilationResult
from ..ir.stmt import Module
from ..runtime.launcher import Accelerator


@dataclass(frozen=True)
class BenchmarkMeta:
    """One row of paper Table IV."""

    name: str
    short: str
    dwarf: str
    domain: str
    input_size: str       # as printed in Table IV
    paper_size: int       # the paper-scale problem size parameter
    test_size: int        # a small size for functional validation


@dataclass
class RunResult:
    """One driven benchmark run."""

    elapsed_s: float
    accelerator: Accelerator
    outputs: dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def profiler(self):
        return self.accelerator.profiler


class Benchmark(abc.ABC):
    """Abstract benchmark: source, reference, and host driver."""

    meta: BenchmarkMeta

    @abc.abstractmethod
    def module(self) -> Module:
        """The baseline OpenACC module (parsed mini-C)."""

    @abc.abstractmethod
    def stages(self) -> dict[str, Module]:
        """Optimization stages, in paper order: 'base' first, then the
        method's steps as applied to this benchmark."""

    def opencl_program(self):
        """The hand-written OpenCL version, or None (LUD has no comparable
        one — "different algorithms", paper V-A1)."""
        return None

    @abc.abstractmethod
    def inputs(self, n: int, seed: int = 0) -> dict[str, object]:
        """Generate inputs for problem size *n* (arrays + scalars)."""

    @abc.abstractmethod
    def reference(self, inputs: dict[str, object]) -> dict[str, np.ndarray]:
        """Expected outputs, computed with vectorized NumPy."""

    @abc.abstractmethod
    def run(
        self,
        accelerator: Accelerator,
        compiled: CompilationResult,
        n: int,
        inputs: dict[str, object] | None = None,
    ) -> RunResult:
        """Drive the host program for a compiled version.

        With ``inputs`` the run is functional (arrays move and kernels
        execute); without, it is modeled-only at size *n*.
        """

    def validate(
        self,
        outputs: dict[str, np.ndarray],
        expected: dict[str, np.ndarray],
        rtol: float = 1e-4,
        atol: float = 1e-5,
    ) -> bool:
        """Whether a run's outputs match the reference."""
        for name, want in expected.items():
            got = outputs.get(name)
            if got is None:
                return False
            if not np.allclose(got, want, rtol=rtol, atol=atol):
                return False
        return True
