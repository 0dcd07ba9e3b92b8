"""Shared compiler infrastructure: scheduling, compiled kernels, logs.

A compiler (CAPS, PGI, the OpenCL path) consumes IR kernels and produces
:class:`CompiledKernel` objects holding

* the (possibly transformed) IR the backend actually lowered,
* a :class:`ThreadDistribution` — how iterations map onto device threads,
* the generated PTX (CUDA targets),
* execution-semantics annotations for the functional executor (sequential
  vs parallel, broken reductions),
* the compilation log, including messages that *lie* — the CAPS
  "Loop 'i' was shared among gangs(192) and workers(256)" message is
  emitted even when the codelet actually runs gang(1) x worker(1)
  (paper V-A2: "it may be a bug of the CAPS compiler").
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from functools import cached_property

from ..analysis.patterns import (
    OpCounts,
    OpProgram,
    TripForms,
    coalescing_fraction,
    trip_forms,
    trips_under,
)
from ..ir.stmt import For, KernelFunction
from ..perf.model import LaunchConfig, WorkProfile
from ..ptx.isa import PtxKernel
from ..runtime.executor import ExecMode, LoopSemantics


class CompilationError(Exception):
    """A compiler refused the input (e.g. PGI on Hydro's pointer casts)."""


class DistStrategy(enum.Enum):
    SEQUENTIAL = "sequential"
    GANG_MODE = "gang mode"
    GRIDIFY_1D = "gridify 1D"
    GRIDIFY_2D = "gridify 2D"
    AUTO_1D = "parallel 1D"
    FIXED = "fixed"


@dataclass(frozen=True)
class ThreadDistribution:
    """A resolvable thread-distribution decision (paper Table VI)."""

    strategy: DistStrategy
    gang: int | None = None
    worker: int | None = None
    blocksize: tuple[int, int] = (32, 4)
    fixed: LaunchConfig | None = None
    advertised: str = ""

    def resolve(self, extents: list[int]) -> LaunchConfig:
        """Concrete launch geometry given the parallel-loop extents
        (outermost first)."""
        if self.strategy is DistStrategy.SEQUENTIAL:
            return LaunchConfig(sequential=True)
        if self.strategy is DistStrategy.FIXED:
            assert self.fixed is not None
            return self.fixed
        if self.strategy is DistStrategy.GANG_MODE:
            gang = self.gang or 1
            worker = self.worker or 1
            return LaunchConfig(grid=(gang, 1, 1), block=(worker, 1, 1))
        if self.strategy is DistStrategy.AUTO_1D:
            items = 1
            for extent in (extents or [1]):
                items *= max(extent, 1)
            block = self.worker or 128
            return LaunchConfig(
                grid=(max(1, math.ceil(items / block)), 1, 1), block=(block, 1, 1)
            )
        bx, by = self.blocksize
        if self.strategy is DistStrategy.GRIDIFY_1D:
            items = extents[0] if extents else 1
            return LaunchConfig(
                grid=(max(1, math.ceil(items / (bx * by))), 1, 1), block=(bx, by, 1)
            )
        # GRIDIFY_2D: inner extent -> x, outer extent -> y
        outer = extents[0] if extents else 1
        inner = extents[1] if len(extents) > 1 else 1
        return LaunchConfig(
            grid=(max(1, math.ceil(inner / bx)), max(1, math.ceil(outer / by)), 1),
            block=(bx, by, 1),
        )


@dataclass
class CompiledKernel:
    """One device kernel as produced by a compiler backend."""

    name: str
    ir: KernelFunction                     # post-transform IR the backend lowered
    target: str                            # "cuda" | "opencl"
    compiler: str                          # producing compiler name
    distribution: ThreadDistribution
    parallel_loop_ids: list[int] = field(default_factory=list)  # outer-first
    ptx: PtxKernel | None = None
    messages: list[str] = field(default_factory=list)
    #: loops whose reduction lowering is broken (lost updates on execution)
    broken_reduction_loops: list[int] = field(default_factory=list)
    #: device kind the broken reduction manifests on (None = everywhere);
    #: CAPS's OpenCL reduction only corrupts results on MIC (paper V-D2)
    broken_reduction_device: str | None = None
    #: arrays staged through shared/local memory (hand-written kernels only)
    shared_staged: tuple[str, ...] = ()
    #: memory-traffic reuse factor from shared staging (1.0 = none)
    traffic_reuse: float = 1.0
    #: the kernel was elided (not executed on the device at all)
    elided: bool = False
    #: extra per-launch host-side dispatch cost in microseconds (the HMPP
    #: runtime wraps every CAPS codelet call in argument marshalling)
    dispatch_overhead_us: float = 0.0
    #: the kernel carries an explicit ``acc data`` region: the runtime may
    #: hoist its transfers out of host loops (the paper's future work)
    has_data_region: bool = False

    # -- execution-semantics view for the functional executor ---------------

    def executor_semantics(self, device_kind: str | None = None
                           ) -> dict[int, LoopSemantics]:
        """Per-loop execution semantics on a device of *device_kind*
        ("gpu" / "mic" / "cpu"); broken reductions only fire on the device
        they manifest on."""
        semantics: dict[int, LoopSemantics] = {}
        if not self.distribution.strategy is DistStrategy.SEQUENTIAL:
            for loop_id in self.parallel_loop_ids:
                semantics[loop_id] = LoopSemantics(ExecMode.PARALLEL_SNAPSHOT)
        if (
            self.broken_reduction_device is None
            or device_kind is None
            or device_kind == self.broken_reduction_device
        ):
            for loop_id in self.broken_reduction_loops:
                semantics[loop_id] = LoopSemantics(ExecMode.REDUCTION_LAST_CHUNK)
        return semantics

    @property
    def sequential(self) -> bool:
        return self.distribution.strategy is DistStrategy.SEQUENTIAL

    # -- performance-model view ---------------------------------------------
    #
    # A launch reads IR facts that no env can change: the parallel loops,
    # their linearized bounds, the element size, the coalescing of the
    # innermost parallel body and the lowered op-count programs.  Each is
    # computed on first use and kept on the kernel (never pickled, see
    # __getstate__).  They are IR facts only: perf.model constants and
    # device values are read per launch, so overrides never go stale.

    @cached_property
    def _parallel_loops(self) -> tuple[For, ...]:
        loops = []
        for loop_id in self.parallel_loop_ids:
            try:
                loops.append(self.ir.find_loop(loop_id))
            except KeyError:
                pass
        return tuple(loops)

    @cached_property
    def _trip_forms(self) -> tuple[TripForms, ...]:
        return tuple(trip_forms(loop) for loop in self._parallel_loops)

    @cached_property
    def _elem_bytes(self) -> int:
        elem_bytes = 4
        for param in self.ir.array_params:
            elem_bytes = max(elem_bytes, param.type.size_bytes)  # type: ignore[union-attr]
        return elem_bytes

    @cached_property
    def _body_ops(self) -> OpProgram:
        return OpProgram(self.ir.body)

    @cached_property
    def _host_ops(self) -> OpProgram:
        # an out-of-order host core predicts branches: no divergence penalty
        return OpProgram(self.ir.body, divergent=False)

    @cached_property
    def _inner_ops(self) -> OpProgram:
        return OpProgram(self._parallel_loops[-1].body)

    @cached_property
    def _inner_coalescing(self) -> float:
        innermost = self._parallel_loops[-1]
        return coalescing_fraction(innermost.body, innermost.var)

    def __getstate__(self) -> dict:
        return {key: value for key, value in self.__dict__.items()
                if key not in _LAUNCH_FACTS}

    def launch_config(self, env: dict[str, int]) -> LaunchConfig:
        extents = [trips_under(forms, env) for forms in self._trip_forms]
        return self.distribution.resolve(extents)

    def work_profile(
        self, env: dict[str, int], working_set_bytes: float = 0.0
    ) -> WorkProfile:
        """Build the analytical workload description for a launch."""
        if self.elided:
            return WorkProfile(items=0, ops=OpCounts(), bytes_per_item=0.0)
        elem_bytes = self._elem_bytes
        if self.sequential or not self._parallel_loops:
            ops = self._body_ops(env)
            bytes_total = (ops.loads + ops.stores) * elem_bytes
            return WorkProfile(
                items=1,
                ops=ops,
                bytes_per_item=float(bytes_total) * self.traffic_reuse,
                coalesced_fraction=1.0,
                working_set_bytes=working_set_bytes,
            )

        items = 1
        inner_env = dict(env)
        for loop, forms in zip(self._parallel_loops, self._trip_forms):
            extent = trips_under(forms, env)
            items *= max(extent, 1)
            # representative mid-range value for triangular inner bounds
            inner_env[loop.var] = max(extent // 2, 1)
        ops = self._inner_ops(inner_env)
        bytes_per_item = (ops.loads + ops.stores) * elem_bytes * self.traffic_reuse
        # explicit Gang-mode work-item indexing defeats the Intel OpenCL
        # implicit vectorizer on MIC; compiler-generated (Gridify/auto)
        # schedules vectorize along the contiguous dimension
        vectorizable = (
            0.0 if self.distribution.strategy is DistStrategy.GANG_MODE else None
        )
        return WorkProfile(
            items=items,
            ops=ops,
            bytes_per_item=float(bytes_per_item),
            coalesced_fraction=self._inner_coalescing,
            working_set_bytes=working_set_bytes,
            vectorizable_fraction=vectorizable,
        )

    def host_profile(
        self, env: dict[str, int], working_set_bytes: float
    ) -> WorkProfile:
        """The whole-kernel sequential profile used for host fallback."""
        ops = self._host_ops(env)
        return WorkProfile(
            items=1,
            ops=ops,
            bytes_per_item=float((ops.loads + ops.stores) * self._elem_bytes),
            coalesced_fraction=1.0,
            working_set_bytes=working_set_bytes,
        )


#: the cached launch facts of a :class:`CompiledKernel`
_LAUNCH_FACTS = frozenset(
    name for name, value in vars(CompiledKernel).items()
    if isinstance(value, cached_property)
)


@dataclass
class CompilationResult:
    """Everything a compiler produced for one module."""

    module_name: str
    compiler: str
    target: str
    kernels: list[CompiledKernel] = field(default_factory=list)
    log: list[str] = field(default_factory=list)

    def kernel(self, name: str) -> CompiledKernel:
        for kernel in self.kernels:
            if kernel.name == name:
                return kernel
        raise KeyError(f"no compiled kernel {name!r}")

    def log_text(self) -> str:
        return "\n".join(self.log)


#: Table III — parallelism levels as defined by the standard and implemented
#: by each tool-chain (paper Table III, verbatim).
PARALLELISM_MAPPING: dict[str, dict[str, str | None]] = {
    "Gang": {
        "CAPS": "Gang",
        "PGI": "Gang",
        "CUDA": "Thread block",
        "OpenCL": "Global work",
    },
    "Worker": {
        "CAPS": "Worker",
        "PGI": None,
        "CUDA": "Thread",
        "OpenCL": "Local work",
    },
    "Vector": {
        "CAPS": None,
        "PGI": "Vector",
        "CUDA": None,
        "OpenCL": None,
    },
}
