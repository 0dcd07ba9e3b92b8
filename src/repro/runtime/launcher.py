"""The simulated accelerator runtime.

An :class:`Accelerator` owns device buffers, executes compiled kernels
(functionally, via the executor, when arrays are provided), models their
elapsed time with :mod:`repro.perf`, and records every event in a
:class:`Profiler`.

Two usage modes:

* **functional** — tests and examples allocate real NumPy arrays with
  :meth:`to_device`; launches mutate them exactly as the compiled kernel
  would (including racy/broken-parallelization semantics), and the
  timing model runs alongside.
* **modeled-only** — the paper-scale experiments (4K matrices, 32M-node
  graphs) declare buffer *sizes* with :meth:`declare`; launches are
  timed but not executed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..devices.specs import (
    E5_2670,
    GCC,
    PCIE,
    DeviceSpec,
    HostToolchain,
    PcieLink,
)
from ..ir.types import ArrayType
from ..perf.model import LaunchConfig, WorkProfile, estimate_time
from .executor import execute_kernel
from .profiler import Profiler

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a circular import
    from ..compilers.framework import CompiledKernel


class RuntimeError_(RuntimeError):
    """Runtime-layer failure (missing buffer, bad launch arguments)."""


@dataclass
class LaunchRecord:
    """What one launch cost and how it ran."""

    kernel: str
    config: LaunchConfig
    profile: WorkProfile
    seconds: float
    device: str
    executed_functionally: bool


class Accelerator:
    """One simulated device with its PCIe link and host."""

    def __init__(
        self,
        spec: DeviceSpec,
        link: PcieLink = PCIE,
        host: DeviceSpec = E5_2670,
        toolchain: HostToolchain = GCC,
    ) -> None:
        self.spec = spec
        self.link = link
        self.host = host
        self.toolchain = toolchain
        self.profiler = Profiler()
        self._buffers: dict[str, np.ndarray] = {}
        self._declared: dict[str, int] = {}
        self.launches: list[LaunchRecord] = []

    # -- buffer management -----------------------------------------------------

    def to_device(self, **arrays: np.ndarray) -> None:
        """Copy host arrays to the device (functional mode)."""
        for name, array in arrays.items():
            if not isinstance(array, np.ndarray):
                raise RuntimeError_(f"{name!r} must be an ndarray")
            self._buffers[name] = array.copy()
            self.profiler.record(
                "h2d", name, self.link.transfer_seconds(array.nbytes),
                array.nbytes, self.spec.name,
            )

    def declare(self, **nbytes: int) -> None:
        """Declare buffer sizes without data (modeled-only mode)."""
        for name, size in nbytes.items():
            if size < 0:
                raise RuntimeError_(f"negative size for buffer {name!r}")
            self._declared[name] = int(size)

    def upload_declared(self, *names: str) -> None:
        """Model an H2D transfer of declared (data-less) buffers."""
        for name in names:
            size = self._nbytes(name)
            self.profiler.record(
                "h2d", name, self.link.transfer_seconds(size), size,
                self.spec.name,
            )

    def download_declared(self, *names: str) -> None:
        for name in names:
            size = self._nbytes(name)
            self.profiler.record(
                "d2h", name, self.link.transfer_seconds(size), size,
                self.spec.name,
            )

    def touch_h2d(self, *names: str) -> None:
        """Record an H2D re-transfer of existing buffers (a data-region
        entry re-copying data that is already in sync — what CAPS's
        per-region data movement does inside the BFS level loop)."""
        for name in names:
            size = self._nbytes(name)
            self.profiler.record(
                "h2d", name, self.link.transfer_seconds(size), size,
                self.spec.name,
            )

    def touch_d2h(self, *names: str) -> None:
        """Record a D2H transfer of existing buffers without copying."""
        for name in names:
            size = self._nbytes(name)
            self.profiler.record(
                "d2h", name, self.link.transfer_seconds(size), size,
                self.spec.name,
            )

    def from_device(self, *names: str) -> dict[str, np.ndarray]:
        """Copy device buffers back to the host (functional mode)."""
        out: dict[str, np.ndarray] = {}
        for name in names:
            if name not in self._buffers:
                raise RuntimeError_(f"no device buffer {name!r}")
            array = self._buffers[name]
            out[name] = array.copy()
            self.profiler.record(
                "d2h", name, self.link.transfer_seconds(array.nbytes),
                array.nbytes, self.spec.name,
            )
        return out

    def buffer(self, name: str) -> np.ndarray:
        if name not in self._buffers:
            raise RuntimeError_(f"no device buffer {name!r}")
        return self._buffers[name]

    def _nbytes(self, name: str) -> int:
        if name in self._buffers:
            return self._buffers[name].nbytes
        if name in self._declared:
            return self._declared[name]
        raise RuntimeError_(f"buffer {name!r} neither allocated nor declared")

    # -- kernel launch -----------------------------------------------------------

    def launch(self, kernel: "CompiledKernel", **scalars: int | float
               ) -> LaunchRecord:
        """Launch a compiled kernel.

        ``scalars`` supplies the kernel's scalar parameters (sizes etc.).
        Array parameters bind to same-named device buffers.  If every
        array parameter has a real buffer the kernel also executes
        functionally (with the compiled execution semantics — including
        any broken-reduction behaviour on this device kind).
        """
        env = {k: int(v) for k, v in scalars.items() if isinstance(v, (int, np.integer))}
        working_set = 0
        have_all_arrays = True
        for param in kernel.ir.array_params:
            try:
                working_set += self._nbytes(param.name)
            except RuntimeError_:
                raise
            if param.name not in self._buffers:
                have_all_arrays = False

        config = kernel.launch_config(env)
        profile = kernel.work_profile(env, working_set)

        if kernel.elided:
            # host fallback: the region runs on the host CPU, sequentially
            host_profile = kernel.host_profile(env, working_set)
            breakdown = estimate_time(
                self.host, LaunchConfig(sequential=True), host_profile
            )
            seconds = breakdown.total_s * self.toolchain.host_speed_factor
            device_label = "host"
        else:
            breakdown = estimate_time(self.spec, config, profile)
            seconds = breakdown.total_s + kernel.dispatch_overhead_us * 1e-6
            device_label = self.spec.name

        executed = False
        if have_all_arrays and kernel.ir.array_params:
            args: dict[str, object] = {}
            for param in kernel.ir.params:
                if isinstance(param.type, ArrayType):
                    args[param.name] = self._buffers[param.name]
                else:
                    if param.name not in scalars:
                        raise RuntimeError_(
                            f"missing scalar argument {param.name!r} for "
                            f"kernel {kernel.name!r}"
                        )
                    args[param.name] = scalars[param.name]
            semantics = kernel.executor_semantics(self.spec.kind.value)
            if kernel.elided:
                semantics = {}  # host fallback executes sequentially (correct)
            execute_kernel(kernel.ir, args, semantics)
            executed = True

        self.profiler.record("launch", kernel.name, seconds, 0, device_label)
        record = LaunchRecord(
            kernel.name, config, profile, seconds, device_label, executed
        )
        self.launches.append(record)
        return record

    # -- host-side work -----------------------------------------------------------

    def host_compute(self, label: str, seconds_at_gcc: float) -> None:
        """Model host-side computation between kernels (Hydro's CPU parts);
        scaled by the host toolchain factor (GCC vs Intel, Fig. 15)."""
        self.profiler.record(
            "host", label, seconds_at_gcc * self.toolchain.host_speed_factor
        )

    # -- results -----------------------------------------------------------------

    @property
    def elapsed_s(self) -> float:
        return self.profiler.total_s

    def reset_timeline(self) -> None:
        self.profiler.clear()
        self.launches.clear()
