"""Analytical kernel-time model for the simulated accelerators.

``estimate_time`` predicts the elapsed time of one kernel launch from

* the launch geometry (grid x block, or sequential execution),
* a :class:`WorkProfile` extracted statically from the IR (operation mix
  per iteration, bytes moved, coalescing fraction, data footprint).

The model is a calibrated roofline:  ``max(T_compute, T_memory) +
overheads`` with

* an *issue model* for compute — threads retire instructions at a rate
  limited by (a) how many are resident, (b) SIMT/SIMD lane padding, and
  (c) whether enough warps/SMT-threads are resident to hide pipeline
  latency.  A single thread on a GPU lane is painfully slow
  (``scalar_cpi`` ~ 8), which is the mechanism behind the ~1000x serial
  CAPS-baseline gap of paper Fig. 3;
* a *bandwidth model* for memory — a Little's-law concurrency limit (too
  few threads cannot fill the memory pipeline), an uncoalesced-access
  waste factor, a cache-pressure factor once the data footprint
  overflows the last-level cache, and a strided-lane contention factor
  that grows with threads-per-block for poorly coalesced kernels (DRAM
  row-buffer / MSHR conflicts).  The last two produce the "worker = 16
  is best for memory-bound LUD on K40" optimum of paper Fig. 4;
* *sequential mode* treats memory access as prefetch-friendly streaming
  (one thread walking arrays in order) rather than SIMT coalescing.

Absolute seconds are model outputs, not measurements; the experiments
assert orderings and ratios only (see EXPERIMENTS.md).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..analysis.patterns import OpCounts
from ..devices.specs import DeviceKind, DeviceSpec

#: cycles per instruction by operation class (device-neutral weights;
#: device speed differences enter via clock/scalar_cpi/lane counts).
CPI = {
    "flops_add": 1.0,
    "flops_mul": 1.0,
    "flops_div": 10.0,
    "flops_special": 12.0,
    "int_ops": 1.0,
    "compares": 1.0,
    "loads": 1.0,   # issue slot only; memory time is modeled separately
    "stores": 1.0,
    "branches": 1.5,
}

#: cache-pressure growth/cap once the footprint overflows the LLC
#: [calibrated: keeps memory-bound kernels ~2x off datasheet peak]
CACHE_ALPHA = 0.10
CACHE_CAP = 2.0

#: strided-lane contention per threads-per-block beyond the sweet spot,
#: applied when coalescing is poor [calibrated: Fig. 4a/b worker optimum]
STRIDE_CONTENTION_GAMMA = 0.15
STRIDE_CONTENTION_CAP = 2.0
STRIDE_SWEET_SPOT = 16

#: MIC intra-workgroup overhead per extra work-item (masking + barriers)
#: [calibrated: (240, 1) optimum of Fig. 4c]
MIC_WORKER_OVERHEAD = 0.06
MIC_WORKGROUP_DISPATCH_US = 0.5

#: sustained fraction of theoretical MIC bandwidth [calibrated: STREAM-class
#: measurements on Knights Corner never exceeded ~55-60% of peak]
MIC_BW_SUSTAINED = 0.55

#: per-work-item bookkeeping cycles when the Intel OpenCL implicit
#: vectorizer fails and work-items run as scalar loop iterations with
#: full dispatch state — the notorious KNC scalarized-kernel cliff
#: [calibrated: the ~200x MIC gain of Fig. 15's Gridify optimization]
MIC_SCALARIZED_ITEM_OVERHEAD = 200.0

#: sequential-mode streaming: prefetchers make one thread's in-order walk
#: far cheaper than the SIMT waste model would suggest
SEQ_WASTE_CAP = 1.5
SEQ_MLP_BOOST = 4.0


@dataclass(frozen=True)
class LaunchConfig:
    """Launch geometry, as the compilers report it (Table VI)."""

    grid: tuple[int, int, int] = (1, 1, 1)
    block: tuple[int, int, int] = (1, 1, 1)
    sequential: bool = False

    @property
    def num_blocks(self) -> int:
        gx, gy, gz = self.grid
        return gx * gy * gz

    @property
    def block_threads(self) -> int:
        bx, by, bz = self.block
        return bx * by * bz

    @property
    def total_threads(self) -> int:
        return 1 if self.sequential else self.num_blocks * self.block_threads

    def describe(self) -> str:
        if self.sequential:
            return "sequential"
        return f"grid={list(self.grid)} block={list(self.block)}"


@dataclass(frozen=True)
class WorkProfile:
    """Statically extracted workload description of one kernel launch."""

    items: int                      # parallel iteration count
    ops: OpCounts                   # per-item operation mix (inner loops folded in)
    bytes_per_item: float           # global-memory traffic per item
    coalesced_fraction: float = 1.0
    working_set_bytes: float = 0.0  # total data footprint of the launch
    vectorizable_fraction: float | None = None  # MIC: defaults to coalesced

    @property
    def cycles_per_item(self) -> float:
        ops = self.ops
        return sum(getattr(ops, name) * weight for name, weight in CPI.items())

    @property
    def total_bytes(self) -> float:
        return self.items * self.bytes_per_item


@dataclass
class TimeBreakdown:
    """Where the modeled time went."""

    compute_s: float = 0.0
    memory_s: float = 0.0
    overhead_s: float = 0.0
    active_threads: int = 1
    limiter: str = "compute"

    @property
    def total_s(self) -> float:
        return max(self.compute_s, self.memory_s) + self.overhead_s


def _cache_pressure(profile: WorkProfile, spec: DeviceSpec) -> float:
    if profile.working_set_bytes <= 0:
        return 1.0
    overflow = max(0.0, profile.working_set_bytes / spec.llc_bytes - 1.0)
    return min(1.0 + CACHE_ALPHA * overflow, CACHE_CAP)


def _waste(profile: WorkProfile, spec: DeviceSpec, sequential: bool) -> float:
    waste = (
        profile.coalesced_fraction
        + (1.0 - profile.coalesced_fraction) * spec.uncoalesced_waste
    )
    if sequential:
        # one thread streams arrays in iteration order: prefetch-friendly
        waste = min(waste, SEQ_WASTE_CAP)
    return waste


def _little_bw(active: int, spec: DeviceSpec, sequential: bool,
               request_bytes_each: float) -> float:
    latency_s = spec.mem_latency_ns * 1e-9
    mlp = spec.mlp_per_thread * (SEQ_MLP_BOOST if sequential else 1.0)
    return active * mlp * request_bytes_each / latency_s


def _gpu_time(spec: DeviceSpec, config: LaunchConfig, profile: WorkProfile
              ) -> TimeBreakdown:
    threads = max(1, config.total_threads)
    active = min(threads, max(1, profile.items))

    # --- compute: SIMT issue model ---
    block_threads = 1 if config.sequential else max(1, config.block_threads)
    padded_block = math.ceil(block_threads / spec.warp_width) * spec.warp_width
    warp_util = block_threads / padded_block
    resident = min(active, spec.max_resident_threads)
    units_used = min(config.num_blocks if not config.sequential else 1,
                     spec.num_units)
    warps_per_unit = max(resident / spec.warp_width / max(units_used, 1), 1e-9)
    stall = max(1.0, spec.warps_to_hide_latency / warps_per_unit)
    stall = min(stall, spec.scalar_cpi)  # a lone thread bottoms out at scalar_cpi
    retire_per_cycle = min(resident, spec.total_lanes * warp_util) / stall
    clock_hz = spec.clock_ghz * 1e9
    # round quantization: items execute in ceil(items/threads) rounds; the
    # last partially-filled round still costs a full round (idle threads
    # are otherwise free)
    effective_items = (
        math.ceil(profile.items / threads) * active if profile.items else 0
    )
    compute_s = (
        effective_items * profile.cycles_per_item
        / (retire_per_cycle * clock_hz)
    ) if profile.items else 0.0

    # --- memory: roofline with concurrency + coalescing + cache pressure ---
    request_bytes = profile.total_bytes * _waste(profile, spec, config.sequential)
    little = _little_bw(resident, spec, config.sequential, 32.0)
    pressure = _cache_pressure(profile, spec)
    contention = 1.0
    if profile.coalesced_fraction < 0.75 and not config.sequential:
        # strided lanes conflict in row buffers / MSHRs as blocks grow
        excess = max(0.0, block_threads - STRIDE_SWEET_SPOT) / STRIDE_SWEET_SPOT
        contention = min(
            1.0 + STRIDE_CONTENTION_GAMMA * excess, STRIDE_CONTENTION_CAP
        )
    bandwidth = min(spec.peak_bw_gbps * 1e9 / (pressure * contention), little)
    memory_s = request_bytes / bandwidth if request_bytes else 0.0

    overhead_s = spec.launch_overhead_us * 1e-6
    limiter = "memory" if memory_s > compute_s else "compute"
    return TimeBreakdown(compute_s, memory_s, overhead_s, active, limiter)


def _mic_time(spec: DeviceSpec, config: LaunchConfig, profile: WorkProfile
              ) -> TimeBreakdown:
    gangs = 1 if config.sequential else config.num_blocks
    workers = 1 if config.sequential else max(1, config.block_threads)
    hw_threads = min(max(gangs, 1), spec.num_units * spec.threads_per_unit)
    active = min(hw_threads, max(1, profile.items))

    # --- compute: scalar pipeline + auto-vectorization ---
    cores_used = min(active, spec.num_units)
    threads_per_core = max(1.0, active / max(cores_used, 1))
    # a single KNC thread can issue at most every other cycle
    smt_stall = max(1.0, 2.0 / threads_per_core)
    if config.sequential:
        vec_speedup = 1.0  # the sequential codelet is scalar code
    else:
        vec_fraction = (
            profile.vectorizable_fraction
            if profile.vectorizable_fraction is not None
            else profile.coalesced_fraction
        )
        vec_speedup = 1.0 + (spec.lanes_per_unit - 1) * vec_fraction
        if profile.coalesced_fraction < 0.75:
            # KNC vgather serializes: indirect/strided access patterns get
            # almost nothing from the 512-bit vectors [calibrated: "the
            # OpenCL baseline runs 9 times slower on MIC than GPU", V-C1]
            vec_speedup = min(vec_speedup, 2.0)
    worker_penalty = 1.0 + MIC_WORKER_OVERHEAD * (workers - 1)
    clock_hz = spec.clock_ghz * 1e9
    rate = (
        cores_used * clock_hz * vec_speedup
        / (spec.scalar_cpi * smt_stall * worker_penalty)
    )
    effective_items = (
        math.ceil(profile.items / max(active, 1)) * active if profile.items else 0
    )
    # scalarized work-items pay per-item dispatch bookkeeping (the KNC
    # cliff); a sequential codelet is an ordinary loop and does not
    item_overhead = (
        MIC_SCALARIZED_ITEM_OVERHEAD
        if (not config.sequential and vec_speedup < 2.0)
        else 0.0
    )
    compute_s = (
        effective_items * (profile.cycles_per_item + item_overhead) / rate
        if profile.items
        else 0.0
    )

    # --- memory ---
    request_bytes = profile.total_bytes * _waste(profile, spec, config.sequential)
    little = _little_bw(active, spec, config.sequential, 64.0)
    pressure = _cache_pressure(profile, spec)
    bandwidth = min(
        spec.peak_bw_gbps * 1e9 * MIC_BW_SUSTAINED / pressure, little
    )
    memory_s = request_bytes / bandwidth if request_bytes else 0.0

    overhead_s = (
        spec.launch_overhead_us * 1e-6
        + (0.0 if config.sequential else gangs * MIC_WORKGROUP_DISPATCH_US * 1e-6)
    )
    limiter = "memory" if memory_s > compute_s else "compute"
    return TimeBreakdown(compute_s, memory_s, overhead_s, active, limiter)


def _cpu_time(spec: DeviceSpec, config: LaunchConfig, profile: WorkProfile
              ) -> TimeBreakdown:
    threads = 1 if config.sequential else min(
        max(config.total_threads, 1), spec.num_units * spec.threads_per_unit
    )
    active = min(threads, max(1, profile.items))
    clock_hz = spec.clock_ghz * 1e9
    rate = max(active, 1) * clock_hz / spec.scalar_cpi
    compute_s = profile.items * profile.cycles_per_item / rate if profile.items else 0.0
    bandwidth = spec.peak_bw_gbps * 1e9 * 0.7
    memory_s = profile.total_bytes / bandwidth if profile.total_bytes else 0.0
    limiter = "memory" if memory_s > compute_s else "compute"
    return TimeBreakdown(compute_s, memory_s, 0.0, active, limiter)


def estimate_time(
    spec: DeviceSpec, config: LaunchConfig, profile: WorkProfile
) -> TimeBreakdown:
    """Predict the elapsed time of one kernel launch on *spec*."""
    if profile.items < 0:
        raise ValueError("items must be non-negative")
    if not 0.0 <= profile.coalesced_fraction <= 1.0:
        raise ValueError("coalesced_fraction must be in [0, 1]")
    if spec.kind is DeviceKind.GPU:
        return _gpu_time(spec, config, profile)
    if spec.kind is DeviceKind.MIC:
        return _mic_time(spec, config, profile)
    return _cpu_time(spec, config, profile)


import contextlib


@contextlib.contextmanager
def model_overrides(**constants: float):
    """Temporarily override module-level model constants (ablations).

    Example::

        with model_overrides(MIC_SCALARIZED_ITEM_OVERHEAD=0.0):
            ...  # re-run an experiment without the KNC scalarization cliff

    Unknown names raise immediately so ablation configs cannot silently
    rot when a constant is renamed.
    """
    module_globals = globals()
    unknown = [name for name in constants if name not in module_globals]
    if unknown:
        raise KeyError(f"unknown model constant(s): {unknown}")
    saved = {name: module_globals[name] for name in constants}
    module_globals.update(constants)
    try:
        yield
    finally:
        module_globals.update(saved)
