"""Thread-distribution search: the heat maps of paper Figure 4.

"we build the three heat maps with various thread block sizes (gang) and
thread sizes (worker or vector) for the elapsed time with CAPS on GPU/MIC
and PGI on GPU to find out the best thread distribution configuration."

The search drives the real pipeline (transform -> compile -> model) for a
grid of (gang, worker) pairs, sampling the host iteration space so a full
map costs seconds rather than hours.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..devices.specs import DeviceSpec
from ..kernels.base import Benchmark
from ..runtime.launcher import Accelerator
from ..service.fingerprint import CompileRequest
from ..service.scheduler import CompileService, JobError
from ..telemetry.spans import get_tracer
from ..passes.library.distribute import set_gang_worker
from .ladder import apply_ladder, ladder_label

DEFAULT_GANGS = (1, 16, 64, 128, 192, 256, 512, 1024)
DEFAULT_WORKERS = (1, 2, 4, 8, 16, 32, 64, 128, 256)


@dataclass
class HeatMap:
    """Elapsed time (seconds) over a (gang, worker) grid; Fig. 4 data."""

    label: str
    device: str
    gangs: tuple[int, ...]
    workers: tuple[int, ...]
    times: list[list[float]] = field(default_factory=list)  # [gang][worker]

    def time(self, gang: int, worker: int) -> float:
        return self.times[self.gangs.index(gang)][self.workers.index(worker)]

    def best(self) -> tuple[int, int, float]:
        """(gang, worker, seconds) of the brightest cell."""
        best_cell: tuple[int, int, float] | None = None
        for gi, gang in enumerate(self.gangs):
            for wi, worker in enumerate(self.workers):
                t = self.times[gi][wi]
                if best_cell is None or t < best_cell[2]:
                    best_cell = (gang, worker, t)
        assert best_cell is not None
        return best_cell

    def best_worker_for(self, gang: int) -> int:
        gi = self.gangs.index(gang)
        row = self.times[gi]
        return self.workers[row.index(min(row))]

    def render(self) -> str:
        """ASCII heat map, bright (fast) to dark (slow), like Fig. 4
        ("The scale colors of the maps are from bright to dark")."""
        flat = [t for row in self.times for t in row]
        lo, hi = min(flat), max(flat)
        shades = " .:-=+*#%@"

        def shade(t: float) -> str:
            if hi <= lo:
                return shades[0]
            frac = (t - lo) / (hi - lo)
            return shades[min(int(frac * (len(shades) - 1)), len(shades) - 1)]

        header = "gang\\worker " + " ".join(f"{w:>8d}" for w in self.workers)
        lines = [f"{self.label} on {self.device} (seconds; bright=fast)",
                 header]
        for gi, gang in enumerate(self.gangs):
            cells = " ".join(
                f"{self.times[gi][wi]:>7.2f}{shade(self.times[gi][wi])}"
                for wi in range(len(self.workers))
            )
            lines.append(f"{gang:>11d} {cells}")
        best_gang, best_worker, best_time = self.best()
        lines.append(
            f"best: gang({best_gang}) worker({best_worker}) = {best_time:.3f}s"
        )
        return "\n".join(lines)


def distribution_requests(
    benchmark: Benchmark,
    compiler: str,
    target: str,
    gangs: tuple[int, ...],
    workers: tuple[int, ...],
    ladder: tuple[str, ...] = (),
) -> list[CompileRequest]:
    """Materialize the (gang, worker) grid as compile requests, in
    row-major sweep order.

    Built serially by the caller thread so IR loop ids (allocated by the
    clone-free transforms) are identical no matter how many workers later
    compile the requests — the determinism contract of the scheduler.

    ``ladder`` names optimization rungs (:mod:`repro.core.ladder`) to
    climb on every grid point after the distribution is set; rungs with
    no applicable site in a kernel are no-ops.
    """
    base = benchmark.module()
    requests: list[CompileRequest] = []
    suffix = ladder_label(ladder)
    for gang in gangs:
        for worker in workers:
            module = base.__class__(base.name, [])
            for kernel in base.kernels:
                j_loop = kernel.loop_by_var("j")
                module.kernels.append(
                    set_gang_worker(kernel, j_loop.loop_id, gang, worker)
                )
            if ladder:
                module = apply_ladder(module, ladder, compiler, target)
            requests.append(
                CompileRequest(
                    module, compiler, target,
                    label=f"{benchmark.meta.short} g{gang} w{worker}{suffix}",
                )
            )
    return requests


def lud_point_seconds(compiled, device: DeviceSpec, n: int,
                      samples: int) -> float:
    """Model one compiled LUD (gang, worker) point on *device*.

    Launches every kernel at ``samples`` evenly spaced host iterations
    and extrapolates to the full factorization (the per-iteration cost
    varies smoothly in i).
    """
    accelerator = Accelerator(device)
    accelerator.declare(a=n * n * 4)
    total = 0.0
    for s in range(samples):
        i = max(1, (n * (2 * s + 1)) // (2 * samples))
        for kernel in compiled.kernels:
            total += accelerator.launch(kernel, size=n, i=i).seconds
    return total * (n / samples)


def lud_heatmap(
    benchmark: Benchmark,
    device: DeviceSpec,
    compiler: str = "caps",
    n: int = 1024,
    gangs: tuple[int, ...] = DEFAULT_GANGS,
    workers: tuple[int, ...] = DEFAULT_WORKERS,
    samples: int = 8,
    *,
    service: CompileService,
    ladder: tuple[str, ...] = (),
) -> HeatMap:
    """Figure 4: LUD elapsed time across thread distributions.

    The grid compiles through *service* (share one to share its artifact
    cache across sweeps: a warm re-sweep performs zero recompilations);
    each point is modeled by :func:`lud_point_seconds`.  Results are
    deterministic at any ``service.jobs``.
    """
    target = "cuda" if device.kind.value == "gpu" else "opencl"
    tracer = get_tracer()
    with tracer.span("search.heatmap", category="search",
                     label=f"{benchmark.meta.short} {compiler}",
                     device=device.name, points=len(gangs) * len(workers)):
        requests = distribution_requests(benchmark, compiler, target, gangs,
                                         workers, ladder=ladder)
        # sweep so the grid checkpoints through the service's journal
        # and survives injected faults point-by-point; the heat map
        # itself is still strict — a point that stayed failed after
        # retries/degradation aborts the map
        compiled_grid = service.sweep(requests)
        for slot in compiled_grid:
            if isinstance(slot, JobError):
                raise slot

        point = iter(compiled_grid)
        with tracer.span("search.model", category="search",
                         device=device.name):
            times = [
                [lud_point_seconds(next(point), device, n, samples)
                 for _ in workers]
                for _ in gangs
            ]
    return HeatMap(
        label=f"LUD {compiler.upper()}{ladder_label(ladder)}",
        device=device.name,
        gangs=gangs,
        workers=workers,
        times=times,
    )
