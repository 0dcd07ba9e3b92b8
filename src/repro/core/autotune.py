"""Auto-tuning of thread distributions — the paper's counterpart approach.

The paper positions its hand-optimization method *against* auto-tuning:
"Proposed by the CAPS and OpenARC compilers respectively, the auto-tuning
technology aims to archive performance portability by compilers.  The
technology seems, however, not ready for production codes yet" (section I),
and names it as future work.  This module implements that counterpart so
the two approaches can be compared:

* :func:`exhaustive_tune` — the CAPS-auto-tuner style grid sweep over
  (gang, worker) candidates.
* :func:`hill_climb_tune` — a cheap local search (double/halve moves) from
  a seed configuration, the kind of search an in-compiler tuner can afford.
* :func:`portable_tune` — minimizes the *worst-case* time across several
  devices, the auto-tuning analogue of the paper's "best performance
  portability" configuration hunt (V-A2).

All tuners drive the same pipeline as the method experiments: transform ->
compile -> model, sampling the host iteration space the way the Fig. 4
heat maps do.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

from ..devices.specs import DeviceSpec
from ..kernels.base import Benchmark
from ..service.scheduler import CompileService
from ..telemetry.spans import traced
from .search import distribution_requests, lud_point_seconds

GANG_CANDIDATES = (1, 16, 32, 64, 128, 192, 240, 256, 512, 1024)
WORKER_CANDIDATES = (1, 2, 4, 8, 16, 32, 64, 128, 256)


@dataclass(frozen=True)
class TuneResult:
    """The outcome of one tuning run."""

    gang: int
    worker: int
    seconds: float
    evaluations: int
    device: str
    history: tuple[tuple[int, int, float], ...] = field(default_factory=tuple)

    def describe(self) -> str:
        return (
            f"gang({self.gang}) worker({self.worker}) -> {self.seconds:.4g}s "
            f"on {self.device} after {self.evaluations} evaluations"
        )


def make_lud_evaluator(
    benchmark: Benchmark,
    device: DeviceSpec,
    compiler: str = "caps",
    n: int = 1024,
    samples: int = 8,
    *,
    service: CompileService,
    ladder: tuple[str, ...] = (),
) -> Callable[[int, int], float]:
    """An ``f(gang, worker) -> seconds`` objective for the LUD benchmark:
    one Fig. 4 heat-map point (:func:`~repro.core.search.lud_point_seconds`).

    Every configuration compiles through *service*, so it compiles at
    most once per service — the exhaustive sweep, the hill climber, and
    the portable tuner all revisit the same (gang, worker) points, and
    the content-addressed cache makes every revisit compile-free.

    ``ladder`` climbs the named optimization rungs
    (:mod:`repro.core.ladder`) on every evaluated configuration, so the
    tuners explore the (schedule x rung) product.
    """
    target = "cuda" if device.kind.value == "gpu" else "opencl"

    def evaluate(gang: int, worker: int) -> float:
        (request,) = distribution_requests(benchmark, compiler, target,
                                           (gang,), (worker,), ladder)
        return lud_point_seconds(service.compile_request(request), device,
                                 n, samples)

    return evaluate


@traced("autotune.prewarm", category="autotune")
def prewarm_lud_grid(
    benchmark: Benchmark,
    device: DeviceSpec,
    service: CompileService,
    compiler: str = "caps",
    gangs: Iterable[int] = GANG_CANDIDATES,
    workers: Iterable[int] = WORKER_CANDIDATES,
    ladder: tuple[str, ...] = (),
) -> int:
    """Fan the whole candidate grid's compiles out over the service's
    worker pool before tuning starts; returns the number of grid points
    that compiled cleanly.  Tuner evaluations then hit the cache only."""
    target = "cuda" if device.kind.value == "gpu" else "opencl"
    requests = distribution_requests(
        benchmark, compiler, target, tuple(gangs), tuple(workers),
        ladder=ladder,
    )
    results = service.sweep(requests)
    return sum(1 for result in results if not isinstance(result, Exception))


@traced("autotune.exhaustive", category="autotune")
def exhaustive_tune(
    evaluate: Callable[[int, int], float],
    gangs: Iterable[int] = GANG_CANDIDATES,
    workers: Iterable[int] = WORKER_CANDIDATES,
    device_name: str = "",
) -> TuneResult:
    """Grid sweep: what the CAPS auto-tuner did offline."""
    history: list[tuple[int, int, float]] = []
    best: tuple[int, int, float] | None = None
    for gang in gangs:
        for worker in workers:
            seconds = evaluate(gang, worker)
            history.append((gang, worker, seconds))
            if best is None or seconds < best[2]:
                best = (gang, worker, seconds)
    assert best is not None
    return TuneResult(best[0], best[1], best[2], len(history), device_name,
                      tuple(history))


@traced("autotune.hill_climb", category="autotune")
def hill_climb_tune(
    evaluate: Callable[[int, int], float],
    seed: tuple[int, int] = (128, 32),
    max_gang: int = 4096,
    max_worker: int = 1024,
    device_name: str = "",
) -> TuneResult:
    """Greedy double/halve local search from *seed*.

    Converges in O(log) evaluations — the budget an in-compiler tuner has —
    but can stall on plateaus; the comparison bench quantifies the gap to
    the exhaustive optimum.
    """
    gang, worker = seed
    seconds = evaluate(gang, worker)
    history = [(gang, worker, seconds)]

    improved = True
    while improved:
        improved = False
        for candidate in (
            (min(gang * 2, max_gang), worker),
            (max(gang // 2, 1), worker),
            (gang, min(worker * 2, max_worker)),
            (gang, max(worker // 2, 1)),
        ):
            if candidate == (gang, worker):
                continue
            if any(h[:2] == candidate for h in history):
                continue
            t = evaluate(*candidate)
            history.append((*candidate, t))
            if t < seconds * 0.999:
                gang, worker = candidate
                seconds = t
                improved = True
                break
    return TuneResult(gang, worker, seconds, len(history), device_name,
                      tuple(history))


@traced("autotune.portable", category="autotune")
def portable_tune(
    evaluators: dict[str, Callable[[int, int], float]],
    gangs: Iterable[int] = GANG_CANDIDATES,
    workers: Iterable[int] = WORKER_CANDIDATES,
) -> tuple[TuneResult, dict[str, float]]:
    """Minimize the worst-case elapsed time across several devices.

    This is the auto-tuned analogue of the paper's hand-derived portable
    configuration ("the thread distribution for the best performance
    portability across GPU and MIC can be found in (>256, 16)", V-A2).
    Returns the winning configuration plus its per-device times.
    """
    best: tuple[int, int, float, dict[str, float]] | None = None
    evaluations = 0
    for gang in gangs:
        for worker in workers:
            per_device = {
                name: evaluate(gang, worker)
                for name, evaluate in evaluators.items()
            }
            evaluations += len(per_device)
            worst = max(per_device.values())
            if best is None or worst < best[2]:
                best = (gang, worker, worst, per_device)
    assert best is not None
    result = TuneResult(
        best[0], best[1], best[2], evaluations,
        "+".join(sorted(evaluators)),
    )
    return result, best[3]
