"""Batch kernel execution and the execution-heavy sweep driver.

:func:`run_tasks` executes a list of :class:`ExecTask` in order, in this
process.  Each task runs on a private copy of its array arguments, so
tasks cannot observe each other, the caller's arrays are never mutated,
and the returned buffers are a pure function of the task list.  Kernel
plans compile lazily inside :func:`repro.runtime.executor.execute_kernel`
through its single-flight memo cache.

:func:`run_exec_sweep` builds the LUD/GE/Hydro hot-kernel task list and
runs it, streaming each task's buffers into :func:`sweep_digest` (the
order-sensitive digest the determinism suite and ``BENCH_exec.json``
pin) as soon as the task finishes, so the sweep holds one task's
buffers at a time.

Telemetry: one ``exec.task`` span per task (recorded once the task has
run), inside one ``exec.sweep`` span per sweep.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from ..ir.stmt import KernelFunction
from ..telemetry.spans import get_tracer
from .executor import LoopSemantics, execute_kernel

__all__ = ["ExecTask", "run_tasks", "run_exec_sweep", "sweep_digest"]


@dataclass
class ExecTask:
    """One unit of work: a kernel plus its arguments."""

    label: str
    kernel: KernelFunction
    args: dict[str, object]
    semantics: dict[int, LoopSemantics] | None = None


def _executed(
    tasks: list[ExecTask],
    backend: str | None,
) -> Iterator[tuple[dict[str, np.ndarray], float]]:
    """Execute *tasks* in order, yielding each task's array buffers and
    its execution seconds as soon as it has run."""
    tracer = get_tracer()
    for index, task in enumerate(tasks):
        buffers = {
            name: value.copy()
            for name, value in task.args.items()
            if isinstance(value, np.ndarray)
        }
        args = {**task.args, **buffers}
        start = time.perf_counter()
        execute_kernel(task.kernel, args, task.semantics, backend=backend)
        seconds = time.perf_counter() - start
        tracer.record_span(
            "exec.task", seconds, category="exec",
            task=task.label, index=index,
        )
        yield buffers, seconds


def run_tasks(
    tasks: list[ExecTask],
    backend: str | None = None,
) -> list[dict[str, np.ndarray]]:
    """Execute *tasks* in order; return each task's array buffers after
    execution, in task order."""
    return [buffers for buffers, _ in _executed(tasks, backend)]


# -- the execution-heavy sweep driver ----------------------------------------


def sweep_digest(results: Iterable[dict[str, np.ndarray]]) -> str:
    """Order-sensitive SHA-256 over every result buffer (the sweep's
    byte-identity is asserted on this digest).

    *results* may be a stream: each task's buffers are hashed from their
    own memory (the bytes ``tobytes()`` would copy out, in the same
    order) and can be freed as soon as the next task's arrive.
    """
    digest = hashlib.sha256()
    for buffers in results:
        for name in sorted(buffers):
            digest.update(name.encode())
            digest.update(np.ascontiguousarray(buffers[name]))
    return digest.hexdigest()


def _sweep_tasks(service, sizes: dict[str, int], repeats: int) -> list[ExecTask]:
    """The execution-heavy LUD/GE/Hydro task list (paper Fig. 4 hot
    kernels), compiled through *service* so its resilience (faults and
    retries) applies to the compile side of the sweep."""
    from ..ir.visitors import clone_kernel
    from ..kernels import get_benchmark

    stages = {
        "ge": ("reorganized", ("ge_fan1", "ge_fan2")),
        "lud": ("tile", ("lud_row", "lud_column")),
        "hydro": ("optimized", ("hydro_boundary_x", "hydro_boundary_y")),
    }
    tasks: list[ExecTask] = []
    for bench, (stage, kernels) in stages.items():
        n = sizes[bench]
        pool = get_benchmark(bench).inputs(n)
        if bench == "ge":
            pool["t"] = 0
        elif bench == "lud":
            pool["i"] = 3 * n // 4  # mid-factorization: real reduction depth
        module = get_benchmark(bench).stages()[stage]
        compiled = service.compile(module, "caps", "cuda",
                                   label=f"exec-sweep:{bench}")
        for name in kernels:
            ck = compiled.kernel(name)
            semantics = {} if ck.elided else ck.executor_semantics("gpu")
            kernel = clone_kernel(ck.ir)
            args = {p.name: pool[p.name] for p in kernel.params}
            for repeat in range(repeats):
                tasks.append(
                    ExecTask(f"{name}#{repeat}", kernel, args, semantics)
                )
    return tasks


def run_exec_sweep(
    service=None,
    backend: str = "vector",
    sizes: dict[str, int] | None = None,
    repeats: int = 1,
) -> dict:
    """Compile and execute the LUD/GE/Hydro hot-kernel sweep.

    Returns a summary with a deterministic ``digest`` over all result
    buffers — the determinism suite asserts digest equality across cold
    runs, with and without injected compile faults — and ``seconds``,
    the time spent executing the tasks (hashing left out).
    """
    if service is None:
        from ..service.scheduler import CompileService

        service = CompileService()
    sizes = dict(sizes or {"ge": 96, "lud": 128, "hydro": 96})
    seconds: list[float] = []

    def results() -> Iterator[dict[str, np.ndarray]]:
        for buffers, elapsed in _executed(tasks, backend):
            seconds.append(elapsed)
            yield buffers

    with get_tracer().span("exec.sweep", category="exec", backend=backend):
        tasks = _sweep_tasks(service, sizes, repeats)
        digest = sweep_digest(results())
    return {
        "tasks": [task.label for task in tasks],
        "backend": backend,
        "sizes": sizes,
        "seconds": sum(seconds),
        "digest": digest,
    }
