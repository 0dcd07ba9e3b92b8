"""Batch kernel execution and the execution-heavy sweep driver.

:func:`run_tasks` executes a list of :class:`ExecTask` in order, in this
process.  Each task runs on a private copy of its array arguments, so
tasks cannot observe each other, the caller's arrays are never mutated,
and the returned buffers are a pure function of the task list.  Kernel
plans compile lazily inside :func:`repro.runtime.executor.execute_kernel`
through its single-flight memo cache.

:func:`run_exec_sweep` builds the LUD/GE/Hydro hot-kernel task list and
runs it; :func:`sweep_digest` is the order-sensitive digest the
determinism suite and ``BENCH_exec.json`` pin.

Telemetry: one ``exec.task`` span per task (recorded once the task has
run), inside one ``exec.sweep`` span per sweep.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass

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


def run_tasks(
    tasks: list[ExecTask],
    backend: str | None = None,
) -> list[dict[str, np.ndarray]]:
    """Execute *tasks* in order; return each task's array buffers after
    execution, in task order."""
    tracer = get_tracer()
    results: list[dict[str, np.ndarray]] = []
    for index, task in enumerate(tasks):
        buffers = {
            name: value.copy()
            for name, value in task.args.items()
            if isinstance(value, np.ndarray)
        }
        args = {**task.args, **buffers}
        start = time.perf_counter()
        execute_kernel(task.kernel, args, task.semantics, backend=backend)
        tracer.record_span(
            "exec.task", time.perf_counter() - start, category="exec",
            task=task.label, index=index,
        )
        results.append(buffers)
    return results


# -- the execution-heavy sweep driver ----------------------------------------


def sweep_digest(results: list[dict[str, np.ndarray]]) -> str:
    """Order-sensitive SHA-256 over every result buffer (the sweep's
    byte-identity is asserted on this digest)."""
    digest = hashlib.sha256()
    for buffers in results:
        for name in sorted(buffers):
            digest.update(name.encode())
            digest.update(buffers[name].tobytes())
    return digest.hexdigest()


def _sweep_tasks(service, sizes: dict[str, int], repeats: int) -> list[ExecTask]:
    """The execution-heavy LUD/GE/Hydro task list (paper Fig. 4 hot
    kernels), compiled through *service* so resilience policies (faults,
    retries, breakers) apply to the compile side of the sweep."""
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
    runs, with and without injected compile faults.
    """
    if service is None:
        from ..service.scheduler import CompileService

        service = CompileService()
    sizes = dict(sizes or {"ge": 96, "lud": 128, "hydro": 96})
    with get_tracer().span("exec.sweep", category="exec", backend=backend):
        tasks = _sweep_tasks(service, sizes, repeats)
        start = time.perf_counter()
        results = run_tasks(tasks, backend=backend)
        seconds = time.perf_counter() - start
    return {
        "tasks": [task.label for task in tasks],
        "backend": backend,
        "sizes": sizes,
        "seconds": seconds,
        "digest": sweep_digest(results),
    }
