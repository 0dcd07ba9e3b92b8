"""Simulated accelerator runtime: buffers, launches, profiling, execution."""

from .executor import (
    BACKENDS,
    ExecMode,
    ExecutionError,
    LoopSemantics,
    clear_kernel_cache,
    compile_kernel_fn,
    execute_kernel,
    kernel_python_source,
    set_default_backend,
)
from .launcher import Accelerator, LaunchRecord, RuntimeError_, kernel_host_profile
from .profiler import ProfileEvent, Profiler

__all__ = [
    "Accelerator",
    "BACKENDS",
    "ExecMode",
    "ExecutionError",
    "LaunchRecord",
    "LoopSemantics",
    "ProfileEvent",
    "Profiler",
    "RuntimeError_",
    "clear_kernel_cache",
    "compile_kernel_fn",
    "execute_kernel",
    "kernel_host_profile",
    "kernel_python_source",
    "set_default_backend",
]
