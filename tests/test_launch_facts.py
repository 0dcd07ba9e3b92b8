"""Launch facts live on the compiled kernel, and only there.

A :class:`~repro.compilers.framework.CompiledKernel` computes its
launch-invariant IR facts (parallel loops, trip-count forms, element
size, coalescing, lowered op-count programs) on first use and keeps them
on itself.  They must not change what a launch models, what the kernel
pickles to, or how long the kernel lives.
"""

from __future__ import annotations

import gc
import pickle
import weakref

import pytest

from repro.compilers.framework import _LAUNCH_FACTS
from repro.core.method import compile_stage
from repro.devices import K40, PHI_5110P
from repro.ir.verify import check_kernel
from repro.kernels import get_benchmark
from repro.perf import model_overrides
from repro.runtime import Accelerator


def _compiled(compiler="caps", target="cuda", stage="threaddist"):
    return compile_stage(get_benchmark("lud").stages()[stage], compiler,
                         target)


def _model(result, device=K40, n=256):
    accelerator = Accelerator(device)
    accelerator.declare(a=n * n * 4)
    return [
        accelerator.launch(kernel, size=n, i=i).seconds
        for i in (1, n // 2, n - 2)
        for kernel in result.kernels
    ]


@pytest.mark.parametrize("compiler, target", [
    ("caps", "cuda"), ("caps", "opencl"), ("pgi", "cuda"),
])
def test_pickle_is_byte_identical_after_launch_and_verify(compiler, target):
    result = _compiled(compiler, target)
    before = pickle.dumps(result)
    _model(result)
    for kernel in result.kernels:
        check_kernel(kernel.ir, "strict")
    assert all(_LAUNCH_FACTS & set(vars(k)) for k in result.kernels)
    assert pickle.dumps(result) == before


def test_unpickled_kernel_recomputes_the_same_facts():
    result = _compiled()
    seconds = _model(result)
    copy = pickle.loads(pickle.dumps(result))
    assert not any(_LAUNCH_FACTS & set(vars(k)) for k in copy.kernels)
    assert _model(copy) == seconds


def test_facts_are_ir_facts_only():
    """A model constant changed between launches is read by the next
    launch: the kept facts hold nothing from perf.model or a device."""
    warm = _compiled()
    _model(warm, PHI_5110P)
    with model_overrides(MIC_SCALARIZED_ITEM_OVERHEAD=0.0):
        ablated_warm = _model(warm, PHI_5110P)
        ablated_cold = _model(_compiled(), PHI_5110P)
    assert ablated_warm == ablated_cold
    assert _model(warm, PHI_5110P) != ablated_warm


def test_facts_die_with_their_kernel():
    result = _compiled()
    _model(result)
    refs = [weakref.ref(kernel) for kernel in result.kernels]
    del result
    gc.collect()
    assert all(ref() is None for ref in refs)


def test_sequential_and_elided_kernels_keep_their_profiles():
    """The sequential (whole-body) and host-fallback programs are the
    ones the launch reads."""
    base = _compiled(stage="base")
    assert all(kernel.sequential for kernel in base.kernels)
    first = _model(base)
    assert _model(base) == first
    bfs = compile_stage(get_benchmark("bfs").module(), "pgi", "cuda")
    elided = [kernel for kernel in bfs.kernels if kernel.elided]
    assert elided, "PGI runs a BFS kernel on the host"
    accelerator = Accelerator(K40)
    for kernel in elided:
        accelerator.declare(**{p.name: 1 << 20
                               for p in kernel.ir.array_params})
        record = accelerator.launch(kernel, num_nodes=4096, _default_trip=6)
        assert record.device == "host" and record.seconds > 0
