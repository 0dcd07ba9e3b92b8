"""Bench: ablate the GPU single-lane issue floor.

Shows Fig. 3's serial-baseline gap depends on the in-order-lane model.
"""

from repro.experiments import ALL_EXPERIMENTS
from repro.service import CompileService


def test_ablation_gpu_serial_floor(benchmark):
    result = benchmark.pedantic(
        ALL_EXPERIMENTS["ablation_gpu_serial_floor"], args=(CompileService(),),
        rounds=1, iterations=1, warmup_rounds=0,
    )
    failed = result.failed_claims()
    assert not failed, "\n".join(str(claim) for claim in failed)
