"""Bench: auto-tuning vs the hand method.

Implements the auto-tuning approach the paper contrasts against.
"""

from repro.experiments import ALL_EXPERIMENTS
from repro.service import CompileService


def test_futurework_autotune(benchmark):
    result = benchmark.pedantic(
        ALL_EXPERIMENTS["futurework_autotune"], args=(CompileService(),),
        rounds=1, iterations=1, warmup_rounds=0,
    )
    failed = result.failed_claims()
    assert not failed, "\n".join(str(claim) for claim in failed)
