"""Bench: ablate the KNC scalarization cliff.

Shows Fig. 15's MIC gain depends on the per-work-item dispatch cliff.
"""

from repro.experiments import ALL_EXPERIMENTS
from repro.service import CompileService


def test_ablation_mic_scalarization(benchmark):
    result = benchmark.pedantic(
        ALL_EXPERIMENTS["ablation_mic_scalarization"], args=(CompileService(),),
        rounds=1, iterations=1, warmup_rounds=0,
    )
    failed = result.failed_claims()
    assert not failed, "\n".join(str(claim) for claim in failed)
