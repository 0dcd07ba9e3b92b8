"""Bench: the paper's future work: data regions for BFS.

Implements section VII's proposed data-region optimization.
"""

from repro.experiments import ALL_EXPERIMENTS
from repro.service import CompileService


def test_futurework_data_regions(benchmark):
    result = benchmark.pedantic(
        ALL_EXPERIMENTS["futurework_data_regions"], args=(CompileService(),),
        rounds=1, iterations=1, warmup_rounds=0,
    )
    failed = result.failed_claims()
    assert not failed, "\n".join(str(claim) for claim in failed)
