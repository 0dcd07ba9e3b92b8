"""Bench: ablate the 2014-era PCIe link.

Shows Fig. 10's PGI-beats-CAPS inversion is transfer-bound.
"""

from repro.experiments import ALL_EXPERIMENTS
from repro.service import CompileService


def test_ablation_pcie_bandwidth(benchmark):
    result = benchmark.pedantic(
        ALL_EXPERIMENTS["ablation_pcie_bandwidth"], args=(CompileService(),),
        rounds=1, iterations=1, warmup_rounds=0,
    )
    failed = result.failed_claims()
    assert not failed, "\n".join(str(claim) for claim in failed)
