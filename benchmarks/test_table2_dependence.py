"""Bench: regenerate Table II: the dependency in loops.

Runs the full simulated pipeline behind the paper's Table II and checks
every qualitative claim recorded from the paper text (see EXPERIMENTS.md).
The benchmark time is the cost of regenerating the whole artifact
cold, on a fresh compile service.
"""

from repro.experiments import ALL_EXPERIMENTS
from repro.service import CompileService


def test_table2_dependence(benchmark):
    result = benchmark.pedantic(
        ALL_EXPERIMENTS["table2"], args=(CompileService(),),
        rounds=1, iterations=1, warmup_rounds=0,
    )
    failed = result.failed_claims()
    assert not failed, "\n".join(str(claim) for claim in failed)
