"""Difftest under injected faults: transients fully healed by retries,
classification byte-identical to a fault-free run.

The fast 5-seed subset runs in tier 1; the full 25-seed CI corpus runs
under the ``slow`` marker (deselected by default ``-m 'not slow'``).
"""

import pytest

from repro.difftest import run_difftest
from repro.faults import parse_fault_spec
from repro.service import CompileService, SimClock

# seed 11 is verified (by running the pure hash over the corpus's
# fingerprints) to heal every point of the 25-seed corpus within 3
# retries at p=0.3 — the plan is deterministic, so this is a stable
# property of the seed, not luck
FAULT_SPEC = "transient:p=0.3,seed=11;cache:p=0.1"


def classification(report):
    """The full observable classification of a difftest report."""
    return [
        (
            case.seed,
            case.error,
            tuple(
                (pair.compiler, pair.target, pair.status,
                 tuple((k.kernel, k.status, k.mismatched) for k in pair.kernels))
                for pair in case.pairs
            ),
        )
        for case in report.cases
    ]


def faulted_service(retries=3):
    return CompileService(
        fault_plan=parse_fault_spec(FAULT_SPEC),
        retries=retries,
        clock=SimClock(),
    )


def run_corpus(seeds, service=None):
    return run_difftest(range(seeds), service=service)


def assert_healed(seeds):
    baseline = run_corpus(seeds)
    service = faulted_service()
    faulted = run_corpus(seeds, service=service)
    assert service.metrics.faults_injected > 0  # the plan actually fired
    assert service.metrics.retries > 0
    assert classification(faulted) == classification(baseline)
    assert "\n".join(faulted.summary_lines()) == "\n".join(
        baseline.summary_lines()
    )
    # fully healed: no job-error pairs anywhere
    assert not any(
        pair.status == "job-error"
        for case in faulted.cases
        for pair in case.pairs
    )


class TestDifftestUnderFaults:
    def test_fast_subset_heals_byte_identically(self):
        assert_healed(5)

    def test_without_retries_faults_surface(self):
        """The control experiment: the same plan with no retry policy
        must leave visible job errors (otherwise the healing test above
        would be vacuous)."""
        service = CompileService(
            fault_plan=parse_fault_spec(FAULT_SPEC), clock=SimClock()
        )
        report = run_corpus(5, service=service)
        assert any(
            pair.status == "job-error"
            for case in report.cases
            for pair in case.pairs
        )

    @pytest.mark.slow
    def test_full_corpus_heals_byte_identically(self):
        assert_healed(25)
