"""Every regenerated table and figure must reproduce its paper claims."""

import pytest

from repro.experiments import ALL_EXPERIMENTS


@pytest.mark.parametrize("name", sorted(ALL_EXPERIMENTS))
def test_experiment_claims_hold(name):
    result = ALL_EXPERIMENTS[name]()
    failed = result.failed_claims()
    assert not failed, "\n".join(str(c) for c in failed)


def test_reports_render():
    result = ALL_EXPERIMENTS["table2"]()
    text = result.report()
    assert "Table II" in text and "[PASS]" in text


def test_futurework_autotune_compiles_through_the_default_service():
    """The tuners revisit (gang, worker) points: every evaluation goes
    through the shared default service, so each distinct module compiles
    once (61 of them) and every revisit is a cache hit."""
    from repro.service import CompileService, set_default_service

    service = CompileService()
    previous = set_default_service(service)
    try:
        result = ALL_EXPERIMENTS["futurework_autotune"]()
    finally:
        set_default_service(previous)
    assert not result.failed_claims()
    assert service.metrics.compiles == 61
    assert service.metrics.cache_hits > 0
