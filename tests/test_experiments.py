"""Every regenerated table and figure must reproduce its paper claims."""

import pytest

from repro.experiments import ALL_EXPERIMENTS, run_all
from repro.service import CompileService


@pytest.fixture(scope="module")
def service():
    """One service for the module: later figures reuse earlier figures'
    artifacts, as under ``run_all``."""
    with CompileService() as shared:
        yield shared


@pytest.fixture(scope="module")
def results(service):
    return run_all(service)


@pytest.mark.parametrize("name", sorted(ALL_EXPERIMENTS))
def test_experiment_claims_hold(name, results):
    failed = results[name].failed_claims()
    assert not failed, "\n".join(str(c) for c in failed)


def test_reports_render(results):
    text = results["table2"].report()
    assert "Table II" in text and "[PASS]" in text


def test_run_all_compiles_only_through_its_service(service, results):
    """A second ``run_all`` on the same service compiles nothing and
    reports the same text; a fresh service compiles again, so no cache
    is shared behind the service's back."""
    compiles = service.metrics.compiles
    assert compiles > 0
    second = run_all(service)
    assert service.metrics.compiles == compiles
    assert ([r.report() for r in results.values()]
            == [r.report() for r in second.values()])
    with CompileService() as fresh:
        ALL_EXPERIMENTS["fig6"](fresh)
        assert fresh.metrics.compiles == 7


def test_futurework_autotune_compiles_through_the_given_service():
    """The tuners revisit (gang, worker) points: every evaluation goes
    through the given service, so each distinct module compiles once
    (61 of them) and every revisit is a cache hit."""
    with CompileService() as service:
        result = ALL_EXPERIMENTS["futurework_autotune"](service)
    assert not result.failed_claims()
    assert service.metrics.compiles == 61
    assert service.metrics.cache_hits > 0
