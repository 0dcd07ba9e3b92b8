"""Pass-pipeline determinism (ISSUE 7, satellite 3).

The declarative pipelines must produce byte-identical artifacts however
the surrounding service schedules them:

* ``jobs=1`` vs ``jobs=4`` — worker count must not leak into artifacts
  (pass options and telemetry state are per-request, never shared);
* under injected transient faults with retries — a request that fails
  and is re-run must compile to exactly what an undisturbed run yields.

"Byte-identical" is checked on :func:`repro.server.artifact_signature`,
the same canonical rendering the golden-fingerprint suite hashes — it
covers PTX listings, messages, schedules, and codelets.
"""

from __future__ import annotations

from repro.faults.plan import parse_fault_spec
from repro.server import artifact_signature, fig4_requests
from repro.service import CompileService, JobError, SimClock


def _signatures(service: CompileService) -> list[str]:
    requests = fig4_requests()
    out = []
    for request, slot in zip(requests, service.sweep(requests)):
        assert not isinstance(slot, JobError), (
            f"{request.label}: {slot}"
        )
        out.append(artifact_signature(slot))
    return out


def test_parallel_sweep_is_deterministic():
    sequential = _signatures(CompileService(jobs=1))
    parallel = _signatures(CompileService(jobs=4))
    assert sequential == parallel


def test_faulted_sweep_with_retries_is_deterministic():
    baseline = _signatures(CompileService(jobs=1))
    faulted = _signatures(
        CompileService(
            jobs=4,
            fault_plan=parse_fault_spec("transient:p=0.3,seed=11"),
            retries=3,
            clock=SimClock(),
        )
    )
    assert baseline == faulted
