"""repro.faults — deterministic fault injection for the service layer.

The paper's central finding is that performance portability dies on
compiler fragility (CAPS 3.4.1's bug list, silently wrong codegen,
target-specific refusals).  This package injects exactly that fragility
into the simulated tool-chain — seeded, counter-hashed, byte-for-byte
reproducible — so the compile service's resilience machinery (retry
with backoff, see :mod:`repro.service.resilience`, and flaky-cache
absorption) has something real to survive.

:mod:`.plan` holds :class:`FaultPlan`: seeded fault decisions keyed on
(site, fingerprint, attempt) via SHA-256 counter hashing, and the
``--faults`` spec grammar (:func:`parse_fault_spec`).  The compile
service reads its plan before each compile attempt and each cache
access; the compiler models themselves stay pure.

See ``docs/FAULTS.md`` for the architecture and the determinism
contract.
"""

from .plan import (
    FaultPlan,
    FaultRule,
    FaultSpecError,
    InjectedFault,
    PersistentCompileFault,
    TransientCompileFault,
    is_injected_fault,
    is_transient,
    parse_fault_spec,
)

__all__ = [
    "FaultPlan",
    "FaultRule",
    "FaultSpecError",
    "InjectedFault",
    "PersistentCompileFault",
    "TransientCompileFault",
    "is_injected_fault",
    "is_transient",
    "parse_fault_spec",
]
