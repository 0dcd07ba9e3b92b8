"""repro.faults — deterministic fault injection for the service layer.

The paper's central finding is that performance portability dies on
compiler fragility (CAPS 3.4.1's bug list, silently wrong codegen,
target-specific refusals).  This package injects exactly that fragility
into the simulated tool-chain — seeded, counter-hashed, byte-for-byte
reproducible — so the compile service's resilience machinery (retry
with backoff and circuit breakers; see
:mod:`repro.service.resilience`) has something real to survive:

* :mod:`.plan` — :class:`FaultPlan`: seeded fault decisions keyed on
  (site, fingerprint, attempt) via SHA-256 counter hashing; the
  ``--faults`` spec grammar (:func:`parse_fault_spec`);
* :mod:`.adapter` — :class:`FaultyCompilerAdapter` /
  :class:`FaultyCacheAdapter`: the injection seams at the compiler and
  cache boundaries (the compiler models themselves stay pure).

See ``docs/FAULTS.md`` for the architecture and the determinism
contract.
"""

from .adapter import FaultyCacheAdapter, FaultyCompilerAdapter
from .plan import (
    FaultPlan,
    FaultRule,
    FaultSpecError,
    FlakyIOError,
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
    "FaultyCacheAdapter",
    "FaultyCompilerAdapter",
    "FlakyIOError",
    "InjectedFault",
    "PersistentCompileFault",
    "TransientCompileFault",
    "is_injected_fault",
    "is_transient",
    "parse_fault_spec",
]
