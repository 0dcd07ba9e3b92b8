"""Deterministic, seeded fault plans for the compile-service boundary.

The paper's portability story is dominated by *compiler fragility*: CAPS
3.4.1 shipped with a documented bug list, silently wrong codegen, and
target-specific refusals (PAPER.md sections III-IV), and modern OpenACC
compiler-validation studies find the same flakiness.  The simulated
compiler models, by contrast, never crash — so the service layer's
resilience (retry and flaky-cache absorption) would be untestable
without *injected* failures.

``FaultPlan`` is that injector, built on one rule: **no global random
state**.  Every decision is a pure function of the plan seed, an
injection *site* (``compile``, ``compile.persistent``, ``cache.read``,
``cache.write``), the request **fingerprint**, and an **attempt
counter** — a counter-based SHA-256 hash, exactly like the service's
content addresses.  Two sweeps with the same seed and the
same fingerprints see the same faults in the same places, regardless of
thread interleaving, ``--jobs``, warm caches, or reruns — which is what
lets the determinism contract ("same seed + same fault plan => byte
identical results") be test-enforced.

Fault kinds (see :func:`parse_fault_spec` for the CLI grammar):

``transient``
    a compile attempt crashes with probability *p*, independently per
    ``(fingerprint, attempt)`` — the retryable kind; a retry is a fresh
    attempt with a fresh hash draw.
``persistent``
    a *fingerprint* is broken with probability *p* — every attempt
    fails, modeling the CAPS bug list (a kernel the compiler cannot
    build today will not build on retry either).
``cache-read`` / ``cache-write`` (or ``cache`` for both)
    an :class:`~repro.service.cache.ArtifactCache` access flakes, keyed
    on the per-fingerprint access counter: the service reads a flaky
    read as a miss and a flaky write as a skipped store.

The :class:`~repro.service.CompileService` asks its plan directly:
:meth:`FaultPlan.compile_fault` before each compile attempt and
:meth:`FaultPlan.cache_fault` before each cache access.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass, field

__all__ = [
    "FaultSpecError",
    "InjectedFault",
    "TransientCompileFault",
    "PersistentCompileFault",
    "FaultRule",
    "FaultPlan",
    "parse_fault_spec",
    "is_injected_fault",
    "is_transient",
]


class FaultSpecError(ValueError):
    """A ``--faults`` spec string that does not parse."""


class InjectedFault(Exception):
    """Base class of every injected failure.

    ``transient`` is the retry contract: the service retries transient
    faults (a fresh attempt re-draws the hash) and treats non-transient
    ones as deterministic compiler behaviour.  Injected faults are never
    written to the artifact cache — they belong to a *plan*, not to the
    fingerprinted request, and a different plan must not replay them.
    """

    transient: bool = False


class TransientCompileFault(InjectedFault):
    """A one-attempt compiler crash (heals on retry by definition of the
    hash: the next attempt is a fresh draw)."""

    transient = True


class PersistentCompileFault(InjectedFault):
    """A per-fingerprint failure that every attempt replays — the CAPS
    bug-list model.  Not retryable: its sweep slot is a ``JobError``."""

    transient = False


def is_injected_fault(exc: BaseException) -> bool:
    return isinstance(exc, InjectedFault)


def is_transient(exc: BaseException) -> bool:
    """True for errors a retry may heal (injected transients
    and anything else flagging itself with a truthy ``transient``)."""
    return bool(getattr(exc, "transient", False))


_KINDS = ("transient", "persistent", "cache", "cache-read", "cache-write")


@dataclass(frozen=True)
class FaultRule:
    """One clause of a fault plan: a kind and a probability."""

    kind: str
    probability: float

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise FaultSpecError(
                f"unknown fault kind {self.kind!r}; choose from {_KINDS}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise FaultSpecError(
                f"fault probability must be in [0, 1], got {self.probability}"
            )


def _hash01(seed: int, site: str, key: str, attempt: int) -> float:
    """Uniform [0, 1) from a counter-based SHA-256 — the only source of
    "randomness" in the subsystem (no ``random`` module, no state)."""
    digest = hashlib.sha256(
        f"repro-fault-v1|{seed}|{site}|{key}|{attempt}".encode()
    ).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64)


@dataclass
class FaultPlan:
    """A seeded set of :class:`FaultRule` clauses, at most one per kind,
    plus the per-site access counters for cache faults.

    The only mutable state is the cache-access counter map (how many
    times each fingerprint has been read/written), which is itself
    deterministic for a deterministic workload — counters are keyed
    per fingerprint, so thread interleaving across *different* requests
    cannot perturb them.
    """

    seed: int = 0
    rules: tuple[FaultRule, ...] = ()
    _counters: dict[str, int] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        self._lock = threading.Lock()
        self._by_kind: dict[str, FaultRule] = {}
        for r in self.rules:
            if r.kind in self._by_kind:
                raise FaultSpecError(f"fault kind {r.kind!r} given twice")
            self._by_kind[r.kind] = r

    def rule(self, kind: str) -> FaultRule | None:
        return self._by_kind.get(kind)

    # -- decisions -------------------------------------------------------------

    def compile_fault(self, fingerprint: str,
                      attempt: int) -> InjectedFault | None:
        """The injected failure (if any) for one compile attempt.

        Persistent faults are keyed on the fingerprint alone, so every
        retry replays them; transients re-draw per attempt.
        """
        persistent = self.rule("persistent")
        if persistent is not None and _hash01(
            self.seed, "compile.persistent", fingerprint, 0
        ) < persistent.probability:
            return PersistentCompileFault(
                f"injected persistent compiler failure "
                f"(plan seed {self.seed}, fp {fingerprint[:12]})"
            )
        transient = self.rule("transient")
        if transient is not None and _hash01(
            self.seed, "compile", fingerprint, attempt
        ) < transient.probability:
            return TransientCompileFault(
                f"injected transient compiler crash "
                f"(plan seed {self.seed}, attempt {attempt})"
            )
        return None

    def cache_fault(self, op: str, fingerprint: str) -> bool:
        """Whether one cache access flakes.

        ``op`` is ``"read"`` or ``"write"``; the attempt dimension is a
        per-``(op, fingerprint)`` access counter, so the *n*-th read of a
        fingerprint flakes identically whatever order sweeps interleave.
        """
        rule = self.rule(f"cache-{op}") or self.rule("cache")
        if rule is None:
            return False
        counter_key = f"{op}|{fingerprint}"
        with self._lock:
            access = self._counters.get(counter_key, 0)
            self._counters[counter_key] = access + 1
        return _hash01(self.seed, f"cache.{op}", fingerprint,
                       access) < rule.probability

    # -- views -----------------------------------------------------------------

    def describe(self) -> str:
        clauses = ",".join(f"{r.kind}:p={r.probability:g}" for r in self.rules)
        return f"seed={self.seed} {clauses or '<empty>'}"


def parse_fault_spec(spec: str) -> FaultPlan:
    """Parse a ``--faults`` spec into a :class:`FaultPlan`.

    Grammar: semicolon-separated clauses, each
    ``kind:key=value[,key=value...]``::

        transient:p=0.3,seed=7
        transient:p=0.2;cache:p=0.05
        persistent:p=0.02;transient:p=0.25

    Keys: ``p`` (probability, required) and ``seed`` (plan seed; may
    appear in any clause, last one wins, default 0).  A kind given
    twice, or a key given twice in one clause, is a
    :class:`FaultSpecError`.
    """
    rules: list[FaultRule] = []
    seed = 0
    text = spec.strip()
    if not text:
        raise FaultSpecError("empty --faults spec")
    for clause in text.split(";"):
        clause = clause.strip()
        if not clause:
            continue
        kind, _, body = clause.partition(":")
        kind = kind.strip().lower()
        params: dict[str, str] = {}
        if body:
            for pair in body.split(","):
                key, eq, value = pair.partition("=")
                if not eq:
                    raise FaultSpecError(
                        f"bad fault parameter {pair!r} in {clause!r} "
                        "(expected key=value)"
                    )
                key = key.strip().lower()
                if key in params:
                    raise FaultSpecError(
                        f"fault parameter {key!r} given twice in {clause!r}"
                    )
                params[key] = value.strip()
        if "seed" in params:
            try:
                seed = int(params.pop("seed"))
            except ValueError as exc:
                raise FaultSpecError(f"bad seed in {clause!r}") from exc
        try:
            probability = float(params.pop("p"))
        except KeyError:
            raise FaultSpecError(
                f"fault clause {clause!r} needs p=<probability>"
            ) from None
        except ValueError as exc:
            raise FaultSpecError(f"bad probability in {clause!r}") from exc
        if params:
            raise FaultSpecError(
                f"unknown fault parameter(s) {sorted(params)} in {clause!r}"
            )
        rules.append(FaultRule(kind, probability))
    if not rules:
        raise FaultSpecError(f"no fault clauses in {spec!r}")
    return FaultPlan(seed=seed, rules=tuple(rules))
