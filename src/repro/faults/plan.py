"""Deterministic, seeded fault plans for the compile-service boundary.

The paper's portability story is dominated by *compiler fragility*: CAPS
3.4.1 shipped with a documented bug list, silently wrong codegen, and
target-specific refusals (PAPER.md sections III-IV), and modern OpenACC
compiler-validation studies find the same flakiness.  The simulated
compiler models, by contrast, never crash — so the service layer's
resilience (retry, breakers, per-job timeouts) would be untestable
without *injected* failures.

``FaultPlan`` is that injector, built on one rule: **no global random
state**.  Every decision is a pure function of the plan seed, an
injection *site* (``compile``, ``compile.slow``, ``cache.read``,
``cache.write``, ``compile.persistent``), the request **fingerprint**,
and an **attempt counter** — a counter-based SHA-256 hash, exactly like
the service's content addresses.  Two sweeps with the same seed and the
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
``slow``
    a compile attempt is inflated by ``s`` seconds with probability *p*
    (modeled latency — stragglers for the per-job timeout).
``cache-read`` / ``cache-write`` (or ``cache`` for both)
    an :class:`~repro.service.cache.ArtifactCache` access raises a
    flaky I/O error, keyed on the per-fingerprint access counter.
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
    "FlakyIOError",
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

    def __init__(self, message: str, site: str = "", fingerprint: str = "",
                 attempt: int = 0) -> None:
        super().__init__(message)
        self.site = site
        self.fingerprint = fingerprint
        self.attempt = attempt


class TransientCompileFault(InjectedFault):
    """A one-attempt compiler crash (heals on retry by definition of the
    hash: the next attempt is a fresh draw)."""

    transient = True


class PersistentCompileFault(InjectedFault):
    """A per-fingerprint failure that every attempt replays — the CAPS
    bug-list model.  Not retryable; the breaker's food."""

    transient = False


class FlakyIOError(InjectedFault, OSError):
    """An injected ArtifactCache read/write failure (transient: the
    service degrades the access to a miss / skipped store)."""

    transient = True


def is_injected_fault(exc: BaseException) -> bool:
    return isinstance(exc, InjectedFault)


def is_transient(exc: BaseException) -> bool:
    """True for errors the retry policy may heal (injected transients
    and anything else flagging itself with a truthy ``transient``)."""
    return bool(getattr(exc, "transient", False))


_KINDS = ("transient", "persistent", "slow", "cache", "cache-read",
          "cache-write")


@dataclass(frozen=True)
class FaultRule:
    """One clause of a fault plan: a kind, a probability, parameters."""

    kind: str
    probability: float
    #: modeled latency added by a firing ``slow`` rule
    seconds: float = 0.05

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise FaultSpecError(
                f"unknown fault kind {self.kind!r}; choose from {_KINDS}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise FaultSpecError(
                f"fault probability must be in [0, 1], got {self.probability}"
            )
        if self.seconds < 0:
            raise FaultSpecError("slow-fault seconds must be >= 0")


def _hash01(seed: int, site: str, key: str, attempt: int) -> float:
    """Uniform [0, 1) from a counter-based SHA-256 — the only source of
    "randomness" in the subsystem (no ``random`` module, no state)."""
    digest = hashlib.sha256(
        f"repro-fault-v1|{seed}|{site}|{key}|{attempt}".encode()
    ).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64)


@dataclass
class FaultPlan:
    """A seeded set of :class:`FaultRule` clauses plus the per-site
    access counters for cache faults.

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

    def rule(self, kind: str) -> FaultRule | None:
        for r in self.rules:
            if r.kind == kind:
                return r
        return None

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
                f"(plan seed {self.seed}, fp {fingerprint[:12]})",
                site="compile.persistent", fingerprint=fingerprint,
                attempt=attempt,
            )
        transient = self.rule("transient")
        if transient is not None and _hash01(
            self.seed, "compile", fingerprint, attempt
        ) < transient.probability:
            return TransientCompileFault(
                f"injected transient compiler crash "
                f"(plan seed {self.seed}, attempt {attempt})",
                site="compile", fingerprint=fingerprint, attempt=attempt,
            )
        return None

    def slow_penalty_s(self, fingerprint: str, attempt: int) -> float:
        """Modeled extra latency for one compile attempt (0.0 = none)."""
        slow = self.rule("slow")
        if slow is not None and _hash01(
            self.seed, "compile.slow", fingerprint, attempt
        ) < slow.probability:
            return slow.seconds
        return 0.0

    def cache_fault(self, op: str, fingerprint: str) -> FlakyIOError | None:
        """The injected I/O error (if any) for one cache access.

        ``op`` is ``"read"`` or ``"write"``; the attempt dimension is a
        per-``(op, fingerprint)`` access counter, so the *n*-th read of a
        fingerprint flakes identically whatever order sweeps interleave.
        """
        rule = self.rule(f"cache-{op}") or self.rule("cache")
        if rule is None:
            return None
        counter_key = f"{op}|{fingerprint}"
        with self._lock:
            access = self._counters.get(counter_key, 0)
            self._counters[counter_key] = access + 1
        if _hash01(self.seed, f"cache.{op}", fingerprint,
                   access) < rule.probability:
            return FlakyIOError(
                f"injected flaky cache {op} (access {access})",
                site=f"cache.{op}", fingerprint=fingerprint, attempt=access,
            )
        return None

    # -- views -----------------------------------------------------------------

    def reset_counters(self) -> None:
        """Zero the cache-access counters (a fresh run of the same
        workload replays identical cache faults)."""
        with self._lock:
            self._counters.clear()

    def describe(self) -> str:
        clauses = ",".join(
            f"{r.kind}:p={r.probability:g}"
            + (f",s={r.seconds:g}" if r.kind == "slow" else "")
            for r in self.rules
        )
        return f"seed={self.seed} {clauses or '<empty>'}"


def parse_fault_spec(spec: str) -> FaultPlan:
    """Parse a ``--faults`` spec into a :class:`FaultPlan`.

    Grammar: semicolon-separated clauses, each
    ``kind:key=value[,key=value...]``::

        transient:p=0.3,seed=7
        transient:p=0.2;slow:p=0.1,s=0.05;cache:p=0.05
        persistent:p=0.02;transient:p=0.25

    Keys: ``p`` (probability, required), ``s``/``seconds`` (slow-fault
    modeled latency), ``seed`` (plan seed; may appear in any clause,
    last one wins, default 0).
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
                params[key.strip().lower()] = value.strip()
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
        seconds = 0.05
        if "s" in params or "seconds" in params:
            try:
                seconds = float(params.pop("s", params.pop("seconds", "")))
            except ValueError as exc:
                raise FaultSpecError(f"bad seconds in {clause!r}") from exc
            params.pop("seconds", None)
        if params:
            raise FaultSpecError(
                f"unknown fault parameter(s) {sorted(params)} in {clause!r}"
            )
        rules.append(FaultRule(kind, probability, seconds))
    if not rules:
        raise FaultSpecError(f"no fault clauses in {spec!r}")
    return FaultPlan(seed=seed, rules=tuple(rules))
