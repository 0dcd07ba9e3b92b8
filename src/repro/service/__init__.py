"""repro.service — content-addressed compilation cache + sweep scheduler.

The paper's methodology is sweep-shaped: the Fig. 4 heat maps, the PPR
table, and the auto-tuner all push the *same* kernels through the same
compiler models at dozens of (compiler, flags, target, distribution)
points.  This package turns those repeated compiles into a service:

* :mod:`.fingerprint` — stable content addresses of compile requests;
* :mod:`.cache` — two-tier (LRU memory + optional on-disk) artifact cache;
* :mod:`.scheduler` — :class:`CompileService`: dedup, worker pool,
  deterministic batch results, structured per-point errors; its
  request/hit/latency counters live in a
  :class:`repro.telemetry.MetricsRegistry` and surface through
  :meth:`repro.runtime.profiler.Profiler.report`;
* :mod:`.resilience` — deterministic retry backoff and simulated
  clocks (pairs with :mod:`repro.faults`).

See ``docs/SERVICE.md`` for the architecture and ``docs/FAULTS.md``
for the fault-injection + resilience story.
"""

from .cache import (
    MISS,
    ArtifactCache,
    CacheDirError,
    ShardedArtifactCache,
    ensure_writable_dir,
    shard_prefix,
)
from .fingerprint import (
    COMPILER_VERSIONS,
    CompileRequest,
    canonical_flags,
    fingerprint_parts,
    fingerprint_request,
)
from .resilience import Clock, SimClock, SystemClock, backoff_s
from .scheduler import CompileService, JobError

__all__ = [
    "ArtifactCache",
    "COMPILER_VERSIONS",
    "CacheDirError",
    "ShardedArtifactCache",
    "ensure_writable_dir",
    "shard_prefix",
    "Clock",
    "CompileRequest",
    "CompileService",
    "JobError",
    "MISS",
    "SimClock",
    "SystemClock",
    "backoff_s",
    "canonical_flags",
    "fingerprint_parts",
    "fingerprint_request",
]
