"""Content-addressed artifact caches: two-tier, and hash-prefix sharded.

Tier 1 is an in-process LRU bounded by ``max_entries``; tier 2 is an
optional on-disk store (one pickle per fingerprint under ``cache_dir``)
that survives the process and is shared between runs — the warm-sweep
path of the Fig. 4 heat maps and the auto-tuner.

Both tiers hold an entry as the same pickle bytes, which ``put``
produces once.  The cache must be an *invisible* optimization, and
unpickling is the copy: ``get`` returns a fresh object, so no two
callers ever alias one, and a hit is observationally identical to a
fresh compile (byte-identical PTX, identical instruction counters).
``peek`` hands out the stored :class:`Stored` entry, bytes untouched,
for the daemon's wire.  Failures are cacheable too (the compiler models
are deterministic): the scheduler stores a :class:`CachedRefusal`,
flagged ``refused`` so a hit tells it apart without unpickling.

All operations are thread-safe (the scheduler's worker pool and the
``repro serve`` daemon's connection handlers share one cache).  The lock
guards only *index* mutation — never pickling or file I/O: a
multi-megabyte pickle landing on a slow disk must not stall every other
client's lookups.  Disk publishes are atomic (``os.replace``), so
lock-free readers never observe a partial entry.

Two implementations share the contract:

* :class:`ArtifactCache` — one LRU + one flat directory; the in-process
  default.
* :class:`ShardedArtifactCache` — N independent shards selected by the
  fingerprint's hash prefix, each with its own lock, LRU slice, and
  ``cache_dir/<prefix>/`` subdirectory.  Concurrent clients touching
  different fingerprints contend on nothing; the ``repro serve`` daemon
  default.

Both accept ``peer_dirs``: read-only sibling stores (another daemon's
cache directory, a shared warm seed) consulted on a local disk miss and
copied through on a hit — the read-through peer mode of docs/SERVER.md.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, NamedTuple

#: returned by :meth:`ArtifactCache.get` on a miss (``None`` is a valid
#: cached value in principle, so a dedicated sentinel keeps it unambiguous)
MISS = object()

#: shard prefixes are the first ``_PREFIX_LEN`` hex chars of the
#: fingerprint (fingerprints are SHA-256 hex digests)
_PREFIX_LEN = 2


@dataclass
class CachedRefusal:
    """A deterministic compile failure, stored so warm sweeps replay it
    without recompiling (injected faults are plan state, never cached)."""

    error: Exception


class Stored(NamedTuple):
    """One entry: the artifact's pickle bytes and its refusal flag."""

    blob: bytes
    refused: bool


def _read_stored(path: Path) -> Stored:
    """The entry at *path*, unpickled once to validate (raises if not)."""
    blob = path.read_bytes()
    return Stored(blob, isinstance(pickle.loads(blob), CachedRefusal))


class CacheDirError(NotADirectoryError):
    """A cache directory that cannot be used: the path is occupied by a
    file, cannot be created, or is not writable.  Raised *eagerly* at
    cache construction so a CLI ``--cache-dir`` mistake is one clear
    usage error (exit 2), not a traceback mid-sweep."""


def ensure_writable_dir(path: str | os.PathLike[str]) -> Path:
    """Create *path* (and parents) and prove it is a writable directory.

    The probe actually creates and removes a file: permission bits are
    not trustworthy (root ignores them; network mounts lie), so the only
    honest check is the write itself.
    """
    directory = Path(path)
    try:
        directory.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError):
        raise CacheDirError(
            f"cache dir {directory} exists and is not a directory"
        ) from None
    except OSError as exc:
        raise CacheDirError(f"cannot create cache dir {directory}: {exc}") \
            from None
    probe = directory / f".probe.{os.getpid()}.{threading.get_ident()}"
    try:
        probe.touch()
        probe.unlink()
    except OSError as exc:
        raise CacheDirError(
            f"cache dir {directory} is not writable: {exc}"
        ) from None
    return directory


def shard_prefix(fingerprint: str) -> str:
    """The hash-prefix shard key of a fingerprint.

    Fingerprints are SHA-256 hex digests, so the first two characters
    *are* a uniform hash prefix; any other key (tests, ad-hoc callers)
    is first hashed to keep the distribution uniform.
    """
    prefix = fingerprint[:_PREFIX_LEN].lower()
    if len(prefix) == _PREFIX_LEN and all(c in "0123456789abcdef"
                                          for c in prefix):
        return prefix
    return hashlib.sha256(fingerprint.encode("utf-8")).hexdigest()[:_PREFIX_LEN]


@dataclass
class CacheStats:
    """Hit/miss/eviction counters for one cache instance."""

    memory_hits: int = 0
    disk_hits: int = 0
    #: read-through hits served from a peer directory (and copied into
    #: the local disk tier)
    peer_hits: int = 0
    misses: int = 0
    evictions: int = 0
    stores: int = 0
    disk_stores: int = 0
    #: ``put`` calls for a fingerprint that was already stored — e.g. a
    #: timed-out worker's discarded result landing after a retry already
    #: published the artifact.  Skipped, never re-written.
    redundant_stores: int = 0

    @property
    def hits(self) -> int:
        return self.memory_hits + self.disk_hits + self.peer_hits

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.requests if self.requests else 0.0

    def snapshot(self) -> dict[str, int | float]:
        return {
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "peer_hits": self.peer_hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "stores": self.stores,
            "disk_stores": self.disk_stores,
            "redundant_stores": self.redundant_stores,
            "hit_rate": self.hit_rate,
        }

    def add(self, other: "CacheStats") -> None:
        """Accumulate *other*'s counters (shard aggregation)."""
        self.memory_hits += other.memory_hits
        self.disk_hits += other.disk_hits
        self.peer_hits += other.peer_hits
        self.misses += other.misses
        self.evictions += other.evictions
        self.stores += other.stores
        self.disk_stores += other.disk_stores
        self.redundant_stores += other.redundant_stores

    def publish(self, registry, prefix: str = "cache") -> None:
        """Publish the tier counters into a
        :class:`repro.telemetry.MetricsRegistry` (gauges: idempotent)."""
        for name, value in self.snapshot().items():
            registry.gauge(f"{prefix}.{name}").set(float(value))


@dataclass
class ArtifactCache:
    """LRU memory tier + optional disk tier, both holding pickle bytes."""

    max_entries: int = 512
    cache_dir: str | os.PathLike[str] | None = None
    #: read-only sibling stores consulted on a local disk miss; a hit is
    #: copied through into the local tiers (never written back)
    peer_dirs: tuple[str | os.PathLike[str], ...] = ()
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        if self.max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self._lock = threading.RLock()
        self._entries: OrderedDict[str, Stored] = OrderedDict()
        if self.cache_dir is not None:
            self.cache_dir = ensure_writable_dir(self.cache_dir)
        self.peer_dirs = tuple(Path(p) for p in self.peer_dirs)

    # -- lookup ---------------------------------------------------------------

    def get(self, fingerprint: str) -> Any:
        """A fresh unpickled copy of the stored artifact, or :data:`MISS`."""
        stored = self.peek(fingerprint)
        if stored is MISS:
            with self._lock:
                self.stats.misses += 1
            return MISS
        return pickle.loads(stored.blob)

    def peek(self, fingerprint: str) -> Stored | Any:
        """The :class:`Stored` entry itself, bytes untouched (the daemon
        forwards them onto the wire), or :data:`MISS`.  A hit counts
        like :meth:`get`; a miss is not counted, because the caller's
        fallback (a compile through :meth:`get`) counts it."""
        with self._lock:
            stored = self._entries.get(fingerprint)
            if stored is not None:
                self._entries.move_to_end(fingerprint)
                self.stats.memory_hits += 1
                return stored
        # the slow tiers run unlocked: unpickling a large artifact (or a
        # peer NFS read) must not stall other fingerprints' lookups
        stored = self._disk_load(fingerprint)
        if stored is not MISS:
            with self._lock:
                self.stats.disk_hits += 1
                self._install(fingerprint, stored)
            return stored
        stored = self._peer_load(fingerprint)
        if stored is not MISS:
            self._disk_write(fingerprint, stored.blob, count=False)
            with self._lock:
                self.stats.peer_hits += 1
                self._install(fingerprint, stored)
        return stored

    def __contains__(self, fingerprint: str) -> bool:
        with self._lock:
            if fingerprint in self._entries:
                return True
        disk = self._disk_path(fingerprint)
        if disk is not None and disk.exists():
            return True
        return any(path.exists() for path in self._peer_paths(fingerprint))

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # -- store ----------------------------------------------------------------

    def put(self, fingerprint: str, artifact: Any) -> None:
        """Pickle *artifact* once and store the bytes in both tiers; an
        unpicklable artifact raises ``PicklingError`` naming *fingerprint*.

        Idempotent per fingerprint: a second ``put`` for a stored key is
        a counted no-op (``stats.redundant_stores``).  The compilers are
        content-addressed pure functions, so a repeat store can only be
        a *discarded duplicate* — a timed-out worker finishing after its
        result was abandoned — and must not double-count stores or
        re-write the disk tier.
        """
        try:
            blob = pickle.dumps(artifact, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            raise pickle.PicklingError(
                f"artifact {fingerprint} cannot be pickled: {exc}") from exc
        with self._lock:
            if fingerprint in self._entries:
                self.stats.redundant_stores += 1
                return
            self.stats.stores += 1
            self._install(fingerprint,
                          Stored(blob, isinstance(artifact, CachedRefusal)))
        disk = self._disk_path(fingerprint)
        if disk is None:
            return
        if disk.exists():
            with self._lock:
                self.stats.redundant_stores += 1
            return
        self._disk_write(fingerprint, blob)

    def clear(self, memory_only: bool = True) -> None:
        """Drop the memory tier (and the disk tier if asked)."""
        with self._lock:
            self._entries.clear()
        if not memory_only and self.cache_dir is not None:
            for path in Path(self.cache_dir).glob("*.pkl"):
                path.unlink(missing_ok=True)

    # -- internals -------------------------------------------------------------

    def _install(self, fingerprint: str, stored: Stored) -> None:
        self._entries[fingerprint] = stored
        self._entries.move_to_end(fingerprint)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    def _disk_path(self, fingerprint: str) -> Path | None:
        if self.cache_dir is None:
            return None
        return Path(self.cache_dir) / f"{fingerprint}.pkl"

    def _peer_paths(self, fingerprint: str) -> Iterable[Path]:
        for peer in self.peer_dirs:
            yield Path(peer) / f"{fingerprint}.pkl"

    def _disk_load(self, fingerprint: str) -> Stored | Any:
        path = self._disk_path(fingerprint)
        if path is None or not path.exists():
            return MISS
        try:
            return _read_stored(path)
        except Exception:
            # a truncated/corrupt entry is a miss, not an error;
            # drop it so the fresh artifact replaces it
            path.unlink(missing_ok=True)
            return MISS

    def _peer_load(self, fingerprint: str) -> Stored | Any:
        for path in self._peer_paths(fingerprint):
            if not path.exists():
                continue
            try:
                return _read_stored(path)
            except Exception:
                continue  # peers are read-only: never delete their entries
        return MISS

    def _disk_write(self, fingerprint: str, blob: bytes,
                    count: bool = True) -> None:
        path = self._disk_path(fingerprint)
        if path is None:
            return
        tmp = path.with_suffix(f".tmp.{os.getpid()}.{threading.get_ident()}")
        try:
            tmp.write_bytes(blob)
            os.replace(tmp, path)  # atomic publish: readers never see partial
            if count:
                with self._lock:
                    self.stats.disk_stores += 1
        except Exception:
            tmp.unlink(missing_ok=True)  # disk tier is best-effort


class ShardedArtifactCache:
    """N independent :class:`ArtifactCache` shards keyed by fingerprint
    hash prefix.

    Each shard owns its own lock, its own LRU slice
    (``max_entries / shards``, at least 1), and — with a ``cache_dir`` —
    its own ``cache_dir/<prefix>/`` subdirectory, so two clients hitting
    different fingerprints never touch the same lock and never serialize
    on each other's disk I/O.  Peer directories are expected to use the
    same sharded layout (i.e. to be another instance's ``cache_dir``).
    """

    def __init__(
        self,
        shards: int = 16,
        max_entries: int = 512,
        cache_dir: str | os.PathLike[str] | None = None,
        peer_dirs: tuple[str | os.PathLike[str], ...] = (),
    ) -> None:
        if shards < 1:
            raise ValueError("shards must be >= 1")
        self.shards = shards
        self.cache_dir = (
            ensure_writable_dir(cache_dir) if cache_dir is not None else None
        )
        self.peer_dirs = tuple(Path(p) for p in peer_dirs)
        per_shard = max(1, (max_entries + shards - 1) // shards)
        self._shards: list[ArtifactCache] = []
        for index in range(shards):
            self._shards.append(
                ArtifactCache(
                    max_entries=per_shard,
                    cache_dir=self._bucket_dir(self.cache_dir, index),
                    peer_dirs=tuple(
                        p for p in (self._bucket_dir(peer, index)
                                    for peer in self.peer_dirs)
                        if p is not None
                    ),
                )
            )

    def _bucket_dir(self, root: Path | None, index: int) -> Path | None:
        if root is None:
            return None
        return Path(root) / f"shard-{index:02x}"

    def shard_for(self, fingerprint: str) -> ArtifactCache:
        """The shard owning *fingerprint* (hash-prefix selection)."""
        return self._shards[int(shard_prefix(fingerprint), 16) % self.shards]

    # -- the ArtifactCache contract --------------------------------------------

    def get(self, fingerprint: str) -> Any:
        return self.shard_for(fingerprint).get(fingerprint)

    def peek(self, fingerprint: str) -> Stored | Any:
        return self.shard_for(fingerprint).peek(fingerprint)

    def put(self, fingerprint: str, artifact: Any) -> None:
        self.shard_for(fingerprint).put(fingerprint, artifact)

    def __contains__(self, fingerprint: str) -> bool:
        return fingerprint in self.shard_for(fingerprint)

    def __len__(self) -> int:
        return sum(len(shard) for shard in self._shards)

    def clear(self, memory_only: bool = True) -> None:
        for shard in self._shards:
            shard.clear(memory_only=memory_only)

    @property
    def stats(self) -> CacheStats:
        """Aggregated counters across every shard (a fresh snapshot
        object: mutating it does not touch any shard)."""
        merged = CacheStats()
        for shard in self._shards:
            merged.add(shard.stats)
        return merged

    def shard_snapshot(self) -> list[dict[str, int | float]]:
        """Per-shard counter snapshots (the server's stats endpoint)."""
        return [shard.stats.snapshot() for shard in self._shards]
