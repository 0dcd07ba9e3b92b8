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
client's lookups.  Disk publishes are atomic (a temp file renamed into
place), so lock-free readers never observe a partial entry.

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

Both tiers build on :class:`DiskTier`; :class:`SingleFlight` is the one
in-flight coalescer of the scheduler, the daemon's batcher and the
executor's compile memo.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import pickle
import threading
from collections import OrderedDict
from concurrent.futures import Future
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Hashable, NamedTuple

from ..telemetry.registry import CounterView, MetricsRegistry

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


def _decode_stored(blob: bytes) -> Stored:
    """*blob* as an entry, unpickled once to validate (raises if not)."""
    return Stored(blob, isinstance(pickle.loads(blob), CachedRefusal))


class Flight(Future):
    """One key's in-flight work: a future shared by every caller that
    joined it; ``waiters`` counts them, the leader included."""

    def __init__(self) -> None:
        super().__init__()
        self.waiters = 1


class SingleFlight:
    """Keyed single-flight: the first caller for a key leads, and every
    caller that joins before the leader settles shares its outcome.

    :meth:`join` returns ``(flight, leader)``; the leader does the work
    and settles the flight, and the others wait on it (it is a
    :class:`~concurrent.futures.Future`).  Settling unindexes the key
    *before* it resolves the waiters, so a caller arriving after the
    result starts a new flight (which the caller's cache answers)
    instead of joining a finished one; and it is identity-guarded, so a
    late settle never drops a newer flight for the same key.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._flights: dict[Hashable, Flight] = {}

    def join(self, key: Hashable) -> tuple[Flight, bool]:
        """The flight for *key* and whether this caller leads it."""
        with self._lock:
            flight = self._flights.get(key)
            if flight is not None:
                flight.waiters += 1
                return flight, False
            flight = self._flights[key] = Flight()
            return flight, True

    def settle(self, key: Hashable, flight: Flight, result: Any = None,
               error: BaseException | None = None) -> None:
        """Unindex *flight* (if it is still *key*'s), then resolve it
        with *error* when given, else with *result*."""
        with self._lock:
            if self._flights.get(key) is flight:
                del self._flights[key]
        if error is not None:
            flight.set_exception(error)
        else:
            flight.set_result(result)

    def clear(self) -> None:
        """Forget every flight; their leaders still settle their waiters."""
        with self._lock:
            self._flights.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._flights)


class DiskTier:
    """One directory of content-addressed files, ``<name>.pkl``.

    Writes are best-effort and atomic: a temp file renamed into place,
    so a reader never sees a partial entry and a full disk never fails
    the caller.  Reads validate through a caller-supplied *decode*: an
    entry that fails it is a miss, and a local one is unlinked so the
    fresh entry replaces it.  A ``read_only`` tier (a peer's directory)
    never deletes its entries.
    """

    SUFFIX = ".pkl"

    def __init__(self, directory: str | os.PathLike[str],
                 read_only: bool = False) -> None:
        self.directory = Path(directory)
        self.read_only = read_only

    def _path(self, name: str) -> Path:
        return self.directory / f"{name}{self.SUFFIX}"

    def __contains__(self, name: str) -> bool:
        return self._path(name).exists()

    def load(self, name: str, decode: Callable[[bytes], Any]) -> Any:
        """``decode`` of the entry's bytes, or :data:`MISS`."""
        path = self._path(name)
        try:
            return decode(path.read_bytes())
        except FileNotFoundError:
            return MISS
        except Exception:
            if not self.read_only:
                with contextlib.suppress(OSError):
                    path.unlink(missing_ok=True)
            return MISS

    def store(self, name: str, data: bytes) -> bool:
        """Publish *data* under *name*; False if the write failed."""
        path = self._path(name)
        tmp = path.with_suffix(f".tmp.{os.getpid()}.{threading.get_ident()}")
        try:
            tmp.write_bytes(data)
            os.replace(tmp, path)
        except OSError:
            with contextlib.suppress(OSError):
                tmp.unlink(missing_ok=True)
            return False
        return True

    def clear(self) -> None:
        for path in self.directory.glob(f"*{self.SUFFIX}"):
            with contextlib.suppress(OSError):
                path.unlink(missing_ok=True)


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


class CacheCounters(CounterView):
    """A cache's ``cache.*`` counters.  ``peer_hits`` are read-through
    hits from a peer directory; ``redundant_stores`` are skipped ``put``
    calls for an already-stored fingerprint (see :meth:`ArtifactCache.put`).
    """

    FIELDS = {name: f"cache.{name}" for name in (
        "memory_hits", "disk_hits", "peer_hits", "misses", "evictions",
        "stores", "disk_stores", "redundant_stores",
    )}

    @property
    def hit_rate(self) -> float:
        return self.snapshot()["hit_rate"]

    def snapshot(self) -> dict[str, int | float]:
        snap = super().snapshot()
        hits = snap["memory_hits"] + snap["disk_hits"] + snap["peer_hits"]
        requests = hits + snap["misses"]
        snap["hit_rate"] = hits / requests if requests else 0.0
        return snap


@dataclass
class ArtifactCache:
    """LRU memory tier + optional disk tier, both holding pickle bytes."""

    max_entries: int = 512
    cache_dir: str | os.PathLike[str] | None = None
    #: read-only sibling stores consulted on a local disk miss; a hit is
    #: copied through into the local tiers (never written back)
    peer_dirs: tuple[str | os.PathLike[str], ...] = ()
    #: where the ``cache.*`` counters live (:attr:`stats` reads them)
    registry: MetricsRegistry = field(default_factory=MetricsRegistry,
                                      repr=False)

    def __post_init__(self) -> None:
        if self.max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self._count = self.registry.counters("cache", CacheCounters.FIELDS)
        self._lock = threading.RLock()
        self._entries: OrderedDict[str, Stored] = OrderedDict()
        self._disk: DiskTier | None = None
        if self.cache_dir is not None:
            self.cache_dir = ensure_writable_dir(self.cache_dir)
            self._disk = DiskTier(self.cache_dir)
        self.peer_dirs = tuple(Path(p) for p in self.peer_dirs)
        self._peers = [DiskTier(p, read_only=True)
                       for p in self.peer_dirs]

    # -- lookup ---------------------------------------------------------------

    def get(self, fingerprint: str) -> Any:
        """A fresh unpickled copy of the stored artifact, or :data:`MISS`."""
        stored = self.peek(fingerprint)
        if stored is MISS:
            self._count["misses"].inc()
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
                self._count["memory_hits"].inc()
                return stored
        # the slow tiers run unlocked: unpickling a large artifact (or a
        # peer NFS read) must not stall other fingerprints' lookups
        if self._disk is not None:
            stored = self._disk.load(fingerprint, _decode_stored)
            if stored is not MISS:
                self._count["disk_hits"].inc()
                with self._lock:
                    self._install(fingerprint, stored)
                return stored
        for peer in self._peers:
            stored = peer.load(fingerprint, _decode_stored)
            if stored is not MISS:
                if self._disk is not None:
                    self._disk.store(fingerprint, stored.blob)
                self._count["peer_hits"].inc()
                with self._lock:
                    self._install(fingerprint, stored)
                return stored
        return MISS

    def __contains__(self, fingerprint: str) -> bool:
        with self._lock:
            if fingerprint in self._entries:
                return True
        if self._disk is not None and fingerprint in self._disk:
            return True
        return any(fingerprint in peer for peer in self._peers)

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
        a duplicate — two services over one store compiling the same
        request — and must not double-count stores or re-write the disk
        tier.
        """
        try:
            blob = pickle.dumps(artifact, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            raise pickle.PicklingError(
                f"artifact {fingerprint} cannot be pickled: {exc}") from exc
        with self._lock:
            redundant = fingerprint in self._entries
            if not redundant:
                self._install(fingerprint, Stored(
                    blob, isinstance(artifact, CachedRefusal)))
        if redundant:
            self._count["redundant_stores"].inc()
            return
        self._count["stores"].inc()
        if self._disk is None:
            return
        if fingerprint in self._disk:
            self._count["redundant_stores"].inc()
        elif self._disk.store(fingerprint, blob):
            self._count["disk_stores"].inc()

    def clear(self, memory_only: bool = True) -> None:
        """Drop the memory tier (and the disk tier if asked)."""
        with self._lock:
            self._entries.clear()
        if not memory_only and self._disk is not None:
            self._disk.clear()

    # -- internals -------------------------------------------------------------

    def _install(self, fingerprint: str, stored: Stored) -> None:
        self._entries[fingerprint] = stored
        self._entries.move_to_end(fingerprint)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self._count["evictions"].inc()

    @property
    def stats(self) -> CacheCounters:
        """The ``cache.*`` counters, read from :attr:`registry`."""
        return CacheCounters(self.registry)


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
        registry: MetricsRegistry | None = None,
    ) -> None:
        if shards < 1:
            raise ValueError("shards must be >= 1")
        self.shards = shards
        #: shared by every shard, so :attr:`stats` is already the total
        self.registry = registry if registry is not None else MetricsRegistry()
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
                    registry=self.registry,
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
    def stats(self) -> CacheCounters:
        """The ``cache.*`` counters of every shard (one shared registry)."""
        return CacheCounters(self.registry)
