"""The two-tier artifact cache: LRU behaviour, disk tier, invisibility."""

import pickle

import pytest

from repro.service import MISS, ArtifactCache


def _forbid_pickle_dumps(monkeypatch):
    def no_dumps(*args, **kwargs):
        raise AssertionError("promotion re-pickled the artifact")

    monkeypatch.setattr(pickle, "dumps", no_dumps)


class TestMemoryTier:
    def test_roundtrip_and_counters(self):
        cache = ArtifactCache(max_entries=4)
        assert cache.get("fp1") is MISS
        cache.put("fp1", {"ptx": "body"})
        assert cache.get("fp1") == {"ptx": "body"}
        assert cache.stats.memory_hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.stores == 1
        assert cache.stats.hit_rate == 0.5

    def test_lru_evicts_oldest(self):
        cache = ArtifactCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)
        assert cache.get("a") is MISS  # oldest gone
        assert cache.get("b") == 2 and cache.get("c") == 3
        assert cache.stats.evictions == 1
        assert len(cache) == 2

    def test_get_refreshes_recency(self):
        cache = ArtifactCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")          # a is now most-recent
        cache.put("c", 3)       # evicts b, not a
        assert cache.get("a") == 1
        assert cache.get("b") is MISS

    def test_copy_on_hit_isolates_callers(self):
        """The cache is an invisible optimization: mutating a returned
        artifact must not corrupt the cached copy (or other callers)."""
        cache = ArtifactCache()
        cache.put("fp", {"log": ["ok"]})
        first = cache.get("fp")
        first["log"].append("mutated by caller")
        second = cache.get("fp")
        assert second == {"log": ["ok"]}
        assert first is not second

    def test_put_isolates_from_source_object(self):
        cache = ArtifactCache()
        artifact = {"log": ["ok"]}
        cache.put("fp", artifact)
        artifact["log"].append("mutated after put")
        assert cache.get("fp") == {"log": ["ok"]}

    def test_stores_one_pickle_and_unpickles_per_get(self):
        cache = ArtifactCache()
        cache.put("fp", {"ptx": "body"})
        stored = cache.peek("fp")
        assert pickle.loads(stored.blob) == {"ptx": "body"}
        assert not stored.refused
        assert cache.get("fp") is not cache.get("fp")

    def test_unpicklable_artifact_raises_naming_the_fingerprint(self):
        cache = ArtifactCache()
        with pytest.raises(pickle.PicklingError, match="fp-lambda"):
            cache.put("fp-lambda", lambda: None)
        assert "fp-lambda" not in cache
        assert cache.stats.stores == 0

    def test_second_put_is_a_counted_no_op(self):
        """A fingerprint is a content address: a repeat store keeps the
        first entry and counts as redundant, never as a second store."""
        cache = ArtifactCache()
        cache.put("fp", "first")
        cache.put("fp", "anything")
        assert cache.get("fp") == "first"
        assert cache.stats.stores == 1
        assert cache.stats.redundant_stores == 1

    def test_clear(self):
        cache = ArtifactCache()
        cache.put("fp", 1)
        cache.clear()
        assert len(cache) == 0
        assert cache.get("fp") is MISS


class TestDiskTier:
    def test_persists_across_instances(self, tmp_path):
        first = ArtifactCache(cache_dir=tmp_path)
        first.put("fp", {"ptx": "body"})
        assert first.stats.disk_stores == 1

        fresh = ArtifactCache(cache_dir=tmp_path)  # a "new process"
        assert fresh.get("fp") == {"ptx": "body"}
        assert fresh.stats.disk_hits == 1
        # the hit promoted the artifact into the memory tier
        assert fresh.get("fp") == {"ptx": "body"}
        assert fresh.stats.memory_hits == 1

    def test_corrupt_entry_is_a_miss_and_removed(self, tmp_path):
        cache = ArtifactCache(cache_dir=tmp_path)
        path = tmp_path / "fp.pkl"
        path.write_bytes(b"not a pickle")
        assert cache.get("fp") is MISS
        assert not path.exists()

    def test_disk_and_memory_tiers_hold_the_same_bytes(self, tmp_path):
        cache = ArtifactCache(cache_dir=tmp_path)
        cache.put("fp", {"ptx": "body"})
        assert cache.peek("fp").blob == (tmp_path / "fp.pkl").read_bytes()

    def test_promotion_installs_the_bytes_it_read(self, tmp_path,
                                                   monkeypatch):
        ArtifactCache(cache_dir=tmp_path).put("fp", {"ptx": "body"})
        on_disk = (tmp_path / "fp.pkl").read_bytes()
        fresh = ArtifactCache(cache_dir=tmp_path)

        _forbid_pickle_dumps(monkeypatch)
        assert fresh.get("fp") == {"ptx": "body"}
        assert fresh.peek("fp").blob == on_disk
        assert fresh.stats.disk_hits == 1

    def test_entries_are_plain_pickles(self, tmp_path):
        cache = ArtifactCache(cache_dir=tmp_path)
        cache.put("fp", [1, 2, 3])
        with (tmp_path / "fp.pkl").open("rb") as fh:
            assert pickle.load(fh) == [1, 2, 3]

    def test_clear_disk(self, tmp_path):
        cache = ArtifactCache(cache_dir=tmp_path)
        cache.put("fp", 1)
        cache.clear(memory_only=False)
        assert cache.get("fp") is MISS

    def test_cache_dir_colliding_with_a_file_is_rejected(self, tmp_path):
        path = tmp_path / "occupied"
        path.write_text("not a directory")
        with pytest.raises(NotADirectoryError, match="occupied"):
            ArtifactCache(cache_dir=path)

    def test_contains(self, tmp_path):
        cache = ArtifactCache(cache_dir=tmp_path)
        assert "fp" not in cache
        cache.put("fp", 1)
        assert "fp" in cache
        fresh = ArtifactCache(cache_dir=tmp_path)
        assert "fp" in fresh  # via the disk tier


class TestEnsureWritableDir:
    def test_creates_nested_directories(self, tmp_path):
        from repro.service import ensure_writable_dir

        target = tmp_path / "a" / "b" / "c"
        assert ensure_writable_dir(target) == target
        assert target.is_dir()

    def test_file_in_the_way_raises_cache_dir_error(self, tmp_path):
        from repro.service import CacheDirError, ensure_writable_dir

        occupied = tmp_path / "occupied"
        occupied.write_text("file")
        with pytest.raises(CacheDirError, match="occupied"):
            ensure_writable_dir(occupied)
        # ... and a path *under* a file cannot even be created
        with pytest.raises(CacheDirError):
            ensure_writable_dir(occupied / "sub")

    def test_cache_dir_error_is_a_not_a_directory_error(self):
        from repro.service import CacheDirError

        assert issubclass(CacheDirError, NotADirectoryError)


class TestShardPrefix:
    def test_hex_fingerprints_use_their_own_prefix(self):
        from repro.service import shard_prefix

        assert shard_prefix("ab12cd") == "ab"
        assert shard_prefix("AB12CD") == "ab"

    def test_non_hex_keys_are_hashed_to_a_uniform_prefix(self):
        from repro.service import shard_prefix

        prefix = shard_prefix("not-hex!")
        assert len(prefix) == 2
        assert all(c in "0123456789abcdef" for c in prefix)
        assert shard_prefix("not-hex!") == prefix  # deterministic


class TestShardedCache:
    def test_same_contract_as_flat_cache(self, tmp_path):
        from repro.service import MISS, ShardedArtifactCache

        cache = ShardedArtifactCache(shards=4, cache_dir=tmp_path)
        assert cache.get("ab" + "0" * 62) is MISS
        cache.put("ab" + "0" * 62, {"x": 1})
        assert cache.get("ab" + "0" * 62) == {"x": 1}
        assert "ab" + "0" * 62 in cache
        assert len(cache) == 1

    def test_fingerprints_land_in_prefix_shard_dirs(self, tmp_path):
        from repro.service import ShardedArtifactCache

        cache = ShardedArtifactCache(shards=4, cache_dir=tmp_path)
        fingerprints = [f"{i:02x}" + "0" * 62 for i in range(8)]
        for fingerprint in fingerprints:
            cache.put(fingerprint, fingerprint[:2])
        pickles = list(tmp_path.glob("shard-*/[0-9a-f]*.pkl"))
        assert len(pickles) == 8
        # every fingerprint is owned by exactly one shard
        owners = {f: cache.shard_for(f) for f in fingerprints}
        for fingerprint, shard in owners.items():
            assert fingerprint in shard

    def test_distinct_prefixes_use_distinct_locks(self, tmp_path):
        from repro.service import ShardedArtifactCache

        cache = ShardedArtifactCache(shards=16, cache_dir=tmp_path)
        a = cache.shard_for("00" + "0" * 62)
        b = cache.shard_for("01" + "0" * 62)
        assert a is not b
        assert a._lock is not b._lock

    def test_stats_aggregate_across_shards(self, tmp_path):
        from repro.service import ShardedArtifactCache

        cache = ShardedArtifactCache(shards=4, cache_dir=tmp_path)
        cache.put("00" + "0" * 62, 1)
        cache.put("40" + "0" * 62, 2)
        cache.get("00" + "0" * 62)
        cache.get("ff" + "0" * 62)  # miss
        stats = cache.stats
        assert stats.stores == 2
        assert stats.memory_hits == 1
        assert stats.misses == 1

    def test_survives_process_restart(self, tmp_path):
        from repro.service import ShardedArtifactCache

        ShardedArtifactCache(shards=4, cache_dir=tmp_path).put(
            "ab" + "0" * 62, [1, 2])
        fresh = ShardedArtifactCache(shards=4, cache_dir=tmp_path)
        assert fresh.get("ab" + "0" * 62) == [1, 2]
        assert fresh.stats.disk_hits == 1


class TestPeerReadThrough:
    def test_miss_falls_through_to_peer_and_copies_local(self, tmp_path):
        from repro.service import ArtifactCache

        peer_dir = tmp_path / "peer"
        local_dir = tmp_path / "local"
        ArtifactCache(cache_dir=peer_dir).put("fp", {"from": "peer"})

        local = ArtifactCache(cache_dir=local_dir, peer_dirs=(peer_dir,))
        assert local.get("fp") == {"from": "peer"}
        assert local.stats.peer_hits == 1
        # copied through: now present in the local disk tier
        assert (local_dir / "fp.pkl").exists()
        solo = ArtifactCache(cache_dir=local_dir)  # no peers configured
        assert solo.get("fp") == {"from": "peer"}

    def test_corrupt_peer_entry_is_skipped_and_kept(self, tmp_path,
                                                    monkeypatch):
        from repro.service import ArtifactCache

        bad_peer = tmp_path / "bad"
        bad_peer.mkdir()
        (bad_peer / "fp.pkl").write_bytes(b"not a pickle")
        good_peer = tmp_path / "good"
        ArtifactCache(cache_dir=good_peer).put("fp", {"from": "good"})

        _forbid_pickle_dumps(monkeypatch)
        local_dir = tmp_path / "local"
        local = ArtifactCache(cache_dir=local_dir,
                              peer_dirs=(bad_peer, good_peer))
        assert local.get("fp") == {"from": "good"}
        assert local.stats.peer_hits == 1
        assert (bad_peer / "fp.pkl").read_bytes() == b"not a pickle"
        # copied through byte for byte, without a second pickle
        assert ((local_dir / "fp.pkl").read_bytes()
                == (good_peer / "fp.pkl").read_bytes())

    def test_local_tiers_win_over_peers(self, tmp_path):
        from repro.service import ArtifactCache

        peer_dir = tmp_path / "peer"
        ArtifactCache(cache_dir=peer_dir).put("fp", "peer-value")
        local = ArtifactCache(cache_dir=tmp_path / "local",
                              peer_dirs=(peer_dir,))
        local.put("fp", "local-value")
        assert local.get("fp") == "local-value"
        assert local.stats.peer_hits == 0

    def test_peers_are_never_written(self, tmp_path):
        from repro.service import ArtifactCache

        peer_dir = tmp_path / "peer"
        peer_dir.mkdir()
        local = ArtifactCache(cache_dir=tmp_path / "local",
                              peer_dirs=(peer_dir,))
        local.put("fp", 1)
        assert list(peer_dir.iterdir()) == []

    def test_sharded_peers_share_the_shard_layout(self, tmp_path):
        from repro.service import ShardedArtifactCache

        peer_root = tmp_path / "peer"
        local_root = tmp_path / "local"
        ShardedArtifactCache(shards=4, cache_dir=peer_root).put(
            "ab" + "0" * 62, "warm")
        local = ShardedArtifactCache(shards=4, cache_dir=local_root,
                                     peer_dirs=(peer_root,))
        assert local.get("ab" + "0" * 62) == "warm"
        assert local.stats.peer_hits == 1


class _BlockingPickle:
    """Pickling blocks until `gate` is set."""

    def __init__(self, gate, entered):
        self.gate = gate
        self.entered = entered

    def __reduce__(self):
        self.entered.set()
        assert self.gate.wait(timeout=10), "test gate never opened"
        return (str, ("unblocked",))


class TestLockNarrowing:
    """The regression contract: file I/O runs outside the cache lock, so
    one slow disk write cannot stall other fingerprints."""

    def test_concurrent_put_get_of_distinct_fingerprints(self, tmp_path):
        import threading

        from repro.service import ArtifactCache

        cache = ArtifactCache(cache_dir=tmp_path)
        gate = threading.Event()
        entered = threading.Event()
        slow = _BlockingPickle(gate, entered)

        writer = threading.Thread(target=cache.put, args=("slow-fp", slow))
        writer.start()
        try:
            assert entered.wait(timeout=10)  # writer is inside pickle.dump

            # while the writer's disk I/O is blocked, OTHER fingerprints
            # must still flow through the cache
            done = threading.Event()

            def other_traffic():
                cache.put("fast-fp", [1, 2, 3])
                assert cache.get("fast-fp") == [1, 2, 3]
                assert cache.get("absent-fp") is MISS
                done.set()

            prober = threading.Thread(target=other_traffic)
            prober.start()
            prober.join(timeout=5)
            assert done.is_set(), (
                "cache operations on distinct fingerprints deadlocked "
                "behind a blocked disk write (lock held during file I/O)"
            )
        finally:
            gate.set()
            writer.join(timeout=10)
        assert not writer.is_alive()
        # the slow artifact did land (as its reduced form)
        fresh = ArtifactCache(cache_dir=tmp_path)
        assert fresh.get("slow-fp") == "unblocked"

    def test_memory_tier_of_the_slow_fingerprint_stays_readable(
            self, tmp_path, monkeypatch):
        """``put`` installs the memory tier before the disk publish, so
        while that publish is stalled the slow fingerprint is already
        readable and other fingerprints keep flowing."""
        import os
        import threading

        from repro.service import ArtifactCache

        gate = threading.Event()
        entered = threading.Event()
        real_replace = os.replace

        def slow_replace(src, dst):
            if os.path.basename(dst) == "slow-fp.pkl":
                entered.set()
                assert gate.wait(timeout=10), "test gate never opened"
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", slow_replace)
        cache = ArtifactCache(cache_dir=tmp_path)
        writer = threading.Thread(target=cache.put,
                                  args=("slow-fp", {"ptx": "slow"}))
        writer.start()
        try:
            assert entered.wait(timeout=10)  # writer is inside os.replace
            done = threading.Event()

            def probe():
                assert cache.get("slow-fp") == {"ptx": "slow"}
                assert cache.stats.memory_hits == 1
                cache.put("fast-fp", [1, 2, 3])
                assert cache.get("fast-fp") == [1, 2, 3]
                assert cache.get("absent-fp") is MISS
                done.set()

            prober = threading.Thread(target=probe)
            prober.start()
            prober.join(timeout=5)
            assert done.is_set(), (
                "the memory tier blocked behind a stalled disk write "
                "(lock held during file I/O, or install after the write)"
            )
        finally:
            gate.set()
            writer.join(timeout=10)
        assert not writer.is_alive()
        fresh = ArtifactCache(cache_dir=tmp_path)
        assert fresh.get("slow-fp") == {"ptx": "slow"}

    def test_parallel_puts_of_distinct_fingerprints(self, tmp_path):
        import threading

        from repro.service import ShardedArtifactCache

        cache = ShardedArtifactCache(shards=8, cache_dir=tmp_path)
        fingerprints = [f"{i:02x}" + "f" * 62 for i in range(32)]
        errors = []

        def hammer(fingerprint):
            try:
                cache.put(fingerprint, {"fp": fingerprint})
                assert cache.get(fingerprint) == {"fp": fingerprint}
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(f"{fingerprint[:2]}: {exc}")

        threads = [threading.Thread(target=hammer, args=(f,))
                   for f in fingerprints]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not errors
        assert len(cache) == 32
        assert cache.stats.stores == 32
