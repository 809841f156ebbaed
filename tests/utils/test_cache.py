"""Cache-layer tests: LRU accounting, DiskCache crash safety, and torn or
corrupted cache entries."""

from __future__ import annotations

import multiprocessing
import pickle

import numpy as np
import pytest

from repro.testbed.faults import FaultPlan
from repro.utils.cache import MISSING, DiskCache, LRUCache


class TestLRUCache:
    def test_eviction_order_is_least_recently_used(self):
        cache = LRUCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1          # refresh "a"
        cache.put("c", 3)                   # evicts "b", not "a"
        assert "b" not in cache
        assert cache.get("a") == 1
        assert cache.get("c") == 3

    def test_hit_miss_accounting(self):
        cache = LRUCache(maxsize=4)
        assert cache.get("missing") is None
        assert (cache.hits, cache.misses) == (0, 1)
        cache.put("k", "v")
        assert cache.get("k") == "v"
        assert (cache.hits, cache.misses) == (1, 1)
        cache.put("none", None)
        assert cache.get("none") is None    # a cached None is a *hit*
        assert (cache.hits, cache.misses) == (2, 1)

    def test_eviction_keeps_size_bounded(self):
        cache = LRUCache(maxsize=3)
        for i in range(10):
            cache.put(i, i)
        assert len(cache) == 3
        assert set(cache._data) == {7, 8, 9}

    def test_put_existing_refreshes(self):
        cache = LRUCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)                  # refresh, not duplicate
        cache.put("c", 3)                   # evicts "b"
        assert cache.get("a") == 10
        assert "b" not in cache

    def test_rejects_nonpositive_size(self):
        with pytest.raises(ValueError):
            LRUCache(0)


def _hammer(args):
    directory, worker, rounds = args
    cache = DiskCache(directory)
    for i in range(rounds):
        # Every worker fights over the same small key space.
        cache.put(f"key{i % 4}", {"worker": worker, "round": i,
                                  "payload": list(range(200))})
        value = cache.get(f"key{i % 4}")
        # A concurrent write may race this read, but the value must always
        # be either a complete record or a miss — never a torn pickle.
        assert value is None or len(value["payload"]) == 200
    return worker


class TestDiskCache:
    def test_round_trip_and_contains(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.put("x", {"a": np.arange(3)})
        assert "x" in cache
        np.testing.assert_array_equal(cache.get("x")["a"], np.arange(3))
        assert cache.get("nope", 42) == 42

    def test_unsafe_keys_cannot_escape_directory(self, tmp_path):
        cache = DiskCache(tmp_path / "cache")
        for key in ("../escape", "a/b/c", "..", "con?.txt", "x" * 300, ""):
            cache.put(key, key)
            assert cache.get(key) == key
            assert "escape" not in {p.name for p in tmp_path.iterdir()}
        # Everything landed inside the cache directory.
        for path in (tmp_path / "cache").iterdir():
            assert path.parent == tmp_path / "cache"
        # Distinct unsafe keys must not collide.
        cache.put("../a", 1)
        cache.put("../b", 2)
        assert cache.get("../a") == 1 and cache.get("../b") == 2

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.put("k", "value")
        path = cache._path("k")
        path.write_bytes(pickle.dumps("value")[:3])   # torn write
        assert cache.get("k", "fallback") == "fallback"
        assert not path.exists()                      # corpse discarded
        cache.put("k", "again")                       # and the key reusable
        assert cache.get("k") == "again"

    def test_get_or_compute_caches_none(self, tmp_path):
        cache = DiskCache(tmp_path)
        calls = []

        def compute():
            calls.append(1)
            return None

        assert cache.get_or_compute("k", compute) is None
        assert cache.get_or_compute("k", compute) is None
        assert len(calls) == 1

    def test_no_leftover_tmp_files(self, tmp_path):
        cache = DiskCache(tmp_path)
        for i in range(10):
            cache.put("k", i)
        assert not list(tmp_path.glob("*.tmp"))

    def test_concurrent_writers_never_produce_torn_pickles(self, tmp_path):
        workers = 4
        with multiprocessing.get_context("spawn").Pool(workers) as pool:
            done = pool.map(_hammer,
                            [(str(tmp_path), w, 25) for w in range(workers)])
        assert sorted(done) == list(range(workers))
        # After the dust settles every surviving entry is readable.
        cache = DiskCache(tmp_path)
        for i in range(4):
            value = cache.get(f"key{i}")
            assert value is not None and len(value["payload"]) == 200


class TestDegradedStorage:
    """A cache that cannot persist (disk full, read-only dir) keeps serving,
    counts the lost writes, and warns exactly once."""

    def failing_replace(self, monkeypatch):
        import repro.utils.cache as cache_module

        def explode(src, dst):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(cache_module.os, "replace", explode)

    def test_failed_put_is_counted_and_warns_once(self, tmp_path, monkeypatch):
        cache = DiskCache(tmp_path)
        self.failing_replace(monkeypatch)
        with pytest.warns(RuntimeWarning, match="degraded"):
            cache.put("k", 1)
        assert cache.put_failures == 1
        # Subsequent failures count silently (no warning spam).
        import warnings as warnings_module
        with warnings_module.catch_warnings():
            warnings_module.simplefilter("error")
            cache.put("k", 2)
            cache.put("j", 3)
        assert cache.put_failures == 3
        # The entry was simply lost; reads see a miss, not an exception.
        assert cache.get("k", MISSING) is MISSING

    def test_failed_put_leaves_no_temp_litter(self, tmp_path, monkeypatch):
        cache = DiskCache(tmp_path)
        self.failing_replace(monkeypatch)
        with pytest.warns(RuntimeWarning):
            cache.put("k", list(range(100)))
        assert list(tmp_path.glob("*.tmp")) == []


class TestTornAndCorruptCacheEntries:
    def entry_path(self, cache: DiskCache, key: str):
        return cache._path(key)

    def test_torn_entry_reads_as_a_miss_not_a_crash(self, tmp_path):
        cache = DiskCache(tmp_path / "cache")
        cache.put("weights", {"rows": list(range(500))})
        FaultPlan(tear_fraction=0.5).tear_file(self.entry_path(cache, "weights"))
        assert cache.get("weights", MISSING) is MISSING
        # The torn file was discarded; a rewrite fully heals the entry.
        cache.put("weights", {"rows": [1]})
        assert cache.get("weights") == {"rows": [1]}

    def test_corrupt_entry_reads_as_a_miss_not_garbage(self, tmp_path):
        cache = DiskCache(tmp_path / "cache")
        cache.put("emb", np.arange(64, dtype=np.float64))
        FaultPlan(seed=2, corrupt_bytes=16).corrupt_file(
            self.entry_path(cache, "emb"))
        value = cache.get("emb", MISSING)
        # A flipped pickle either fails to parse (miss) or -- for flips in
        # the payload -- still parses; it must never raise mid-serve.
        if value is not MISSING:
            assert isinstance(value, np.ndarray)

    def test_tear_is_deterministic_for_a_given_plan(self, tmp_path):
        payloads = []
        for run in range(2):
            path = tmp_path / f"blob{run}"
            path.write_bytes(bytes(range(256)) * 4)
            FaultPlan(seed=7, tear_fraction=0.25).tear_file(path)
            payloads.append(path.read_bytes())
        assert payloads[0] == payloads[1]

    def test_corrupt_is_deterministic_for_a_given_seed(self, tmp_path):
        payloads = []
        for run in range(2):
            path = tmp_path / f"blob{run}"
            path.write_bytes(bytes(range(256)) * 4)
            FaultPlan(seed=7).corrupt_file(path)
            payloads.append(path.read_bytes())
        assert payloads[0] == payloads[1]
        assert payloads[0] != bytes(range(256)) * 4
