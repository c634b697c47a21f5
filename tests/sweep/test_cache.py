"""Tests for the content-addressed result cache."""

import json
import os

from repro.sweep import ResultCache, canonical_json, point_key


MODEL = {"name": "m", "source": {"rate": 1.0}, "stages": [{"name": "a", "avg_rate": 2.0}]}
OPTS = {"simulate": False, "packetized": False, "workload": None, "base_seed": 42}


class TestKeys:
    def test_key_is_stable(self):
        k1 = point_key(MODEL, {"scale:a": 2.0}, OPTS)
        k2 = point_key(dict(MODEL), {"scale:a": 2.0}, dict(OPTS))
        assert k1 == k2
        assert len(k1) == 64  # sha256 hex

    def test_key_ignores_dict_ordering(self):
        a = point_key(MODEL, {"x": 1.0, "y": 2.0}, OPTS)
        b = point_key(MODEL, {"y": 2.0, "x": 1.0}, OPTS)
        assert a == b

    def test_key_changes_with_model_params_options_salt(self):
        base = point_key(MODEL, {"x": 1.0}, OPTS)
        other_model = {**MODEL, "name": "m2"}
        assert point_key(other_model, {"x": 1.0}, OPTS) != base
        assert point_key(MODEL, {"x": 2.0}, OPTS) != base
        assert point_key(MODEL, {"x": 1.0}, {**OPTS, "simulate": True}) != base
        assert point_key(MODEL, {"x": 1.0}, OPTS, salt="v2") != base

    def test_canonical_json_sorted_compact(self):
        assert canonical_json({"b": 1, "a": [1.5]}) == '{"a":[1.5],"b":1}'


class TestResultCache:
    def test_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = point_key(MODEL, {}, OPTS)
        assert cache.get(key) is None
        cache.put(key, {"nc": {"v": 1.5}, "des": None, "elapsed": 0.1})
        got = cache.get(key)
        assert got is not None and got["nc"]["v"] == 1.5
        assert cache.hits == 1 and cache.misses == 1
        assert len(cache) == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = point_key(MODEL, {}, OPTS)
        path = cache.put(key, {"ok": True})
        path.write_text("{ truncated")
        assert cache.get(key) is None

    def test_non_dict_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = point_key(MODEL, {}, OPTS)
        path = cache.put(key, {"ok": True})
        path.write_text(json.dumps([1, 2, 3]))
        assert cache.get(key) is None

    def test_two_level_fanout_layout(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = point_key(MODEL, {}, OPTS)
        path = cache.put(key, {"ok": True})
        assert path.parent.name == key[:2]
        assert path.name == f"{key}.json"


class TestStatsAndPrune:
    def _fill(self, tmp_path, n=3):
        cache = ResultCache(tmp_path)
        keys = [point_key(MODEL, {"x": float(i)}, OPTS) for i in range(n)]
        for k in keys:
            cache.put(k, {"nc": {"k": k}})
        return cache, keys

    def test_stats_counts_entries_and_bytes(self, tmp_path):
        cache, _ = self._fill(tmp_path)
        stats = cache.stats()
        assert stats["entries"] == 3
        assert stats["bytes"] > 0
        assert stats["oldest_age_s"] >= stats["newest_age_s"] >= 0.0
        assert stats["directory"] == str(tmp_path)

    def test_stats_empty_cache(self, tmp_path):
        stats = ResultCache(tmp_path).stats()
        assert stats["entries"] == 0
        assert stats["bytes"] == 0
        assert stats["oldest_age_s"] is None

    def test_clear_removes_everything(self, tmp_path):
        cache, keys = self._fill(tmp_path)
        assert cache.clear() == 3
        assert cache.stats()["entries"] == 0
        assert all(cache.get(k) is None for k in keys)

    def test_prune_by_age_keeps_young_entries(self, tmp_path):
        import os
        import time

        cache, keys = self._fill(tmp_path)
        old = tmp_path / keys[0][:2] / f"{keys[0]}.json"
        past = time.time() - 3600
        os.utime(old, (past, past))
        assert cache.prune(max_age_s=60) == 1
        assert cache.get(keys[0]) is None
        assert cache.get(keys[1]) is not None

    def test_prune_sweeps_orphaned_tmp_files(self, tmp_path):
        cache, keys = self._fill(tmp_path, n=1)
        # a crashed writer's leftover: same hidden-tmp shape _fsutil uses
        orphan = tmp_path / keys[0][:2] / ".deadbeef.json.abc.tmp"
        orphan.write_text("partial")
        cache.prune(max_age_s=None)
        assert not orphan.exists()

    def test_clear_removes_empty_fanout_dirs(self, tmp_path):
        cache, keys = self._fill(tmp_path)
        cache.clear()
        assert not any(p.is_dir() for p in tmp_path.iterdir())


class TestAtomicWrites:
    def test_put_leaves_no_tmp_residue(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = point_key(MODEL, {}, OPTS)
        cache.put(key, {"ok": True})
        leftovers = [p for p in tmp_path.rglob("*") if p.name.endswith(".tmp")]
        assert leftovers == []

    def test_put_never_fsyncs(self, tmp_path, monkeypatch):
        # an accelerator, not durable state: a sweep writes one entry per point
        synced = []
        monkeypatch.setattr(os, "fsync", synced.append)
        ResultCache(tmp_path).put(point_key(MODEL, {}, OPTS), {"ok": True})
        assert synced == []

    def test_concurrent_put_of_same_key_never_tears(self, tmp_path):
        import json as _json
        import threading

        cache = ResultCache(tmp_path)
        key = point_key(MODEL, {}, OPTS)
        payload = {"nc": {"big": "x" * 100_000}}

        def writer():
            for _ in range(20):
                cache.put(key, payload)

        threads = [threading.Thread(target=writer) for _ in range(4)]
        for t in threads:
            t.start()
        # readers race the writers; every observed state must be either
        # absent or a complete document (os.replace is atomic)
        for _ in range(200):
            got = cache.get(key)
            if got is not None:
                assert got == payload
        for t in threads:
            t.join()
        raw = (tmp_path / key[:2] / f"{key}.json").read_text()
        assert _json.loads(raw) == payload
