"""Tests for the content-addressed result cache."""

import hashlib
import json
import math
import multiprocessing
import sqlite3
import subprocess
import sys
import threading
import time

import repro
from repro.sweep import CACHE_SCHEMA_VERSION, ResultCache, canonical_json, point_key
from repro.sweep.cache import STORE_FILE


MODEL = {"name": "m", "source": {"rate": 1.0}, "stages": [{"name": "a", "avg_rate": 2.0}]}
OPTS = {"simulate": False, "packetized": False, "workload": None, "base_seed": 42}


def full_payload_key(model, params, options):
    """The key as first defined: one hash over the whole rendered payload."""
    payload = {
        "model": model,
        "params": params,
        "options": options,
        "salt": f"repro-{repro.__version__}-schema-{CACHE_SCHEMA_VERSION}",
    }
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


def write_raw(directory, key, column, value):
    """Set one column of one row behind the cache's back."""
    db = sqlite3.connect(directory / STORE_FILE)
    with db:
        db.execute(f"UPDATE entries SET {column} = ? WHERE key = ?", (value, key))
    db.close()


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

    def test_key_equals_the_full_payload_hash(self):
        # sweep, scenarios and serve share entries through these keys:
        # rendering the model once must not move a single bit
        odd = {
            "name": "Ünïcode – 流水线",
            "source": {"rate": math.inf, "burst": -math.inf},
            "stages": [{"name": "étape", "avg_rate": 1e308, "ratio": 0.1 + 0.2}],
        }
        for model in (MODEL, odd, {}):
            for params in ({}, {"scale:a": 2.0}, {"x": math.inf, "é": "avg"}):
                assert point_key(model, params, OPTS) == full_payload_key(model, params, OPTS)


class TestResultCache:
    def test_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = point_key(MODEL, {}, OPTS)
        assert cache.get(key) is None
        cache.put(key, {"nc": {"v": 1.5}, "des": None, "elapsed": 0.1})
        got = cache.get(key)
        assert got is not None and got["nc"]["v"] == 1.5
        assert len(cache) == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = point_key(MODEL, {}, OPTS)
        cache.put(key, {"ok": True})
        write_raw(tmp_path, key, "value", "{ truncated")
        assert cache.get(key) is None
        write_raw(tmp_path, key, "value", b"\xff\xfe")  # not even text
        assert cache.get(key) is None

    def test_non_dict_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = point_key(MODEL, {}, OPTS)
        cache.put(key, {"ok": True})
        write_raw(tmp_path, key, "value", json.dumps([1, 2, 3]))
        assert cache.get(key) is None

    def test_one_file_store(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert list(tmp_path.iterdir()) == []  # opened on first use
        cache.put(point_key(MODEL, {}, OPTS), {"ok": True})
        cache.close()  # checkpoints the WAL into the file
        assert [p.name for p in tmp_path.iterdir()] == [STORE_FILE]
        db = sqlite3.connect(tmp_path / STORE_FILE)
        cols = [(r[1], r[2], r[5]) for r in db.execute("PRAGMA table_info(entries)")]
        (value,) = db.execute("SELECT value FROM entries").fetchone()
        db.close()
        assert cols == [("key", "TEXT", 1), ("value", "TEXT", 0), ("mtime", "REAL", 0)]
        assert value == '{"ok":true}'  # compact JSON

    def test_close_and_context_manager_reopen_lazily(self, tmp_path):
        key = point_key(MODEL, {}, OPTS)
        with ResultCache(tmp_path) as cache:
            cache.put(key, {"ok": True})
        assert cache._db is None
        assert cache.get(key) == {"ok": True}  # reopens on use
        cache.close()
        cache.close()  # idempotent

    def test_import_and_construction_do_not_load_sqlite(self, tmp_path):
        code = (
            "import sys\n"
            "import repro.sweep, repro.serve, repro.scenarios\n"
            f"c = repro.sweep.ResultCache({str(tmp_path)!r})\n"
            "assert 'sqlite3' not in sys.modules, 'imported eagerly'\n"
            "c.stats()\n"
            "assert 'sqlite3' in sys.modules\n"
        )
        subprocess.run([sys.executable, "-c", code], check=True, timeout=120)

    def test_version_salt_costs_no_metadata_import(self):
        code = (
            "import sys\n"
            "import repro.sweep, repro.scenarios, repro.serve.engine, repro.cluster.router\n"
            "assert 'importlib.metadata' not in sys.modules, 'imported at start'\n"
        )
        subprocess.run([sys.executable, "-c", code], check=True, timeout=120)
        out = subprocess.run(
            [sys.executable, "-m", "repro", "--version"],
            check=True, timeout=120, capture_output=True, text=True,
        ).stdout
        assert out == "repro 1.0.0\n"
        assert f"repro-{repro.__version__}-schema-{CACHE_SCHEMA_VERSION}" == "repro-1.0.0-schema-4"


class TestStatsAndPrune:
    def _fill(self, tmp_path, n=3):
        cache = ResultCache(tmp_path)
        keys = [point_key(MODEL, {"x": float(i)}, OPTS) for i in range(n)]
        for k in keys:
            cache.put(k, {"nc": {"k": k}})
        return cache, keys

    def test_stats_counts_entries_and_bytes(self, tmp_path):
        cache, keys = self._fill(tmp_path)
        stats = cache.stats()
        assert stats["entries"] == 3
        compact = [json.dumps({"nc": {"k": k}}, separators=(",", ":")) for k in keys]
        assert stats["bytes"] == sum(len(v) for v in compact)
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
        cache, keys = self._fill(tmp_path)
        write_raw(tmp_path, keys[0], "mtime", time.time() - 3600)
        assert cache.prune(max_age_s=60) == 1
        assert cache.get(keys[0]) is None
        assert cache.get(keys[1]) is not None

    def test_reput_refreshes_mtime(self, tmp_path):
        cache, keys = self._fill(tmp_path, n=1)
        write_raw(tmp_path, keys[0], "mtime", time.time() - 3600)
        cache.put(keys[0], {"nc": {"again": True}})
        assert cache.prune(max_age_s=60) == 0
        assert cache.get(keys[0]) == {"nc": {"again": True}}


# --------------------------------------------------------------------- #
# concurrency
# --------------------------------------------------------------------- #

SHARED = [point_key(MODEL, {"shared": float(i)}, OPTS) for i in range(4)]


def _doc(writer, size=20_000):
    return {"nc": {"writer": writer, "pad": str(writer) * size}}


def _process_writer(directory, writer, n_own, start):
    """Spawned child: own keys plus repeated puts on the shared ones."""
    cache = ResultCache(directory)
    start.wait(timeout=60)  # every writer opens the new file at once
    for i in range(n_own):
        cache.put(point_key(MODEL, {"writer": writer, "i": float(i)}, OPTS), _doc(writer, 100))
        cache.put(SHARED[i % len(SHARED)], _doc(writer))
    cache.close()


def _process_first_opener(directories, writer, start):
    """Spawned child: opens each new store at the same moment as its peers."""
    try:
        for directory in directories:
            start.wait(timeout=60)
            with ResultCache(directory) as cache:
                cache.put(point_key(MODEL, {"writer": writer}, OPTS), _doc(writer, 10))
    except BaseException:
        start.abort()  # fail the peers now, not at the barrier timeout
        raise


class TestAtomicWrites:
    def test_put_never_fsyncs(self, tmp_path):
        # an accelerator, not durable state: WAL with synchronous=NORMAL
        # commits without an fsync (only checkpoints sync)
        cache = ResultCache(tmp_path)
        cache.put(point_key(MODEL, {}, OPTS), {"ok": True})
        assert cache._db.execute("PRAGMA journal_mode").fetchone()[0] == "wal"
        assert cache._db.execute("PRAGMA synchronous").fetchone()[0] == 1  # NORMAL
        assert cache._db.in_transaction is False  # every put committed alone

    def test_concurrent_put_of_same_key_never_tears(self, tmp_path):
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
        # absent or a complete document
        for _ in range(200):
            got = cache.get(key)
            if got is not None:
                assert got == payload
        for t in threads:
            t.join()
        assert ResultCache(tmp_path).get(key) == payload

    def test_thread_stress_keeps_counters_exact(self, tmp_path):
        cache = ResultCache(tmp_path)
        n_threads, rounds = 8, 150
        hits = [0] * n_threads
        errors = []

        def worker(t):
            try:
                for i in range(rounds):
                    own = point_key(MODEL, {"t": float(t), "i": float(i)}, OPTS)
                    shared = SHARED[i % len(SHARED)]
                    assert cache.get(own) is None  # no thread has written it yet
                    got = cache.get(shared)
                    assert got is None or got["nc"]["writer"] in range(n_threads)
                    cache.put(own, _doc(t, 10))
                    cache.put(shared, _doc(t, 10))
                    if cache.get(own) == _doc(t, 10):  # its own write, read back
                        hits[t] += 1
            except BaseException as exc:  # surfaced to the main thread
                errors.append(exc)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(t,)) for t in range(n_threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        # a lost or torn write breaks these counts
        assert sum(hits) == n_threads * rounds
        assert len(cache) == n_threads * rounds + len(SHARED)

    def test_processes_open_a_new_store_at_once(self, tmp_path):
        # SQLite fails one of two racing switches to WAL without waiting
        ctx = multiprocessing.get_context("spawn")
        n_procs, rounds = 6, 40
        dirs = [tmp_path / f"store{i}" for i in range(rounds)]
        start = ctx.Barrier(n_procs)
        procs = [
            ctx.Process(target=_process_first_opener, args=(dirs, w, start))
            for w in range(n_procs)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=120)
            assert not p.is_alive()
            assert p.exitcode == 0
        for d in dirs:
            with ResultCache(d) as cache:
                assert len(cache) == n_procs

    def test_processes_share_one_store(self, tmp_path):
        ctx = multiprocessing.get_context("spawn")
        n_writers, n_own = 3, 40
        start = ctx.Barrier(n_writers)
        procs = [
            ctx.Process(target=_process_writer, args=(tmp_path, w, n_own, start))
            for w in range(n_writers)
        ]
        for p in procs:
            p.start()
        reader = ResultCache(tmp_path)
        complete = [_doc(w) for w in range(n_writers)]
        reads = 0
        deadline = time.monotonic() + 120
        while any(p.is_alive() for p in procs) and time.monotonic() < deadline:
            for key in SHARED:
                got = reader.get(key)
                reads += 1
                assert got is None or got in complete
        for p in procs:
            p.join(timeout=60)
            assert not p.is_alive()
            assert p.exitcode == 0
        assert reads > 0
        assert len(reader) == n_writers * n_own + len(SHARED)
        assert all(reader.get(key) in complete for key in SHARED)
        reader.close()
