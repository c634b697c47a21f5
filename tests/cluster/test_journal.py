"""Tenant journal: append/replay/compaction units, then the real bounce.

The unit half exercises :class:`repro.cluster.TenantJournal` directly on
tmp files; the integration half boots a one-shard cluster with a
journal, registers a tenant over the wire, bounces the whole cluster,
and asserts the reborn router serves an identical tenant table — the
acceptance criterion for durable tenant state.
"""

from __future__ import annotations

import json
import os
import stat

import pytest

from repro.cluster import ClusterConfig, ClusterThread, TenantJournal, TenantRegistry
from repro.cluster.chaos import tenant_table
from repro.cluster.journal import _COMPACT_MIN_RECORDS
from repro.serve.client import ServeClient


class TestAppendAndReplay:
    def test_append_persists_ndjson_atomically(self, tmp_path):
        journal = TenantJournal(tmp_path / "j.ndjson")
        journal.append("register", "acme", 50.0, 20.0)
        journal.append("reconfigure", "acme", 80.0, 30.0, slo_s=0.25)
        lines = (tmp_path / "j.ndjson").read_text().splitlines()
        assert [json.loads(l)["seq"] for l in lines] == [1, 2]
        assert json.loads(lines[1]) == {
            "seq": 2, "op": "reconfigure", "tenant": "acme",
            "rate": 80.0, "burst": 30.0, "slo_s": 0.25,
        }

    def test_reload_resumes_the_sequence(self, tmp_path):
        path = tmp_path / "j.ndjson"
        TenantJournal(path).append("register", "acme", 50.0, 20.0)
        journal = TenantJournal(path)
        record = journal.append("register", "edge", 10.0, 5.0)
        assert record["seq"] == 2
        assert set(journal.tenants()) == {"acme", "edge"}

    def test_replay_rebuilds_the_registry_last_wins(self, tmp_path):
        journal = TenantJournal(tmp_path / "j.ndjson")
        journal.append("register", "acme", 50.0, 20.0)
        journal.append("register", "edge", 10.0, 5.0, slo_s=0.5)
        journal.append("reconfigure", "acme", 80.0, 30.0)
        registry = TenantRegistry()
        assert journal.replay_into(registry) == 3
        acme = registry.get("acme")
        assert (acme.rate, acme.burst, acme.slo_s) == (80.0, 30.0, None)
        assert registry.get("edge").slo_s == 0.5

    def test_unknown_op_is_rejected(self, tmp_path):
        journal = TenantJournal(tmp_path / "j.ndjson")
        with pytest.raises(ValueError, match="unknown journal op"):
            journal.append("delete", "acme", 1.0, 1.0)

    def test_torn_file_names_the_line(self, tmp_path):
        path = tmp_path / "j.ndjson"
        path.write_text('{"seq": 1, "op": "register", "tenant": "a", '
                        '"rate": 1.0, "burst": 1.0, "slo_s": null}\n{"seq": 2,\n')
        with pytest.raises(ValueError, match="line 2"):
            TenantJournal(path)

    def test_append_fsyncs_the_file_then_its_directory(self, tmp_path, monkeypatch):
        path = tmp_path / "j.ndjson"
        synced = []
        real_fsync = os.fsync

        def fsync(fd):
            kind = "dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file"
            synced.append((kind, path.exists()))
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", fsync)
        TenantJournal(path).append("register", "acme", 50.0, 20.0)
        # the temp file before its rename, the directory entry after it
        assert synced == [("file", False), ("dir", True)]


class TestCompaction:
    def test_compact_is_last_wins_and_keeps_seq_order(self, tmp_path):
        journal = TenantJournal(tmp_path / "j.ndjson")
        for i in range(5):
            journal.append("reconfigure", "acme", float(i), 1.0)
        journal.append("register", "edge", 10.0, 5.0)
        dropped = journal.compact()
        assert dropped == 4
        assert [r["tenant"] for r in journal.records] == ["acme", "edge"]
        assert journal.tenants()["acme"]["rate"] == 4.0
        # survivors keep their original seq; a reload replays identically
        reloaded = TenantJournal(tmp_path / "j.ndjson")
        assert [r["seq"] for r in reloaded.records] == [5, 6]

    def test_churn_triggers_auto_compaction(self, tmp_path):
        journal = TenantJournal(tmp_path / "j.ndjson")
        for i in range(_COMPACT_MIN_RECORDS):
            journal.append("reconfigure", "acme", float(i), 1.0)
        # one tenant, >= 64 records, factor 8: must have collapsed
        assert len(journal) < _COMPACT_MIN_RECORDS
        assert journal.tenants()["acme"]["rate"] == float(_COMPACT_MIN_RECORDS - 1)


class TestRouterBounce:
    """The acceptance check: a bounced router replays its journal."""

    def _config(self, tmp_path):
        return ClusterConfig(
            shards=1,
            workers_per_shard=1,
            calibrate=0,
            cache_dir=str(tmp_path / "cache"),
            supervise=False,
            tenants=[("seeded", 5.0, 4.0, None)],
        )

    def test_tenant_table_is_identical_across_a_bounce(self, tmp_path):
        config = self._config(tmp_path)
        with ClusterThread(config) as cluster:
            with ServeClient(cluster.host, cluster.port, connect_retries=4) as c:
                assert c.register_tenant("acme", 50.0, 20.0, slo_ms=250.0)["ok"]
                assert c.register_tenant("acme", 80.0, 30.0, slo_ms=250.0)["ok"]
                assert c.register_tenant("edge", 10.0, 5.0)["ok"]
            before = tenant_table(cluster.host, cluster.port)
        assert set(before) == {"seeded", "acme", "edge"}
        assert before["acme"] == {
            "rate_rps": 80.0, "burst_requests": 30.0, "slo_s": 0.25,
        }

        # the bounce: an entirely new cluster over the same journal
        with ClusterThread(self._config(tmp_path)) as reborn:
            after = tenant_table(reborn.host, reborn.port)
            stats = None
            with ServeClient(reborn.host, reborn.port, connect_retries=4) as c:
                stats = c.stats()["result"]
        assert after == before
        assert stats["journal"]["tenants"] == 3
        # the config pre-registration didn't change, so the second boot
        # appended nothing: 3 distinct ops + the acme reconfigure
        assert stats["journal"]["records"] == 4
