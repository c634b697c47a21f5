"""Durable tenant table: the file units, then the real bounce.

The unit half drives :class:`repro.cluster.TenantRegistry` over a table
file on tmp paths; the integration half boots a one-shard cluster over a
table, registers tenants over the wire, bounces the whole cluster, and
asserts the reborn router serves an identical tenant table — the
acceptance criterion for durable tenant state.
"""

from __future__ import annotations

import os
import stat
import time

import pytest

import repro.cluster.tenants as tenants_mod
from repro.cluster import ClusterConfig, ClusterThread, TenantRegistry
from repro.cluster.chaos import tenant_table
from repro.serve.client import ServeClient


class TestAppendAndReplay:
    """A registration rewrites the table; a new registry loads it."""

    def test_append_persists_ndjson_atomically(self, tmp_path):
        path = tmp_path / "j.ndjson"
        registry = TenantRegistry(path)
        registry.register("acme", 50.0, 20.0)
        registry.register("edge", 10.0, 5.0)
        registry.register("acme", 80.0, 30.0, slo_s=0.25)
        # one record per tenant in registration order, changed in place
        assert path.read_text().splitlines() == [
            '{"burst": 30.0, "rate": 80.0, "seq": 1, "slo_s": 0.25, "tenant": "acme"}',
            '{"burst": 5.0, "rate": 10.0, "seq": 2, "slo_s": null, "tenant": "edge"}',
        ]
        assert os.listdir(tmp_path) == ["j.ndjson"]  # no temp file left behind

    def test_replay_rebuilds_the_registry_last_wins(self, tmp_path):
        # an op log as routers before the table wrote it: seq/op keys and
        # a reconfigure after its register
        path = tmp_path / "j.ndjson"
        path.write_text(
            '{"burst": 20.0, "op": "register", "rate": 50.0, "seq": 1, '
            '"slo_s": null, "tenant": "acme"}\n'
            '{"burst": 5.0, "op": "register", "rate": 10.0, "seq": 2, '
            '"slo_s": 0.5, "tenant": "edge"}\n'
            '{"burst": 30.0, "op": "reconfigure", "rate": 80.0, "seq": 3, '
            '"slo_s": null, "tenant": "acme"}\n'
        )
        registry = TenantRegistry(path)
        assert {t.name: t.envelope for t in registry} == {
            "acme": (80.0, 30.0, None),
            "edge": (10.0, 5.0, 0.5),
        }

    def test_torn_file_names_the_line(self, tmp_path):
        path = tmp_path / "j.ndjson"
        path.write_text('{"seq": 1, "op": "register", "tenant": "a", '
                        '"rate": 1.0, "burst": 1.0, "slo_s": null}\n{"seq": 2,\n')
        with pytest.raises(ValueError, match="line 2"):
            TenantRegistry(path)

    def test_append_fsyncs_the_file_then_its_directory(self, tmp_path, monkeypatch):
        path = tmp_path / "j.ndjson"
        synced = []
        real_fsync = os.fsync

        def fsync(fd):
            kind = "dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file"
            synced.append((kind, path.exists()))
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", fsync)
        TenantRegistry(path).register("acme", 50.0, 20.0)
        # the temp file before its rename, the directory entry after it
        assert synced == [("file", False), ("dir", True)]


class TestRouterBounce:
    """The acceptance check: a bounced router loads its table."""

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
        path = tmp_path / "cache" / "tenant-journal.ndjson"
        written = path.stat()

        # the bounce: an entirely new cluster over the same table
        with ClusterThread(self._config(tmp_path)) as reborn:
            after = tenant_table(reborn.host, reborn.port)
            stats = None
            with ServeClient(reborn.host, reborn.port, connect_retries=4) as c:
                stats = c.stats()["result"]
        assert after == before
        assert stats["journal"] == {"path": str(path), "tenants": 3}
        # the config pre-registration did not change, so the second boot
        # did not rewrite the file (each write renames a new inode in)
        again = path.stat()
        assert (again.st_ino, again.st_mtime_ns) == (written.st_ino, written.st_mtime_ns)

    def test_a_registration_is_on_disk_before_the_router_answers(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "j.ndjson"
        real_write = tenants_mod.atomic_write_text

        def slow_write(*args, **kwargs):
            time.sleep(0.2)  # an answer sent ahead of the write would win this race
            return real_write(*args, **kwargs)

        monkeypatch.setattr(tenants_mod, "atomic_write_text", slow_write)
        config = ClusterConfig(
            shards=1, workers_per_shard=1, calibrate=0, supervise=False,
            journal_path=str(path),
        )
        with ClusterThread(config) as cluster:
            with ServeClient(cluster.host, cluster.port, connect_retries=4) as c:
                assert c.register_tenant("acme", 50.0, 20.0)["ok"]
                assert '"tenant": "acme"' in path.read_text()
