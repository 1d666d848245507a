"""ArtifactStore unit contract: keys, atomicity, versioning, GC, CLI.

Everything the resume path depends on is pinned here at the store
level; the session-level composition lives in ``test_resume.py``.
"""

import json
import os

import numpy as np
import pytest

from repro.store import (
    STORE_FORMAT_VERSION,
    ArtifactStore,
    StoreError,
    canonical_key,
    store_digest,
)
from repro.store.cli import main as store_main
from repro.store.store import STAGING_PREFIX


@pytest.fixture()
def store(tmp_path):
    return ArtifactStore(tmp_path / "store")


class TestKeys:
    def test_canonical_key_passes_hashes_names_scalars(self):
        key = ("pipeline", "cafe1234", 16.0, 1, True, None, (0, 1))
        assert canonical_key(key) == [
            "pipeline", "cafe1234", 16.0, 1, True, None, [0, 1],
        ]

    def test_canonical_key_rejects_live_objects(self):
        with pytest.raises(StoreError, match="object\n?.*identity|hashes"):
            canonical_key(("pipeline", object()))

    def test_digest_is_stable_across_tuple_list_spelling(self):
        assert store_digest(("a", (0, 1))) == store_digest(["a", [0, 1]])

    def test_digest_differs_for_different_keys(self):
        assert store_digest(("a", 1)) != store_digest(("a", 2))


class TestRoundTrip:
    def test_put_get_round_trips_arrays(self, store):
        value = {"weights": np.arange(12.0).reshape(3, 4), "epochs": 4}
        store.put(("pipeline", "deadbeef"), value)
        loaded = store.get(("pipeline", "deadbeef"))
        np.testing.assert_array_equal(loaded["weights"], value["weights"])
        assert loaded["epochs"] == 4

    def test_miss_raises_keyerror(self, store):
        with pytest.raises(KeyError):
            store.get(("pipeline", "unseen"))
        assert not store.contains(("pipeline", "unseen"))

    def test_record_carries_provenance(self, store):
        record = store.put(("run_result", "abc123"), [1, 2, 3])
        assert record.format == STORE_FORMAT_VERSION
        assert record.kind == "run_result"
        assert record.key == ["run_result", "abc123"]
        assert record.nbytes > 0
        assert record.payload_digest

    def test_overwrite_replaces_entry(self, store):
        store.put(("x", "k"), "old")
        store.put(("x", "k"), "new")
        assert store.get(("x", "k")) == "new"
        assert store.stats()["entries"] == 1

    def test_counters_track_hits_and_misses(self, store):
        store.put(("x", "k"), 1)
        store.get(("x", "k"))
        with pytest.raises(KeyError):
            store.get(("x", "other"))
        assert store.counters["puts"] == 1
        assert store.counters["hits"] == 1
        assert store.counters["misses"] == 1


class TestAtomicity:
    def test_no_staging_debris_after_put(self, store):
        store.put(("x", "k"), list(range(100)))
        assert store.staging_files() == []

    def test_torn_payload_is_refused_not_misread(self, store):
        store.put(("x", "k"), list(range(100)))
        digest = store.digest_for(("x", "k"))
        payload = store._entries / f"{digest}.pkl"
        payload.write_bytes(payload.read_bytes()[:10])  # simulate a tear
        with pytest.raises(KeyError, match="refused"):
            store.get(("x", "k"))

    @pytest.mark.parametrize("suffix", [".json", ".pkl"])
    def test_torn_entry_reads_as_a_miss(self, store, suffix):
        # Every single-byte flip and every truncation of either half of
        # an entry: ``get`` returns the original value or raises
        # KeyError, and ``contains`` never raises.
        key, value = ("x", "k"), {"weights": list(range(8)), "tag": "ok"}
        store.put(key, value)
        path = store._entries / f"{store.digest_for(key)}{suffix}"
        original = path.read_bytes()
        damaged = [
            original[:i] + bytes([original[i] ^ 0xFF]) + original[i + 1:]
            for i in range(len(original))
        ]
        damaged += [original[:n] for n in range(len(original))]
        for data in damaged:
            path.write_bytes(data)
            store.contains(key)
            try:
                got = store.get(key)
            except KeyError:
                continue
            assert got == value
        path.write_bytes(original)
        assert store.get(key) == value

    @pytest.mark.parametrize("record", [b"[1, 2]", b"42", b'"text"', b"null"])
    def test_non_object_record_reads_as_a_miss(self, store, record):
        store.put(("x", "k"), 1)
        meta = store._entries / f"{store.digest_for(('x', 'k'))}.json"
        meta.write_bytes(record)
        assert not store.contains(("x", "k"))
        with pytest.raises(KeyError):
            store.get(("x", "k"))
        assert store.records() == []

    @pytest.mark.parametrize(
        "field, value",
        [
            ("nbytes", "x"),
            ("nbytes", None),
            pytest.param("format", str(STORE_FORMAT_VERSION), id="format-str"),
            ("format", None),
            ("digest", 7),
            ("kind", []),
            ("payload_digest", None),
            ("nbytes", "<missing>"),
            ("key", "<missing>"),
            ("format", "<missing>"),
        ],
    )
    def test_mistyped_record_reads_as_stale(self, store, field, value):
        # An object record with a missing or wrong-typed field is not
        # format-current: a miss for get/contains, stale for ls/gc.
        key = ("x", "k")
        store.put(key, 1)
        meta = store._entries / f"{store.digest_for(key)}.json"
        data = json.loads(meta.read_text())
        if value == "<missing>":
            del data[field]
        else:
            data[field] = value
        meta.write_text(json.dumps(data))
        assert not store.contains(key)
        with pytest.raises(KeyError):
            store.get(key)
        [(record, _)] = store.records()
        assert record.stale
        assert store.stats()["stale_entries"] == 1
        assert store.gc()["evicted"] == [store.digest_for(key)]

    def test_interrupted_write_leaves_only_staging_debris(self, store):
        # Emulate a SIGTERM mid-write: a staging file exists, no record.
        debris = store._staging / f"{STAGING_PREFIX}interrupted"
        debris.write_bytes(b"partial")
        assert store.stats()["entries"] == 0
        assert len(store.staging_files()) == 1
        report = store.gc()
        assert report["staging_purged"] == [debris.name]
        assert store.staging_files() == []


class TestVersioning:
    def _age_format(self, store, key, version):
        digest = store.digest_for(key)
        meta = store._entries / f"{digest}.json"
        data = json.loads(meta.read_text())
        data["format"] = version
        meta.write_text(json.dumps(data))

    def test_stale_format_refused(self, store):
        store.put(("x", "k"), 42)
        self._age_format(store, ("x", "k"), STORE_FORMAT_VERSION + 1)
        assert not store.contains(("x", "k"))
        with pytest.raises(KeyError, match="format"):
            store.get(("x", "k"))
        assert store.counters["stale_refused"] == 1

    def test_gc_evicts_stale_first(self, store):
        store.put(("x", "stale"), 1)
        store.put(("x", "live"), 2)
        self._age_format(store, ("x", "stale"), -1)
        report = store.gc()
        assert report["evicted"] == [store.digest_for(("x", "stale"))]
        assert store.get(("x", "live")) == 2


class TestGC:
    def test_entry_budget_evicts_least_recently_used(self, store):
        for i in range(4):
            store.put(("x", f"k{i}"), i)
        # Touch k0 and k1: they become most-recently-used.
        os_times = [("x", "k0"), ("x", "k1")]
        for key in os_times:
            self._touch(store, key)
        report = store.gc(max_entries=2)
        assert len(report["evicted"]) == 2
        assert store.contains(("x", "k0"))
        assert store.contains(("x", "k1"))
        assert not store.contains(("x", "k2"))
        assert not store.contains(("x", "k3"))

    def test_byte_budget_evicts_down_to_size(self, store):
        for i in range(4):
            store.put(("x", f"k{i}"), bytes(1000))
        per_entry = store.records()[0][0].nbytes
        report = store.gc(max_bytes=2 * per_entry)
        assert report["bytes"] <= 2 * per_entry
        assert report["entries"] == 2

    def test_unbudgeted_gc_keeps_live_entries(self, store):
        store.put(("x", "k"), 1)
        report = store.gc()
        assert report["evicted"] == []
        assert store.get(("x", "k")) == 1

    @staticmethod
    def _touch(store, key):
        # Bump the LRU stamp the way a real `get` does, but with an
        # explicit future mtime so filesystems with coarse timestamps
        # cannot tie-break the test.
        digest = store.digest_for(key)
        for suffix in (".json", ".pkl"):
            path = store._entries / f"{digest}{suffix}"
            stat = path.stat()
            os.utime(
                path, ns=(stat.st_atime_ns, stat.st_mtime_ns + 10**9)
            )


class TestCLI:
    def test_ls_renders_entries_and_stats(self, store, tmp_path, capsys):
        store.put(("pipeline", "cafe"), 1)
        out_json = tmp_path / "ls.json"
        code = store_main(
            ["ls", str(store.root), "--json", str(out_json)]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "pipeline" in printed
        assert "1 entries" in printed
        data = json.loads(out_json.read_text())
        assert data["entries"][0]["kind"] == "pipeline"
        assert data["stats"]["entries"] == 1

    def test_rm_by_digest_prefix(self, store, capsys):
        store.put(("x", "k"), 1)
        digest = store.digest_for(("x", "k"))
        assert store_main(["rm", str(store.root), digest[:8]]) == 0
        assert not store.contains(("x", "k"))

    def test_rm_without_selector_is_usage_error(self, store, capsys):
        assert store_main(["rm", str(store.root)]) == 2

    def test_gc_reports_budget_eviction(self, store, tmp_path, capsys):
        for i in range(3):
            store.put(("x", f"k{i}"), i)
        out_json = tmp_path / "gc.json"
        code = store_main(
            [
                "gc", str(store.root),
                "--max-entries", "1",
                "--json", str(out_json),
            ]
        )
        assert code == 0
        report = json.loads(out_json.read_text())
        assert len(report["evicted"]) == 2
        assert report["entries"] == 1

    def test_store_root_collision_with_file_is_error(self, tmp_path):
        not_a_dir = tmp_path / "flat"
        not_a_dir.write_text("x")
        assert store_main(["ls", str(not_a_dir)]) == 2
