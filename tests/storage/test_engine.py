"""Unit tests for the storage engine, bulk loader and API wiring."""

from __future__ import annotations

import threading

import pytest

from repro import KGNet, StorageEngine
from repro.exceptions import RDFError, StorageError
from repro.rdf import Dataset, Graph, IRI, Literal, Triple
from repro.storage import stream_load, stream_load_triples
from repro.storage.engine import JournalledLock
from repro.storage.wal import WriteAheadLog

EX = "http://example.org/engine/"


def _triple(n: int) -> Triple:
    return Triple(IRI(EX + f"s{n}"), IRI(EX + "p"), Literal(n))


# ---------------------------------------------------------------------------
# JournalledLock
# ---------------------------------------------------------------------------

class _RecordingJournal:
    def __init__(self):
        self.commits = 0
        self.fail_next = False

    def commit(self):
        if self.fail_next:
            self.fail_next = False
            raise OSError("disk on fire")
        self.commits += 1

    def discard_pending(self):
        self.discarded = True
        return 1


class TestJournalledLock:
    def test_commit_fires_only_at_outermost_release(self):
        journal = _RecordingJournal()
        lock = JournalledLock(journal)
        with lock:
            with lock:
                with lock:
                    pass
                assert journal.commits == 0
            assert journal.commits == 0
        assert journal.commits == 1

    def test_release_without_acquire_raises(self):
        lock = JournalledLock()
        with pytest.raises(RuntimeError):
            lock.release()

    def test_commit_failure_releases_lock_and_discards(self):
        journal = _RecordingJournal()
        journal.fail_next = True
        lock = JournalledLock(journal)
        with pytest.raises(OSError):
            with lock:
                pass
        assert journal.discarded
        # The lock must be free again for the next writer.
        acquired = []
        thread = threading.Thread(
            target=lambda: (lock.acquire(), acquired.append(True),
                            lock.release()))
        thread.start()
        thread.join(timeout=5)
        assert acquired == [True]

    def test_mutual_exclusion_still_holds(self):
        lock = JournalledLock()
        counter = {"value": 0}

        def bump():
            for _ in range(500):
                with lock:
                    counter["value"] += 1

        threads = [threading.Thread(target=bump) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter["value"] == 2000


# ---------------------------------------------------------------------------
# Streaming bulk loader
# ---------------------------------------------------------------------------

class TestBulkLoader:
    def test_batches_bump_epoch_once_each(self):
        graph = Graph()
        triples = [_triple(n) for n in range(25)]
        before = graph.epoch
        report = stream_load_triples(graph, triples, batch_size=10)
        assert report.triples_added == 25
        assert report.batches == 3
        # 3 batches => exactly 3 epoch bumps (25 via add() would be 25).
        assert graph.epoch == before + 3

    def test_duplicates_are_counted_seen_not_added(self):
        graph = Graph()
        graph.add(_triple(0))
        report = stream_load_triples(graph, [_triple(0), _triple(1)])
        assert report.triples_seen == 2
        assert report.triples_added == 1

    def test_stream_load_turtle_text(self):
        graph = Graph()
        text = "@prefix ex: <http://e/> .\nex:a ex:p ex:b , [ ex:q 1 ] ."
        report = stream_load(graph, text)
        assert report.triples_added == 3 == len(graph)

    def test_invalid_subject_raises(self):
        graph = Graph()
        bad = [Triple(Literal("nope"), IRI(EX + "p"), Literal(1))]
        with pytest.raises(RDFError):
            stream_load_triples(graph, bad)

    def test_invalid_batch_size_raises(self):
        with pytest.raises(RDFError):
            stream_load_triples(Graph(), [], batch_size=0)

    def test_bulk_matches_add_all_semantics(self):
        text = "\n".join(f"<{EX}s{n}> <{EX}p> <{EX}o{n % 5}> ."
                         for n in range(200))
        streamed = Graph()
        stream_load(streamed, text, batch_size=32)
        from repro.rdf import parse_ntriples
        assert streamed == parse_ntriples(text)

    def test_bulk_load_respects_pinned_snapshots(self):
        graph = Graph()
        graph.add(_triple(0))
        snapshot = graph.snapshot()
        stream_load_triples(graph, [_triple(n) for n in range(1, 50)])
        assert len(snapshot) == 1      # the pinned view must not move
        assert len(graph) == 50


# ---------------------------------------------------------------------------
# Engine lifecycle
# ---------------------------------------------------------------------------

class TestStorageEngine:
    def test_dataset_before_open_raises(self, tmp_path):
        with pytest.raises(StorageError):
            StorageEngine(str(tmp_path)).dataset

    def test_open_is_idempotent(self, tmp_path):
        engine = StorageEngine(str(tmp_path / "s"))
        first = engine.open()
        assert engine.open() is first
        engine.close()

    def test_context_manager(self, tmp_path):
        with StorageEngine(str(tmp_path / "s")) as engine:
            engine.dataset.default_graph.add(_triple(1))
            assert engine.is_open
        assert not engine.is_open

    def test_bulk_load_is_durable_via_checkpoint(self, tmp_path):
        directory = str(tmp_path / "s")
        with StorageEngine(directory) as engine:
            text = "\n".join(f"<{EX}s{n}> <{EX}p> <{EX}o> ." for n in range(64))
            engine.bulk_load(text, batch_size=16)
            assert engine._wal.size_bytes() == 0  # rotated, not journalled
        with StorageEngine(directory) as engine:
            assert len(engine.open().default_graph) == 64

    def test_bulk_load_is_atomic_on_parse_error(self, tmp_path):
        """A parse error mid-source must leave the serving dataset untouched."""
        directory = str(tmp_path / "s")
        with StorageEngine(directory) as engine:
            engine.dataset.default_graph.add(_triple(0))
            good = "\n".join(f"<{EX}s{n}> <{EX}p> <{EX}o> ." for n in range(50))
            bad = good + "\n<unterminated"
            with pytest.raises(Exception):
                engine.bulk_load(bad)
            # Nothing from the failed load leaked into the live graph...
            assert len(engine.dataset.default_graph) == 1
        with StorageEngine(directory) as engine:
            # ...and recovery still yields exactly the committed state.
            assert len(engine.open().default_graph) == 1

    def test_bulk_load_counts_net_of_existing(self, tmp_path):
        with StorageEngine(str(tmp_path / "s")) as engine:
            engine.dataset.default_graph.add(Triple(IRI(EX + "s0"),
                                                    IRI(EX + "p"),
                                                    IRI(EX + "o")))
            text = f"<{EX}s0> <{EX}p> <{EX}o> .\n<{EX}s1> <{EX}p> <{EX}o> ."
            report = engine.bulk_load(text)
            assert report.triples_seen == 2
            assert report.triples_added == 1  # s0 was already stored

    def test_bulk_load_fail_stops_wal_when_checkpoint_fails(self, tmp_path,
                                                            monkeypatch):
        """Merged-but-uncheckpointed triples must block later WAL commits.

        If the post-merge checkpoint fails, recovery could otherwise replay
        post-load commits on top of a checkpoint that never saw the load —
        a state that never existed.  The engine fail-stops the WAL instead.
        """
        import repro.storage.engine as engine_mod
        directory = str(tmp_path / "s")
        engine = StorageEngine(directory)
        engine.open()
        engine.dataset.default_graph.add(_triple(0))

        def boom(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(engine_mod, "write_checkpoint", boom)
        with pytest.raises(OSError):
            engine.bulk_load(f"<{EX}b> <{EX}p> <{EX}o> .")
        assert engine._wal.failed is True
        with pytest.raises(StorageError):
            engine.dataset.default_graph.add(_triple(9))
        # The rejected write must NOT have touched the live state.
        assert _triple(9) not in engine.dataset.default_graph
        monkeypatch.undo()
        # A later successful checkpoint (admin/persist) heals the latch and
        # makes the loaded data durable.
        engine.checkpoint()
        assert engine._wal.failed is False
        engine.close()
        with StorageEngine(directory) as engine2:
            assert len(engine2.open().default_graph) == 2  # 0, b

    def test_fail_stopped_wal_rejects_writes_without_applying_them(self, tmp_path):
        """A rejected mutation must leave the in-memory dataset unchanged.

        Regression: the journal used to be appended AFTER the index
        mutation, so a fail-stopped WAL raised StorageError while the change
        was already visible to readers — a failed operation that took
        effect, silently diverging the live state from anything recovery
        could reconstruct.  Every journalled mutation path must reject
        cleanly: add, remove, clear, graph create, graph drop.
        """
        engine = StorageEngine(str(tmp_path / "s"))
        engine.open()
        dataset = engine.dataset
        dataset.default_graph.add(_triple(1))
        dataset.graph(EX + "g").add(_triple(2))
        engine._wal.failed = True

        with pytest.raises(StorageError):
            dataset.default_graph.add(_triple(3))
        assert _triple(3) not in dataset.default_graph
        with pytest.raises(StorageError):
            dataset.default_graph.remove(*_triple(1))
        assert _triple(1) in dataset.default_graph
        with pytest.raises(StorageError):
            dataset.graph(EX + "g").clear()
        assert len(dataset.graph(EX + "g")) == 1
        with pytest.raises(StorageError):
            dataset.graph(EX + "new")
        assert not dataset.has_graph(EX + "new")
        with pytest.raises(StorageError):
            dataset.drop_graph(EX + "g")
        assert dataset.has_graph(EX + "g")

        # Healing via checkpoint re-admits writers on the unchanged state.
        engine.checkpoint()
        dataset.default_graph.add(_triple(3))
        state = sorted(t.n3() for t in dataset.default_graph)
        engine.close()
        with StorageEngine(str(tmp_path / "s")) as engine2:
            assert sorted(t.n3() for t in engine2.open().default_graph) == state

    def test_bulk_load_crash_before_checkpoint_leaves_no_created_graph(
            self, tmp_path, monkeypatch):
        """A crash mid-bulk_load must recover the PRE-load state exactly.

        Regression: the implicit ``dataset.graph(graph_iri)`` used to run
        with the journal attached, committing a CREATE record to the WAL
        before the load's checkpoint — so a crash before the checkpoint
        rename recovered an empty named graph the pre-load state never had.
        """
        import repro.storage.engine as engine_mod
        directory = str(tmp_path / "s")
        engine = StorageEngine(directory)
        engine.open()
        engine.dataset.default_graph.add(_triple(0))

        def boom(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(engine_mod, "write_checkpoint", boom)
        with pytest.raises(OSError):
            engine.bulk_load(f"<{EX}x> <{EX}p> <{EX}o> .", graph_iri=EX + "g")
        engine.close()
        with StorageEngine(directory) as engine2:
            dataset = engine2.open()
            assert not dataset.has_graph(EX + "g")
            assert len(dataset.default_graph) == 1

    def test_wal_fail_stop_after_commit_failure(self, tmp_path):
        """After a lost commit the WAL refuses work until checkpoint/reopen."""
        directory = str(tmp_path / "s")
        engine = StorageEngine(directory)
        engine.open()
        engine.dataset.default_graph.add(_triple(1))
        engine._wal.failed = True  # as a failed fsync would have set it
        with pytest.raises(StorageError):
            engine.dataset.default_graph.add(_triple(2))
        # checkpoint() heals: it snapshots live memory and rotates the log.
        engine.checkpoint()
        assert engine._wal.failed is False
        engine.dataset.default_graph.add(_triple(3))
        state = sorted(t.n3() for t in engine.dataset.default_graph)
        engine.close()
        with StorageEngine(directory) as engine2:
            recovered = sorted(t.n3() for t in engine2.open().default_graph)
        assert recovered == state

    def test_bulk_load_into_named_graph(self, tmp_path):
        directory = str(tmp_path / "s")
        with StorageEngine(directory) as engine:
            engine.bulk_load(f"<{EX}x> <{EX}p> 1 .", graph_iri=EX + "g")
        with StorageEngine(directory) as engine:
            dataset = engine.open()
            assert len(dataset.graph(EX + "g", create=False)) == 1

    def test_wal_without_dictionary_raises(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "wal.log"))
        with pytest.raises(StorageError):
            wal.log_add(None, 0, 1, 2)

    def test_stats_shape(self, tmp_path):
        with StorageEngine(str(tmp_path / "s")) as engine:
            engine.dataset.default_graph.add(_triple(3))
            engine.checkpoint()
            stats = engine.stats()
        assert stats["checkpoints_written"] == 1
        assert stats["last_checkpoint"]["triples"] == 1
        assert stats["wal"]["commits"] == 1


# ---------------------------------------------------------------------------
# API wiring: admin routes, platform integration
# ---------------------------------------------------------------------------

class TestAdminRoutes:
    @pytest.fixture()
    def durable_platform(self, tmp_path):
        platform = KGNet(storage=StorageEngine(str(tmp_path / "kg")))
        yield platform
        platform.storage.close()

    def test_routes_require_storage(self):
        platform = KGNet()
        response = platform.api.dispatch({"op": "admin/persist", "params": {}})
        assert not response.ok
        assert response.error["code"] == "BAD_REQUEST"

    def test_persist_restore_loop(self, durable_platform, tmp_path):
        platform = durable_platform
        platform.sparql(f'INSERT DATA {{ <{EX}a> <{EX}p> "v"@en }}')
        persist = platform.client.call("admin/persist")
        assert persist["checkpoint"]["triples"] == 1
        platform.sparql(f"INSERT DATA {{ <{EX}b> <{EX}p> 2 }}")
        restore = platform.client.call("admin/restore")
        assert restore["restored_triples"] == 2
        rows = platform.sparql(
            f"SELECT ?s WHERE {{ ?s <{EX}p> ?o }}").to_python()
        assert sorted(row["s"] for row in rows) == [EX + "a", EX + "b"]

    def test_restore_swaps_endpoint_dataset(self, durable_platform):
        platform = durable_platform
        platform.sparql(f"INSERT DATA {{ <{EX}a> <{EX}p> 1 }}")
        old_dataset = platform.endpoint.dataset
        platform.client.call("admin/restore")
        assert platform.endpoint.dataset is not old_dataset
        assert platform.endpoint.dataset is platform.storage.dataset

    def test_bulk_load_route(self, durable_platform):
        platform = durable_platform
        result = platform.client.call(
            "admin/bulk_load",
            turtle="\n".join(f"<{EX}s{n}> <{EX}p> <{EX}o> ." for n in range(10)))
        assert result["triples_added"] == 10
        assert result["total_triples"] == 10

    def test_bulk_load_route_into_named_graph_reconciles(self, durable_platform):
        result = durable_platform.client.call(
            "admin/bulk_load",
            turtle="\n".join(f"<{EX}s{n}> <{EX}p> <{EX}o> ." for n in range(7)),
            graph_iri=EX + "named")
        assert result["triples_added"] == 7
        assert result["graph_triples"] == 7   # the named target
        assert result["total_triples"] == 7   # dataset-wide, not default-only

    def test_platform_rejects_unwired_endpoint_plus_storage(self, tmp_path):
        from repro.exceptions import PlatformError
        from repro.sparql import SPARQLEndpoint
        engine = StorageEngine(str(tmp_path / "kg"))
        with pytest.raises(PlatformError):
            KGNet(endpoint=SPARQLEndpoint(), storage=engine)
        # The wired spelling is still allowed.
        platform = KGNet(endpoint=SPARQLEndpoint(dataset=engine.open()),
                         storage=engine)
        assert platform.endpoint.dataset is engine.dataset
        engine.close()

    def test_metrics_include_storage(self, durable_platform):
        metrics = durable_platform.client.call("metrics")
        assert metrics["storage"]["open"] is True

    def test_generated_bnode_labels_are_process_unique(self, tmp_path):
        """Fresh processes must not mint bnode labels that collide with
        persisted ones (the anonymous-[...] parser generates labels)."""
        import os
        import subprocess
        import sys

        from repro.rdf import BNode

        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env = dict(os.environ, PYTHONPATH=src)
        other = subprocess.run(
            [sys.executable, "-c", "from repro.rdf import BNode; print(BNode().id)"],
            capture_output=True, text=True, env=env, check=True).stdout.strip()
        local = BNode().id
        # Same generated-label shape, different process-unique prefix.
        assert other != local
        assert other.split("n", 1)[0] != local.split("n", 1)[0]

    def test_bulk_load_route_rejects_nonpositive_batch_size(self, durable_platform):
        response = durable_platform.api.dispatch(
            {"op": "admin/bulk_load",
             "params": {"turtle": f"<{EX}a> <{EX}p> 1 .", "batch_size": 0}})
        assert not response.ok
        assert response.error["code"] == "BAD_REQUEST"

    def test_reboot_recovers_platform_state(self, tmp_path):
        directory = str(tmp_path / "kg")
        platform = KGNet(storage=StorageEngine(directory))
        platform.sparql(f"INSERT DATA {{ <{EX}a> <{EX}p> 41 }}")
        platform.storage.close()
        rebooted = KGNet(storage=StorageEngine(directory))
        rows = rebooted.sparql(f"SELECT ?o WHERE {{ <{EX}a> <{EX}p> ?o }}")
        assert rows.to_python() == [{"o": 41}]
        rebooted.storage.close()

    def test_plan_cache_cleared_on_restore(self, durable_platform):
        platform = durable_platform
        query = f"SELECT ?s WHERE {{ ?s <{EX}p> ?o }}"
        platform.sparql(f"INSERT DATA {{ <{EX}a> <{EX}p> 1 }}")
        platform.sparql(query)
        assert len(platform.endpoint.plan_cache) > 0
        platform.client.call("admin/restore")
        assert len(platform.endpoint.plan_cache) == 0
        assert platform.sparql(query).to_python() == [{"s": EX + "a"}]
