"""Unit tests for WAL segment archival, retention and range streaming."""

from __future__ import annotations

import os
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exceptions import StorageError, WalTruncatedError
from repro.rdf import IRI, Literal, Triple
from repro.storage import StorageEngine
from repro.storage.segments import WalArchive
from repro.storage.wal import scan_transactions

EX = "http://example.org/segments/"


def _triple(n: int) -> Triple:
    return Triple(IRI(EX + f"s{n}"), IRI(EX + "p"), Literal(n))


def _write(engine: StorageEngine, count: int, start: int = 0) -> None:
    for n in range(start, start + count):
        engine.dataset.default_graph.add(_triple(n))


class TestArchival:
    def test_checkpoint_archives_named_segment(self, tmp_path):
        with StorageEngine(str(tmp_path), fsync=False) as engine:
            engine.open()
            _write(engine, 3)
            engine.checkpoint()
            segments = engine.archive.segments()
            assert [(s.first_seq, s.last_seq) for s in segments] == [(1, 3)]
            assert os.path.basename(segments[0].path) == "wal-1-3.seg"
            _write(engine, 2, start=3)
            engine.checkpoint()
            assert [(s.first_seq, s.last_seq)
                    for s in engine.archive.segments()] == [(1, 3), (4, 5)]
            assert engine.archive.oldest_seq() == 1

    def test_empty_window_checkpoint_archives_nothing(self, tmp_path):
        with StorageEngine(str(tmp_path), fsync=False) as engine:
            engine.open()
            engine.checkpoint()
            assert engine.archive.segments() == []
            assert engine.archive.oldest_seq() is None

    def test_retention_prunes_oldest(self, tmp_path):
        with StorageEngine(str(tmp_path), fsync=False,
                           retain_segments=2) as engine:
            engine.open()
            for round_ in range(4):
                _write(engine, 2, start=2 * round_)
                engine.checkpoint()
            kept = engine.archive.segments()
            assert [(s.first_seq, s.last_seq) for s in kept] == [(5, 6), (7, 8)]

    def test_retain_zero_keeps_nothing(self, tmp_path):
        with StorageEngine(str(tmp_path), fsync=False,
                           retain_segments=0) as engine:
            engine.open()
            _write(engine, 2)
            engine.checkpoint()
            assert engine.archive.segments() == []

    def test_archive_survives_reopen(self, tmp_path):
        engine = StorageEngine(str(tmp_path), fsync=False)
        engine.open()
        _write(engine, 3)
        engine.checkpoint()
        engine.close()
        engine = StorageEngine(str(tmp_path), fsync=False)
        engine.open()
        assert engine.archive.oldest_seq() == 1
        assert engine.wal_window() == (1, 3)
        engine.close()


class TestWalWindow:
    def test_window_spans_archive_and_live_log(self, tmp_path):
        with StorageEngine(str(tmp_path), fsync=False) as engine:
            engine.open()
            assert engine.wal_window() == (None, 0)
            _write(engine, 3)
            assert engine.wal_window() == (1, 3)
            engine.checkpoint()       # 1..3 now archived, live log empty
            assert engine.wal_window() == (1, 3)
            _write(engine, 2, start=3)
            assert engine.wal_window() == (1, 5)

    def test_window_shrinks_with_retention(self, tmp_path):
        with StorageEngine(str(tmp_path), fsync=False,
                           retain_segments=1) as engine:
            engine.open()
            _write(engine, 2)
            engine.checkpoint()
            _write(engine, 2, start=2)
            engine.checkpoint()
            assert engine.wal_window() == (3, 4)


class TestStreamWalAfter:
    def _seqs(self, engine, after):
        return [seq for seq, _ in engine.stream_wal_after(after)]

    def test_streams_across_segments_and_live_log(self, tmp_path):
        with StorageEngine(str(tmp_path), fsync=False) as engine:
            engine.open()
            _write(engine, 3)
            engine.checkpoint()
            _write(engine, 2, start=3)
            engine.checkpoint()
            _write(engine, 2, start=5)      # stays in the live log
            assert self._seqs(engine, 0) == [1, 2, 3, 4, 5, 6, 7]
            assert self._seqs(engine, 4) == [5, 6, 7]
            assert self._seqs(engine, 7) == []
            assert self._seqs(engine, 99) == []

    def test_raw_bytes_decode_to_the_original_ops(self, tmp_path):
        with StorageEngine(str(tmp_path), fsync=False) as engine:
            engine.open()
            _write(engine, 2)
            engine.checkpoint()
            _write(engine, 1, start=2)
            for seq, raw in engine.stream_wal_after(0):
                transaction, = scan_transactions(raw)
                assert transaction.seq == seq
                assert transaction.raw == raw
                assert len(transaction.ops) == 1    # one add per transaction

    def test_truncated_range_raises(self, tmp_path):
        with StorageEngine(str(tmp_path), fsync=False,
                           retain_segments=0) as engine:
            engine.open()
            _write(engine, 3)
            engine.checkpoint()             # history 1..3 pruned away
            with pytest.raises(WalTruncatedError):
                list(engine.stream_wal_after(0))
            _write(engine, 1, start=3)
            assert self._seqs(engine, 3) == [4]

    def test_boundary_just_inside_window_is_fine(self, tmp_path):
        with StorageEngine(str(tmp_path), fsync=False,
                           retain_segments=1) as engine:
            engine.open()
            _write(engine, 2)
            engine.checkpoint()
            _write(engine, 2, start=2)
            engine.checkpoint()             # window now starts at seq 3
            assert self._seqs(engine, 2) == [3, 4]
            with pytest.raises(WalTruncatedError):
                list(engine.stream_wal_after(1))


class TestSnapshotBytes:
    def test_returns_checkpoint_content_and_seq(self, tmp_path):
        with StorageEngine(str(tmp_path), fsync=False) as engine:
            engine.open()
            _write(engine, 3)
            data, seq = engine.snapshot_bytes()     # implicit checkpoint
            assert seq == 3
            with open(engine.checkpoint_path, "rb") as handle:
                assert handle.read() == data

    def test_snapshot_installs_on_a_fresh_directory(self, tmp_path):
        source = StorageEngine(str(tmp_path / "a"), fsync=False)
        source.open()
        _write(source, 4)
        data, seq = source.snapshot_bytes()
        source.close()

        target_dir = tmp_path / "b"
        target_dir.mkdir()
        target = StorageEngine(str(target_dir), fsync=False)
        with open(target.checkpoint_path, "wb") as handle:
            handle.write(data)
        dataset = target.open()
        assert len(dataset.default_graph) == 4
        assert target._wal.last_seq == seq
        target.close()


class TestWalArchiveDirect:
    def test_foreign_files_are_ignored(self, tmp_path):
        archive = WalArchive(str(tmp_path), retain=4, fsync=False)
        archive.ensure_dir()
        (tmp_path / "not-a-segment.txt").write_text("x")
        (tmp_path / "wal-bad-name.seg").write_text("x")
        assert archive.segments() == []

    def test_clear_removes_all_segments(self, tmp_path):
        archive = WalArchive(str(tmp_path), retain=4, fsync=False)
        archive.ensure_dir()
        (tmp_path / "wal-1-3.seg").write_bytes(b"x")
        (tmp_path / "wal-4-6.seg").write_bytes(b"y")
        assert len(archive.segments()) == 2
        archive.clear()
        assert archive.segments() == []


# ---------------------------------------------------------------------------
# Shipped ≡ recovered: a follower fed the primary's stream is the primary
# ---------------------------------------------------------------------------

GRAPHS = (None, IRI(EX + "g1"), IRI(EX + "g2"))
#: Deflated in the WAL (a record over WAL_COMPRESS_MIN_BYTES).
BIG = Literal("a long literal body " * 20)


def _graph(dataset, index):
    name = GRAPHS[index]
    return dataset.graph(name) if name is not None else dataset.default_graph


_STEPS = st.one_of(
    st.tuples(st.sampled_from(["add", "remove"]), st.integers(0, 2),
              st.integers(0, 5)),
    st.tuples(st.sampled_from(["big", "batch"]), st.integers(0, 2),
              st.integers(0, 5)),
    st.tuples(st.sampled_from(["clear", "create", "drop"]),
              st.integers(0, 2), st.just(0)),
    st.tuples(st.just("checkpoint"), st.just(0), st.just(0)),
)


def _run_script(engine: StorageEngine, script) -> None:
    dataset = engine.dataset
    for kind, graph, n in script:
        if kind == "add":
            _graph(dataset, graph).add(_triple(n))
        elif kind == "remove":
            _graph(dataset, graph).remove(*_triple(n))
        elif kind == "big":
            _graph(dataset, graph).add(
                Triple(IRI(EX + f"s{n}"), IRI(EX + "body"), BIG))
        elif kind == "batch":       # one transaction of several records
            _graph(dataset, graph).add_all(
                [_triple(n), _triple(n + 1),
                 Triple(IRI(EX + f"s{n}"), IRI(EX + "body"), BIG)])
        elif kind == "clear":
            _graph(dataset, graph).clear()
        elif kind == "create":
            _graph(dataset, graph)
        elif kind == "drop":
            if GRAPHS[graph] is not None:
                dataset.drop_graph(GRAPHS[graph])
        else:
            engine.checkpoint()


def _state(dataset) -> dict:
    state = {None: frozenset(dataset.default_graph)}
    for graph in dataset.named_graphs():
        state[graph.identifier.value] = frozenset(graph)
    return state


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(script=st.lists(_STEPS, max_size=24))
def test_shipped_stream_applies_to_the_recovered_state(script):
    """Feeding ``stream_wal_after(0)`` to a fresh follower through
    :meth:`StorageEngine.apply_shipped` reproduces the primary's live state
    and what the primary's own recovery rebuilds, and leaves the follower
    a ``wal.log`` byte-equal to what was shipped."""
    with tempfile.TemporaryDirectory(prefix="kgnet-ship-") as root:
        primary = StorageEngine(os.path.join(root, "primary"), fsync=False,
                                retain_segments=len(script) + 1)
        primary.open()
        _run_script(primary, script)
        live = _state(primary.dataset)
        shipped = b"".join(raw for _, raw in primary.stream_wal_after(0))
        primary.close()
        with StorageEngine(primary.directory, fsync=False) as recovered:
            assert _state(recovered.dataset) == live

        follower = StorageEngine(os.path.join(root, "follower"), fsync=False)
        follower.open()
        for transaction in scan_transactions(shipped):
            follower.apply_shipped(transaction)
        assert _state(follower.dataset) == live
        follower.close()
        if shipped:         # an empty stream never creates the follower's log
            with open(follower.wal_path, "rb") as handle:
                assert handle.read() == shipped
        with StorageEngine(follower.directory, fsync=False) as reopened:
            assert _state(reopened.dataset) == live
