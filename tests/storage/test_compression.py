"""Checkpoint/WAL zlib compression (ROADMAP follow-up, ISSUE-5 satellite).

Contract under test:

* v2 checkpoints (zlib-framed sections) round-trip term-for-term and are
  substantially smaller than v1 on redundant KGs,
* the reader dispatches on the magic, so every old checkpoint on disk stays
  readable: ``fixtures/v1_store`` is a directory the last build with a v1
  writer (commit 80b643f, ``StorageEngine(compress=False)``) left behind —
  a ``KGCKPT01`` checkpoint of ``build_dataset(100)`` plus a WAL suffix
  holding one raw record over the deflate threshold,
* corruption of a compressed file is still caught (CRC covers the payload,
  inflate failures raise :class:`CorruptCheckpointError`),
* big WAL records are deflated behind the ``Z`` envelope kind and replay
  transparently; deflated and raw records interoperate in one log,
* the raw/stored byte accounting surfaces in ``StorageEngine.stats()``.
"""

from __future__ import annotations

import os
import shutil

import pytest

from repro.exceptions import CorruptCheckpointError
from repro.rdf.dataset import Dataset
from repro.rdf.terms import IRI, Literal, Triple
from repro.storage import StorageEngine
from repro.storage.checkpoint import (
    MAGIC,
    MAGIC_V2,
    read_checkpoint,
    write_checkpoint,
)
from repro.storage.wal import WAL_COMPRESS_MIN_BYTES, WriteAheadLog, scan_transactions

EX = "http://example.org/zlib/"

V1_STORE = os.path.join(os.path.dirname(__file__), "fixtures", "v1_store")
#: The one transaction in the fixture's WAL, committed after its checkpoint.
V1_WAL_TRIPLE = Triple(IRI(EX + "wal"), IRI(EX + "p0"),
                       Literal("wal suffix " * 80))


def v1_store_copy(tmp_path) -> str:
    """A scratch copy of the fixture: opening an engine writes to its directory."""
    return shutil.copytree(V1_STORE, str(tmp_path / "store"))


def build_dataset(triples: int = 500) -> Dataset:
    dataset = Dataset()
    graph = dataset.default_graph
    for index in range(triples):
        graph.add(IRI(f"{EX}subject/{index % 50}"), IRI(f"{EX}p{index % 5}"),
                  Literal(f"a very repetitive payload value {index % 20}"))
    named = dataset.graph(IRI(EX + "g1"))
    named.add(IRI(EX + "a"), IRI(EX + "p0"), Literal("named graph survivor"))
    return dataset


def dataset_triples(dataset: Dataset) -> set:
    everything = set(dataset.default_graph)
    for graph in dataset.named_graphs():
        everything.update(graph)
    return everything


class TestCheckpointCompression:
    def test_v2_roundtrip_and_magic(self, tmp_path):
        dataset = build_dataset()
        path = str(tmp_path / "c.kgck")
        info = write_checkpoint(dataset, path)
        with open(path, "rb") as handle:
            assert handle.read(8) == MAGIC_V2
        assert info.compressed
        assert info.section_stored_bytes < info.section_raw_bytes
        restored, seq, read_info = read_checkpoint(path)
        assert read_info.compressed
        # The restore side reports the same raw/stored accounting the
        # write side recorded, so ratios can be computed from either.
        assert read_info.section_raw_bytes == info.section_raw_bytes
        assert read_info.section_stored_bytes == info.section_stored_bytes
        assert dataset_triples(restored) == dataset_triples(dataset)

    def test_v1_checkpoint_still_reads(self):
        path = os.path.join(V1_STORE, "checkpoint.kgck")
        with open(path, "rb") as handle:
            assert handle.read(8) == MAGIC
        restored, _, read_info = read_checkpoint(path)
        assert not read_info.compressed
        assert read_info.section_stored_bytes == read_info.section_raw_bytes
        assert dataset_triples(restored) == dataset_triples(build_dataset(100))

    def test_compression_actually_shrinks_the_file(self, tmp_path):
        dataset = build_dataset(2000)
        path = str(tmp_path / "v2.kgck")
        info = write_checkpoint(dataset, path)
        # A v1 file stored its sections raw: everything but the sections is
        # the same bytes in both formats (plus v2's one flag byte).
        v1_size = info.bytes - 1 - info.section_stored_bytes + info.section_raw_bytes
        ratio = v1_size / os.path.getsize(path)
        assert ratio > 2.0, f"compression ratio only {ratio:.2f}x"

    def test_every_byte_flip_in_a_v2_file_is_detected_or_equivalent(self, tmp_path):
        dataset = build_dataset(30)
        path = str(tmp_path / "c.kgck")
        write_checkpoint(dataset, path)
        with open(path, "rb") as handle:
            raw = bytearray(handle.read())
        baseline = dataset_triples(dataset)
        stride = max(1, len(raw) // 64)
        for offset in range(0, len(raw), stride):
            corrupted = bytearray(raw)
            corrupted[offset] ^= 0xFF
            with open(path, "wb") as handle:
                handle.write(corrupted)
            try:
                restored, _, _ = read_checkpoint(path)
            except CorruptCheckpointError:
                continue
            pytest.fail(f"flip at offset {offset} went undetected")
        with open(path, "wb") as handle:
            handle.write(raw)
        restored, _, _ = read_checkpoint(path)
        assert dataset_triples(restored) == baseline

    def test_unknown_flag_bits_are_rejected(self, tmp_path):
        dataset = build_dataset(10)
        path = str(tmp_path / "c.kgck")
        write_checkpoint(dataset, path)
        with open(path, "r+b") as handle:
            handle.seek(len(MAGIC_V2))
            handle.write(bytes([0x81]))
        with pytest.raises(CorruptCheckpointError):
            read_checkpoint(path)


class TestWalCompression:
    def _big_literal(self, index: int) -> Literal:
        return Literal(("payload chunk %d " % index) * 40)

    def test_large_records_deflate_and_replay(self, tmp_path):
        dataset = Dataset()
        wal = WriteAheadLog(str(tmp_path / "wal.log"), fsync=False)
        wal.attach_dictionary(dataset.dictionary)
        triples = [Triple(IRI(f"{EX}s{i}"), IRI(EX + "p"),
                          self._big_literal(i)) for i in range(5)]
        for triple in triples:
            si, pi, oi = (dataset.dictionary.encode(term) for term in triple)
            wal.log_add(None, si, pi, oi)
        wal.commit()
        assert wal.compressed_records == 5
        assert wal.bytes_saved > 0
        replayed = list(scan_transactions(wal.path))
        assert len(replayed) == 1
        assert [op.triple for op in replayed[0].ops] == triples
        wal.close()

    def test_small_records_stay_raw(self, tmp_path):
        dataset = Dataset()
        wal = WriteAheadLog(str(tmp_path / "wal.log"), fsync=False)
        wal.attach_dictionary(dataset.dictionary)
        triple = Triple(IRI(EX + "s"), IRI(EX + "p"), Literal("tiny"))
        si, pi, oi = (dataset.dictionary.encode(term) for term in triple)
        wal.log_add(None, si, pi, oi)
        wal.commit()
        assert wal.compressed_records == 0
        wal.close()

    def test_deflated_and_raw_records_interoperate(self, tmp_path):
        path = str(tmp_path / "wal.log")
        dataset = Dataset()
        triple_big = Triple(IRI(EX + "big"), IRI(EX + "p"),
                            self._big_literal(1))
        triple_small = Triple(IRI(EX + "small"), IRI(EX + "p"), Literal("x"))
        for seq, triple in enumerate((triple_big, triple_small)):
            wal = WriteAheadLog(path, fsync=False)
            wal.attach_dictionary(dataset.dictionary)
            wal.last_seq = seq  # keep sequences increasing across reopens
            si, pi, oi = (dataset.dictionary.encode(term) for term in triple)
            wal.log_add(None, si, pi, oi)
            wal.commit()
            wal.close()
        transactions = list(scan_transactions(path))
        assert [op.triple for txn in transactions for op in txn.ops] == \
            [triple_big, triple_small]

    def test_threshold_is_sane(self):
        # The common short-IRI add record must stay under the threshold.
        assert WAL_COMPRESS_MIN_BYTES >= 128


class TestEngineCompression:
    def test_engine_surfaces_byte_accounting(self, tmp_path):
        directory = str(tmp_path / "store")
        with StorageEngine(directory, fsync=False) as engine:
            graph = engine.dataset.default_graph
            with engine.dataset.write_lock:
                for index in range(200):
                    graph.add(IRI(f"{EX}s{index}"), IRI(EX + "p"),
                              Literal("the same text " * 30))
            engine.checkpoint()
            stats = engine.stats()
            checkpoint = stats["last_checkpoint"]
            assert checkpoint["compressed"] is True
            assert 0 < checkpoint["section_stored_bytes"] < \
                checkpoint["section_raw_bytes"]
            assert stats["wal"]["compressed_records"] > 0

    def test_v1_store_reopens_and_is_rewritten_as_v2(self, tmp_path):
        directory = v1_store_copy(tmp_path)
        expected = dataset_triples(build_dataset(100)) | {V1_WAL_TRIPLE}
        with StorageEngine(directory, fsync=False) as engine:
            assert not engine.last_checkpoint.compressed
            assert dataset_triples(engine.dataset) == expected
            engine.dataset.default_graph.add(
                IRI(EX + "s2"), IRI(EX + "p"), Literal("more " * 100))
            assert engine.checkpoint().compressed
        with open(os.path.join(directory, "checkpoint.kgck"), "rb") as handle:
            assert handle.read(8) == MAGIC_V2
        with StorageEngine(directory, fsync=False) as engine:
            assert len(dataset_triples(engine.dataset)) == len(expected) + 1

    def test_raw_wal_suffix_replays(self, tmp_path):
        directory = v1_store_copy(tmp_path)
        with open(os.path.join(directory, "wal.log"), "rb") as handle:
            # Stored raw although it is over the deflate threshold.
            assert V1_WAL_TRIPLE.object.lexical.encode() in handle.read()
        transaction, = scan_transactions(os.path.join(directory, "wal.log"))
        assert [op.triple for op in transaction.ops] == [V1_WAL_TRIPLE]
        with StorageEngine(directory, fsync=False) as engine:
            assert engine.recovered_transactions == 1
            assert V1_WAL_TRIPLE in engine.dataset.default_graph
