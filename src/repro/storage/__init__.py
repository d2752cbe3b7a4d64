"""Durable storage for the RDF substrate: checkpoints, WAL, bulk loading.

The in-memory store (:mod:`repro.rdf`) serves queries; this package makes it
survive restarts.  Three cooperating pieces:

* :mod:`repro.storage.checkpoint` — a binary, dictionary-aware snapshot of a
  whole :class:`~repro.rdf.dataset.Dataset` that bulk-restores without
  re-interning a single term,
* :mod:`repro.storage.wal` — a CRC-framed write-ahead log that fsyncs at
  each writer epoch's commit point (the release of the dataset-shared write
  lock) and tolerates torn/corrupt tails; one scanner reads its committed
  transactions back for recovery, segment streaming and followers alike,
* :mod:`repro.storage.bulkload` — a streaming loader that feeds parser
  output straight into the id-space indexes in batches.

:class:`~repro.storage.engine.StorageEngine` composes them:
``open()`` = last checkpoint + replay of the committed WAL suffix;
``checkpoint()`` = compaction (snapshot + WAL rotation);
``bulk_load()`` = streaming ingest + checkpoint;
``apply_shipped()`` = a follower's verbatim append + replay of one shipped
transaction.
"""

from repro.storage.bulkload import BulkLoadReport, stream_load, stream_load_triples
from repro.storage.checkpoint import (
    CheckpointInfo,
    read_checkpoint,
    write_checkpoint,
)
from repro.storage.engine import JournalledLock, StorageEngine
from repro.storage.wal import (
    Transaction,
    WalOp,
    WriteAheadLog,
    scan_transactions,
    truncate_torn_tail,
)

__all__ = [
    "BulkLoadReport",
    "CheckpointInfo",
    "JournalledLock",
    "StorageEngine",
    "Transaction",
    "WalOp",
    "WriteAheadLog",
    "scan_transactions",
    "truncate_torn_tail",
    "read_checkpoint",
    "stream_load",
    "stream_load_triples",
    "write_checkpoint",
]
