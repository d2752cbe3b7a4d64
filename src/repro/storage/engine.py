"""The durable storage engine: checkpoint + WAL + recovery + bulk ingest.

:class:`StorageEngine` owns one directory::

    <dir>/checkpoint.kgck   last checkpoint (atomic-rename discipline)
    <dir>/wal.log           redo log since that checkpoint
    <dir>/segments/         rotated logs kept for replication followers

and one :class:`~repro.rdf.dataset.Dataset` built over it.  The engine's
whole contract is the recovery invariant the crash-injection suite
(``tests/storage/test_recovery.py``) enforces:

    ``open()`` reconstructs exactly the state at the last *committed* writer
    epoch — last checkpoint + replay of the committed WAL suffix; a torn or
    corrupt log tail is truncated, never partially applied.

Durability hooks into the concurrency layer rather than duplicating it: the
engine installs a :class:`JournalledLock` as the dataset-shared write lock,
so the release of the outermost write hold — the exact point where the PR-3
snapshot/epoch machinery makes a writer's batch visible to readers — is also
where the WAL stamps, flushes and fsyncs the transaction.  One lock, one
commit point, two consumers.

A replication follower reaches storage the same way recovery does:
:meth:`StorageEngine.apply_shipped` takes a transaction read by the one
WAL scanner, appends it verbatim and applies its ops through
``_apply_ops``, so a follower never persists a transaction it cannot
decode.
"""

from __future__ import annotations

import os
import threading
from typing import Dict, Iterator, Optional, TextIO, Tuple, Union

try:  # POSIX advisory locks
    import fcntl
except ImportError:  # pragma: no cover - Windows
    fcntl = None  # type: ignore[assignment]
try:  # Windows region locks
    import msvcrt
except ImportError:  # pragma: no cover - POSIX
    msvcrt = None  # type: ignore[assignment]

from repro.exceptions import StorageError, WalTruncatedError
from repro.rdf.dataset import Dataset
from repro.rdf.graph import Graph
from repro.rdf.terms import IRI
from repro.storage.bulkload import (
    DEFAULT_BATCH_SIZE,
    BulkLoadReport,
    stream_load,
)
from repro.storage.checkpoint import (
    CheckpointInfo,
    read_checkpoint,
    write_checkpoint,
)
from repro.storage.segments import WalArchive
from repro.storage.wal import (
    Transaction,
    WriteAheadLog,
    scan_transactions,
    truncate_torn_tail,
)

__all__ = ["StorageEngine"]

CHECKPOINT_NAME = "checkpoint.kgck"
WAL_NAME = "wal.log"
SEGMENTS_DIR = "segments"
LOCK_NAME = "LOCK"


def _acquire_dir_lock(path: str):
    """Take an exclusive, non-blocking OS lock on the data directory.

    Two engines opening one directory is silent corruption waiting to
    happen — the second open() truncates the torn tail of a log the first
    is actively appending to.  An advisory ``flock`` (or msvcrt region
    lock on Windows) on a dedicated ``LOCK`` file turns that into a clean
    error.  The lock is per open-file-description, so it also catches two
    engines inside ONE process, and the OS drops it automatically if the
    process dies — no stale-lockfile recovery dance needed.
    """
    handle = open(path, "a+b")
    try:
        if fcntl is not None:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
        elif msvcrt is not None:  # pragma: no cover - Windows
            handle.seek(0)
            msvcrt.locking(handle.fileno(), msvcrt.LK_NBLCK, 1)
    except OSError as exc:
        handle.close()
        raise StorageError(
            f"storage directory is locked by another engine "
            f"({path!r}): {exc}") from exc
    return handle


def _release_dir_lock(handle) -> None:
    if handle is None:
        return
    try:
        if fcntl is not None:
            fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
        elif msvcrt is not None:  # pragma: no cover - Windows
            handle.seek(0)
            msvcrt.locking(handle.fileno(), msvcrt.LK_UNLCK, 1)
    except OSError:
        pass
    finally:
        handle.close()


class JournalledLock:
    """An RLock whose outermost release is the WAL commit point.

    Drop-in for the :class:`threading.RLock` a :class:`Dataset` shares with
    its graphs.  Re-entrant holds nest exactly like RLock; when the holding
    thread releases its outermost hold, any operations the journal buffered
    during the hold are committed (written, flushed, fsynced) *before* the
    lock is handed to the next writer — so the on-disk commit order is the
    in-memory epoch order, always.
    """

    def __init__(self, journal: Optional[WriteAheadLog] = None) -> None:
        self._inner = threading.RLock()
        self._depth = threading.local()
        self.journal = journal

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        acquired = self._inner.acquire(blocking, timeout)
        if acquired:
            self._depth.value = getattr(self._depth, "value", 0) + 1
        return acquired

    def release(self) -> None:
        depth = getattr(self._depth, "value", 0)
        if depth <= 0:
            raise RuntimeError("cannot release un-acquired JournalledLock")
        self._depth.value = depth - 1
        try:
            if depth == 1 and self.journal is not None:
                try:
                    self.journal.commit()
                except Exception:
                    # The transaction failed to reach disk: drop the buffered
                    # records so they cannot leak into the next writer's
                    # commit, then surface the failure to the caller.
                    self.journal.discard_pending()
                    raise
        finally:
            self._inner.release()

    __enter__ = acquire

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.release()


class StorageEngine:
    """Durable, recoverable storage for one RDF dataset."""

    def __init__(self, directory: str, fsync: bool = True,
                 retain_segments: int = 8) -> None:
        self.directory = directory
        self.checkpoint_path = os.path.join(directory, CHECKPOINT_NAME)
        self.wal_path = os.path.join(directory, WAL_NAME)
        self.lock_path = os.path.join(directory, LOCK_NAME)
        #: Rotated WAL files kept for replication followers.  ``retain_segments``
        #: bounds how far behind a follower can fall before it must
        #: snapshot-bootstrap instead of tailing the log.
        self.archive = WalArchive(os.path.join(directory, SEGMENTS_DIR),
                                  retain=retain_segments, fsync=fsync)
        self._lock_file = None
        self._fsync = fsync
        self._dataset: Optional[Dataset] = None
        self._wal: Optional[WriteAheadLog] = None
        self._lock_obj: Optional[JournalledLock] = None
        #: Serialises lifecycle + maintenance (open/close/checkpoint/bulk
        #: load) against each other.  Re-entrant, and always acquired BEFORE
        #: the dataset write lock — close() takes admin → write (via
        #: attach_journal), so any path taking them in the other order
        #: would deadlock.
        self._admin_lock = threading.RLock()
        #: Recovery accounting from the most recent open()/reopen().
        self.recovered_transactions = 0
        self.recovered_ops = 0
        self.recovered_truncated_bytes = 0
        self.last_checkpoint: Optional[CheckpointInfo] = None
        self.checkpoints_written = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def dataset(self) -> Dataset:
        if self._dataset is None:
            raise StorageError("storage engine is not open (call open() first)")
        return self._dataset

    @property
    def is_open(self) -> bool:
        return self._dataset is not None

    def open(self) -> Dataset:
        """Open (or recover) the dataset: last checkpoint + committed WAL suffix.

        Idempotent: a second call returns the already-open dataset.
        """
        with self._admin_lock:
            if self._dataset is not None:
                return self._dataset
            os.makedirs(self.directory, exist_ok=True)
            self._lock_file = _acquire_dir_lock(self.lock_path)
            try:
                return self._open_locked()
            except BaseException:
                _release_dir_lock(self._lock_file)
                self._lock_file = None
                raise

    def _open_locked(self) -> Dataset:
        """Recovery proper, once the directory lock is held."""
        lock = JournalledLock()
        checkpoint_seq = 0
        if os.path.exists(self.checkpoint_path):
            dataset, checkpoint_seq, info = read_checkpoint(
                self.checkpoint_path, lock=lock)
            self.last_checkpoint = info
        else:
            dataset = Dataset(lock=lock)

        # Replay the committed suffix.  The journal is NOT attached yet:
        # replayed operations must not be re-logged.
        self.recovered_transactions = 0
        self.recovered_ops = 0
        self.recovered_truncated_bytes = 0
        last_seq = checkpoint_seq
        first_seq: Optional[int] = None
        committed_offset = 0
        for transaction in scan_transactions(self.wal_path):
            if first_seq is None:
                first_seq = transaction.seq
            committed_offset = transaction.end
            if transaction.seq <= checkpoint_seq:
                # The checkpoint already covers this transaction (a crash
                # landed between checkpoint rename and WAL rotation).
                last_seq = max(last_seq, transaction.seq)
                continue
            self._apply_ops(dataset, transaction.ops)
            last_seq = transaction.seq
            self.recovered_transactions += 1
            self.recovered_ops += len(transaction.ops)

        # Cut the log back to the committed prefix the scan stopped at.
        # The WAL below reopens in append mode, so a torn/corrupt tail
        # left in place would sit between the old commits and every new
        # one — and the NEXT recovery scan, stopping at the first bad
        # frame, would silently lose everything committed from here on.
        self.recovered_truncated_bytes = truncate_torn_tail(
            self.wal_path, committed_offset, fsync=self._fsync)

        wal = WriteAheadLog(self.wal_path, fsync=self._fsync)
        wal.attach_dictionary(dataset.dictionary)
        wal.last_seq = last_seq
        # Rotation archives the file under its true seq range.
        wal.first_seq = first_seq
        dataset.attach_journal(wal)
        lock.journal = wal
        self._dataset = dataset
        self._wal = wal
        self._lock_obj = lock
        return dataset

    @staticmethod
    def _apply_ops(dataset: Dataset, ops) -> None:
        for op in ops:
            if op.kind == "add":
                target = dataset.graph(op.graph) if op.graph else dataset.default_graph
                target.add(op.triple)
            elif op.kind == "remove":
                target = dataset.graph(op.graph) if op.graph else dataset.default_graph
                target.remove(*op.triple)
            elif op.kind == "clear":
                target = dataset.graph(op.graph) if op.graph else dataset.default_graph
                target.clear()
            elif op.kind == "create":
                dataset.graph(op.graph)
            elif op.kind == "drop":
                dataset.drop_graph(op.graph)
            else:  # pragma: no cover - scan_transactions rejects unknown kinds
                raise StorageError(f"unknown WAL op kind {op.kind!r}")

    def close(self) -> None:
        """Detach the journal and release the WAL file handle.

        Close is deliberately boring: every committed transaction is already
        on disk, so closing is not a durability event — killing the process
        instead of calling close() loses nothing committed.
        """
        with self._admin_lock:
            if self._dataset is not None:
                self._dataset.attach_journal(None)
                if self._lock_obj is not None:
                    self._lock_obj.journal = None
            if self._wal is not None:
                self._wal.close()
            self._dataset = None
            self._wal = None
            self._lock_obj = None
            _release_dir_lock(self._lock_file)
            self._lock_file = None

    def reopen(self) -> Dataset:
        """Close and recover from disk (the ``admin/restore`` route)."""
        self.close()
        return self.open()

    # ------------------------------------------------------------------
    # Checkpointing / compaction
    # ------------------------------------------------------------------
    def checkpoint(self) -> CheckpointInfo:
        """Write a checkpoint and rotate (truncate) the WAL.

        This is the log-compaction path: after it returns, recovery starts
        from the fresh checkpoint and the redo log is empty.  Runs under the
        admin lock (so it cannot race close()/reopen() swapping the WAL out
        from under it) and the dataset write lock (so the dump is one
        consistent commit point and no writer can slip a transaction
        between the dump and the rotation).

        A fail-stopped WAL (a commit that never reached disk) is healed
        here: the checkpoint serialises the *live* in-memory state — which
        is by definition ahead of the broken log — and the rotation starts
        a fresh one.
        """
        with self._admin_lock:
            dataset = self.dataset
            wal = self._wal
            with dataset.write_lock:
                info = write_checkpoint(dataset, self.checkpoint_path,
                                        last_commit_seq=wal.last_seq)
                # Archive the rotated log for replication followers — unless
                # it is empty (no commits since the last rotation) or
                # retention is off.  The seq range in the file name is the
                # archive's whole index.
                if wal.first_seq is not None and self.archive.retain > 0:
                    target = self.archive.archive_target(wal.first_seq,
                                                         wal.last_seq)
                    wal.rotate(archive_to=target)
                    self.archive.committed()
                else:
                    wal.rotate()
                # Retention is enforced every checkpoint (not just when a
                # segment was archived), so dropping `retain` takes effect
                # at the next compaction.
                self.archive.prune()
                wal.failed = False
            self.last_checkpoint = info
            self.checkpoints_written += 1
            return info

    # ------------------------------------------------------------------
    # Replication (primary side)
    # ------------------------------------------------------------------
    def wal_window(self) -> Tuple[Optional[int], int]:
        """``(oldest_streamable_seq, last_seq)`` of the shippable history.

        ``oldest`` is the first commit a follower can still fetch frame-by-
        frame (from archived segments or the live log); ``None`` means no
        commit history is retained at all — every follower must bootstrap
        from the checkpoint.
        """
        wal = self._wal
        last_seq = wal.last_seq if wal is not None else 0
        candidates = [seq for seq in
                      (self.archive.oldest_seq(),
                       wal.first_seq if wal is not None else None)
                      if seq is not None]
        return (min(candidates) if candidates else None), last_seq

    def stream_wal_after(self, after_seq: int) -> Iterator[Tuple[int, bytes]]:
        """Yield ``(seq, raw_transaction_bytes)`` for commits > ``after_seq``.

        Raises :class:`WalTruncatedError` when retention has already pruned
        part of the requested range — the HTTP layer maps that to 410 and
        the follower falls back to snapshot bootstrap.  The scan runs
        lock-free against live files: CRC framing makes a concurrent append
        tear off cleanly, and a rotation racing the hand-off from segments
        to the live log merely ends the stream early — the follower's next
        poll finds the rotated transactions in the archive.
        """
        oldest, last_seq = self.wal_window()
        if after_seq >= last_seq:
            return
        if oldest is None or after_seq + 1 < oldest:
            raise WalTruncatedError(
                f"commits after seq {after_seq} are no longer retained "
                f"(oldest streamable seq: {oldest}); bootstrap from the "
                "latest checkpoint instead")
        watermark = after_seq
        for seq, raw in self.archive.iter_bytes_after(after_seq):
            watermark = seq
            yield seq, raw
        for transaction in scan_transactions(self.wal_path):
            if transaction.seq > watermark:
                yield transaction.seq, transaction.raw

    def snapshot_bytes(self) -> Tuple[bytes, int]:
        """The latest checkpoint file verbatim + the commit seq it covers.

        Writes a checkpoint first if none exists yet (a fresh store) so a
        follower can always bootstrap.  Served by the snapshot route; the
        follower installs the bytes as its own ``checkpoint.kgck`` and
        resumes tailing from the returned seq.
        """
        with self._admin_lock:
            if not os.path.exists(self.checkpoint_path):
                self.checkpoint()
            info = self.last_checkpoint
            seq = info.last_commit_seq if info is not None else 0
            with open(self.checkpoint_path, "rb") as handle:
                data = handle.read()
            return data, seq

    # ------------------------------------------------------------------
    # Replication (follower side)
    # ------------------------------------------------------------------
    def apply_shipped(self, transaction: Transaction) -> int:
        """Persist a shipped transaction, then apply it; returns its bytes.

        The follower's half of log shipping, on recovery's route: the
        frames :func:`~repro.storage.wal.scan_transactions` read (and
        decoded) from the primary's stream go into the local WAL verbatim
        first — so a follower crash replays them from its own log — and the
        ops then apply one by one through :meth:`_apply_ops` (``Graph.add``
        / ``remove``, an epoch step each), all under the write lock, so no
        reader sees part of the transaction.  The dataset's journal is
        detached for good: the ops are logged already, and a follower's log
        takes only what its primary ships.
        """
        with self._admin_lock:
            dataset = self.dataset
            with dataset.write_lock:
                dataset.attach_journal(None)
                size = self._wal.append_transaction(transaction)
                self._apply_ops(dataset, transaction.ops)
            return size

    # ------------------------------------------------------------------
    # Bulk ingest
    # ------------------------------------------------------------------
    def bulk_load(self, source: Union[str, TextIO],
                  graph_iri: Optional[Union[str, IRI]] = None,
                  fmt: str = "turtle",
                  batch_size: int = DEFAULT_BATCH_SIZE) -> BulkLoadReport:
        """Stream ``source`` into the dataset atomically, then checkpoint.

        The source is parsed into a *staging* graph first (sharing the
        dataset's dictionary, so this is already the final id-space
        encoding, batched with one epoch bump per batch).  Only after the
        whole source parsed cleanly is the staged id set merged into the
        live graph under the write lock — a parse error at triple one
        million therefore leaves the serving dataset completely untouched.

        The load bypasses the WAL (logging a bulk load triple-by-triple
        would write the dataset twice); durability comes from the checkpoint
        that always follows.  A crash mid-load recovers the pre-load state —
        the WAL and previous checkpoint are untouched until the new
        checkpoint atomically replaces them — and a completed call means
        the loaded data is durable.
        """
        with self._admin_lock:
            dataset = self.dataset
            # Stage outside the write lock: parsing a million triples must
            # not stall writers, and interning into the shared dictionary
            # is lock-free for readers / striped for writers by design.
            staging = Graph(namespaces=dataset.namespaces,
                            dictionary=dataset.dictionary)
            report = stream_load(staging, source, fmt=fmt,
                                 batch_size=batch_size)
            with dataset.write_lock:
                # Detach the journal for the merge: the whole point of the
                # bulk path is to not write every triple twice.  The target
                # graph is resolved while detached too — an implicitly
                # created named graph must not commit a WAL create record,
                # or a crash before the checkpoint rename would recover an
                # empty graph the pre-load state never had.
                dataset.attach_journal(None)
                try:
                    target = (dataset.graph(graph_iri) if graph_iri
                              else dataset.default_graph)
                    added = target.bulk_add_ids(staging.triples_ids())
                finally:
                    dataset.attach_journal(self._wal)
                # Checkpoint INSIDE the write hold (both locks re-entrant):
                # were the lock released first, another writer could commit
                # a WAL transaction that observed the merged-but-not-yet-
                # durable triples, and a crash before the checkpoint rename
                # would recover post-load commits on top of the PRE-load
                # checkpoint — a state that never existed.
                try:
                    self.checkpoint()
                except Exception:
                    # The merged triples are live in memory but in neither
                    # the log nor a checkpoint: fail-stop the WAL so no
                    # later commit can widen the divergence before a
                    # checkpoint succeeds or the operator restores.
                    if self._wal is not None:
                        self._wal.failed = True
                    raise
            report.triples_added = added  # net of duplicates already stored
            return report

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        wal = self._wal
        stats: Dict[str, object] = {
            "directory": self.directory,
            "open": self.is_open,
            "recovered_transactions": self.recovered_transactions,
            "recovered_ops": self.recovered_ops,
            "recovered_truncated_bytes": self.recovered_truncated_bytes,
            "checkpoints_written": self.checkpoints_written,
            "last_checkpoint": (self.last_checkpoint.as_dict()
                                if self.last_checkpoint else None),
        }
        if wal is not None:
            stats["wal"] = {
                "path": wal.path,
                "size_bytes": wal.size_bytes(),
                "first_seq": wal.first_seq,
                "last_seq": wal.last_seq,
                "commits": wal.commits,
                "ops_logged": wal.ops_logged,
                "bytes_written": wal.bytes_written,
                "compressed_records": wal.compressed_records,
                "bytes_saved": wal.bytes_saved,
            }
        stats["segments"] = self.archive.stats()
        return stats

    def __enter__(self) -> "StorageEngine":
        self.open()
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "open" if self.is_open else "closed"
        return f"<StorageEngine {self.directory!r} ({state})>"
