"""The write-ahead log: per-epoch redo records with fsync-on-commit.

The WAL is the durable half of the snapshot-isolation design from the
concurrency layer: writers already serialise on the dataset-shared write
lock and readers key on the epoch bump at lock release — so the release of
the *outermost* lock hold is the natural commit point, and that is exactly
where the log forces its records to disk.  :class:`WriteAheadLog` implements
the journal protocol the RDF layer calls into
(``log_add`` / ``log_remove`` / ``log_clear`` / ``log_create`` /
``log_drop`` / ``commit``):

* every mutation appends one CRC-framed record to an in-memory buffer
  (ids are decoded to full terms through the shared
  :class:`~repro.rdf.dictionary.TermDictionary`, so replay does not depend
  on the dictionary's id assignment surviving the crash),
* ``commit()`` — called by the journalled lock while the writer still holds
  it — stamps the transaction with a monotonically increasing sequence
  number, writes buffer + commit record in one ``write()``, flushes, and
  ``fsync``\\ s.  A transaction is durable if and only if its commit record
  is fully on disk.  A replication follower appends a shipped transaction
  verbatim (:meth:`WriteAheadLog.append_transaction`) through the same
  write → flush → fsync → fail-stop step,
* :func:`scan_transactions` is the one reader of committed transactions —
  for recovery, for segment and live-log streaming, and for a follower's
  shipped stream alike.  It yields each *committed* transaction in order
  (reading a file incrementally, so memory is bounded by the largest
  transaction, not the log size) and stops at the first truncated or
  corrupt frame.  Records after the last intact commit marker — a torn
  write, a half-flushed transaction, garbage from a dying disk — are
  dropped wholesale, never partially applied.  After the scan, recovery
  truncates the log back to the committed prefix
  (:func:`truncate_torn_tail`) so the reopened WAL never appends new
  commits *behind* leftover garbage, where the next recovery scan could
  not see them.
"""

from __future__ import annotations

import contextlib
import os
import threading
import zlib
from typing import Iterator, List, NamedTuple, Optional, Tuple, Union

from repro.exceptions import StorageError
from repro.rdf.dictionary import TermDictionary
from repro.rdf.terms import IRI, Triple
from repro.storage.format import (
    FRAME_HEADER_SIZE,
    decode_string,
    decode_term,
    decode_varint,
    encode_frame,
    encode_string,
    encode_term,
    encode_varint,
    fsync_directory,
    iter_frames,
    iter_frames_file,
)

__all__ = ["Transaction", "WalOp", "WriteAheadLog", "scan_transactions",
           "truncate_torn_tail"]

#: Record kinds (first payload byte).  Append-only.
_OP_ADD = ord("A")
_OP_REMOVE = ord("R")
_OP_CLEAR = ord("C")
_OP_CREATE = ord("G")
_OP_DROP = ord("D")
_OP_COMMIT = ord("T")
#: Envelope kind: the rest of the payload is one zlib-deflated record.
_OP_ZLIB = ord("Z")

#: Records shorter than this are never worth deflating: the zlib header/
#: dictionary overhead eats the gain and the common A/R record for short
#: IRIs sits well under it.  Long literals (document bodies, embeddings
#: serialised as text) are where the ROADMAP's 3-4x disk win lives.
WAL_COMPRESS_MIN_BYTES = 256

_KIND_NAMES = {
    _OP_ADD: "add",
    _OP_REMOVE: "remove",
    _OP_CLEAR: "clear",
    _OP_CREATE: "create",
    _OP_DROP: "drop",
}


class WalOp(NamedTuple):
    """One replayable operation: ``kind`` + target graph + optional triple."""

    kind: str                     # "add" | "remove" | "clear" | "create" | "drop"
    graph: Optional[IRI]          # None = the default graph
    triple: Optional[Triple]      # None for clear/create/drop


class Transaction(NamedTuple):
    """One committed transaction as :func:`scan_transactions` reads it."""

    seq: int
    payloads: List[bytes]         # every frame's payload, the commit record last
    ops: List[WalOp]              # the decoded records before the commit
    end: int                      # source offset just past the commit frame

    @property
    def raw(self) -> bytes:
        """The exact framed bytes a log holds: op frames, then the commit frame."""
        return b"".join(map(encode_frame, self.payloads))


def _encode_graph_ref(buffer: bytearray, identifier: Optional[IRI]) -> None:
    if identifier is None:
        buffer.append(0)
    else:
        buffer.append(1)
        encode_string(buffer, identifier.value)


def _decode_graph_ref(data: bytes, offset: int) -> Tuple[Optional[IRI], int]:
    if offset >= len(data):
        raise StorageError("truncated graph reference")
    flag = data[offset]
    offset += 1
    if flag == 0:
        return None, offset
    value, offset = decode_string(data, offset)
    return IRI(value), offset


class WriteAheadLog:
    """Appends redo records for one dataset; one instance per engine.

    Writers are already serialised by the dataset write lock, so the
    internal buffer needs no locking of its own; the ``_lock`` below only
    protects the file handle against a concurrent :meth:`rotate` /
    :meth:`close` from an admin route.
    """

    def __init__(self, path: str, fsync: bool = True) -> None:
        self.path = path
        self.fsync = fsync
        self._dictionary: Optional[TermDictionary] = None
        self._buffer = bytearray()
        self._buffered_ops = 0
        self._handle = None
        self._lock = threading.Lock()
        #: Sequence number of the last committed transaction (monotonic).
        self.last_seq = 0
        #: Sequence number of the first commit in the *current* log file
        #: (None while the file holds no commits).  Rotation archives the
        #: file under a name carrying this range, so a replication follower
        #: can ask for "all commits after seq S" by file name alone.
        self.first_seq: Optional[int] = None
        #: Counters surfaced through the engine's stats()/metrics routes.
        self.commits = 0
        self.ops_logged = 0
        self.bytes_written = 0
        self.compressed_records = 0
        #: Payload bytes compression avoided writing (before CRC framing).
        self.bytes_saved = 0
        #: Fail-stop latch: set when a commit failed to reach disk.  Once a
        #: transaction is lost, accepting later commits would produce a log
        #: whose replay was never any committed prefix of the in-memory
        #: history — so the WAL refuses all further work until the operator
        #: recovers (``admin/restore`` / ``StorageEngine.reopen``).
        self.failed = False

    # -- wiring ------------------------------------------------------------
    def attach_dictionary(self, dictionary: TermDictionary) -> None:
        """Bind the dataset's term dictionary (needed to decode logged ids)."""
        self._dictionary = dictionary

    def _ensure_handle(self):
        if self._handle is None:
            existed = os.path.exists(self.path)
            self._handle = open(self.path, "ab")
            if not existed:
                # A freshly created log's directory entry must be durable,
                # or a crash could drop the whole file (and every commit in
                # it) despite per-commit fsyncs of the file contents.
                fsync_directory(os.path.dirname(os.path.abspath(self.path)))
        return self._handle

    # -- journal protocol (called by Graph/Dataset under the write lock) ---
    def _check_usable(self) -> None:
        if self.failed:
            raise StorageError(
                "write-ahead log is fail-stopped after a commit failure; "
                "recover via StorageEngine.reopen() / admin/restore")

    def _append_record(self, payload: bytes) -> None:
        """Frame one record into the transaction buffer, deflating big ones."""
        if len(payload) >= WAL_COMPRESS_MIN_BYTES:
            packed = zlib.compress(payload, 1)
            if len(packed) + 1 < len(payload):
                self.compressed_records += 1
                self.bytes_saved += len(payload) - len(packed) - 1
                payload = bytes([_OP_ZLIB]) + packed
        self._buffer += encode_frame(payload)
        self._buffered_ops += 1

    def _log_triple(self, op: int, identifier: Optional[IRI],
                    si: int, pi: int, oi: int) -> None:
        self._check_usable()
        if self._dictionary is None:
            raise StorageError("WAL has no dictionary attached")
        decode = self._dictionary.decode
        payload = bytearray()
        payload.append(op)
        _encode_graph_ref(payload, identifier)
        encode_term(payload, decode(si))
        encode_term(payload, decode(pi))
        encode_term(payload, decode(oi))
        self._append_record(bytes(payload))

    def log_add(self, identifier: Optional[IRI], si: int, pi: int, oi: int) -> None:
        self._log_triple(_OP_ADD, identifier, si, pi, oi)

    def log_remove(self, identifier: Optional[IRI], si: int, pi: int, oi: int) -> None:
        self._log_triple(_OP_REMOVE, identifier, si, pi, oi)

    def _log_graph_op(self, op: int, identifier: Optional[IRI]) -> None:
        self._check_usable()
        payload = bytearray()
        payload.append(op)
        _encode_graph_ref(payload, identifier)
        self._append_record(bytes(payload))

    def log_clear(self, identifier: Optional[IRI]) -> None:
        self._log_graph_op(_OP_CLEAR, identifier)

    def log_create(self, identifier: IRI) -> None:
        self._log_graph_op(_OP_CREATE, identifier)

    def log_drop(self, identifier: IRI) -> None:
        self._log_graph_op(_OP_DROP, identifier)

    def commit(self) -> Optional[int]:
        """Force the buffered transaction to disk; returns its sequence.

        Called by the journalled write lock at the release of the outermost
        hold — i.e. while the committing writer still owns the lock, so
        commit records hit the log in exactly the order their epochs
        committed.  A hold that logged nothing (reads also take the lock)
        is free: no record, no syscall.
        """
        if not self._buffered_ops:
            return None
        seq = self.last_seq + 1
        payload = bytearray()
        payload.append(_OP_COMMIT)
        encode_varint(payload, seq)
        encode_varint(payload, self._buffered_ops)
        frame = self._buffer + encode_frame(bytes(payload))
        ops = self._buffered_ops
        self._buffer = bytearray()
        self._buffered_ops = 0
        self._append(frame, seq, ops)
        return seq

    def discard_pending(self) -> int:
        """Drop buffered, uncommitted records (used when a writer aborts)."""
        dropped = self._buffered_ops
        self._buffer = bytearray()
        self._buffered_ops = 0
        return dropped

    def append_transaction(self, transaction: Transaction) -> int:
        """Append one shipped committed transaction verbatim; returns its bytes.

        A replication follower persists what the primary shipped BEFORE it
        applies it, so a follower crash replays from its own log instead of
        silently losing shipped commits.  :func:`scan_transactions` already
        CRC-checked and decoded every frame; the only local invariant
        enforced here is sequence monotonicity.
        """
        if transaction.seq <= self.last_seq:
            raise StorageError(
                f"shipped transaction seq {transaction.seq} is not ahead of "
                f"last applied seq {self.last_seq}")
        raw = transaction.raw
        self._append(raw, transaction.seq, len(transaction.ops))
        return len(raw)

    def _append(self, data: bytes, seq: int, ops: int) -> None:
        """Write one whole transaction durably, then account for it."""
        self._check_usable()
        with self._lock:
            try:
                handle = self._ensure_handle()
                handle.write(data)
                handle.flush()
                if self.fsync:
                    os.fsync(handle.fileno())
            except Exception:
                # The transaction may be half on disk and its in-memory
                # mutations may already be visible: fail-stop so no later
                # commit can paper over the gap (replaying such a log would
                # yield a state that never existed).
                self.failed = True
                raise
            self.last_seq = seq
            if self.first_seq is None:
                self.first_seq = seq
            self.commits += 1
            self.ops_logged += ops
            self.bytes_written += len(data)

    # -- maintenance -------------------------------------------------------
    def size_bytes(self) -> int:
        try:
            return os.path.getsize(self.path)
        except OSError:
            return 0

    def rotate(self, archive_to: Optional[str] = None) -> None:
        """Start a fresh log (called right after a successful checkpoint).

        With ``archive_to`` the old log file is atomically renamed there
        instead of truncated, preserving its committed transactions for
        replication followers that still need to fetch them; without it the
        file is simply truncated (the pre-replication behaviour).

        Sequence numbers keep increasing across rotations, so a crash
        between the checkpoint rename and this rotation is harmless:
        recovery skips replayed transactions whose sequence the checkpoint
        already covers.
        """
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None
            if archive_to is not None and os.path.exists(self.path):
                os.replace(self.path, archive_to)
            with open(self.path, "wb") as handle:
                handle.flush()
                if self.fsync:
                    os.fsync(handle.fileno())
            self.first_seq = None
            # rotate() may be the call that CREATES the log (fresh store
            # whose first operation is a checkpoint): its directory entry
            # must be durable, or later fsynced commits could vanish with
            # the file.  _ensure_handle would skip its own directory fsync
            # afterwards because the file already exists.
            if self.fsync:
                fsync_directory(os.path.dirname(os.path.abspath(self.path)))

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None

    def __repr__(self) -> str:
        return (f"<WriteAheadLog {self.path!r} seq={self.last_seq} "
                f"commits={self.commits}>")


def _decode_record(payload: bytes) -> Union[WalOp, int]:
    """Decode one frame payload into a WalOp, or a commit record's seq."""
    if not payload:
        raise StorageError("empty WAL record")
    op = payload[0]
    offset = 1
    if op == _OP_ZLIB:
        # The frame CRC already vouched for the deflated bytes; a failure
        # here is version skew or a CRC collision, and the scan escalates
        # it instead of truncating (see scan_transactions).
        try:
            inner = zlib.decompress(payload[1:])
        except zlib.error as exc:
            raise StorageError(f"undecompressable WAL record: {exc}")
        return _decode_record(inner)
    if op == _OP_COMMIT:
        seq, offset = decode_varint(payload, offset)
        return seq
    kind = _KIND_NAMES.get(op)
    if kind is None:
        raise StorageError(f"unknown WAL record kind {op}")
    identifier, offset = _decode_graph_ref(payload, offset)
    if op in (_OP_ADD, _OP_REMOVE):
        s, offset = decode_term(payload, offset)
        p, offset = decode_term(payload, offset)
        o, offset = decode_term(payload, offset)
        return WalOp(kind, identifier, Triple(s, p, o))
    return WalOp(kind, identifier, None)


def scan_transactions(source: Union[str, bytes]) -> Iterator[Transaction]:
    """Yield every committed transaction of a WAL file or a shipped stream.

    ``source`` is a log's path (read frame by frame, so memory stays bounded
    by the largest transaction; a missing file holds nothing) or the bytes
    of a replication stream.  Transactions come in log order, each with its
    seq, its frame payloads, its decoded ops and the offset just past its
    commit frame — the longest committed prefix recovery keeps.

    Structural damage ends the scan silently: the first truncated or
    corrupt frame is a clean end of log, and records after the last commit
    frame never committed.  A frame that passes its CRC but does not decode
    — a record kind from a newer build, a CRC collision — is not a crash
    artefact, wherever it sits: dropping it could destroy transactions a
    matching decoder would replay, so the scan raises
    :class:`StorageError` naming the frame's start offset, before it yields
    the transaction the frame belongs to.
    """
    if isinstance(source, str):
        try:
            reader = open(source, "rb")
        except FileNotFoundError:
            return
        frames = iter_frames_file(reader)
    else:
        reader = contextlib.nullcontext()
        frames = iter_frames(source)
    with reader:
        payloads: List[bytes] = []
        ops: List[WalOp] = []
        for payload, end in frames:
            try:
                record = _decode_record(payload)
            except Exception as exc:
                where = (f"WAL {source!r}" if isinstance(source, str)
                         else "the shipped WAL stream")
                raise StorageError(
                    f"{where} holds an intact (CRC-valid) frame at offset "
                    f"{end - len(payload) - FRAME_HEADER_SIZE} that cannot "
                    f"be decoded ({exc}); refusing to replay past it — that "
                    "could lose committed transactions a newer decoder "
                    "would understand") from exc
            payloads.append(payload)
            if isinstance(record, int):
                yield Transaction(record, payloads, ops, end)
                payloads, ops = [], []
            else:
                ops.append(record)


def truncate_torn_tail(path: str, committed_offset: int,
                       fsync: bool = True) -> int:
    """Truncate ``path`` to its committed prefix; returns the bytes dropped.

    Recovery must call this before it reattaches a live WAL: the new handle
    opens in append mode, so any garbage left past the last committed frame
    would sit BETWEEN the old commits and every new one — and the next
    recovery scan, stopping at the first bad frame, would silently lose
    every transaction committed after this recovery.  Cutting the tail off
    (and fsyncing the cut) is what keeps "durable iff the commit record is
    on disk" true across repeated crashes.
    """
    try:
        size = os.path.getsize(path)
    except OSError:
        return 0
    if size <= committed_offset:
        return 0
    with open(path, "r+b") as handle:
        handle.truncate(committed_offset)
        handle.flush()
        if fsync:
            os.fsync(handle.fileno())
    return size - committed_offset
