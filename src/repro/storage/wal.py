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
  is fully on disk,
* :class:`WalReplay` / :func:`iter_transactions` replay the log: they yield
  each *committed* transaction in order — reading the file incrementally,
  so recovery memory is bounded by the largest transaction, not the log
  size — and stop at the first truncated or corrupt frame.  Records after
  the last intact commit marker — a torn write, a half-flushed transaction,
  garbage from a dying disk — are dropped wholesale, never partially
  applied.  After the scan, recovery truncates the log back to the
  committed prefix (:func:`truncate_torn_tail`) so the reopened WAL never
  appends new commits *behind* leftover garbage, where the next recovery
  scan could not see them.
"""

from __future__ import annotations

import os
import threading
import zlib
from typing import Iterator, List, NamedTuple, Optional, Tuple

from repro.exceptions import StorageError
from repro.rdf.dictionary import TermDictionary
from repro.rdf.terms import IRI, Term, Triple
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

__all__ = ["WalOp", "WalReplay", "WriteAheadLog", "decode_transaction_ops",
           "iter_transactions", "iter_transaction_bytes",
           "split_transaction_stream", "truncate_torn_tail"]

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

    @property
    def has_pending(self) -> bool:
        return self._buffered_ops > 0

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
        self._check_usable()
        seq = self.last_seq + 1
        payload = bytearray()
        payload.append(_OP_COMMIT)
        encode_varint(payload, seq)
        encode_varint(payload, self._buffered_ops)
        frame = self._buffer + encode_frame(bytes(payload))
        ops = self._buffered_ops
        self._buffer = bytearray()
        self._buffered_ops = 0
        with self._lock:
            try:
                handle = self._ensure_handle()
                handle.write(frame)
                handle.flush()
                if self.fsync:
                    os.fsync(handle.fileno())
            except Exception:
                # The transaction may be half on disk and its in-memory
                # mutations are already visible: fail-stop so no later
                # commit can paper over the gap (replaying such a log would
                # yield a state that never existed).
                self.failed = True
                raise
            self.last_seq = seq
            if self.first_seq is None:
                self.first_seq = seq
            self.commits += 1
            self.ops_logged += ops
            self.bytes_written += len(frame)
        return seq

    def discard_pending(self) -> int:
        """Drop buffered, uncommitted records (used when a writer aborts)."""
        dropped = self._buffered_ops
        self._buffer = bytearray()
        self._buffered_ops = 0
        return dropped

    def append_raw_transaction(self, seq: int, raw: bytes) -> None:
        """Append one already-framed committed transaction verbatim.

        Replication followers receive transactions as the exact bytes the
        primary wrote — op frames followed by the commit frame — and must
        persist them BEFORE applying, so a follower crash replays from its
        own log instead of silently losing shipped commits.  The bytes are
        trusted (they were CRC-checked during streaming); the only local
        invariant enforced is sequence monotonicity.
        """
        self._check_usable()
        if seq <= self.last_seq:
            raise StorageError(
                f"raw transaction seq {seq} is not ahead of last applied "
                f"seq {self.last_seq}")
        with self._lock:
            try:
                handle = self._ensure_handle()
                handle.write(raw)
                handle.flush()
                if self.fsync:
                    os.fsync(handle.fileno())
            except Exception:
                self.failed = True
                raise
            self.last_seq = seq
            if self.first_seq is None:
                self.first_seq = seq
            self.commits += 1
            self.bytes_written += len(raw)

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


def _decode_record(payload: bytes):
    """Decode one frame payload into a WalOp or a ("commit", seq) marker."""
    if not payload:
        raise StorageError("empty WAL record")
    op = payload[0]
    offset = 1
    if op == _OP_ZLIB:
        # The frame CRC already vouched for the deflated bytes; a failure
        # here is version skew or a CRC collision, and the replay scan
        # escalates it instead of truncating (see WalReplay).
        try:
            inner = zlib.decompress(payload[1:])
        except zlib.error as exc:
            raise StorageError(f"undecompressable WAL record: {exc}")
        return _decode_record(inner)
    if op == _OP_COMMIT:
        seq, offset = decode_varint(payload, offset)
        return ("commit", seq)
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


def _commit_seq_of(payload: bytes) -> Optional[int]:
    """The sequence number if ``payload`` is a commit record, else None.

    Commit records are tiny (kind byte + two varints), so they are never
    Z-compressed — checking the first byte is sufficient.
    """
    if payload and payload[0] == _OP_COMMIT:
        seq, _ = decode_varint(payload, 1)
        return seq
    return None


def iter_transaction_bytes(path: str,
                           after_seq: int = 0) -> Iterator[Tuple[int, bytes]]:
    """Yield ``(seq, raw_bytes)`` per committed transaction with seq > after_seq.

    ``raw_bytes`` is the exact on-disk form of the transaction — op frames
    followed by the commit frame — rebuilt deterministically from the
    scanned payloads via :func:`encode_frame`, so a replication follower
    can append them verbatim with :meth:`WriteAheadLog.append_raw_transaction`
    and end up with a byte-identical committed prefix.  Like replay, the
    scan stops cleanly at the first torn or corrupt frame, which makes it
    safe to run against the primary's LIVE log while commits append to it.
    """
    try:
        handle = open(path, "rb")
    except FileNotFoundError:
        return
    with handle:
        yield from _transactions(iter_frames_file(handle), after_seq)


def _transactions(frames, after_seq: int = 0) -> Iterator[Tuple[int, bytes]]:
    """``(seq, raw_bytes)`` per committed transaction of a frame source with
    seq > ``after_seq``: its frames accumulated up to its commit frame."""
    pending = bytearray()
    for payload, _end in frames:
        pending += encode_frame(payload)
        seq = _commit_seq_of(payload)
        if seq is not None:
            if seq > after_seq:
                yield seq, bytes(pending)
            pending = bytearray()


def decode_transaction_ops(raw: bytes) -> Tuple[int, List[WalOp]]:
    """Decode one raw transaction's bytes into ``(seq, ops)``.

    ``raw`` must be exactly one committed transaction as produced by
    :func:`iter_transaction_bytes` / :func:`split_transaction_stream` — op
    frames followed by the commit frame.  The replication follower uses
    this to apply a shipped transaction it has already persisted.
    """
    ops: List[WalOp] = []
    for payload, _end in iter_frames(raw):
        record = _decode_record(payload)
        if isinstance(record, tuple) and record[0] == "commit":
            return record[1], ops
        ops.append(record)
    raise StorageError("transaction bytes end without a commit record")


def split_transaction_stream(data: bytes) -> Iterator[Tuple[int, bytes]]:
    """Split a shipped replication stream into ``(seq, raw_bytes)`` pieces.

    The inverse view of what the WAL route concatenates: the follower CRC-
    validates every frame while splitting (via :func:`iter_frames`), so a
    connection torn mid-chunk simply ends the stream at the last complete
    transaction — exactly the crash semantics the on-disk log already has.
    """
    return _transactions(iter_frames(data))


class WalReplay:
    """Single-pass incremental scan of a WAL's committed transactions.

    Iterating yields ``(seq, ops)`` exactly like :func:`iter_transactions`
    (which wraps this class), reading the log frame-by-frame so recovery
    memory stays bounded by the largest transaction instead of the log size.
    After the scan ends, :attr:`committed_offset` is the byte length of the
    longest committed prefix: everything past it is a torn frame, corrupt
    garbage, or ops that never committed, and the engine cuts it off with
    :func:`truncate_torn_tail` before reattaching a live WAL.

    Structural damage is the ONLY thing the scan absorbs silently.  A frame
    that passes its CRC but does not decode — a record kind from a newer
    build, a CRC collision — is not a crash artefact, and truncating it
    would permanently destroy transactions a matching decoder could still
    replay; the scan raises :class:`StorageError` instead, leaving the file
    untouched for the operator.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        #: End offset of the last fully committed frame seen by the scan.
        self.committed_offset = 0
        #: Sequence of the first committed transaction in the file (None if
        #: the file holds no commits) — recovery hands it back to the live
        #: WAL so rotation archives the file under its true seq range.
        self.first_seq: Optional[int] = None

    def __iter__(self) -> Iterator[Tuple[int, List[WalOp]]]:
        self.committed_offset = 0  # a re-scan must not report a stale prefix
        self.first_seq = None
        try:
            handle = open(self.path, "rb")
        except FileNotFoundError:
            return
        with handle:
            pending: List[WalOp] = []
            for payload, end_offset in iter_frames_file(handle):
                try:
                    record = _decode_record(payload)
                except Exception as exc:
                    frame_start = end_offset - len(payload) - FRAME_HEADER_SIZE
                    raise StorageError(
                        f"WAL {self.path!r} holds an intact (CRC-valid) frame "
                        f"at offset {frame_start} that cannot be decoded "
                        f"({exc}); refusing to recover — replaying past it "
                        "could lose committed transactions a newer decoder "
                        "would understand") from exc
                if isinstance(record, tuple) and record[0] == "commit":
                    self.committed_offset = end_offset
                    if self.first_seq is None:
                        self.first_seq = record[1]
                    yield record[1], pending
                    pending = []
                else:
                    pending.append(record)
        # `pending` non-empty here means a transaction never committed: dropped.


def iter_transactions(path: str) -> Iterator[Tuple[int, List[WalOp]]]:
    """Yield ``(seq, ops)`` for every fully committed transaction, in order.

    Tolerates — silently truncates at — a torn or corrupt tail: the scan
    stops at the first frame that fails its CRC or runs past end-of-file,
    and any operations buffered since the last commit marker are discarded.
    A record that frames correctly but does not decode (a record kind from
    the future, a CRC collision) raises :class:`StorageError` instead of
    guessing — see :class:`WalReplay`.
    """
    return iter(WalReplay(path))


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
