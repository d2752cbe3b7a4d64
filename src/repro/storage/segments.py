"""Archived WAL segments: the primary's shippable commit history.

When the engine checkpoints, the live ``wal.log`` is rotated.  Before
replication the rotation simply truncated the file — the checkpoint made
its transactions redundant for *local* recovery.  A log-shipping follower,
though, needs the commit stream itself: a replica that was down across a
checkpoint must still be able to ask "give me every commit after seq S"
and receive the exact frames the primary wrote.  So rotation now renames
the old log into ``<dir>/segments/wal-<first>-<last>.seg``, where
``first``/``last`` are the segment's commit sequence range, and
:class:`WalArchive` manages that directory:

* the file NAME is the index — listing the directory answers a range query
  without opening a single segment,
* retention keeps the newest ``retain`` segments; pruning older ones is
  what eventually forces a very stale follower down the snapshot-bootstrap
  path (HTTP 410 on the WAL route),
* ranges are contiguous by construction (seq numbers are monotonic across
  rotations) but a crash between checkpoint and rotation can leave one
  commit covered by both a segment and the live log — harmless, because
  streaming dedups on a last-yielded-seq watermark,
* a segment is read by the WAL's one scanner
  (:func:`~repro.storage.wal.scan_transactions`), the reader recovery and
  every follower use, and each transaction leaves as its exact framed
  bytes.
"""

from __future__ import annotations

import os
import re
from typing import Iterator, List, NamedTuple, Optional, Tuple

from repro.storage.format import fsync_directory
from repro.storage.wal import scan_transactions

__all__ = ["Segment", "WalArchive"]

_SEGMENT_NAME = re.compile(r"^wal-(\d+)-(\d+)\.seg$")


class Segment(NamedTuple):
    """One archived WAL file covering commits ``first_seq..last_seq``."""

    first_seq: int
    last_seq: int
    path: str

    @property
    def size_bytes(self) -> int:
        try:
            return os.path.getsize(self.path)
        except OSError:
            return 0


class WalArchive:
    """The ``segments/`` directory of retained, rotated WAL files."""

    def __init__(self, directory: str, retain: int = 8,
                 fsync: bool = True) -> None:
        self.directory = directory
        #: Number of newest segments kept by :meth:`prune` (0 = keep none,
        #: which restores the pre-replication truncate-on-checkpoint world).
        self.retain = retain
        self.fsync = fsync

    def ensure_dir(self) -> None:
        if not os.path.isdir(self.directory):
            os.makedirs(self.directory, exist_ok=True)
            fsync_directory(os.path.dirname(os.path.abspath(self.directory)))

    def segment_path(self, first_seq: int, last_seq: int) -> str:
        return os.path.join(self.directory, f"wal-{first_seq}-{last_seq}.seg")

    def segments(self) -> List[Segment]:
        """All archived segments, sorted by first sequence number."""
        found: List[Segment] = []
        try:
            names = os.listdir(self.directory)
        except OSError:
            return found
        for name in names:
            match = _SEGMENT_NAME.match(name)
            if match is None:
                continue
            found.append(Segment(int(match.group(1)), int(match.group(2)),
                                 os.path.join(self.directory, name)))
        found.sort(key=lambda seg: seg.first_seq)
        return found

    def oldest_seq(self) -> Optional[int]:
        """First commit seq still covered by the archive (None if empty)."""
        segments = self.segments()
        return segments[0].first_seq if segments else None

    def archive_target(self, first_seq: int, last_seq: int) -> str:
        """Reserve the destination path for rotating a log into the archive."""
        self.ensure_dir()
        return self.segment_path(first_seq, last_seq)

    def committed(self) -> None:
        """Make a just-renamed segment's directory entry durable."""
        if self.fsync:
            fsync_directory(self.directory)

    def prune(self) -> List[Segment]:
        """Drop all but the newest :attr:`retain` segments; returns dropped."""
        segments = self.segments()
        if self.retain < 0 or len(segments) <= self.retain:
            return []
        drop = segments[:len(segments) - self.retain]
        for segment in drop:
            try:
                os.remove(segment.path)
            except OSError:
                pass
        if drop and self.fsync:
            fsync_directory(self.directory)
        return drop

    def clear(self) -> None:
        """Remove every segment (snapshot bootstrap starts a fresh history)."""
        for segment in self.segments():
            try:
                os.remove(segment.path)
            except OSError:
                pass
        if self.fsync:
            fsync_directory(self.directory)

    def iter_bytes_after(self, after_seq: int) -> Iterator[Tuple[int, bytes]]:
        """Stream ``(seq, raw_transaction_bytes)`` from all relevant segments.

        Segments whose entire range is ≤ ``after_seq`` are skipped without
        being opened (the file name carries the range).  Possible overlap
        between consecutive segments — or between the last segment and the
        live log the caller scans next — is deduplicated by the per-call
        watermark here and by the caller passing the last yielded seq on.
        """
        watermark = after_seq
        for segment in self.segments():
            if segment.last_seq <= watermark:
                continue
            for transaction in scan_transactions(segment.path):
                if transaction.seq > watermark:
                    watermark = transaction.seq
                    yield transaction.seq, transaction.raw

    def stats(self) -> dict:
        segments = self.segments()
        return {
            "segments": len(segments),
            "retain": self.retain,
            "oldest_seq": segments[0].first_seq if segments else None,
            "newest_seq": segments[-1].last_seq if segments else None,
            "bytes": sum(seg.size_bytes for seg in segments),
        }

    def __repr__(self) -> str:
        return f"<WalArchive {self.directory!r} retain={self.retain}>"
