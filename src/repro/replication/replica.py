"""The log-shipping follower: a live, read-only copy of a primary.

:class:`ReplicaEngine` owns its own data directory (never the primary's —
the storage LOCK file enforces that) and keeps it converging on the
primary's state through two mechanisms, both built on the storage layer's
existing machinery rather than a parallel code path:

* **tail-apply** — poll ``GET /kgnet/v1/replication/wal?after_seq=S`` for
  the raw CRC-framed bytes of every commit after the last applied sequence
  and read them with the WAL's one scanner
  (:func:`~repro.storage.wal.scan_transactions`), the reader recovery uses:
  a transaction that does not decode is refused before anything is
  written.  :meth:`~repro.storage.engine.StorageEngine.apply_shipped` then
  persists each transaction verbatim into the local WAL *first* (so a
  follower crash replays from its own log, the same recovery invariant the
  primary has) and applies its ops one by one, each an epoch step of its
  own, all under the write lock: no serving reader sees part of a
  transaction, exactly as on the primary;
* **snapshot bootstrap** — when the primary answers 410 (the requested
  range was compacted away by segment retention), fetch the latest
  checkpoint file verbatim, install it as the local checkpoint, wipe the
  local log, and recover from it — then resume tailing from its sequence.

The apply loop runs on one daemon thread; queries serve through the normal
endpoint/router stack concurrently, with the router flipped to read-only
so writes are refused with a stable error code instead of silently
diverging the replica.  The follower touches storage only through public
:class:`~repro.storage.engine.StorageEngine` methods.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Dict, Optional

from repro.exceptions import ReplicationError, WalTruncatedError
from repro.kgnet.platform import KGNet
from repro.server.client import RemoteClient
from repro.sparql.endpoint import SPARQLEndpoint
from repro.storage.engine import StorageEngine
from repro.storage.format import fsync_directory
from repro.storage.wal import Transaction, scan_transactions

__all__ = ["ReplicaEngine"]

#: Local checkpoint once the replica's WAL grows past this (bounds replay
#: time after a follower restart; replicas keep no segments of their own).
CHECKPOINT_WAL_BYTES = 8 * 1024 * 1024

#: Seconds the replica waits on one request to its primary.
CLIENT_TIMEOUT = 30.0


class ReplicaEngine:
    """A read replica of one primary, serving while it applies."""

    def __init__(self, directory: str, primary_url: str,
                 poll_interval: float = 0.1,
                 fsync: bool = False) -> None:
        self.directory = directory
        self.primary_url = primary_url
        self.poll_interval = poll_interval
        #: Followers default to fsync=False: a lost local commit is always
        #: recoverable from the primary, so follower durability buys little
        #: and costs one fsync per shipped transaction.
        self.storage = StorageEngine(directory, fsync=fsync,
                                     retain_segments=0)
        self.client = RemoteClient(primary_url, timeout=CLIENT_TIMEOUT)
        self.platform: Optional[KGNet] = None
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._state_lock = threading.Lock()
        self._applied_seq = 0
        #: Wall-clock of the last successful poll that left us caught up or
        #: advanced us (the freshness half of replication lag).
        self._last_progress: Optional[float] = None
        self._last_applied_at: Optional[float] = None
        #: Counters surfaced through replication_status().
        self.transactions_applied = 0
        self.ops_applied = 0
        self.bytes_shipped = 0
        self.snapshot_bootstraps = 0
        self.poll_errors = 0
        self.last_error: Optional[str] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> KGNet:
        """Open local state, build the serving platform, start tailing."""
        if self.platform is not None:
            return self.platform
        dataset = self.storage.open()
        # The local WAL takes only what the primary ships: no local write —
        # even a read that creates an empty named graph — may claim a seq.
        dataset.attach_journal(None)
        self._applied_seq = self.storage.wal_window()[1]
        endpoint = SPARQLEndpoint(dataset=dataset)
        platform = KGNet(endpoint=endpoint)
        platform.api.read_only = True
        platform.api.replication = self
        self.platform = platform
        self._stop.clear()
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="kgnet-replica-apply")
        self._thread.start()
        return platform

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        self.client.close()
        self.storage.close()
        self.platform = None

    def __enter__(self) -> "ReplicaEngine":
        self.start()
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # The apply loop
    # ------------------------------------------------------------------
    def _run(self) -> None:
        while not self._stop.is_set():
            try:
                self.poll_once()
            except Exception as exc:  # noqa: BLE001 — the loop must survive
                self.poll_errors += 1
                self.last_error = f"{type(exc).__name__}: {exc}"
                # A dead primary connection must not be held open half-used.
                self.client.close()
            self._stop.wait(self.poll_interval)

    def poll_once(self) -> int:
        """One fetch/apply round; returns the number of commits applied.

        Public so tests (and an embedding process that wants deterministic
        control) can drive the follower without the background loop.
        """
        try:
            data = self.client.replication_wal(self._applied_seq)
        except WalTruncatedError:
            # Retention outran us (or we are brand new): start over from
            # the primary's checkpoint, then resume tailing from its seq.
            self.bootstrap_from_snapshot()
            return 0
        applied = 0
        for transaction in scan_transactions(data):
            self._apply_transaction(transaction)
            applied += 1
        now = time.time()
        with self._state_lock:
            self._last_progress = now
        self.last_error = None
        if (applied and self.storage.stats()["wal"]["size_bytes"]
                > CHECKPOINT_WAL_BYTES):
            # Compact the local log so a restart replays hours, not days.
            self.storage.checkpoint()
        return applied

    def _apply_transaction(self, transaction: Transaction) -> None:
        seq = transaction.seq
        if seq <= self._applied_seq:
            return  # duplicate from an overlapping segment hand-off
        if seq != self._applied_seq + 1:
            raise ReplicationError(
                f"replication stream gap: expected seq {self._applied_seq + 1}, "
                f"got {seq}")
        size = self.storage.apply_shipped(transaction)
        # apply_shipped has released the write lock, so serving readers can
        # already see the whole commit — advance the applied seq only now, which
        # keeps read-your-writes honest: status never claims a seq whose
        # data a query could still miss.
        now = time.time()
        with self._state_lock:
            self._applied_seq = seq
            self._last_applied_at = now
            self._last_progress = now
        self.transactions_applied += 1
        self.ops_applied += len(transaction.ops)
        self.bytes_shipped += size

    # ------------------------------------------------------------------
    # Snapshot bootstrap
    # ------------------------------------------------------------------
    def bootstrap_from_snapshot(self) -> int:
        """Replace all local state with the primary's latest checkpoint.

        Returns the commit seq the snapshot covers.  The swap is atomic at
        the file level (write + rename) and at the serving level
        (:meth:`~repro.sparql.endpoint.SPARQLEndpoint.replace_dataset`), so
        concurrent readers see either the old state or the new one, never a
        mix.
        """
        data, seq = self.client.replication_snapshot()
        temp = self.storage.checkpoint_path + ".ship"
        with open(temp, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp, self.storage.checkpoint_path)
        fsync_directory(self.directory)
        # The old WAL describes the state we just threw away.
        try:
            os.remove(self.storage.wal_path)
        except OSError:
            pass
        self.storage.archive.clear()
        dataset = self.storage.reopen()
        dataset.attach_journal(None)        # as in start()
        platform = self.platform
        if platform is not None:
            platform.endpoint.replace_dataset(dataset)
        now = time.time()
        with self._state_lock:
            self._applied_seq = self.storage.wal_window()[1]
            self._last_applied_at = now
            self._last_progress = now
        self.snapshot_bootstraps += 1
        return seq

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def applied_seq(self) -> int:
        with self._state_lock:
            return self._applied_seq

    def replication_lag(self) -> Dict[str, object]:
        """Sequence + wall-clock lag behind the primary.

        The sequence half asks the primary for its current seq (best
        effort: ``primary_seq`` is None when the primary is unreachable);
        the wall-clock half is purely local — seconds since the last poll
        that proved us caught up or moved us forward.
        """
        primary_seq: Optional[int] = None
        try:
            status = self.client.replication_status()
            primary_seq = int(status.get("last_seq", 0))
        except Exception:  # noqa: BLE001 — lag reporting must not raise
            pass
        with self._state_lock:
            applied = self._applied_seq
            progress = self._last_progress
        return {
            "applied_seq": applied,
            "primary_seq": primary_seq,
            "seq_lag": (primary_seq - applied
                        if primary_seq is not None else None),
            "seconds_since_progress": (round(time.time() - progress, 6)
                                       if progress is not None else None),
        }

    def replication_status(self) -> Dict[str, object]:
        """The local status document served by ``replication/status``.

        Deliberately cheap and self-contained — the client router polls it
        on the read path, so it must never block on the primary.
        """
        with self._state_lock:
            applied = self._applied_seq
            progress = self._last_progress
            applied_at = self._last_applied_at
        return {
            "role": "replica",
            "read_only": True,
            "primary_url": self.primary_url,
            "applied_seq": applied,
            "last_seq": applied,
            "seconds_since_progress": (round(time.time() - progress, 6)
                                       if progress is not None else None),
            "last_applied_at": applied_at,
            "transactions_applied": self.transactions_applied,
            "ops_applied": self.ops_applied,
            "bytes_shipped": self.bytes_shipped,
            "snapshot_bootstraps": self.snapshot_bootstraps,
            "poll_errors": self.poll_errors,
            "last_error": self.last_error,
        }

    def __repr__(self) -> str:
        return (f"<ReplicaEngine {self.directory!r} <- {self.primary_url} "
                f"applied_seq={self.applied_seq}>")
