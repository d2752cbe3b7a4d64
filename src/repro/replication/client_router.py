"""The replica-aware client router: one client over a whole replica set.

:class:`ReplicaSetClient` gives an application a single object that makes
the primary + N replicas topology look like one endpoint with one
consistency story:

* **reads fan out** across the replicas round-robin; a replica that fails a
  request (connection refused, timeout, mid-stream death) is *ejected* for
  ``eject_seconds`` and silently re-admitted afterwards — the next read
  probes it again, so a restarted replica rejoins the rotation by itself.
  A replica that keeps *answering* but only with server-side 5xx errors is
  quarantined the same way after ``fault_quarantine_threshold`` consecutive
  faults; client-side errors (bad query, 4xx) are the request's own fault
  and propagate without touching replica health.  A replica shedding load
  (``ServerOverloaded``) is skipped for that one read but never ejected —
  busy is not broken,
* **writes pin to the primary**, and every update response's ``commit_seq``
  advances the session's write watermark,
* **read-your-writes** rides on that watermark: a read only goes to a
  replica whose *applied* sequence (from its cheap local
  ``replication/status`` document, cached for ``status_max_age`` seconds)
  has reached the session's last write; when every replica lags, the read
  falls back to the primary rather than returning stale bindings.

The router is deliberately client-side: the servers stay simple
(asynchronous shipping, no coordination), and each session buys exactly the
consistency it needs — monotonic read-your-writes for writers, any-replica
freshness for pure readers.
"""

from __future__ import annotations

import http.client
import threading
import time
from typing import Dict, List

from repro.exceptions import APIError, KGNetError, ServerOverloaded
from repro.server.client import RemoteClient
from repro.sparql.results.serialize import MEDIA_JSON

__all__ = ["ReplicaSetClient"]

#: Default quarantine after a failed request, in seconds.
DEFAULT_EJECT_SECONDS = 2.0

#: Consecutive server-side (5xx) faults before a replica that still answers
#: is quarantined like a dead one.
DEFAULT_FAULT_QUARANTINE_THRESHOLD = 3

#: How stale a cached replica status may be before the read path refreshes
#: it (only consulted when the cached applied seq is *behind* the session's
#: write watermark; an up-to-date cache entry short-circuits).
DEFAULT_STATUS_MAX_AGE = 0.25


class _ReplicaState:
    """Health + lag bookkeeping for one replica."""

    def __init__(self, url: str, timeout: float) -> None:
        self.url = url
        # No retries: a shedding replica is skipped at once, not slept on
        # (the router's own fallback is the next replica, then the primary).
        self.client = RemoteClient(url, timeout=timeout, max_retries=0)
        self.applied_seq = 0
        self.status_at = 0.0
        self.ejected_until = 0.0
        self.failures = 0
        self.consecutive_faults = 0
        self.reads = 0

    def healthy(self, now: float) -> bool:
        return now >= self.ejected_until

    def as_dict(self, now: float) -> Dict[str, object]:
        return {
            "url": self.url,
            "applied_seq": self.applied_seq,
            "healthy": self.healthy(now),
            "ejected_for": max(0.0, round(self.ejected_until - now, 3)),
            "failures": self.failures,
            "consecutive_faults": self.consecutive_faults,
            "reads": self.reads,
        }


class ReplicaSetClient:
    """Routes reads across replicas, writes to the primary."""

    def __init__(self, primary_url: str, replica_urls: List[str],
                 eject_seconds: float = DEFAULT_EJECT_SECONDS,
                 status_max_age: float = DEFAULT_STATUS_MAX_AGE,
                 timeout: float = 30.0,
                 fault_quarantine_threshold: int =
                 DEFAULT_FAULT_QUARANTINE_THRESHOLD) -> None:
        self.primary = RemoteClient(primary_url, timeout=timeout)
        self._replicas = [_ReplicaState(url, timeout) for url in replica_urls]
        self.eject_seconds = eject_seconds
        self.status_max_age = status_max_age
        self.fault_quarantine_threshold = fault_quarantine_threshold
        self._lock = threading.Lock()
        self._rr = 0
        #: The session's write watermark: reads must observe at least this
        #: commit sequence.  0 until the first write — any replica serves.
        self.last_write_seq = 0
        #: Routing counters (where reads actually landed).
        self.replica_reads = 0
        self.primary_reads = 0
        self.ejections = 0

    # ------------------------------------------------------------------
    # Writes: pinned to the primary
    # ------------------------------------------------------------------
    def update(self, update: str) -> Dict[str, object]:
        """Apply a SPARQL update on the primary; advances the watermark."""
        payload = self.primary.protocol_update(update)
        result = payload.get("result")
        seq = None
        if isinstance(result, dict):
            seq = result.get("commit_seq")
        with self._lock:
            if isinstance(seq, int) and seq > self.last_write_seq:
                self.last_write_seq = seq
        return payload

    # ------------------------------------------------------------------
    # Reads: replica rotation with stickiness
    # ------------------------------------------------------------------
    def select(self, query: str,
               accept: str = MEDIA_JSON) -> List[Dict[str, Dict[str, str]]]:
        """SELECT on the freshest-enough replica, primary as last resort."""
        return self._read(lambda client: client.protocol_select(
            query, accept=accept))

    def _read(self, call):
        with self._lock:
            min_seq = self.last_write_seq
            candidates = self._rotation()
        for state in candidates:
            if not self._fresh_enough(state, min_seq):
                continue
            try:
                value = call(state.client)
            except ServerOverloaded:
                # Admission shed: the replica is busy, not broken.  Try the
                # next one without touching replica health.
                continue
            except (http.client.HTTPException, OSError) as exc:
                # Transport-level failure: the replica is unreachable or
                # died mid-exchange — quarantine it immediately.
                self._eject(state, exc)
                continue
            except KGNetError as exc:
                # A typed error the replica *answered* with.  Client-fault
                # statuses (4xx, plus 501 not-implemented) would fail on
                # every replica identically: the request's own problem.
                # This must discriminate APIError subclasses too — a
                # replica answering BAD_REQUEST or CURSOR_ERROR is relaying
                # the *client's* mistake, not failing (catching them as
                # transport errors used to eject every replica in turn for
                # one malformed read).
                status = exc.http_status
                if status < 500 or status == 501:
                    raise
                if isinstance(exc, APIError):
                    # A 5xx-class APIError is the transport reporting a
                    # broken exchange (non-envelope body, protocol
                    # violation): one strike, like a connection failure.
                    self._eject(state, exc)
                    continue
                # Server-side 5xx: a corrupt or sick replica often keeps
                # answering; repeated faults must quarantine it exactly
                # like a connection failure (it used to ride round-robin
                # forever, failing a share of all reads).
                self._fault(state, exc)
                continue
            state.consecutive_faults = 0
            state.reads += 1
            with self._lock:
                self.replica_reads += 1
            return value
        # Every replica is ejected, lagging, or just failed: the primary is
        # always sufficient (it trivially satisfies any watermark).
        with self._lock:
            self.primary_reads += 1
        return call(self.primary)

    def _rotation(self) -> List[_ReplicaState]:
        """Replicas in round-robin order starting at the cursor (locked)."""
        if not self._replicas:
            return []
        start = self._rr % len(self._replicas)
        self._rr += 1
        ordered = self._replicas[start:] + self._replicas[:start]
        now = time.time()
        return [state for state in ordered if state.healthy(now)]

    def _fresh_enough(self, state: _ReplicaState, min_seq: int) -> bool:
        """Can this replica serve a read that must observe ``min_seq``?

        The cached applied seq answers most calls; only a replica whose
        cache is both behind the watermark *and* stale pays a status
        round-trip (which doubles as a health probe for re-admission).
        """
        if state.applied_seq >= min_seq:
            return True
        if time.time() - state.status_at < self.status_max_age:
            return False
        try:
            status = state.client.replication_status()
        except (APIError, http.client.HTTPException, OSError) as exc:
            # Unlike reads, the status document is not client input: any
            # failure here is the replica's own (transport or otherwise).
            self._eject(state, exc)
            return False
        applied = status.get("applied_seq", status.get("last_seq", 0))
        state.applied_seq = int(applied) if isinstance(applied, int) else 0
        state.status_at = time.time()
        return state.applied_seq >= min_seq

    def _fault(self, state: _ReplicaState, exc: BaseException) -> None:
        """Count a server-side (5xx) answer; quarantine at the threshold."""
        state.consecutive_faults += 1
        if state.consecutive_faults >= self.fault_quarantine_threshold:
            self._eject(state, exc)

    def _eject(self, state: _ReplicaState, exc: BaseException) -> None:
        state.failures += 1
        state.consecutive_faults = 0
        state.ejected_until = time.time() + self.eject_seconds
        # A broken keep-alive socket must not poison the next attempt.
        state.client.close()
        with self._lock:
            self.ejections += 1

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        now = time.time()
        return {
            "last_write_seq": self.last_write_seq,
            "replica_reads": self.replica_reads,
            "primary_reads": self.primary_reads,
            "ejections": self.ejections,
            "replicas": [state.as_dict(now) for state in self._replicas],
        }

    def close(self) -> None:
        self.primary.close()
        for state in self._replicas:
            state.client.close()

    def __enter__(self) -> "ReplicaSetClient":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    def __repr__(self) -> str:
        return (f"<ReplicaSetClient primary={self.primary!r} "
                f"replicas={len(self._replicas)}>")
