"""A pure-stdlib network client for a served KGNet platform.

:class:`RemoteClient` *is* an :class:`~repro.kgnet.api.client.APIClient`
whose transport posts envelopes to a live server's ``/kgnet/v1`` endpoint
over a persistent :mod:`http.client` connection — every envelope operation
(``ping``, ``sparql``, ``train``, ``infer_*``, pagination, the ``admin/*``
storage routes) works over the wire exactly as in-process, including
``raise_for_error()`` rebuilding the server's exception class from the
stable error code.

On top of the envelope surface it speaks the raw SPARQL 1.1 Protocol:
:meth:`protocol_query` / :meth:`protocol_update` hit ``/sparql`` like any
stock SPARQL client would, with ``Accept``-header content negotiation, and
:meth:`protocol_select` parses whichever results format was negotiated —
JSON, XML, CSV or TSV — back into JSON-shaped bindings via
:mod:`repro.sparql.results.parse`.

The client is also the transport of the replication subsystem: the
``replication_*`` methods fetch the primary's WAL stream, snapshot and
status documents for :class:`~repro.replication.replica.ReplicaEngine`.

The client keeps ONE connection and serialises requests over it with a
lock: it is safe to share across threads, but concurrent callers queue.
For concurrency benchmarks use one client per thread (each holds its own
keep-alive connection, which is also how real HTTP clients behave).
"""

from __future__ import annotations

import http.client
import json
import random
import socket
import threading
import time
from typing import Dict, List, Optional, Tuple, Union
from urllib.parse import quote, urlsplit

from repro.exceptions import APIError, ResultStreamCut, ServerOverloaded
from repro.kgnet.api.client import APIClient
from repro.kgnet.api.errors import exception_from_payload
from repro.sparql.results.parse import parse_ask, parse_select_bindings
from repro.sparql.results.serialize import MEDIA_JSON

__all__ = ["RemoteClient"]



def _error_from(status: int, body: Union[str, bytes], what: str) -> BaseException:
    """Rebuild the server's typed exception from a non-200 response.

    Error responses carry the standard error envelope; when it parses, the
    caller gets the same exception class an in-process dispatch would have
    raised (a replica refusing an update raises
    :class:`~repro.exceptions.ReadOnlyReplicaError`, a pruned WAL range
    :class:`~repro.exceptions.WalTruncatedError` — not a bare
    :class:`APIError` the caller would have to string-match).
    """
    try:
        payload = json.loads(body)
        if isinstance(payload, dict) and isinstance(payload.get("error"), dict):
            return exception_from_payload(payload["error"])
    except ValueError:  # not JSON (UnicodeDecodeError is a ValueError too)
        pass
    return APIError(f"{what} failed: HTTP {status}: {body[:500]!r}")


class RemoteClient(APIClient):
    """Talks to a :class:`~repro.server.http.KGNetHTTPServer` over HTTP."""

    def __init__(self, base_url: str, timeout: float = 30.0,
                 max_retries: int = 2,
                 backoff_seconds: float = 0.05,
                 max_backoff_seconds: float = 2.0) -> None:
        if "://" not in base_url:
            # Accept bare "host:port" the way curl does (a plain urlsplit
            # would read "localhost:8080" as scheme "localhost").
            base_url = "http://" + base_url
        split = urlsplit(base_url)
        if split.scheme != "http":
            raise APIError(f"RemoteClient speaks plain http, got {base_url!r}")
        self.host = split.hostname or "127.0.0.1"
        self.port = split.port or 80
        self.base_path = split.path.rstrip("/")
        self.timeout = timeout
        #: Bounded retry policy for transient failures (see ``_request``):
        #: ``max_retries`` extra attempts, jittered exponential backoff from
        #: ``backoff_seconds`` capped at ``max_backoff_seconds`` (a server
        #: ``Retry-After`` hint overrides the computed delay, same cap).
        self.max_retries = max_retries
        self.backoff_seconds = backoff_seconds
        self.max_backoff_seconds = max_backoff_seconds
        #: Transient-failure retries performed so far (observability).
        self.retries = 0
        self._conn: Optional[http.client.HTTPConnection] = None
        self._lock = threading.Lock()
        super().__init__(transport=self._post_envelope)

    # ------------------------------------------------------------------
    # Connection management
    # ------------------------------------------------------------------
    def _request(self, method: str, target: str, body: Optional[bytes] = None,
                 headers: Optional[Dict[str, str]] = None
                 ) -> Tuple[int, Dict[str, str], bytes]:
        """One logical HTTP exchange, with a bounded transient-retry loop.

        Two failure classes are retried (up to ``max_retries`` extra
        attempts, jittered exponential backoff):

        * **Admission shed** — a 503 that rebuilds as a
          :class:`~repro.exceptions.ServerOverloaded`.  The server rejected
          the request *before executing it*, so retrying is safe for every
          method, updates included.  The response's ``Retry-After`` hint
          (capped at ``max_backoff_seconds``) overrides the computed delay.
        * **Read timeout** — ``socket.timeout`` mid-exchange, retried for
          GET only: a timed-out POST may already have been applied.

        *Connection* failures are never retried here — an unreachable host
        must fail fast so :class:`~repro.replication.client_router.ReplicaSetClient`
        can eject the replica instead of burning the backoff budget on it.
        """
        attempt = 0
        while True:
            try:
                status, resp_headers, payload = self._exchange(
                    method, target, body, headers)
            except socket.timeout:
                if method != "GET" or attempt >= self.max_retries:
                    raise
                attempt += 1
                self._backoff(attempt, None)
                continue
            # Only an admission shed is replayed: other 503s (a preempted
            # or interrupted query) *ran*, and replaying those blindly could
            # double-execute work, so they propagate to the caller.
            if (status == 503 and attempt < self.max_retries
                    and isinstance(_error_from(status, payload, method),
                                   ServerOverloaded)):
                attempt += 1
                self._backoff(attempt, resp_headers.get("retry-after"))
                continue
            return status, resp_headers, payload

    def _backoff(self, attempt: int, retry_after: Optional[str]) -> None:
        delay = None
        if retry_after is not None:
            try:
                delay = float(retry_after)
            except ValueError:
                delay = None
        if delay is None:
            # Full jitter around an exponential base: uncoordinated clients
            # shedding at the same instant must not retry in lock-step.
            delay = (self.backoff_seconds * (2 ** (attempt - 1))
                     * random.uniform(0.5, 1.5))
        self.retries += 1
        time.sleep(min(delay, self.max_backoff_seconds))

    def _exchange(self, method: str, target: str,
                  body: Optional[bytes] = None,
                  headers: Optional[Dict[str, str]] = None
                  ) -> Tuple[int, Dict[str, str], bytes]:
        """One HTTP exchange on the persistent connection.

        A stale keep-alive socket (idle timeout, server restart) is retried
        once on a fresh connection — but only when the retry cannot
        double-execute: the failure happened while *sending* (the request
        never fully left), or the method is idempotent (GET).  A POST whose
        response was lost mid-read propagates instead: the server may
        already have applied it, and replaying an update/train/bulk-load
        behind the caller's back is worse than an exception.
        """
        target = self.base_path + target
        with self._lock:
            while True:
                reused = self._conn is not None
                if self._conn is None:
                    self._conn = http.client.HTTPConnection(
                        self.host, self.port, timeout=self.timeout)
                    try:
                        self._conn.connect()
                        # Headers and body leave in separate writes; without
                        # TCP_NODELAY the body write can stall ~40ms behind
                        # the server's delayed ACK (Nagle interaction).
                        self._conn.sock.setsockopt(
                            socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                    except socket.timeout as exc:
                        # A connect-phase timeout is a dead/unreachable host,
                        # not a slow response: surface it as a connection
                        # failure so the retry loop above fails fast instead
                        # of sleeping through more doomed connects.
                        self._drop_connection()
                        raise ConnectionError(
                            f"connect to {self.host}:{self.port} timed out"
                        ) from exc
                    except OSError:
                        self._drop_connection()
                        raise
                sent = False
                try:
                    self._conn.request(method, target, body=body,
                                       headers=headers or {})
                    sent = True
                    response = self._conn.getresponse()
                    payload = response.read()
                except http.client.IncompleteRead as exc:
                    # The server's streamed-failure contract: a chunked body
                    # cut off without the terminal chunk means the query was
                    # interrupted (deadline/cancel) *after* the 200 header.
                    # IncompleteRead subclasses HTTPException, so this clause
                    # must come first — the generic handler below would drop
                    # the connection and RETRY a GET, re-running a query that
                    # provably already executed.
                    media_type = response.getheader("Content-Type", "") or ""
                    self._drop_connection()
                    raise ResultStreamCut(
                        "server cut the result stream mid-transfer "
                        f"({len(exc.partial)} bytes received)",
                        partial_body=exc.partial,
                        media_type=media_type) from exc
                except (http.client.HTTPException, ConnectionError, OSError):
                    self._drop_connection()
                    if reused and (not sent or method == "GET"):
                        continue
                    raise
                if response.will_close:
                    self._drop_connection()
                return (response.status,
                        {k.lower(): v for k, v in response.getheaders()},
                        payload)

    def _drop_connection(self) -> None:
        if self._conn is not None:
            try:
                self._conn.close()
            finally:
                self._conn = None

    def close(self) -> None:
        with self._lock:
            self._drop_connection()

    def __enter__(self) -> "RemoteClient":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Envelope transport (the APIClient surface rides on this)
    # ------------------------------------------------------------------
    def _post_envelope(self, raw: str) -> str:
        status, headers, body = self._request(
            "POST", "/kgnet/v1", body=raw.encode("utf-8"),
            headers={"Content-Type": "application/json"})
        text = body.decode("utf-8")
        content_type = headers.get("content-type", "")
        if "json" not in content_type:
            raise APIError(
                f"server answered HTTP {status} with non-envelope body "
                f"({content_type!r}): {text[:200]!r}")
        return text

    # ------------------------------------------------------------------
    # Raw SPARQL 1.1 Protocol
    # ------------------------------------------------------------------
    def protocol_query(self, query: str, accept: str = MEDIA_JSON,
                       default_graph_uris: Optional[List[str]] = None,
                       timeout: Optional[float] = None,
                       extra_headers: Optional[Dict[str, str]] = None,
                       ) -> Tuple[int, str, str]:
        """Run ``query`` through a ``GET /sparql?query=``; returns (status,
        type, body).  ``timeout`` is the
        *server-side* execution deadline in seconds (the ``timeout=``
        protocol parameter, capped by the server's configured maximum); a
        query that exceeds it comes back as HTTP 504 with a
        ``QUERY_TIMEOUT`` envelope.  ``extra_headers`` rides along verbatim
        (e.g. ``{"Cache-Control": "no-store"}`` to bypass the server's
        result cache).
        """
        pairs = [("query", query)]
        pairs += [("default-graph-uri", uri) for uri in (default_graph_uris or [])]
        if timeout is not None:
            pairs.append(("timeout", f"{timeout:g}"))
        target = "/sparql?" + "&".join(
            f"{name}={quote(value, safe='')}" for name, value in pairs)
        request_headers = {"Accept": accept}
        request_headers.update(extra_headers or {})
        status, headers, body = self._request(
            "GET", target, headers=request_headers)
        content_type = headers.get("content-type", "").split(";", 1)[0].strip()
        return status, content_type, body.decode("utf-8")

    def protocol_select(self, query: str,
                        default_graph_uris: Optional[List[str]] = None,
                        accept: str = MEDIA_JSON,
                        timeout: Optional[float] = None,
                        partial_ok: bool = False,
                        extra_headers: Optional[Dict[str, str]] = None,
                        ) -> List[Dict[str, Dict[str, str]]]:
        """SELECT via the protocol; returns JSON-shaped results bindings.

        Any negotiable SELECT format works: the response is parsed back
        into the JSON bindings shape whatever ``accept`` landed on (CSV is
        lossy by nature — see :mod:`repro.sparql.results.parse`).

        When the server cuts the stream mid-transfer (``timeout=`` fired
        after rows started flowing) the default is to raise the
        :class:`~repro.exceptions.ResultStreamCut` — partial data must be
        opted into.  ``partial_ok=True`` instead salvages every complete
        binding from the truncated body.
        """
        try:
            status, content_type, body = self.protocol_query(
                query, accept=accept, default_graph_uris=default_graph_uris,
                timeout=timeout, extra_headers=extra_headers)
        except ResultStreamCut as exc:
            if not partial_ok:
                raise
            media = exc.media_type.split(";", 1)[0].strip() or accept
            return parse_select_bindings(
                exc.partial_body.decode("utf-8", "replace"), media,
                partial=True)
        if status != 200:
            raise _error_from(status, body, "SPARQL protocol query")
        return parse_select_bindings(body, content_type)

    def protocol_ask(self, query: str, accept: str = MEDIA_JSON) -> bool:
        status, content_type, body = self.protocol_query(query, accept=accept)
        if status != 200:
            raise _error_from(status, body, "SPARQL protocol ASK")
        return parse_ask(body, content_type)

    def protocol_update(self, update: str) -> Dict[str, object]:
        """Apply ``update`` via POST; returns the response envelope dict."""
        status, _, text = self._request(
            "POST", "/sparql", body=update.encode("utf-8"),
            headers={"Content-Type": "application/sparql-update"})
        try:
            payload = json.loads(text)
        except ValueError:
            payload = None
        if status != 200 or not isinstance(payload, dict) \
                or not payload.get("ok", False):
            raise _error_from(status, text, "SPARQL protocol update")
        return payload

    # ------------------------------------------------------------------
    # Replication transport (used by ReplicaEngine / ReplicaSetClient)
    # ------------------------------------------------------------------
    def replication_status(self) -> Dict[str, object]:
        """The peer's replication status document (role, seqs, window)."""
        status, _, body = self._request(
            "GET", "/kgnet/v1/replication/status")
        if status != 200:
            raise _error_from(status, body, "replication status")
        return json.loads(body.decode("utf-8"))

    def replication_wal(self, after_seq: int) -> bytes:
        """Raw CRC-framed WAL bytes for every commit after ``after_seq``.

        Raises :class:`~repro.exceptions.WalTruncatedError` (rebuilt from
        the server's 410) when retention already pruned the range — the
        caller falls back to :meth:`replication_snapshot`.
        """
        status, _, body = self._request(
            "GET", f"/kgnet/v1/replication/wal?after_seq={int(after_seq)}")
        if status != 200:
            raise _error_from(status, body, "replication wal fetch")
        return body

    def replication_snapshot(self) -> Tuple[bytes, int]:
        """The primary's latest checkpoint file + the commit seq it covers."""
        status, headers, body = self._request(
            "GET", "/kgnet/v1/replication/snapshot")
        if status != 200:
            raise _error_from(status, body, "replication snapshot")
        try:
            seq = int(headers.get("x-kgnet-snapshot-seq", "0"))
        except ValueError:
            seq = 0
        return body, seq

    def __repr__(self) -> str:
        return f"<RemoteClient http://{self.host}:{self.port}{self.base_path}>"
