"""The transport-agnostic service boundary.

:class:`ServiceHandler` is the whole HTTP API expressed over plain value
objects: a :class:`ServiceRequest` in, a :class:`ServiceResponse` out, no
sockets anywhere.  The HTTP server in :mod:`repro.server.http` is one
transport for it; the protocol-conformance tests drive it directly, and any
other transport (ASGI, a test harness, a message queue) could too.

Routes
------

``GET /`` / ``GET /health``
    Service description: API version, operations, endpoint paths.

``GET/POST /sparql``
    The W3C SPARQL 1.1 Protocol.  Queries arrive as ``query=`` (GET or
    form-encoded POST) or as a direct ``application/sparql-query`` body;
    updates as ``update=`` (POST only) or ``application/sparql-update``.
    ``default-graph-uri=`` / ``named-graph-uri=`` compose the protocol
    dataset.  Results are
    content-negotiated on ``Accept`` across the SPARQL 1.1 JSON/XML/CSV/TSV
    result formats (N-Triples/Turtle for CONSTRUCT) and stream row-by-row.

``POST /kgnet/v1/<op>`` and ``POST /kgnet/v1``
    The versioned JSON envelope API: the body is either the operation's bare
    ``params`` object (op taken from the path) or a full
    :class:`~repro.kgnet.api.envelopes.APIRequest` envelope.  Every response
    body is the :class:`~repro.kgnet.api.envelopes.APIResponse` envelope.

``GET /kgnet/v1/replication/{wal,snapshot,status}``
    The log-shipping replication protocol.  ``wal?after_seq=S`` streams the
    raw CRC-framed WAL bytes of every commit after ``S`` with chunked
    transfer (HTTP 410 when retention already pruned the range);
    ``snapshot`` ships the latest checkpoint file verbatim with its covered
    seq in ``X-KGNet-Snapshot-Seq``; ``status`` reports role, applied seq
    and lag as JSON.  Followers (:class:`~repro.replication.replica.ReplicaEngine`)
    are the intended clients, but the routes are plain GETs any tool can hit.

Error contract
--------------

Everything dispatches through the :class:`~repro.kgnet.api.router.APIRouter`,
so failures come back as envelopes carrying the stable error codes of
:mod:`repro.kgnet.api.errors`; each class in :mod:`repro.exceptions`
declares its HTTP status by one principle — *who must act to fix it*:
malformed input is 4xx (400 bad request / parse / query errors, 404 unknown
things, 406 not acceptable, 410 expired cursors, 413 exhausted budgets, 415
wrong media type), missing capability is 5xx (501 unsupported features, 500
everything the server broke).  The JSON error envelope always rides along as
the response body, so a client can match on ``error.code`` regardless of
transport.
"""

from __future__ import annotations

import itertools
import json
import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import (Callable, Dict, FrozenSet, Iterable, Iterator, List,
                    NamedTuple, Optional, Tuple, Union)
from urllib.parse import unquote, unquote_plus, urlsplit

from repro.exceptions import (
    BadRequestError,
    KGNetError,
    QueryInterrupted,
    ServerOverloaded,
    UnsupportedFeatureError,
)
from repro.kgnet.api.envelopes import API_VERSION, APIRequest, APIResponse
from repro.kgnet.api.errors import (
    HTTP_STATUS_BY_CODE,
    INTERNAL_ERROR,
    error_code,
    error_payload,
    exception_from_payload,
    http_status_for_error,
)
from repro.kgnet.api.router import APIRouter
from repro.rdf.dataset import Dataset
from repro.sparql.endpoint import ResultCache
from repro.sparql.footprint import IdPattern
from repro.sparql.results.serialize import (
    ALL_MEDIA_TYPES,
    negotiate_media_type,
    require_acceptable,
    serialize_result,
)

__all__ = [
    "HTTP_STATUS_BY_CODE",
    "http_status_for_error",
    "ServiceRequest",
    "ServiceResponse",
    "ServiceHandler",
]

SPARQL_PATH = "/sparql"
ENVELOPE_PATH = "/kgnet/v1"
REPLICATION_PATH = ENVELOPE_PATH + "/replication"
MEDIA_OCTETS = "application/octet-stream"

MEDIA_SPARQL_QUERY = "application/sparql-query"
MEDIA_SPARQL_UPDATE = "application/sparql-update"
MEDIA_FORM = "application/x-www-form-urlencoded"
_JSON_CONTENT_TYPE = ("Content-Type", "application/json; charset=utf-8")
#: Envelope ops whose SELECT_REPORT answers the result cache serves.
_CACHED_ENVELOPE_OPS = frozenset({"sparqlml_select", "sparqlml"})


class _CacheSlot(NamedTuple):
    """Where a missed request's answer goes: its result-cache key, read
    together with the epoch and dataset it is good for."""

    cache: ResultCache
    key: Tuple
    epoch: object
    dataset: Dataset
    namespaces_version: int

    def store(self, answer: object, size: int,
              footprint: Optional[FrozenSet[IdPattern]] = None) -> None:
        self.cache.store(self.key, self.epoch, self.dataset, answer, size,
                         footprint)


def _serve_body(answer: Tuple[str, bytes], started: float) -> "ServiceResponse":
    """A protocol result-cache hit: the stored ``(media type, body)``."""
    return ServiceResponse(
        status=200, headers=[("Content-Type", f"{answer[0]}; charset=utf-8")],
        body=answer[1])


def _parse_query_string(qs: str) -> Dict[str, List[str]]:
    """``urllib.parse.parse_qs(qs, keep_blank_values=True)``, hot-path cheap.

    Every SPARQL protocol GET parses its query string, so this sits on the
    serving fast path.  The stdlib helper burns ~20us per call on separator
    validation and intermediate pair lists; this produces the identical
    mapping (blank values kept, ``+`` and ``%xx`` decoded as UTF-8 with
    replacement) but only pays for percent-decoding when a segment actually
    contains an escape.
    """
    params: Dict[str, List[str]] = {}
    if not qs:
        return params
    for segment in qs.split("&"):
        if not segment:
            continue
        name, _, value = segment.partition("=")
        if "%" in name or "+" in name:
            name = unquote_plus(name)
        if "%" in value or "+" in value:
            value = unquote_plus(value)
        bucket = params.get(name)
        if bucket is None:
            params[name] = [value]
        else:
            bucket.append(value)
    return params


def _decode_utf8(body: bytes) -> str:
    """Decode a protocol request body, mapping bad bytes to a 400, not a 500.

    The body is client input: undecodable bytes are the client's fault and
    must surface as BAD_REQUEST per the status contract above (the envelope
    path already does this; the raw-protocol paths must match).
    """
    try:
        return body.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise BadRequestError(f"request body is not valid UTF-8: {exc}")


@dataclass
class ServiceRequest:
    """One transport-independent request.

    ``target`` is the raw request target (path plus optional query string);
    ``headers`` keys are lower-cased on construction so lookups are
    case-insensitive, as HTTP requires.
    """

    method: str
    target: str
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""
    #: Transport-supplied cancellation signal (any object with
    #: ``is_set()`` / ``set()``).  The HTTP server passes a probe of the
    #: client socket, so a running query aborts at its next checkpoint
    #: once the client is gone.  Never taken from client input.
    cancel_event: Optional[object] = None

    def __post_init__(self) -> None:
        self.method = self.method.upper()
        self.headers = {k.lower(): v for k, v in self.headers.items()}
        split = urlsplit(self.target)
        #: Percent-decoded path, without the query string (a client may
        #: legally encode any path character; routing must not care).
        self.path: str = unquote(split.path) or "/"
        #: The query string as it arrived, still percent-encoded.
        self.query_string: str = split.query

    @cached_property
    def query_params(self) -> Dict[str, List[str]]:
        """Query-string parameters, each name mapped to its value list;
        decoded on first use (a result-cache hit never decodes them)."""
        return _parse_query_string(self.query_string)

    def header(self, name: str) -> Optional[str]:
        return self.headers.get(name.lower())

    def content_type(self) -> Optional[str]:
        """The media type of the body, without parameters, lower-cased."""
        raw = self.header("content-type")
        if raw is None:
            return None
        return raw.split(";", 1)[0].strip().lower() or None


@dataclass
class ServiceResponse:
    """One transport-independent response.

    ``body`` is either bytes (transports send ``Content-Length``) or an
    iterable of byte chunks (transports stream, e.g. with chunked transfer
    encoding).  ``headers`` always includes ``Content-Type``.
    """

    status: int
    headers: List[Tuple[str, str]] = field(default_factory=list)
    body: Union[bytes, Iterable[bytes]] = b""
    #: Set by the streaming guard when the body iterator was interrupted
    #: mid-transfer (a :class:`~repro.exceptions.QueryInterrupted` after the
    #: status line already went out).  A transport seeing this must make the
    #: truncation *detectable* — for chunked transfer: omit the terminal
    #: chunk and close the connection.
    stream_error: Optional[BaseException] = None

    @property
    def is_streaming(self) -> bool:
        return not isinstance(self.body, (bytes, bytearray))

    def read_body(self) -> bytes:
        """Materialise the body (drains a streaming body)."""
        if isinstance(self.body, (bytes, bytearray)):
            return bytes(self.body)
        self.body = b"".join(self.body)
        return self.body

    def header(self, name: str) -> Optional[str]:
        wanted = name.lower()
        for key, value in self.headers:
            if key.lower() == wanted:
                return value
        return None

    # -- constructors -------------------------------------------------------
    @classmethod
    def json(cls, payload: object, status: int = 200) -> "ServiceResponse":
        body = json.dumps(payload).encode("utf-8")
        return cls(status=status, headers=[_JSON_CONTENT_TYPE], body=body)

    @classmethod
    def stream(cls, fragments: Iterable[bytes], content_type: str) -> "ServiceResponse":
        # Writers yield pre-encoded bytes; the transport writes each
        # fragment straight to the socket with no second str→bytes copy.
        return cls(status=200,
                   headers=[("Content-Type",
                             f"{content_type}; charset=utf-8")],
                   body=iter(fragments))


class ServiceHandler:
    """Routes service requests through one :class:`APIRouter`.

    The handler is stateless beyond the router reference and safe to share
    across serving threads (the router's dispatch already is).  It never
    raises: every failure — including transport-level ones like an unknown
    path — becomes a JSON error envelope with a mapped status.
    """

    def __init__(self, router: APIRouter) -> None:
        self.router = router

    # ------------------------------------------------------------------
    def handle(self, request: ServiceRequest) -> ServiceResponse:
        try:
            path = request.path.rstrip("/") or "/"
            if path == SPARQL_PATH:
                return self._handle_sparql_protocol(request)
            if path == REPLICATION_PATH or path.startswith(REPLICATION_PATH + "/"):
                return self._handle_replication(request, path)
            if path == ENVELOPE_PATH or path.startswith(ENVELOPE_PATH + "/"):
                return self._handle_envelope(request, path)
            if path in ("/", "/health"):
                return self._handle_description(request)
            return self._error_response(
                "NOT_FOUND", f"no route for {request.path!r}; serve paths are "
                f"{SPARQL_PATH}, {ENVELOPE_PATH}/<op>, /health", 404)
        except Exception as exc:  # noqa: BLE001 — the boundary never raises
            status = exc.http_status if isinstance(exc, KGNetError) else 500
            return ServiceResponse.json(
                {"ok": False, "error": error_payload(exc)}, status=status)

    # ------------------------------------------------------------------
    # Simple routes
    # ------------------------------------------------------------------
    def _handle_description(self, request: ServiceRequest) -> ServiceResponse:
        if request.method not in ("GET", "HEAD"):
            return self._method_not_allowed(request, allow="GET")
        return ServiceResponse.json({
            "service": "kgnet",
            "api_version": API_VERSION,
            "protocol": {"sparql": SPARQL_PATH, "envelopes": ENVELOPE_PATH},
            "operations": self.router.operations(),
        })

    def _method_not_allowed(self, request: ServiceRequest,
                            allow: str) -> ServiceResponse:
        response = self._error_response(
            "METHOD_NOT_ALLOWED",
            f"{request.method} is not allowed on {request.path!r}", 405)
        response.headers.append(("Allow", allow))
        return response

    @staticmethod
    def _error_response(code: str, message: str, status: int) -> ServiceResponse:
        return ServiceResponse.json(
            {"ok": False, "error": {"code": code, "message": message}},
            status=status)

    # ------------------------------------------------------------------
    # SPARQL 1.1 Protocol
    # ------------------------------------------------------------------
    def _handle_sparql_protocol(self, request: ServiceRequest) -> ServiceResponse:
        # HEAD is GET minus the body (RFC 9110 requires it wherever GET
        # works); the HTTP transport drops the body, this layer must not 405.
        method = "GET" if request.method == "HEAD" else request.method
        if method not in ("GET", "POST"):
            return self._method_not_allowed(request, allow="GET, HEAD, POST")
        content_type = request.content_type() if method == "POST" else None
        slot = None
        if method == "GET" or content_type in (MEDIA_FORM, MEDIA_SPARQL_QUERY):
            # The request as it arrived is the key, looked up before
            # anything is decoded: equal bytes take the same path below, so
            # a stored answer is what that path would return.  The method
            # is part of it because a GET ignores the body a POST reads.
            hit, slot = self._cached(
                "sparql", (method, request.query_string,
                           request.header("content-type"), request.body,
                           request.header("accept")),
                request.header("cache-control"), _serve_body)
            if hit is not None:
                return hit
        params = {name: list(values)
                  for name, values in request.query_params.items()}
        query: Optional[str] = None
        update: Optional[str] = None

        if method == "GET":
            if "update" in params:
                raise BadRequestError(
                    "SPARQL updates must use POST (protocol §2.2)")
        else:
            if content_type == MEDIA_FORM:
                body_params = _parse_query_string(_decode_utf8(request.body))
                for name, values in body_params.items():
                    params.setdefault(name, []).extend(values)
            elif content_type == MEDIA_SPARQL_QUERY:
                query = _decode_utf8(request.body)
            elif content_type == MEDIA_SPARQL_UPDATE:
                update = _decode_utf8(request.body)
            else:
                payload = {
                    "ok": False,
                    "error": {
                        "code": "UNSUPPORTED_MEDIA_TYPE",
                        "message": (
                            f"unsupported Content-Type {content_type!r} for "
                            f"POST {SPARQL_PATH}; use {MEDIA_FORM}, "
                            f"{MEDIA_SPARQL_QUERY} or {MEDIA_SPARQL_UPDATE}"),
                    },
                }
                return ServiceResponse.json(payload, status=415)

        if query is None and "query" in params:
            query = self._single(params, "query")
        if update is None and "update" in params:
            update = self._single(params, "update")
        if (query is None) == (update is None):
            raise BadRequestError(
                "exactly one of 'query' or 'update' must be supplied")
        for unsupported in ("using-graph-uri", "using-named-graph-uri"):
            if params.get(unsupported):
                # Dropping these silently would run the request against the
                # WRONG dataset (e.g. a DELETE meant for one graph wiping
                # the default graph) — refuse loudly instead.
                raise UnsupportedFeatureError(
                    f"{unsupported} dataset selection is not supported yet; "
                    "address update targets with GRAPH patterns / WITH")
        default_graphs = params.get("default-graph-uri") or None
        named_graphs = params.get("named-graph-uri") or None
        # Per-request execution deadline: capped server-side by the router's
        # max_query_timeout, so a client cannot buy unbounded execution.
        timeout = self._single(params, "timeout") if "timeout" in params else None

        if update is not None:
            if default_graphs or named_graphs:
                raise BadRequestError(
                    "default-graph-uri / named-graph-uri do not apply to "
                    "updates (use using-graph-uri semantics via USING/WITH)")
            return self._dispatch_update(update, timeout=timeout,
                                         cancel_event=request.cancel_event)
        return self._dispatch_query(query, default_graphs,
                                    request.header("accept"), slot,
                                    named_graphs=named_graphs,
                                    timeout=timeout,
                                    cancel_event=request.cancel_event)

    @staticmethod
    def _single(params: Dict[str, List[str]], name: str) -> str:
        values = params[name]
        if len(values) != 1:
            raise BadRequestError(
                f"parameter {name!r} must appear exactly once, got {len(values)}")
        return values[0]

    def _dispatch_query(self, query: str,
                        default_graphs: Optional[List[str]],
                        accept: Optional[str],
                        slot: Optional[_CacheSlot],
                        named_graphs: Optional[List[str]] = None,
                        timeout: Optional[str] = None,
                        cancel_event: Optional[object] = None) -> ServiceResponse:
        """Answer a protocol query the result cache missed; ``slot`` (None
        under ``no-store``) stores a completed body under the request's key."""
        if accept is not None:
            # Hopeless Accept header: refuse BEFORE evaluating — a client
            # polling with the wrong Accept must cost a 406, not a full
            # query execution per request.  (The exact per-result-kind
            # negotiation still runs on the result below.)
            require_acceptable(accept, ALL_MEDIA_TYPES)
        api_params: Dict[str, object] = {"query": query, "require": "query",
                                         "stream": True}
        if default_graphs:
            api_params["default_graph_uris"] = default_graphs
        if named_graphs:
            api_params["named_graph_uris"] = named_graphs
        if timeout is not None:
            api_params["timeout"] = timeout
        if cancel_event is not None:
            api_params["cancel"] = cancel_event
        response = self.router.dispatch(APIRequest(op="sparql",
                                                   params=api_params))
        if not response.ok:
            return self._envelope_response(response)
        # In-process dispatch rides the rich result along as the attachment:
        # serialization streams straight off the result without the JSON
        # projection the envelope transport would pay for.  With `stream`
        # set the attachment may be a lazy StreamingResult — id-row batches
        # the writers turn into one fragment each without decoding a term —
        # so the query's deadline/cancellation stay live for the whole
        # transfer.
        result = response.attachment
        media_type = negotiate_media_type(accept, result)
        fragments = serialize_result(result, media_type)
        # Pull the header fragment AND the first batch eagerly (the
        # evaluator's first batch is a single row, so this costs no extra
        # latency): an interruption *before any output* must surface as the
        # typed error envelope (504/499), not as a 200 that is cut
        # immediately.
        prefix: List[bytes] = []
        for fragment in fragments:
            prefix.append(fragment)
            if len(prefix) >= 2:
                break
        service_response = ServiceResponse(
            status=200,
            headers=[("Content-Type", f"{media_type}; charset=utf-8")])
        store = None
        if slot is not None:
            # The dispatch parsed the text into the plan cache; its
            # footprint rides with the body.
            footprint = self.router.endpoint.footprint(
                query, slot.namespaces_version, slot.dataset.dictionary)
            store = lambda body: slot.store((media_type, body), len(body),  # noqa: E731
                                            footprint)
        service_response.body = self._guarded_stream(
            prefix, fragments, service_response,
            self.router.endpoint.result_cache.max_entry_bytes, store)
        return service_response

    def _cached(self, op: str, key: Tuple, cache_control: Optional[str],
                serve: Callable[[object, float], ServiceResponse],
                models: bool = False
                ) -> Tuple[Optional[ServiceResponse], Optional["_CacheSlot"]]:
        """Look a request of ``op`` up in the endpoint's result cache:
        ``(response, None)`` on a hit, ``(None, slot)`` on a miss — the slot
        stores this request's answer — and ``(None, None)`` when the request
        opted out with ``Cache-Control: no-store``.

        The key is ``op``, the prefix-table version and ``key``: for
        ``/sparql``, the request as it arrived (method, raw query string,
        ``Content-Type``, raw body, ``Accept``), so a hit decodes nothing
        and two encodings of one text are two entries; for an envelope op,
        its params as sorted JSON (its body carries a per-request
        ``request_id``, so its raw bytes never repeat).  The dataset epoch
        — with ``models``, paired with the GMLaaS model-store generation —
        is read here, *before* dispatch: the answer is stored under it even
        when computed at a later one, so whatever changed since is checked
        on the next lookup.  A hit is ``serve(answer, started)`` marked
        ``X-KGNet-Result-Cache: hit``, counted on the route's metrics as one
        successful call.
        """
        if cache_control is not None and "no-store" in cache_control.lower():
            return None, None
        started = time.perf_counter()
        endpoint = self.router.endpoint
        dataset = endpoint.dataset
        namespaces_version = dataset.namespaces.version
        key = (op, namespaces_version) + key
        epoch = dataset.epoch()
        if models:
            epoch = (epoch, self.router.gmlaas.model_store.generation)
        answer = endpoint.result_cache.lookup(key, epoch)
        if answer is None:
            return None, _CacheSlot(endpoint.result_cache, key, epoch, dataset,
                                    namespaces_version)
        response = serve(answer, started)
        response.headers.append(("X-KGNet-Result-Cache", "hit"))
        self.router._route_metrics(op).record(
            time.perf_counter() - started, True)
        return response, None

    def _guarded_stream(self, prefix: List[bytes], fragments: Iterable[bytes],
                        response: ServiceResponse, max_bytes: int,
                        store: Optional[Callable[[bytes], None]]
                        ) -> Iterator[bytes]:
        """Stream body fragments under the streamed-failure contract.

        A mid-body :class:`~repro.exceptions.QueryInterrupted` never escapes
        to the transport as a raw exception: the guard marks the response
        cut (``stream_error``), records the cause on the route's metrics and
        ends the iterator — the transport then close-delimits so any stock
        client can tell the body is incomplete.  Cleanly completed bodies
        of at most ``max_bytes`` are handed to ``store`` (the result cache).
        """
        collected: Optional[List[bytes]] = [] if store is not None else None
        size = 0
        try:
            for fragment in itertools.chain(prefix, fragments):
                if collected is not None:
                    size += len(fragment)
                    if size > max_bytes:
                        # Too big to cache; keep streaming, stop collecting.
                        collected = None
                    else:
                        collected.append(fragment)
                yield fragment
        except QueryInterrupted as exc:
            response.stream_error = exc
            self.router._route_metrics("sparql").record_stream_cut(
                error_code(exc))
            return
        except Exception as exc:  # noqa: BLE001 — cut the stream, never spew
            response.stream_error = exc
            self.router._route_metrics("sparql").record_stream_cut(
                INTERNAL_ERROR)
            return
        if collected is not None:
            store(b"".join(collected))

    def _dispatch_update(self, update: str,
                         timeout: Optional[str] = None,
                         cancel_event: Optional[object] = None) -> ServiceResponse:
        params: Dict[str, object] = {"query": update, "require": "update"}
        if timeout is not None:
            params["timeout"] = timeout
        if cancel_event is not None:
            # Interruption is safe for updates too: the evaluator only
            # checkpoints before mutation starts, never mid-mutation.
            params["cancel"] = cancel_event
        return self._envelope_response(
            self.router.dispatch(APIRequest(op="sparql", params=params)))

    # ------------------------------------------------------------------
    # Replication wire protocol
    # ------------------------------------------------------------------
    def _handle_replication(self, request: ServiceRequest,
                            path: str) -> ServiceResponse:
        method = "GET" if request.method == "HEAD" else request.method
        if method != "GET":
            return self._method_not_allowed(request, allow="GET, HEAD")
        sub = path[len(REPLICATION_PATH):].lstrip("/")
        if sub == "status":
            response = self.router.dispatch(
                APIRequest(op="replication/status"))
            if not response.ok:
                return self._envelope_response(response)
            return ServiceResponse.json(response.result)
        storage = getattr(self.router, "storage", None)
        if storage is None:
            raise BadRequestError(
                "replication requires a storage-backed platform (no "
                "StorageEngine is configured)")
        if sub == "wal":
            return self._stream_wal(request, storage)
        if sub == "snapshot":
            data, seq = storage.snapshot_bytes()
            return ServiceResponse(
                status=200,
                headers=[("Content-Type", MEDIA_OCTETS),
                         ("X-KGNet-Snapshot-Seq", str(seq))],
                body=data)
        return self._error_response(
            "NOT_FOUND", f"no replication route {sub!r}; routes are "
            "wal, snapshot, status", 404)

    def _stream_wal(self, request: ServiceRequest,
                    storage) -> ServiceResponse:
        values = request.query_params.get("after_seq", ["0"])
        try:
            after_seq = int(values[-1])
        except (TypeError, ValueError):
            raise BadRequestError(
                f"'after_seq' must be an integer, got {values[-1]!r}")
        if after_seq < 0:
            raise BadRequestError("'after_seq' must be non-negative")
        transactions = storage.stream_wal_after(after_seq)
        # Pull the first transaction NOW, before committing to a 200: a
        # WalTruncatedError must surface as a clean 410 envelope, which is
        # impossible once streaming has started sending chunks.
        try:
            first = next(transactions)
        except StopIteration:
            first = None

        def stream() -> Iterator[bytes]:
            if first is not None:
                yield first[1]
                for _seq, raw in transactions:
                    yield raw

        return ServiceResponse(
            status=200,
            headers=[("Content-Type", MEDIA_OCTETS),
                     ("X-KGNet-WAL-After-Seq", str(after_seq))],
            body=stream())

    # ------------------------------------------------------------------
    # kgnet/v1 JSON envelopes
    # ------------------------------------------------------------------
    def _handle_envelope(self, request: ServiceRequest,
                         path: str) -> ServiceResponse:
        if request.method != "POST":
            return self._method_not_allowed(request, allow="POST")
        path_op = path[len(ENVELOPE_PATH):].lstrip("/") or None
        if request.body:
            try:
                payload = json.loads(request.body.decode("utf-8"))
            except (ValueError, UnicodeDecodeError) as exc:
                raise BadRequestError(f"request body is not valid JSON: {exc}")
        else:
            payload = {}
        if not isinstance(payload, dict):
            raise BadRequestError(
                f"request body must be a JSON object, got {type(payload).__name__}")

        if "op" in payload:
            envelope = APIRequest.from_dict(payload)
            if path_op is not None and envelope.op != path_op:
                raise BadRequestError(
                    f"envelope op {envelope.op!r} contradicts the request "
                    f"path op {path_op!r}")
        else:
            if path_op is None:
                raise BadRequestError(
                    f"POST {ENVELOPE_PATH} requires a full request envelope; "
                    f"POST {ENVELOPE_PATH}/<op> accepts bare params")
            envelope = APIRequest(op=path_op, params=payload)
        if envelope.op not in _CACHED_ENVELOPE_OPS:
            return self._envelope_response(self.router.dispatch(envelope))

        def serve(result: Dict[str, object], started: float) -> ServiceResponse:
            # This request's id and timing around the stored answer, which
            # made no GMLaaS call this time.
            elapsed = time.perf_counter() - started
            return self._envelope_response(APIResponse.success(
                envelope, dict(result, http_calls=0,
                               elapsed_seconds=round(elapsed, 6)),
                meta={"elapsed_seconds": round(elapsed, 9),
                      "api_version": API_VERSION}))
        hit, slot = self._cached(
            envelope.op, (json.dumps(envelope.params, sort_keys=True),),
            request.header("cache-control"), serve, models=True)
        if hit is not None:
            return hit
        response = self.router.dispatch(envelope)
        service_response = self._envelope_response(response)
        if slot is not None and response.ok:
            result = response.projection()
            # Only a whole report: a first page's cursor is a one-time
            # handle, and op `sparqlml` also trains, deletes and runs plain
            # SPARQL.
            if result.get("kind") == "SELECT_REPORT" \
                    and result.get("next_cursor") is None:
                slot.store(dict(result), len(service_response.body))
        return service_response

    def _envelope_response(self, response: APIResponse) -> ServiceResponse:
        error = None if response.ok else exception_from_payload(response.error)
        service_response = ServiceResponse(
            status=200 if error is None else error.http_status,
            headers=[_JSON_CONTENT_TYPE], body=response.encode())
        if isinstance(error, ServerOverloaded):
            # Retry-After is integral delta-seconds; round up so a
            # compliant client never retries before the hint.
            service_response.headers.append(
                ("Retry-After", str(max(1, int(error.retry_after + 0.999999)))))
        return service_response
