"""Exception hierarchy for the KGNet reproduction.

Every subsystem raises exceptions derived from :class:`KGNetError` so callers
can catch platform errors without accidentally swallowing programming errors
(``TypeError``, ``KeyError``, ...).
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple


class KGNetError(Exception):
    """Base class for all errors raised by this library.

    Each class declares its identity on the wire, which the service API,
    the HTTP service and the clients all read from here: a stable ``code``
    (append-only; a subclass that declares none travels as its nearest
    declared ancestor), the ``http_status`` the service answers with (4xx
    when the request was wrong, 5xx when the server was; inherited), and the
    constructor keywords whose values travel in the error object's
    ``details`` (``detail_fields``) or under their own top-level key
    (``top_level_fields``: key -> keyword).
    """

    code = "KGNET_ERROR"
    http_status = 500
    detail_fields: Tuple[str, ...] = ()
    top_level_fields: Dict[str, str] = {}


# ---------------------------------------------------------------------------
# RDF / SPARQL substrate errors
# ---------------------------------------------------------------------------


class RDFError(KGNetError):
    """Base class for errors raised by the RDF store."""
    code = "RDF_ERROR"


class TermError(RDFError):
    """An RDF term was constructed from invalid input."""
    code = "TERM_ERROR"
    http_status = 400


class ParseError(RDFError):
    """Raised when an RDF document or a SPARQL query fails to parse.

    Attributes
    ----------
    message:
        Human readable description of the problem.
    line, column:
        1-based position in the source text, when known.
    """
    code = "PARSE_ERROR"
    http_status = 400
    detail_fields = ("message", "line", "column")

    def __init__(self, message: str, line: int = 0, column: int = 0) -> None:
        self.message = message
        self.line = line
        self.column = column
        location = f" (line {line}, column {column})" if line else ""
        super().__init__(f"{message}{location}")


class SPARQLError(RDFError):
    """Base class for SPARQL processing errors."""
    code = "SPARQL_ERROR"
    http_status = 400


class QueryError(SPARQLError):
    """A syntactically valid query could not be evaluated."""
    code = "QUERY_ERROR"


class UpdateError(SPARQLError):
    """A SPARQL UPDATE request could not be applied."""
    code = "UPDATE_ERROR"


class UnsupportedFeatureError(SPARQLError):
    """The query uses a SPARQL feature outside the supported subset."""
    code = "UNSUPPORTED_FEATURE"
    http_status = 501


class UDFError(SPARQLError):
    """A user-defined function failed or is unknown to the endpoint."""
    code = "UDF_ERROR"


class QueryInterrupted(SPARQLError):
    """A running query was stopped before it completed.

    Base class of the three cooperative-interruption outcomes the streaming
    evaluator can raise when its :class:`~repro.sparql.execution.ExecutionContext`
    trips a limit.  Carries partial-progress statistics so callers (and the
    wire protocol) can report how far the query got.

    Attributes
    ----------
    elapsed_seconds:
        Wall-clock time the query ran before being stopped.
    work_units:
        Pipeline work performed (join-loop iterations / rows processed).
    rows_emitted:
        Result rows produced before the interruption.
    """
    code = "QUERY_INTERRUPTED"
    http_status = 503
    detail_fields = ("elapsed_seconds", "work_units", "rows_emitted")

    def __init__(self, message: str, *, elapsed_seconds: float = 0.0,
                 work_units: int = 0, rows_emitted: int = 0) -> None:
        super().__init__(message)
        self.elapsed_seconds = elapsed_seconds
        self.work_units = work_units
        self.rows_emitted = rows_emitted


class QueryTimeout(QueryInterrupted):
    """The query ran past its deadline and was aborted."""
    code = "QUERY_TIMEOUT"
    http_status = 504


class QueryCancelled(QueryInterrupted):
    """The query's cancellation event was set (e.g. the client went away)."""
    code = "QUERY_CANCELLED"
    http_status = 499  # nginx's "client closed request"


class QueryPreempted(QueryInterrupted):
    """The query exhausted its work quantum and must yield the worker.

    Raised only for callers that configure a hard work budget on the
    execution context; the scheduler's time-slicing suspends queries
    without raising (their iterator state survives and resumes)."""
    code = "QUERY_PREEMPTED"


# ---------------------------------------------------------------------------
# GML framework errors
# ---------------------------------------------------------------------------


class GMLError(KGNetError):
    """Base class for graph machine learning errors."""
    code = "GML_ERROR"


class AutogradError(GMLError):
    """Raised for invalid autograd graph operations."""
    code = "AUTOGRAD_ERROR"


class ShapeError(GMLError):
    """Tensor shapes are incompatible for the requested operation."""
    code = "SHAPE_ERROR"


class TrainingError(GMLError):
    """Model training failed or was configured inconsistently."""
    code = "TRAINING_ERROR"


class BudgetExceededError(TrainingError):
    """A training run exceeded its time or memory budget."""
    code = "BUDGET_EXCEEDED"
    http_status = 413
    detail_fields = ("elapsed_seconds", "peak_memory_bytes")

    def __init__(self, message: str, *, elapsed_seconds: float = 0.0,
                 peak_memory_bytes: int = 0) -> None:
        super().__init__(message)
        self.elapsed_seconds = elapsed_seconds
        self.peak_memory_bytes = peak_memory_bytes


class SamplingError(GMLError):
    """A graph sampler received an invalid configuration."""
    code = "SAMPLING_ERROR"


class DatasetError(GMLError):
    """A dataset or task definition is malformed."""
    code = "DATASET_ERROR"


# ---------------------------------------------------------------------------
# KGNet platform errors
# ---------------------------------------------------------------------------


class PlatformError(KGNetError):
    """Base class for KGNet platform-level errors."""
    code = "PLATFORM_ERROR"


class MetaSamplingError(PlatformError):
    """The meta-sampler could not extract a task-specific subgraph."""
    code = "META_SAMPLING_ERROR"
    http_status = 400


class ModelNotFoundError(PlatformError):
    """No trained model satisfies the requested user-defined predicate."""
    code = "MODEL_NOT_FOUND"
    http_status = 404


class ModelSelectionError(PlatformError):
    """The optimizer could not select a GML method or model."""
    code = "MODEL_SELECTION_ERROR"
    http_status = 400


class InferenceError(PlatformError):
    """GMLaaS inference failed to produce predictions."""
    code = "INFERENCE_ERROR"


class KGMetaError(PlatformError):
    """The KGMeta graph is inconsistent or an update to it failed."""
    code = "KGMETA_ERROR"


class SPARQLMLError(PlatformError):
    """A SPARQL-ML query is malformed or cannot be rewritten."""
    code = "SPARQLML_ERROR"
    http_status = 400


# ---------------------------------------------------------------------------
# Service API errors
# ---------------------------------------------------------------------------


class APIError(KGNetError):
    """Base class for errors raised by the versioned service API."""
    code = "API_ERROR"


class BadRequestError(APIError):
    """An API request envelope is malformed or misses required parameters."""
    code = "BAD_REQUEST"
    http_status = 400


def integer_parameter(value: object, name: str) -> int:
    """``int(value)``: the one rule for an integer request parameter, on
    every route; a value it refuses is a :class:`BadRequestError`."""
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError):
        raise BadRequestError(f"{name!r} must be an integer, got {value!r}")


class UnknownOperationError(APIError):
    """The requested operation is not registered with the API router."""
    code = "UNKNOWN_OPERATION"
    http_status = 404


class CursorError(APIError):
    """A pagination cursor is unknown, expired, or already consumed."""
    code = "CURSOR_ERROR"
    http_status = 410


class ResultStreamCut(APIError):
    """A streamed result body terminated before it was complete.

    The server aborts a chunked response mid-transfer when the query's
    deadline or cancellation fires after the 200 header has gone out: it
    closes the connection *without* the terminal chunk, so every conforming
    HTTP client can tell the body is incomplete.  :class:`RemoteClient
    <repro.server.client.RemoteClient>` converts that framing violation into
    this typed error instead of retrying (the partial transfer proves the
    query executed — re-running it is not known to be safe).

    Attributes
    ----------
    partial_body:
        The bytes received before the stream was cut.  Line-oriented result
        formats (CSV/TSV) can salvage complete rows from it via
        :func:`repro.sparql.results.parse.parse_select_bindings` with
        ``partial=True``; JSON/XML salvage complete binding objects.
    media_type:
        The ``Content-Type`` the response declared, when known.
    """
    code = "RESULT_STREAM_CUT"

    def __init__(self, message: str, *, partial_body: bytes = b"",
                 media_type: str = "") -> None:
        super().__init__(message)
        self.partial_body = partial_body
        self.media_type = media_type


class ServerOverloaded(APIError):
    """The server shed the request because it is at capacity.

    The request was *never executed* (admission control refused it before
    dispatch), so retrying it — after the ``retry_after`` hint — is always
    safe, even for updates.  Maps to HTTP 503 + ``Retry-After``.
    """
    code = "SERVER_OVERLOADED"
    http_status = 503
    detail_fields = ("retry_after",)

    def __init__(self, message: str, *, retry_after: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class NotAcceptable(APIError):
    """No offered media type satisfies the request's ``Accept`` header.

    The offered media types travel as the error object's top-level
    ``supported`` list.
    """
    code = "NOT_ACCEPTABLE"
    http_status = 406
    top_level_fields = {"supported": "offered"}

    def __init__(self, message: str, offered: Sequence[str] = ()) -> None:
        super().__init__(message)
        self.offered = tuple(offered)


# ---------------------------------------------------------------------------
# Durable storage errors
# ---------------------------------------------------------------------------


class StorageError(KGNetError):
    """Base class for errors raised by the durable storage engine."""
    code = "STORAGE_ERROR"


class CorruptCheckpointError(StorageError):
    """A checkpoint file is unreadable: bad magic, length, or CRC."""
    code = "CORRUPT_CHECKPOINT"


class WalTruncatedError(StorageError):
    """The requested WAL range was compacted away by segment retention.

    A follower asking for "commits after seq S" gets this when S predates
    the oldest retained segment; the only way forward is a snapshot
    bootstrap from the latest checkpoint.
    """
    code = "WAL_TRUNCATED"
    http_status = 410


# ---------------------------------------------------------------------------
# Replication errors
# ---------------------------------------------------------------------------


class ReplicationError(KGNetError):
    """Base class for errors in the log-shipping replication layer."""
    code = "REPLICATION_ERROR"


class ReadOnlyReplicaError(ReplicationError):
    """A write operation reached a read-only replica instead of the primary."""
    code = "READ_ONLY_REPLICA"
    http_status = 403
