"""The API router: one dispatch surface for every platform operation.

The router receives :class:`~repro.kgnet.api.envelopes.APIRequest` envelopes
(or plain JSON dicts), routes them to the SPARQL endpoint, the SPARQL-ML
service and GMLaaS, and always answers with an
:class:`~repro.kgnet.api.envelopes.APIResponse`:

* every :mod:`repro.exceptions` type is mapped to a uniform error envelope
  with a stable code — the router never lets platform errors escape,
* every route records latency/throughput counters (``metrics()``),
* large results page through server-side cursors (``next_page``), and
  ``infer_batch`` amortises dispatch overhead over many inference inputs.

The :class:`~repro.kgnet.platform.KGNet` facade dispatches through a
router in-process (rich results ride along as ``response.attachment``);
:class:`~repro.kgnet.api.client.APIClient` talks to the same router through
pure JSON, proving the contract is transport-agnostic.
"""

from __future__ import annotations

import itertools
import math
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.concurrency.scheduler import AdmissionController, QueryScheduler
from repro.exceptions import (
    BadRequestError,
    CursorError,
    DatasetError,
    QueryCancelled,
    QueryPreempted,
    QueryTimeout,
    ReadOnlyReplicaError,
    ServerOverloaded,
    TrainingError,
    UnknownOperationError,
    integer_parameter,
)
from repro.sparql.execution import ExecutionContext, StreamingResult
from repro.gml.tasks import TaskSpec
from repro.gml.train.budget import TaskBudget
from repro.kgnet.api.envelopes import API_VERSION, APIRequest, APIResponse, RawJSON
from repro.kgnet.gmlaas.model_store import ARTEFACT_OF_MODE
from repro.kgnet.gmlaas.service import GMLaaS
from repro.kgnet.kgmeta.governor import KGMetaGovernor
from repro.kgnet.meta_sampler import MetaSamplingConfig
from repro.kgnet.sparqlml.optimizer import ModelSelectionObjective
from repro.kgnet.sparqlml.parser import TrainGMLRequest
from repro.kgnet.sparqlml.service import SPARQLMLService
from repro.rdf.graph import Graph
from repro.rdf.io import parse_ntriples, serialize_ntriples
from repro.rdf.terms import IRI
from repro.sparql.endpoint import SPARQLEndpoint
from repro.sparql.results import ResultSet
from repro.sparql.results.serialize import envelope_rows

__all__ = ["APIRouter"]

#: Operations a read-only replica refuses outright.  ``sparql``/``sparqlml``
#: are not listed: they are read ops unless the query text is an update,
#: which the handlers police per-request.
WRITE_OPS = frozenset({
    "load", "train", "delete_models",
    "admin/persist", "admin/restore", "admin/bulk_load",
})

#: Operations the admission controller guards: the query-execution routes
#: whose cost is client-controlled.  Cheap introspection ops (ping, stats,
#: metrics, replication/status) stay admissible even at capacity so
#: operators can observe an overloaded server.
GUARDED_OPS = frozenset({"sparql", "sparqlml", "sparqlml_select"})

#: Oldest cursors are dropped beyond this many live result pages.
MAX_LIVE_CURSORS = 64

#: Latency samples kept per route for the percentile estimates — a sliding
#: window over the most recent calls, sized so the p99 rests on real
#: observations (~2-3 tail samples) while one idle route costs ~2 KB.
LATENCY_RESERVOIR_SIZE = 256


#: Hostile-load error code -> the :class:`RouteMetrics` counter it bumps.
_OUTCOME_COUNTERS = {
    QueryPreempted.code: "queries_preempted",
    QueryTimeout.code: "queries_timed_out",
    QueryCancelled.code: "queries_cancelled",
    ServerOverloaded.code: "requests_shed",
}


def _percentile(ordered: List[float], quantile: float) -> float:
    """Nearest-rank percentile of an already-sorted sample list."""
    if not ordered:
        return 0.0
    rank = int(quantile * len(ordered) + 0.999999)  # ceil without math import
    return ordered[min(len(ordered), max(rank, 1)) - 1]


@dataclass
class RouteMetrics:
    """Latency / throughput counters for one route.

    All increments are read-modify-write sequences, so every recording
    method takes the per-route lock — serving threads hammering one route
    must never lose an update (``tests/concurrency/test_contention.py``
    fails on any drift).

    Besides the running totals, each route keeps a small sliding reservoir
    of recent latencies (:data:`LATENCY_RESERVOIR_SIZE` samples) from which
    ``as_dict`` reports p50/p99 — the numbers to watch once requests arrive
    over HTTP, where the mean hides connection-level tail pain.
    """

    calls: int = 0
    errors: int = 0
    total_seconds: float = 0.0
    max_seconds: float = 0.0
    #: Endpoint plan-cache outcomes observed by this route (only the routes
    #: that execute SPARQL maintain these; elsewhere they stay 0).
    cache_hits: int = 0
    cache_misses: int = 0
    #: Hostile-load outcomes, split out of ``errors`` by stable error code:
    #: preempted (hard work budget), deadline timeouts, client
    #: cancellations, and requests shed by admission control.
    queries_preempted: int = 0
    queries_timed_out: int = 0
    queries_cancelled: int = 0
    requests_shed: int = 0
    #: Streamed responses cut after the 200 header went out (the request
    #: already counted as a successful call; the interruption fired during
    #: body transfer, so it shows up here instead of ``errors``).
    streams_cut: int = 0
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False,
                                  compare=False)
    _samples: List[float] = field(default_factory=list, repr=False,
                                  compare=False)

    def record(self, elapsed: float, ok: bool,
               error_code: Optional[str] = None) -> None:
        with self._lock:
            self.calls += 1
            if not ok:
                self.errors += 1
                self._count_outcome(error_code)
            self.total_seconds += elapsed
            self.max_seconds = max(self.max_seconds, elapsed)
            if len(self._samples) < LATENCY_RESERVOIR_SIZE:
                self._samples.append(elapsed)
            else:
                # Ring overwrite: deterministic sliding window of the most
                # recent LATENCY_RESERVOIR_SIZE calls.
                self._samples[(self.calls - 1) % LATENCY_RESERVOIR_SIZE] = elapsed

    def _count_outcome(self, error_code: Optional[str]) -> None:
        """Split a hostile-load outcome out by its code (lock held)."""
        counter = _OUTCOME_COUNTERS.get(error_code)
        if counter is not None:
            setattr(self, counter, getattr(self, counter) + 1)

    def record_cache(self, hit: bool) -> None:
        with self._lock:
            if hit:
                self.cache_hits += 1
            else:
                self.cache_misses += 1

    def record_stream_cut(self, error_code: Optional[str] = None) -> None:
        """Account a response stream aborted mid-transfer.

        The dispatch already recorded the call as ok (the failure fired
        while the body streamed), so this only bumps the cut counter and
        the per-cause hostile-load split.
        """
        with self._lock:
            self.streams_cut += 1
            self._count_outcome(error_code)

    def as_dict(self) -> Dict[str, object]:
        with self._lock:
            mean = self.total_seconds / self.calls if self.calls else 0.0
            ordered = sorted(self._samples)
            return {
                "calls": self.calls,
                "errors": self.errors,
                "total_seconds": round(self.total_seconds, 6),
                "mean_seconds": round(mean, 6),
                "max_seconds": round(self.max_seconds, 6),
                "p50_seconds": round(_percentile(ordered, 0.50), 6),
                "p99_seconds": round(_percentile(ordered, 0.99), 6),
                "cache_hits": self.cache_hits,
                "cache_misses": self.cache_misses,
                "queries_preempted": self.queries_preempted,
                "queries_timed_out": self.queries_timed_out,
                "queries_cancelled": self.queries_cancelled,
                "requests_shed": self.requests_shed,
                "streams_cut": self.streams_cut,
            }


# ---------------------------------------------------------------------------
# Parameter normalisation: JSON payloads and rich in-process objects both work
# ---------------------------------------------------------------------------


def _require(params: Dict[str, object], name: str) -> object:
    if name not in params or params[name] is None:
        raise BadRequestError(f"missing required parameter {name!r}")
    return params[name]


def _as_task(value: object) -> TaskSpec:
    if isinstance(value, TaskSpec):
        return value
    if isinstance(value, dict):
        return _from_json(TaskSpec.from_dict, value, "task")
    raise BadRequestError("'task' must be a TaskSpec or its JSON object")


def _as_budget(value: object) -> Optional[TaskBudget]:
    if value is None or isinstance(value, TaskBudget):
        return value
    if isinstance(value, dict):
        return _from_json(TaskBudget.from_json, value, "budget")
    raise BadRequestError("'budget' must be a TaskBudget or its JSON object")


def _as_meta_sampling(value: object) -> Optional[MetaSamplingConfig]:
    if value is None or isinstance(value, MetaSamplingConfig):
        return value
    if isinstance(value, str):
        return MetaSamplingConfig.from_label(value)
    if isinstance(value, dict):
        return _from_json(lambda fields: MetaSamplingConfig(**fields), value,
                          "meta_sampling")
    raise BadRequestError("'meta_sampling' must be a label like 'd1h1' or a JSON object")


def _as_objective(value: object) -> Optional[ModelSelectionObjective]:
    if value is None or isinstance(value, ModelSelectionObjective):
        return value
    if isinstance(value, dict):
        return _from_json(lambda fields: ModelSelectionObjective(**fields),
                          value, "objective")
    raise BadRequestError("'objective' must be a ModelSelectionObjective or its JSON object")


def _from_json(build: Callable[[Dict[str, object]], object],
               value: Dict[str, object], name: str):
    """``build(value)``: an unknown field, a value of the wrong type or one
    the object refuses is the client's fault (400), not the server's."""
    try:
        return build(value)
    except (TypeError, ValueError, DatasetError, TrainingError) as exc:
        raise BadRequestError(f"invalid {name!r} object: {exc}") from None


def _as_iri_text(value: object, name: str) -> str:
    if isinstance(value, IRI):
        return value.value
    if isinstance(value, str) and value:
        return value
    raise BadRequestError(f"{name!r} must be an IRI string")


class APIRouter:
    """Dispatches versioned envelopes to the platform's services."""

    def __init__(self, endpoint: SPARQLEndpoint, gmlaas: GMLaaS,
                 governor: KGMetaGovernor, sparqlml: SPARQLMLService,
                 storage=None,
                 scheduler: Optional[QueryScheduler] = None,
                 admission: Optional[AdmissionController] = None,
                 default_query_timeout: Optional[float] = None,
                 max_query_timeout: Optional[float] = None) -> None:
        self.endpoint = endpoint
        self.gmlaas = gmlaas
        self.governor = governor
        self.sparqlml = sparqlml
        #: Optional :class:`repro.storage.engine.StorageEngine` backing the
        #: endpoint's dataset; enables the ``admin/*`` persistence routes.
        self.storage = storage
        #: Optional time-sliced fair scheduler: a SPARQL query text is
        #: evaluated preemptably on its lanes, so one adversarial cross
        #: product cannot monopolise a serving worker.  Without one the
        #: serving thread evaluates it (and it or the transport drains it).
        self.scheduler = scheduler
        #: Optional admission controller shedding :data:`GUARDED_OPS` with
        #: :class:`~repro.exceptions.ServerOverloaded` at capacity.
        self.admission = admission
        #: Deadline applied to query-evaluating requests that do not pass
        #: their own ``timeout`` parameter (None = unlimited).
        self.default_query_timeout = default_query_timeout
        #: Hard cap on client-supplied ``timeout`` values (None = uncapped).
        self.max_query_timeout = max_query_timeout
        #: Read-only replica mode: write operations are refused with
        #: :class:`~repro.exceptions.ReadOnlyReplicaError`.  Set by
        #: :class:`~repro.replication.replica.ReplicaEngine` after
        #: construction; False on a primary.
        self.read_only = False
        #: Optional replication provider (the ReplicaEngine on a follower):
        #: anything with a ``replication_status()`` dict method.  Drives the
        #: ``replication/status`` op when set; a primary reports from its
        #: storage engine instead.
        self.replication = None
        self._metrics: Dict[str, RouteMetrics] = {}
        self._metrics_lock = threading.Lock()
        #: ``.op``: the op :meth:`dispatch` is serving on this thread.
        self._dispatching = threading.local()
        self._cursors: "OrderedDict[str, List[object]]" = OrderedDict()
        self._cursors_lock = threading.Lock()
        self._cursor_ids = itertools.count(1)
        #: op name -> (handler, accepted param keys).  A handler maps params
        #: to (json_result_or_thunk, attachment); a zero-arg callable result
        #: is projected lazily on first read.  Any param key outside the
        #: accepted set is rejected, so typo'd options fail loudly instead
        #: of being silently ignored.
        self._ops: Dict[str, Tuple[Callable[[Dict[str, object]],
                                            Tuple[object, object]],
                                   frozenset]] = {
            "ping": (self._handle_ping, frozenset()),
            "load": (self._handle_load,
                     frozenset({"triples", "ntriples", "graph_iri"})),
            "sparql": (self._handle_sparql,
                       frozenset({"query", "page_size", "default_graph_uris",
                                  "named_graph_uris",
                                  "require", "timeout", "cancel", "stream"})),
            "sparqlml": (self._handle_sparqlml,
                         frozenset({"query", "page_size", "method",
                                    "meta_sampling", "use_meta_sampling",
                                    "objective", "force_plan"})),
            "sparqlml_select": (self._handle_sparqlml_select,
                                frozenset({"query", "objective", "force_plan",
                                           "page_size", "timeout"})),
            "train": (self._handle_train,
                      frozenset({"query", "task", "budget", "method",
                                 "meta_sampling", "use_meta_sampling",
                                 "name"})),
            "infer_node_class": (self._handle_infer_node_class,
                                 frozenset({"model_uri", "node"})),
            "infer_links": (partial(self._handle_infer_ranked, "source", "links"),
                            frozenset({"model_uri", "source", "k"})),
            "infer_similar": (partial(self._handle_infer_ranked, "entity", "similar"),
                              frozenset({"model_uri", "entity", "k"})),
            "infer_batch": (self._handle_infer_batch,
                            frozenset({"model_uri", "inputs", "k", "mode",
                                       "page_size"})),
            "next_page": (self._handle_next_page,
                          frozenset({"cursor", "page_size"})),
            "list_models": (self._handle_list_models, frozenset()),
            "describe_model": (self._handle_describe_model,
                               frozenset({"model_uri"})),
            "delete_models": (self._handle_delete_models,
                              frozenset({"query"})),
            "stats": (self._handle_stats, frozenset()),
            "metrics": (self._handle_metrics, frozenset()),
            "admin/persist": (self._handle_admin_persist, frozenset()),
            "admin/restore": (self._handle_admin_restore, frozenset()),
            "admin/bulk_load": (self._handle_admin_bulk_load,
                                frozenset({"turtle", "graph_iri",
                                           "batch_size"})),
            "replication/status": (self._handle_replication_status,
                                   frozenset()),
        }

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def operations(self) -> List[str]:
        return sorted(self._ops)

    def dispatch(self, request: Union[APIRequest, Dict[str, object]]) -> APIResponse:
        """Route one envelope; always returns an envelope, never raises."""
        started = time.perf_counter()
        if not isinstance(request, APIRequest):
            raw = request
            try:
                request = APIRequest.from_dict(raw)
            except BadRequestError as exc:
                op = raw.get("op") if isinstance(raw, dict) else None
                pseudo = APIRequest(op=str(op or "?"))
                return self._finish(pseudo, APIResponse.failure(pseudo, exc), started)
        handler, allowed = self._ops.get(request.op, (None, None))
        if handler is None:
            error = UnknownOperationError(
                f"unknown operation {request.op!r}; supported: {', '.join(self.operations())}")
            return self._finish(request, APIResponse.failure(request, error), started)
        ticket = None
        try:
            if self.read_only and request.op in WRITE_OPS:
                raise ReadOnlyReplicaError(
                    f"operation {request.op!r} is not available on a "
                    "read-only replica; send writes to the primary")
            unknown = set(request.params) - allowed
            if unknown:
                raise BadRequestError(
                    f"unknown parameter(s) for {request.op!r}: "
                    f"{', '.join(sorted(map(str, unknown)))}")
            # Admission control happens before the handler does any work: a
            # shed request was never executed, so clients may always retry
            # it.  ServerOverloaded rides the normal failure-envelope path,
            # which records it under the route's requests_shed counter.
            if self.admission is not None and request.op in GUARDED_OPS:
                ticket = self.admission.admit()
            self._dispatching.op = request.op
            result, attachment = handler(request.params)
            response = APIResponse.success(request, result, attachment=attachment)
        except Exception as exc:  # noqa: BLE001 — every error becomes an envelope
            response = APIResponse.failure(request, exc)
        finally:
            if ticket is not None:
                self.admission.release(ticket)
        return self._finish(request, response, started)

    def _finish(self, request: APIRequest, response: APIResponse,
                started: float) -> APIResponse:
        elapsed = time.perf_counter() - started
        response.meta.setdefault("elapsed_seconds", round(elapsed, 9))
        response.meta.setdefault("api_version", API_VERSION)
        # Client-supplied op strings must not grow the metrics table without
        # bound: anything unrouted is accounted under one sentinel key.
        key = request.op if request.op in self._ops else "<unknown>"
        error_code = None
        if not response.ok and isinstance(response.error, dict):
            error_code = response.error.get("code")
        self._route_metrics(key).record(elapsed, response.ok,
                                        error_code=error_code)
        return response

    def _route_metrics(self, key: str) -> RouteMetrics:
        with self._metrics_lock:
            metrics = self._metrics.get(key)
            if metrics is None:
                metrics = self._metrics[key] = RouteMetrics()
            return metrics

    def metrics(self) -> Dict[str, Dict[str, object]]:
        """Per-route latency/throughput counters since start-up."""
        with self._metrics_lock:
            items = sorted(self._metrics.items())
        return {op: m.as_dict() for op, m in items}

    # ------------------------------------------------------------------
    # Pagination cursors
    # ------------------------------------------------------------------
    def _coerce_timeout(self, value: object) -> Optional[float]:
        """Resolve a request's query deadline.

        A client-supplied ``timeout`` is validated and capped by
        ``max_query_timeout``; an absent one falls back to
        ``default_query_timeout``.  ``None`` means no deadline.
        """
        if value is None:
            timeout = self.default_query_timeout
        else:
            try:
                timeout = float(value)
            except (TypeError, ValueError):
                raise BadRequestError(
                    f"'timeout' must be a number of seconds, got {value!r}")
            # NaN slips past every ordered comparison (both checks below
            # compare False), and +inf defeats the cap when none is set —
            # either would hand a hostile client an undying query slot.
            if not math.isfinite(timeout):
                raise BadRequestError(
                    f"'timeout' must be finite, got {value!r}")
            if timeout <= 0:
                raise BadRequestError("'timeout' must be positive")
        if timeout is not None and self.max_query_timeout is not None:
            timeout = min(timeout, self.max_query_timeout)
        return timeout

    @staticmethod
    def _coerce_positive_int(value: object, name: str) -> int:
        number = integer_parameter(value, name)
        if number <= 0:
            raise BadRequestError(f"{name!r} must be positive")
        return number

    @classmethod
    def _coerce_page_size(cls, page_size: object) -> Optional[int]:
        """Validate an optional ``page_size`` parameter (None = no paging)."""
        if page_size is None:
            return None
        return cls._coerce_positive_int(page_size, "page_size")

    @classmethod
    def _coerce_k(cls, params: Dict[str, object]) -> int:
        """The ``k`` of the ``infer_*`` ops: a positive integer, 10 if absent."""
        if "k" not in params:
            return 10
        return cls._coerce_positive_int(params["k"], "k")

    def _paginate(self, items: List[object], page_size: object,
                  pack: Callable[[List[object]], object] = list
                  ) -> Tuple[object, Optional[str]]:
        """``(pack(first page), cursor to the rest or None)``; the cursor
        keeps ``pack``, so every page of one result is written alike."""
        size = self._coerce_page_size(page_size)
        if size is None:
            return pack(items), None
        page, rest = items[:size], items[size:]
        if not rest:
            return pack(page), None
        cursor = f"cur-{next(self._cursor_ids)}-p{size}"
        with self._cursors_lock:
            self._cursors[cursor] = (rest, pack)
            while len(self._cursors) > MAX_LIVE_CURSORS:
                self._cursors.popitem(last=False)
        return pack(page), cursor

    def _handle_next_page(self, params: Dict[str, object]) -> Tuple[Dict[str, object], object]:
        cursor = str(_require(params, "cursor"))
        # Validate before consuming the cursor: a bad page_size must not
        # destroy the remaining pages.
        size = self._coerce_page_size(params.get("page_size"))
        with self._cursors_lock:
            if cursor not in self._cursors:
                raise CursorError(f"unknown or expired cursor {cursor!r}")
            remaining, pack = self._cursors.pop(cursor)
        if size is None:
            try:
                size = int(cursor.rsplit("-p", 1)[1])
            except (IndexError, ValueError):
                size = len(remaining)
        page, next_cursor = self._paginate(remaining, size, pack)
        result = {"items": page, "next_cursor": next_cursor,
                  "remaining": max(0, len(remaining) - size)}
        return result, page

    # ------------------------------------------------------------------
    # Result projection
    # ------------------------------------------------------------------
    def _select_rows(self, result: object,
                     page_size: object) -> Tuple[int, RawJSON, Optional[str]]:
        """``(total rows, first page, cursor)`` of a SELECT's envelope rows.

        The cursor keeps the rest as the evaluator's rows; each page is
        written from term ids by the result writers when it is served, as
        one RawJSON (a lazy SELECT is drained here, under its context's
        checkpoints)."""
        rows, write = envelope_rows(result)
        page, cursor = self._paginate(rows, page_size,
                                      lambda page: RawJSON(write(page)))
        return len(rows), page, cursor

    def _project_query_result(self, value: object,
                              page_size: object) -> Dict[str, object]:
        if isinstance(value, (ResultSet, StreamingResult)):
            total, page, cursor = self._select_rows(value, page_size)
            return {"kind": "SELECT",
                    "variables": [v.name for v in value.variables],
                    "total_rows": total, "rows": page, "next_cursor": cursor}
        if isinstance(value, bool):
            return {"kind": "ASK", "answer": value}
        if isinstance(value, Graph):
            return {"kind": "CONSTRUCT", "num_triples": len(value),
                    "ntriples": serialize_ntriples(value)}
        if isinstance(value, int):
            return {"kind": "UPDATE", "affected_triples": value}
        raise BadRequestError(f"unprojectable query result {type(value).__name__}")

    # ------------------------------------------------------------------
    # Handlers
    # ------------------------------------------------------------------
    def _handle_ping(self, params: Dict[str, object]) -> Tuple[Dict[str, object], object]:
        return {"status": "ok", "api_version": API_VERSION,
                "operations": self.operations()}, None

    def _handle_load(self, params: Dict[str, object]) -> Tuple[Dict[str, object], object]:
        graph_iri = params.get("graph_iri")
        triples = params.get("triples")
        if triples is None:
            text = _require(params, "ntriples")
            if not isinstance(text, str):
                raise BadRequestError("'ntriples' must be an N-Triples string")
            triples = parse_ntriples(text)
        loaded = self.endpoint.load(triples, graph_iri=graph_iri)
        return {"triples_loaded": loaded,
                "total_triples": len(self.endpoint.graph)}, loaded

    @staticmethod
    def _as_graph_list(params: Dict[str, object],
                       name: str) -> Optional[List[str]]:
        graphs = params.get(name)
        if graphs is None:
            return None
        if not isinstance(graphs, (list, tuple)) or not graphs:
            raise BadRequestError(
                f"{name!r} must be a non-empty list of IRI strings")
        return [_as_iri_text(g, f"{name}[]") for g in graphs]

    def _handle_sparql(self, params: Dict[str, object]) -> Tuple[object, object]:
        """The one way a SPARQL text reaches the evaluator, whichever op or
        transport carried it: one context, one ``endpoint.prepare``, one
        statistics callback."""
        query = str(_require(params, "query"))
        page_size = self._coerce_page_size(params.get("page_size"))
        default_graphs = self._as_graph_list(params, "default_graph_uris")
        named_graphs = self._as_graph_list(params, "named_graph_uris")
        require = params.get("require")
        if require is not None and require not in ("query", "update"):
            raise BadRequestError("'require' must be 'query' or 'update'")
        if self.read_only:
            if require == "update":
                raise ReadOnlyReplicaError(
                    "SPARQL updates are not available on a read-only "
                    "replica; send writes to the primary")
            require = "query"  # an update text must fail, not slip through
        timeout = self._coerce_timeout(params.get("timeout"))
        # The cancel event is plumbed in-process by the service layer (the
        # client socket's disconnect probe); it is never a client-writable
        # value — anything without the Event protocol is ignored.
        cancel = params.get("cancel")
        if cancel is not None and not hasattr(cancel, "is_set"):
            cancel = None
        if self.scheduler is not None:
            context = self.scheduler.context(timeout=timeout, cancel=cancel)
        else:
            context = ExecutionContext(timeout=timeout, cancel=cancel)
        # The statistics record (and with it the plan-cache outcome of the
        # text's one parse) arrives by callback — a SELECT's is filed by
        # whoever finishes its stream, on any thread — and is counted on the
        # op this thread is dispatching (`sparql`, or `sparqlml` for a plain
        # text sent there).
        metrics = self._route_metrics(self._dispatching.op)
        updates, start = self.endpoint.prepare(
            query, require=require, default_graph_iris=default_graphs,
            named_graph_iris=named_graphs, context=context,
            on_stats=lambda s: metrics.record_cache(s.plan_cache_hit))
        if self.scheduler is not None and not updates:
            # On the scheduler's lanes: ASK, CONSTRUCT and the materialising
            # part of a SELECT run in the first slice, its stream is drained
            # in further slices, so a cross product yields to cheap queries
            # between quanta.  An update is applied on the calling thread.
            value = self.scheduler.run(start, context)
        else:
            value = start()
            # A caller that set `stream` gets the SELECT back unconsumed, so
            # the context's deadline and cancellation stay live while the
            # transport serializes row by row — what makes a mid-transfer
            # `timeout=` abort reachable.
            if isinstance(value, StreamingResult) and not params.get("stream"):
                value = value.materialize()
        # For updates, capture the WAL commit seq the write landed at (an
        # upper bound is fine): clients use it for read-your-writes routing
        # across replicas.
        commit_seq: Optional[int] = None
        if isinstance(value, int) and self.storage is not None:
            wal = getattr(self.storage, "_wal", None)
            if wal is not None:
                commit_seq = wal.last_seq
        # The JSON projection (row conversion, graph serialisation) is built
        # lazily: in-process callers consume the attachment and skip it.
        def project() -> Dict[str, object]:
            result = self._project_query_result(value, page_size)
            if commit_seq is not None:
                result["commit_seq"] = commit_seq
            return result
        return project, value

    def _handle_sparqlml(self, params: Dict[str, object]) -> Tuple[object, object]:
        """A SPARQL-ML text of any kind, handed to the op of its kind."""
        kind = self.sparqlml.parser.classify(str(_require(params, "query")))
        if kind == "sparql":
            # A plain text takes the sparql op's path — its deadline, its
            # scheduler, its accounting — pinned to a query: this op trains
            # and deletes models, it never applies a plain SPARQL update.
            return self._handle_sparql(dict(params, require="query"))
        if kind == "select":
            return self._handle_sparqlml_select(params)
        if self.read_only:
            raise ReadOnlyReplicaError(
                f"SPARQL-ML {kind} statements are not available on a "
                "read-only replica; send writes to the primary")
        if kind == "train":
            return self._handle_train(params)
        return self._handle_delete_models(params)

    def _handle_sparqlml_select(self, params: Dict[str, object]) -> Tuple[object, object]:
        query = str(_require(params, "query"))
        page_size = self._coerce_page_size(params.get("page_size"))
        context = ExecutionContext(
            timeout=self._coerce_timeout(params.get("timeout")))
        report = self.sparqlml.execute_select(
            query,
            objective=_as_objective(params.get("objective")),
            force_plan=params.get("force_plan"),
            context=context)

        def project() -> Dict[str, object]:
            _, page, cursor = self._select_rows(report.results, page_size)
            payload = report.as_dict()
            payload["variables"] = [v.name for v in report.results.variables]
            payload.update({"kind": "SELECT_REPORT", "rows": page,
                            "next_cursor": cursor})
            return payload
        return project, report

    def _handle_train(self, params: Dict[str, object]) -> Tuple[Dict[str, object], object]:
        meta_sampling = _as_meta_sampling(params.get("meta_sampling"))
        use_meta_sampling = bool(params.get("use_meta_sampling", True))
        method = params.get("method")
        if "query" in params and params["query"] is not None:
            report = self.sparqlml.execute_train(
                str(params["query"]), meta_sampling=meta_sampling,
                use_meta_sampling=use_meta_sampling, method=method)
        else:
            task = _as_task(_require(params, "task"))
            request = TrainGMLRequest(
                name=str(params.get("name") or task.name), task=task,
                budget=_as_budget(params.get("budget")) or TaskBudget(),
                method=method)
            report = self.sparqlml.train_request(
                request, meta_sampling=meta_sampling,
                use_meta_sampling=use_meta_sampling, method=method)
        payload = dict(report.as_dict())
        payload["kind"] = "TRAIN_REPORT"
        return payload, report

    def _handle_infer_node_class(self, params: Dict[str, object]) -> Tuple[Dict[str, object], object]:
        model_uri = _as_iri_text(_require(params, "model_uri"), "model_uri")
        node = _as_iri_text(_require(params, "node"), "node")
        predicted = self.gmlaas.infer_node_class(model_uri, node)
        return {"model_uri": model_uri, "node": node, "output": predicted}, predicted

    def _handle_infer_ranked(self, name: str, mode: str,
                             params: Dict[str, object]) -> Tuple[Dict[str, object], object]:
        """``infer_links`` / ``infer_similar``: the ``k`` best-ranked
        entities for the one input named ``name``."""
        model_uri = _as_iri_text(_require(params, "model_uri"), "model_uri")
        value = _as_iri_text(_require(params, name), name)
        k = self._coerce_k(params)
        ranked = self.gmlaas.infer(model_uri, [value], mode, k)[0]
        return {"model_uri": model_uri, name: value, "k": k,
                "output": ranked}, ranked

    def _handle_infer_batch(self, params: Dict[str, object]) -> Tuple[Dict[str, object], object]:
        model_uri = _as_iri_text(_require(params, "model_uri"), "model_uri")
        inputs = _require(params, "inputs")
        if not isinstance(inputs, (list, tuple)):
            raise BadRequestError("'inputs' must be a list of IRI strings")
        inputs = [_as_iri_text(item, "inputs[]") for item in inputs]
        k = self._coerce_k(params)
        mode = params.get("mode")
        if mode not in (None, *ARTEFACT_OF_MODE):
            raise BadRequestError(
                f"'mode' must be one of {', '.join(map(repr, ARTEFACT_OF_MODE))}, "
                f"got {mode!r}")
        predictions = self.gmlaas.infer_batch(model_uri, inputs, k=k, mode=mode)
        page, cursor = self._paginate(predictions, params.get("page_size"))
        # The batch is one GMLaaS.infer: one GMLaaS call.
        result = {"model_uri": model_uri, "total": len(predictions),
                  "predictions": page, "next_cursor": cursor,
                  "http_calls": 1}
        return result, predictions

    def _handle_list_models(self, params: Dict[str, object]) -> Tuple[object, object]:
        models = self.governor.list_models()
        return (lambda: {"models": [m.as_dict() for m in models],
                         "count": len(models)}), models

    def _handle_describe_model(self, params: Dict[str, object]) -> Tuple[Dict[str, object], object]:
        model_uri = _as_iri_text(_require(params, "model_uri"), "model_uri")
        description = self.governor.describe(IRI(model_uri)).as_dict()
        return {"model": description}, description

    def _handle_delete_models(self, params: Dict[str, object]) -> Tuple[Dict[str, object], object]:
        query = str(_require(params, "query"))
        report = self.sparqlml.execute_delete(query)
        payload = dict(report.as_dict())
        payload["kind"] = "DELETE_REPORT"
        return payload, report

    def _handle_stats(self, params: Dict[str, object]) -> Tuple[Dict[str, object], object]:
        from repro.rdf.stats import compute_statistics
        stats: Dict[str, object] = {
            "kg": compute_statistics(self.endpoint.graph).as_dict(),
            "kgmeta_models": len(self.governor),
            "stored_models": len(self.gmlaas.model_store),
            "http_calls": self.gmlaas.http_calls,
            # Hot-path observability: plan-cache hit/miss counters and total
            # triple-pattern index lookups, so APIClient users can watch the
            # query pipeline without reaching into endpoint internals.
            "query_cache": self.endpoint.cache_info(),
            # The serialized-response cache above it: hits skip evaluation
            # AND serialization, so watch this one to explain hot-path QPS.
            "result_cache": self.endpoint.result_cache.stats(),
            "api": self.metrics(),
        }
        if self.scheduler is not None:
            stats["scheduler"] = self.scheduler.stats()
        if self.admission is not None:
            stats["admission"] = self.admission.stats()
        stats["replication"] = self._replication_status_doc()
        return stats, stats

    def _replication_status_doc(self) -> Dict[str, object]:
        """The role/seq/lag document behind ``replication/status``.

        On a follower the attached :class:`ReplicaEngine` answers (applied
        seq, lag); on a primary the storage engine's WAL window does; a
        memory-only platform reports a standalone role with no history.
        """
        if self.replication is not None:
            return dict(self.replication.replication_status())
        if self.storage is not None and self.storage.is_open:
            oldest, last_seq = self.storage.wal_window()
            return {
                "role": "primary",
                "read_only": self.read_only,
                "last_seq": last_seq,
                "applied_seq": last_seq,
                "oldest_streamable_seq": oldest,
                "segments": self.storage.archive.stats(),
            }
        return {"role": "standalone", "read_only": self.read_only,
                "last_seq": 0, "applied_seq": 0}

    def _handle_replication_status(self, params: Dict[str, object]) -> Tuple[Dict[str, object], object]:
        doc = self._replication_status_doc()
        return doc, doc

    def _handle_metrics(self, params: Dict[str, object]) -> Tuple[Dict[str, object], object]:
        metrics = self.metrics()
        payload = {"routes": metrics}
        if self.storage is not None:
            payload["storage"] = self.storage.stats()
        return payload, metrics

    # ------------------------------------------------------------------
    # Durable storage administration
    # ------------------------------------------------------------------
    def _require_storage(self):
        if self.storage is None:
            raise BadRequestError(
                "no storage engine configured: construct the platform/router "
                "with a repro.storage.StorageEngine to use admin/* routes")
        return self.storage

    def _handle_admin_persist(self, params: Dict[str, object]) -> Tuple[Dict[str, object], object]:
        """Checkpoint the dataset and rotate the WAL (log compaction)."""
        storage = self._require_storage()
        info = storage.checkpoint()
        result = {"checkpoint": info.as_dict(), "storage": storage.stats()}
        return result, info

    def _handle_admin_restore(self, params: Dict[str, object]) -> Tuple[Dict[str, object], object]:
        """Recover the dataset from disk and swap it into the endpoint."""
        storage = self._require_storage()
        started = time.perf_counter()
        dataset = storage.reopen()
        self.endpoint.replace_dataset(dataset)
        result = {
            "restored_triples": len(dataset),
            "named_graphs": sum(1 for _ in dataset.named_graphs()),
            "recovered_transactions": storage.recovered_transactions,
            "recovered_ops": storage.recovered_ops,
            "seconds": round(time.perf_counter() - started, 6),
            "storage": storage.stats(),
        }
        return result, dataset

    def _handle_admin_bulk_load(self, params: Dict[str, object]) -> Tuple[Dict[str, object], object]:
        """Stream Turtle/N-Triples into the store, then checkpoint."""
        storage = self._require_storage()
        text = _require(params, "turtle")
        if not isinstance(text, str):
            raise BadRequestError("'turtle' must be a Turtle/N-Triples string")
        kwargs: Dict[str, object] = {}
        graph_iri = None
        if params.get("graph_iri") is not None:
            graph_iri = _as_iri_text(params["graph_iri"], "graph_iri")
            kwargs["graph_iri"] = graph_iri
        if params.get("batch_size") is not None:
            kwargs["batch_size"] = self._coerce_positive_int(
                params["batch_size"], "batch_size")
        report = storage.bulk_load(text, **kwargs)
        result = dict(report.as_dict())
        # graph_triples counts the *target* graph (named or default);
        # total_triples is the whole dataset, so the two reconcile no
        # matter where the load landed.
        dataset = self.endpoint.dataset
        target = dataset.graph(graph_iri) if graph_iri else dataset.default_graph
        result["graph_triples"] = len(target)
        result["total_triples"] = len(dataset)
        return result, report
