"""A Virtuoso-style SPARQL endpoint facade.

The paper runs an unmodified Virtuoso endpoint hosting the data KG and the
KGMeta graph, and KGNet's services talk to it with SPARQL queries plus
registered UDFs that issue HTTP calls to the GML inference manager.  The
:class:`SPARQLEndpoint` plays that role here:

* it owns a :class:`~repro.rdf.dataset.Dataset` (default graph = the data KG,
  named graphs for KGMeta and anything else),
* it parses and evaluates SPARQL queries and updates,
* it keeps an LRU *parse + plan* cache (:class:`PlanCache`) keyed by query
  text: repeated queries skip the parser entirely and reuse their compiled
  id-space join plans; any graph mutation bumps the dataset epoch, which
  transparently rebuilds cached plans against the current snapshot,
* it owns the :class:`ResultCache` of finished answers the HTTP service
  reads through: a protocol body survives every write whose logged changes
  miss the query's footprint (:mod:`repro.sparql.footprint`), and is
  dropped as soon as the dataset's change log cannot vouch for it; a
  rebound prefix is another key,
* it caches the materialised union graph between mutations (via
  :meth:`Dataset.snapshot <repro.rdf.dataset.Dataset.snapshot>`), so mixed
  KGMeta + data queries stop paying a full union rebuild per request,
* it exposes a UDF registry,
* it keeps simple per-query execution statistics (including whether the
  plan cache was hit, how many index lookups the join pipeline made and the
  "HTTP calls" its ``infer`` nodes made).

Concurrency: the endpoint is safe to share across serving threads.  Every
query evaluates against a pinned snapshot (:class:`GraphSnapshot
<repro.rdf.graph.GraphSnapshot>` / :class:`DatasetSnapshot
<repro.rdf.dataset.DatasetSnapshot>`), so readers never observe a torn
in-flight update; updates take the dataset's write lock for their whole
batch, so multi-operation requests commit atomically.  The plan cache and
all statistics counters are lock-protected — counter increments are
read-modify-write and would silently lose updates otherwise (the contention
suite under ``tests/concurrency`` enforces this).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import (Callable, Deque, Dict, FrozenSet, List, NamedTuple,
                    Optional, Tuple, Union)

from repro.exceptions import QueryError
from repro.rdf.dataset import Dataset
from repro.rdf.dictionary import TermDictionary
from repro.rdf.graph import Graph
from repro.rdf.terms import IRI
from repro.sparql.ast import (AskQuery, ConstructQuery, ModifyUpdate, Query,
                              SelectQuery, Update)
from repro.sparql.cache import EpochLRU
from repro.sparql.evaluator import QueryEvaluator
from repro.sparql.execution import ExecutionContext, StreamingResult
from repro.sparql.footprint import IdPattern, footprint
from repro.sparql.functions import BatchResolver, UDFRegistry
from repro.sparql.parser import SPARQLParser
from repro.sparql.plan import QueryPlan, render
from repro.sparql.results import ResultSet

__all__ = ["PlanCache", "ResultCache", "SPARQLEndpoint"]


@dataclass
class QueryStatistics:
    """Execution statistics for one query/update request."""

    query: str
    kind: str
    elapsed_seconds: float
    num_results: int
    pattern_lookups: int
    plan_cache_hit: bool = False
    #: Remote inference calls made by this query's own ``infer`` nodes.
    inference_calls: int = 0


class _CacheEntry(NamedTuple):
    parsed: object
    plan: Optional[QueryPlan]


class PlanCache(EpochLRU):
    """An LRU cache of parsed queries and their plan trees.

    Keys are ``(query text, namespace fingerprint)``; values hold the parsed
    AST plus a :class:`~repro.sparql.plan.QueryPlan`.  A lookup whose
    stored epoch no longer matches the dataset's counts as an *invalidation*:
    the parse is still reused (parsing does not depend on graph content) but
    the plan rebuilds against the current graph, so a cache hit can never
    serve stale ids, join orders or results after a mutation.
    """

    def __init__(self, maxsize: int = 128) -> None:
        super().__init__(maxsize, restamp=True)

    def lookup(self, key: Tuple, epoch) -> Tuple[Optional[_CacheEntry], bool]:
        """Return ``(entry, fresh)``; entry is None on a miss.

        ``fresh`` is False when the entry predates the current epoch (its
        plan will rebuild; only the parse is reused).
        """
        return self.get(key, epoch)

    def store(self, key: Tuple, parsed, plan: Optional[QueryPlan], epoch) -> _CacheEntry:
        entry = _CacheEntry(parsed, plan)
        self.put(key, epoch, entry)
        return entry


class _ResultCacheEntry(NamedTuple):
    #: What a hit serves: a protocol ``(media type, body)`` pair, or the
    #: result projection of a SPARQL-ML report envelope.
    answer: object
    #: The query's id patterns (:func:`~repro.sparql.footprint.footprint`);
    #: None when any change may alter the answer.
    footprint: Optional[FrozenSet[IdPattern]]


class ResultCache(EpochLRU):
    """An epoch-checked LRU of finished answers, the one result cache.

    Sits *above* the plan cache: where a plan-cache hit skips parsing and
    compilation, a result-cache hit skips evaluation **and** serialization.
    The HTTP service reads through it for two routes: a SPARQL protocol
    query stores its complete pre-encoded body, a SPARQL-ML SELECT its
    report's result projection (the envelope around it is per request).
    Keys name the route, the request (a protocol query's bytes as they
    arrived, a SPARQL-ML SELECT's params) and the prefix-table version
    (:attr:`NamespaceManager.version
    <repro.rdf.namespace.NamespaceManager.version>`) the text is read under,
    so a rebound prefix is a different key.

    An answer is stored under the epoch read *before* the request was
    dispatched (a SPARQL-ML answer's epoch also holds the GMLaaS model-store
    generation).  A lookup at that epoch is a plain hit.  A lookup at a
    later epoch asks the :class:`~repro.rdf.graph.ChangeLog` of the
    endpoint's dataset whether any step since the stored epoch changed a
    triple matching the answer's footprint; when none did, the answer is
    still current (it was computed no earlier than the stored epoch), so the
    entry is re-stamped and served.  A step the log no longer holds, an
    unlogged step, a footprint of ``None`` (every SPARQL-ML answer) or a
    graph create / drop drops the entry, so a mutation can never leak a
    stale answer.  Entries above ``max_entry_bytes`` (1 MiB) are not cached
    (a giant dump would evict the whole working set for one client); at most
    256 entries and 32 MiB are held in all.
    """

    max_entry_bytes = 1 << 20

    def __init__(self, dataset: Dataset) -> None:
        super().__init__(256, max_bytes=32 << 20, revalidate=self._untouched)
        self.dataset = dataset

    def lookup(self, key: Tuple, epoch) -> object:
        """The answer stored under ``key`` if still current, else None."""
        entry = self.get(key, epoch)[0]
        return None if entry is None else entry.answer

    def store(self, key: Tuple, epoch, dataset: Dataset, answer: object,
              size: int,
              footprint: Optional[FrozenSet[IdPattern]] = None) -> None:
        """Cache ``answer`` (``size`` bytes on the wire), computed no
        earlier than ``epoch`` of ``dataset``; an answer from a dataset the
        endpoint has since replaced (:meth:`reset`) is not cached."""
        if size > self.max_entry_bytes:
            return
        with self._lock:
            if dataset is self.dataset:
                self.put(key, epoch, _ResultCacheEntry(answer, footprint), size)

    def reset(self, dataset: Dataset) -> None:
        """Drop every answer and follow a swapped-in dataset."""
        with self._lock:
            self.dataset = dataset
            self.clear()

    def _untouched(self, entry: _ResultCacheEntry, stored, epoch) -> bool:
        return (entry.footprint is not None
                and self.dataset.changes.untouched(entry.footprint, stored,
                                                   epoch))


def _drained(value):
    """A started SELECT run to completion; any other result as it is."""
    return value.materialize() if isinstance(value, StreamingResult) else value


class SPARQLEndpoint:
    """In-process SPARQL endpoint over an RDF dataset."""

    #: Most recent request records kept in :attr:`history`; older ones fall
    #: off (each holds its full query text — unbounded, a long-lived server
    #: would leak one per request).  The running totals keep counting.
    HISTORY_LIMIT = 1024

    def __init__(self, dataset: Optional[Dataset] = None,
                 optimize_joins: bool = True) -> None:
        # `dataset or ...` would discard an *empty* dataset (len() == 0 is
        # falsy) — fatal for the storage engine, which hands over a freshly
        # recovered, possibly empty dataset whose identity must be kept.
        self.dataset = dataset if dataset is not None else Dataset()
        self.namespaces = self.dataset.namespaces
        self.udfs = UDFRegistry()
        self.optimize_joins = optimize_joins
        self.history: Deque[QueryStatistics] = deque(maxlen=self.HISTORY_LIMIT)
        self.plan_cache = PlanCache()
        self.result_cache = ResultCache(self.dataset)
        #: Total triple-pattern index lookups across all executed queries.
        #: Plain int for backwards compatibility; increments happen under
        #: ``_stats_lock`` (``+=`` is read-modify-write and loses updates
        #: under contention otherwise).
        self.total_pattern_lookups = 0
        self._stats_lock = threading.Lock()
        # Per-thread copy of the last record, so a serving thread can read
        # *its own* request's statistics without racing `history[-1]`
        # against neighbouring requests.
        self._thread_stats = threading.local()

    # ------------------------------------------------------------------
    # Data management
    # ------------------------------------------------------------------
    @property
    def graph(self) -> Graph:
        """The default graph (the data knowledge graph)."""
        return self.dataset.default_graph

    def load(self, triples, graph_iri: Optional[Union[str, IRI]] = None) -> int:
        """Bulk-load triples into the default or a named graph."""
        graph = self.dataset.graph(graph_iri) if graph_iri else self.graph
        return graph.add_all(triples)

    def named_graph(self, graph_iri: Union[str, IRI]) -> Graph:
        return self.dataset.graph(graph_iri)

    def replace_dataset(self, dataset: Dataset) -> None:
        """Swap in a different dataset (the storage engine's restore path).

        Every compiled plan and cached union belongs to the old dataset's
        graphs and epoch tokens, so the plan cache is cleared wholesale —
        the new dataset's epoch counters restart and could otherwise collide
        with cached tokens.  Parses are cheap to redo; stale ids are not.
        The result cache drops its bodies and follows the new dataset
        *before* the swap, so no lookup ever checks an old body against the
        new dataset's epochs, and it refuses bodies still in flight from the
        old one.
        """
        self.result_cache.reset(dataset)
        self.dataset = dataset
        self.namespaces = dataset.namespaces
        self.plan_cache.clear()

    def register_udf(self, name: str,
                     function: Optional[Callable[..., object]] = None,
                     aliases: Optional[List[str]] = None,
                     batch: Optional[BatchResolver] = None) -> None:
        """Register a user-defined function callable from SPARQL expressions;
        with ``batch``, one the planner can resolve a batch of rows at a time
        (``function`` then defaults to the resolver called with one input)."""
        self.udfs.register(name, function, aliases=aliases, batch=batch)

    # ------------------------------------------------------------------
    # Query execution
    # ------------------------------------------------------------------
    def _evaluation_graph(self, query: Query) -> Graph:
        """Pick the *snapshot* a query runs against.

        ``FROM <g> ...`` selects the union of the listed named graphs, as a
        protocol ``default-graph-uri`` does (:meth:`_protocol_graph`); no FROM
        uses the union of every graph, matching how the platform stores
        KGMeta alongside the data KG.  Every path returns a pinned
        point-in-time view, so a concurrent writer can never tear an
        in-flight query, and a logical one built once per dataset epoch
        (cached on the :class:`~repro.rdf.dataset.DatasetSnapshot`): no
        request pays a union rebuild, and the view's identity is stable
        between mutations, which keeps compiled plans reusable across
        readers.
        """
        from_graphs = getattr(query, "from_graphs", [])
        if from_graphs:
            return self._protocol_graph(from_graphs)
        if any(True for _ in self.dataset.named_graphs()):
            # Default behaviour: query the union of default + named graphs so
            # KGMeta triple patterns and data triple patterns can be mixed in
            # one query (paper Fig 2 relies on this).
            return self.dataset.snapshot().union()
        return self.graph.snapshot()

    def parse(self, text: str):
        return SPARQLParser(text, namespaces=self.namespaces).parse()

    def _cached_parse(self, text: str):
        """Parse through the LRU cache.

        Returns ``(parsed, plan, cache_hit)``.  ``plan`` is None for update
        requests (updates have no reusable join plan).
        """
        epoch = self.dataset.epoch()
        key = (text, self.namespaces.version)
        entry, fresh = self.plan_cache.lookup(key, epoch)
        if entry is not None:
            return entry.parsed, entry.plan, fresh
        parsed = self.parse(text)
        plan = None if isinstance(parsed, list) else QueryPlan()
        self.plan_cache.store(key, parsed, plan, epoch)
        return parsed, plan, False

    def footprint(self, text: str, namespaces_version: int,
                  dictionary: TermDictionary
                  ) -> Optional[FrozenSet[IdPattern]]:
        """The id patterns the answer to ``text`` can depend on
        (:func:`repro.sparql.footprint.footprint`, constants resolved in
        ``dictionary``), from the parse the plan cache holds for it under
        ``namespaces_version``; None — any change may alter the answer —
        once that parse is gone."""
        entry = self.plan_cache.peek((text, namespaces_version))
        if entry is None:
            return None
        return footprint(entry.parsed, dictionary.lookup)

    def prepare(self, text: str, require: Optional[str] = None,
                graph_iri: Optional[Union[str, IRI]] = None,
                default_graph_iris: Optional[List[Union[str, IRI]]] = None,
                named_graph_iris: Optional[List[Union[str, IRI]]] = None,
                context: Optional[ExecutionContext] = None,
                on_stats: Optional[Callable[[QueryStatistics], None]] = None
                ) -> Tuple[bool, Callable[[], object]]:
        """Parse ``text`` once, check its kind once: ``(updates, start)`` —
        whether it is an update, and the thunk that evaluates it.

        The one way a request text reaches the evaluator: every other entry
        point of this class and the API router come through here and differ
        only in which thread calls ``start`` and who drains what it returns.
        The parser decides the kind.  ``start()`` of a SELECT returns an
        *unconsumed* :class:`~repro.sparql.execution.StreamingResult` —
        id-row batches plus the decoder for them: whoever holds it drains it
        at once, suspends it between batches (the scheduler's time slices)
        or serializes it row by row without decoding.  ASK and CONSTRUCT
        cannot stream: they evaluate inside ``start()`` and return their
        ``bool`` / :class:`Graph`.  ``start()`` of an update applies it and
        returns the number of affected triples.

        ``require`` pins the request kind before anything executes: pass
        ``"query"`` or ``"update"`` to reject the other kind with a
        :class:`~repro.exceptions.QueryError` — the HTTP protocol endpoint
        must not let an update smuggled into ``query=`` mutate the store.

        ``graph_iri`` evaluates a query against that one named graph.
        ``default_graph_iris`` / ``named_graph_iris`` are the SPARQL 1.1
        *Protocol* dataset override (``default-graph-uri=`` /
        ``named-graph-uri=``): when either is given, the query evaluates
        against the union of exactly the listed graphs (overriding any
        ``FROM`` / ``FROM NAMED`` clause, as the protocol prescribes; the
        evaluator merges GRAPH scoping into one view, so both parameters
        restrict the same union).  They never apply to updates.

        ``context`` attaches a per-query
        :class:`~repro.sparql.execution.ExecutionContext` so a deadline,
        cancellation event, or work budget can stop the evaluation — inside
        ``start()`` or while the stream is drained — with a typed
        :class:`~repro.exceptions.QueryInterrupted` subclass.

        Every kind files one :class:`QueryStatistics` record when its result
        is complete — at once for ASK, CONSTRUCT and updates, from
        ``StreamingResult.finish`` for SELECT, on whichever thread that
        happens — and hands it to ``on_stats``.
        """
        parsed, plan, cache_hit = self._cached_parse(text)
        update = isinstance(parsed, list)
        if require is not None and (require == "update") != update:
            raise QueryError(
                ("the request is a SPARQL update, not a query; "
                 "send it through the update operation") if update else
                ("the request is a SPARQL query, not an update; "
                 "send it through the query operation"))
        if not update:
            return False, lambda: self.start_query(
                parsed, text, graph_iri=graph_iri, plan=plan,
                cache_hit=cache_hit, default_graph_iris=default_graph_iris,
                named_graph_iris=named_graph_iris, context=context,
                on_stats=on_stats)
        if default_graph_iris or named_graph_iris:
            raise QueryError(
                "protocol dataset selection (default-graph-uri / "
                "named-graph-uri) does not apply to updates; use "
                "USING / WITH in the request")
        return True, lambda: self._run_updates(
            parsed, text, cache_hit=cache_hit, context=context,
            on_stats=on_stats)

    def start(self, text: str, **options):
        """:meth:`prepare` ``text`` (same options) and start it right here."""
        return self.prepare(text, **options)[1]()

    def execute(self, text: str, require: Optional[str] = None,
                context: Optional[ExecutionContext] = None):
        """:meth:`start` a query *or* an update on the default dataset and
        run it to completion.

        SELECT / ASK / CONSTRUCT requests return their evaluation result,
        update requests the number of affected triples.
        """
        return _drained(self.start(text, require=require, context=context))

    def _record(self, statistics: QueryStatistics,
                on_stats: Optional[Callable[[QueryStatistics], None]] = None
                ) -> None:
        """File one request's statistics: history, totals, this thread's
        last, and the caller's ``on_stats``."""
        with self._stats_lock:
            self.total_pattern_lookups += statistics.pattern_lookups
            self.history.append(statistics)
        self._thread_stats.last = statistics
        if on_stats is not None:
            on_stats(statistics)

    def query(self, text: str, graph_iri: Optional[Union[str, IRI]] = None):
        """Parse and evaluate a SELECT / ASK / CONSTRUCT query.

        Returns a :class:`ResultSet` (SELECT), ``bool`` (ASK) or
        :class:`Graph` (CONSTRUCT).
        """
        return _drained(self.start(text, require="query", graph_iri=graph_iri))

    def _protocol_graph(self, graph_iris: Optional[List[Union[str, IRI]]],
                        named_graph_iris: Optional[List[Union[str, IRI]]] = None):
        """Pin the dataset a protocol ``default-graph-uri`` /
        ``named-graph-uri`` request names.

        Delegates to :meth:`DatasetSnapshot.union_of
        <repro.rdf.dataset.DatasetSnapshot.union_of>`: a logical, pinned,
        per-epoch-cached view — never a per-request copy, and
        identity-stable so repeated protocol queries reuse their compiled
        plans.  Graph IRIs the dataset does not hold contribute nothing —
        per the protocol the service composes the dataset from the
        documents it can resolve, and an unknown one is empty here.

        The parser flattens ``GRAPH <g> { ... }`` scoping into the enclosing
        group (queries always evaluate against one merged view), so the
        default-graph and named-graph selections collapse into a single
        restricted union: what ``named-graph-uri`` *restricts* here is which
        graphs are visible at all — triples of any graph not listed in
        either parameter cannot match.
        """
        iris = [IRI(g) if isinstance(g, str) else g
                for g in (graph_iris or ())]
        iris.extend(IRI(g) if isinstance(g, str) else g
                    for g in (named_graph_iris or ()))
        return self.dataset.snapshot().union_of(tuple(dict.fromkeys(iris)))

    def start_query(self, query: Query, text: str,
                    graph_iri: Optional[Union[str, IRI]] = None,
                    plan: Optional[QueryPlan] = None,
                    cache_hit: bool = False,
                    default_graph_iris: Optional[List[Union[str, IRI]]] = None,
                    context: Optional[ExecutionContext] = None,
                    named_graph_iris: Optional[List[Union[str, IRI]]] = None,
                    on_stats: Optional[Callable[[QueryStatistics], None]] = None):
        """Evaluate an already-parsed query; a SELECT comes back unconsumed.

        The entry for callers that hold an AST rather than a text (the
        SPARQL-ML service evaluates its rewritten query through it); ``text``
        only labels the statistics record and ``plan`` is the caller's
        :class:`~repro.sparql.plan.QueryPlan` for ``query``, if it keeps one.
        Statistics are recorded once the result is complete: at once for ASK
        and CONSTRUCT, from ``StreamingResult.finish`` for SELECT.
        """
        if default_graph_iris or named_graph_iris:
            graph = self._protocol_graph(default_graph_iris, named_graph_iris)
        elif graph_iri is not None:
            # Pin like every other path: a concurrent writer must not mutate
            # the buckets this query's join pipeline is iterating.
            graph = self.dataset.graph(graph_iri).snapshot()
        else:
            graph = self._evaluation_graph(query)
        evaluator = QueryEvaluator(graph, udfs=self.udfs,
                                   optimize_joins=self.optimize_joins,
                                   plan=plan, execution=context)
        started = time.perf_counter()

        def record(kind: str, count: int) -> None:
            self._record(QueryStatistics(
                query=text, kind=kind,
                elapsed_seconds=time.perf_counter() - started,
                num_results=count,
                pattern_lookups=evaluator.pattern_lookups,
                plan_cache_hit=cache_hit,
                inference_calls=evaluator.inference_calls), on_stats)

        if isinstance(query, SelectQuery):
            variables, batches = evaluator.stream_select(query)
            return StreamingResult(variables, batches, evaluator.terms,
                                   lambda rows: record("SELECT", rows))
        result = evaluator.evaluate(query)
        if isinstance(result, Graph):
            record("CONSTRUCT", len(result))
        else:
            record("ASK", int(bool(result)))
        return result

    def run_query(self, query: Query, text: str, **kwargs):
        """Evaluate an already-parsed query to completion."""
        return _drained(self.start_query(query, text, **kwargs))

    def select(self, text: str, **kwargs) -> ResultSet:
        result = self.query(text, **kwargs)
        if not isinstance(result, ResultSet):
            raise QueryError("query did not produce a SELECT result set")
        return result

    def update(self, text: str) -> int:
        """Parse and apply a SPARQL UPDATE request; returns affected triples."""
        return self.start(text, require="update")

    def _run_updates(self, updates: List[Update], text: str,
                     cache_hit: bool = False,
                     context: Optional[ExecutionContext] = None,
                     on_stats: Optional[Callable[[QueryStatistics], None]] = None
                     ) -> int:
        """Apply already-parsed updates, recording statistics.

        The whole batch runs under the dataset's write lock: a request with
        several operations commits atomically — no reader snapshot can
        observe a half-applied request, and two concurrent update requests
        serialise instead of interleaving their operations.  An execution
        context can interrupt an operation only *before* it starts mutating
        (the evaluator checkpoints after WHERE materialisation and never
        mid-mutation), so an interrupted request aborts between whole
        operations, leaving every applied one complete.
        """
        started = time.perf_counter()
        affected = 0
        with self.dataset.write_lock:
            for update in updates:
                affected += self.apply_update(update, context=context)
        elapsed = time.perf_counter() - started
        self._record(QueryStatistics(
            query=text, kind="UPDATE", elapsed_seconds=elapsed,
            num_results=affected, pattern_lookups=0,
            plan_cache_hit=cache_hit), on_stats)
        return affected

    def apply_update(self, update: Update,
                     context: Optional[ExecutionContext] = None) -> int:
        # Mutations go to the live dataset graphs.  Only a WHERE clause
        # reads: it evaluates against the pinned union snapshot, which the
        # evaluator lets go of before the first mutation.  The other kinds
        # pin nothing, so their writes copy no index a reader no longer
        # holds.
        reads = isinstance(update, ModifyUpdate)
        evaluator = QueryEvaluator(
            self.dataset.snapshot().union() if reads else self.graph,
            udfs=self.udfs, optimize_joins=self.optimize_joins,
            execution=context)
        return evaluator.apply_update(update, dataset=self.dataset)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def explain(self, text: str, analyze: bool = False) -> Dict[str, object]:
        """Print the plan a query runs as (see :mod:`repro.sparql.plan`).

        Returns a JSON-serialisable dict with the query ``kind``, a
        ``statistics`` block, and ``plan``: the tree the evaluator runs for
        the WHERE group, rendered node by node in executed order.  BGP nodes
        list their triple patterns in the join order with per-level
        estimated cardinalities (``levels``; a pattern enforced as a set
        intersection at the level before it is marked ``folded``), every
        join element carries its ``estimated_cardinality``, and
        property-path patterns expose the lowered plan (``rewritten``) —
        fresh-variable join chains, union branches for alternatives, and
        ``closure`` / ``negated-property-set`` iterator nodes for
        ``*``/``+``/``?`` and ``!(...)``.  A SELECT item or BIND that calls a
        batch-resolved UDF (the SPARQL-ML inference functions) is an
        ``infer`` node, printed where it runs: a SELECT item's after the
        WHERE group's nodes.

        ``statistics`` reports how the plan interacts with the caches: the
        parse/plan-cache outcome for this text (``plan_cache_hit``) plus the
        dataset epoch — the key under which the tree is cached, so two
        ``explain`` calls with equal epochs describe the same tree, the one
        ``query`` runs.

        With ``analyze=True`` the WHERE group is executed once, to
        exhaustion, and the counters of that run are printed: ``rows_out``
        per node (and for the group as a whole), per BGP level ``actual`` —
        the rows it handed on — next to its estimate, and per ``infer`` node
        the remote ``calls`` it made for how many ``distinct_targets`` over
        how many ``rows``.  Plain
        ``explain`` touches no data beyond the cardinality counters the
        optimizer reads.
        """
        parsed, plan, cache_hit = self._cached_parse(text)
        if isinstance(parsed, list):
            return {
                "kind": "UPDATE",
                "operations": [type(op).__name__ for op in parsed],
            }
        kind = {SelectQuery: "SELECT", AskQuery: "ASK",
                ConstructQuery: "CONSTRUCT"}[type(parsed)]
        graph = self._evaluation_graph(parsed)
        run = QueryEvaluator(graph, udfs=self.udfs,
                             optimize_joins=self.optimize_joins, plan=plan)
        tree, rows = run.analyze(parsed) if analyze else (run.plan_for(parsed), None)
        explained = {
            "kind": kind,
            "optimize_joins": self.optimize_joins,
            "statistics": {
                "plan_cache_hit": cache_hit,
                "dataset_epoch": self.dataset.epoch(),
                "num_triples": len(graph),
            },
            "plan": render(tree.where + tree.infer, graph,
                           run if analyze else None),
        }
        if analyze:
            explained["rows_out"] = rows
        return explained

    def last_statistics(self) -> Optional[QueryStatistics]:
        return self.history[-1] if self.history else None

    def thread_statistics(self) -> Optional[QueryStatistics]:
        """Statistics of the last request *this thread* executed.

        Under concurrent serving ``last_statistics()`` may belong to a
        neighbouring thread's request; a caller that drained its own result
        on this thread reads its record here, one whose stream finishes
        elsewhere passes ``on_stats`` to :meth:`start` instead.
        """
        return getattr(self._thread_stats, "last", None)

    def cache_info(self) -> Dict[str, object]:
        """Plan-cache and hot-path counters for monitoring/benchmarks."""
        info = dict(self.plan_cache.stats())
        info["pattern_lookups"] = self.total_pattern_lookups
        return info

    def __repr__(self) -> str:
        return (f"<SPARQLEndpoint default={len(self.graph)} triples, "
                f"{sum(1 for _ in self.dataset.named_graphs())} named graphs>")
