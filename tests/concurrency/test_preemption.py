"""Preemptable execution: contexts, evaluator checkpoints, fair scheduling.

The hostile-load PR's core claim is that one adversarial cross product can
no longer monopolise the engine.  These tests pin the pieces individually:

* :class:`~repro.sparql.execution.ExecutionContext` — deadline, cancel and
  work-budget semantics, with partial-progress stats on every interruption,
* the compiled evaluator — every operator shape (BGP joins, OPTIONAL,
  UNION, FILTER, aggregates, ORDER BY, updates) honours its context, and a
  plain run without one stays byte-identical,
* :class:`~repro.concurrency.QueryScheduler` — slices suspend and resume
  from live generator state (no recomputation), cheap queries overtake a
  running cross product, interruptions free the lane,
* :class:`~repro.concurrency.AdmissionController` — sheds over-capacity
  work with a typed, retryable error before it executes.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from typing import List

import pytest

from repro.concurrency import AdmissionController, QueryScheduler
from repro.exceptions import (
    QueryCancelled,
    QueryInterrupted,
    QueryPreempted,
    QueryTimeout,
    ServerOverloaded,
)
from repro.rdf import Graph, IRI, Literal
from repro.sparql import (
    ExecutionContext,
    QueryEvaluator,
    SPARQLEndpoint,
    SPARQLParser,
    StreamingResult,
)

EX = "http://example.org/preempt/"

#: A join over every-triple-twice: |G|^2 intermediate rows, the canonical
#: adversarial shape.  Explicit projection keeps the pipeline fully lazy
#: (``SELECT *`` must materialise to discover variables).
CROSS_PRODUCT = "SELECT ?a ?d WHERE { ?a ?b ?c . ?d ?e ?f }"

STRESS = 4 if os.environ.get("KGNET_STRESS") else 1


def small_graph(n: int = 60) -> Graph:
    graph = Graph()
    for i in range(n):
        graph.add(IRI(f"{EX}s{i}"), IRI(f"{EX}p{i % 5}"), Literal(f"v{i}"))
    return graph


def parse(text: str):
    return SPARQLParser(text).parse_query()


# ---------------------------------------------------------------------------
# ExecutionContext semantics
# ---------------------------------------------------------------------------
class TestExecutionContext:
    def test_plain_context_never_interrupts(self):
        context = ExecutionContext()
        for _ in range(10_000):
            context.checkpoint()
        assert context.work_units == 10_000
        assert not context.interrupted

    def test_deadline_raises_typed_timeout_with_progress(self):
        context = ExecutionContext(timeout=0.01)
        with pytest.raises(QueryTimeout) as info:
            deadline = time.monotonic() + 2.0
            while time.monotonic() < deadline:
                context.checkpoint()
        assert info.value.work_units > 0
        assert info.value.elapsed_seconds >= 0.01
        assert context.interrupted

    def test_cancel_event_raises_cancelled(self):
        cancel = threading.Event()
        context = ExecutionContext(cancel=cancel)
        context.checkpoint()
        cancel.set()
        with pytest.raises(QueryCancelled):
            context.checkpoint()

    def test_cancel_method_is_equivalent(self):
        context = ExecutionContext()
        context.cancel()
        assert context.cancelled
        with pytest.raises(QueryCancelled):
            context.checkpoint()

    def test_work_budget_raises_preempted(self):
        context = ExecutionContext(max_work=100)
        with pytest.raises(QueryPreempted) as info:
            for _ in range(200):
                context.checkpoint()
        assert info.value.work_units >= 100
        # The typed family is catchable as one class.
        assert isinstance(info.value, QueryInterrupted)

    def test_quantum_expiry_is_a_flag_not_an_exception(self):
        context = ExecutionContext(quantum_work=10)
        context.begin_slice()
        for _ in range(10):
            context.checkpoint()
        assert context.quantum_expired()
        context.begin_slice()  # a fresh slice resets the budget
        assert not context.quantum_expired()
        assert not context.interrupted

    def test_rows_emitted_travels_on_the_exception(self):
        context = ExecutionContext(max_work=5)
        context.count_row()
        context.count_row()
        with pytest.raises(QueryPreempted) as info:
            for _ in range(10):
                context.checkpoint()
        assert info.value.rows_emitted == 2


# ---------------------------------------------------------------------------
# Evaluator integration: every operator shape honours the context
# ---------------------------------------------------------------------------
class TestEvaluatorPreemption:
    def evaluate(self, text: str, context: ExecutionContext,
                 graph: Graph = None):
        evaluator = QueryEvaluator(graph if graph is not None
                                   else small_graph(), execution=context)
        return evaluator.evaluate_select(parse(text))

    def test_cross_product_hits_work_budget(self):
        with pytest.raises(QueryPreempted) as info:
            self.evaluate(CROSS_PRODUCT, ExecutionContext(max_work=500))
        assert info.value.work_units >= 500

    def test_cross_product_hits_deadline(self):
        graph = small_graph(400)
        with pytest.raises(QueryTimeout) as info:
            self.evaluate("SELECT ?a ?d WHERE { ?a ?b ?c . ?d ?e ?f . "
                          "?g ?h ?i }", ExecutionContext(timeout=0.05),
                          graph=graph)
        # Partial progress is reported, and the overshoot past the deadline
        # is bounded by the amortised checkpoint stride, not the query size.
        assert info.value.work_units > 0
        assert info.value.elapsed_seconds < 2.0

    def test_cancellation_mid_query(self):
        cancel = threading.Event()
        cancel.set()
        with pytest.raises(QueryCancelled):
            self.evaluate(CROSS_PRODUCT, ExecutionContext(cancel=cancel))

    @pytest.mark.parametrize("query", [
        # OPTIONAL, UNION, FILTER, BIND, VALUES: the cool operators carry
        # per-row checkpoints of their own.
        f"SELECT ?s ?v WHERE {{ ?s <{EX}p0> ?v OPTIONAL {{ ?s <{EX}p1> ?w }} }}",
        f"SELECT ?s WHERE {{ {{ ?s <{EX}p0> ?v }} UNION {{ ?s <{EX}p1> ?v }} }}",
        f"SELECT ?s WHERE {{ ?s ?p ?v FILTER(?p = <{EX}p0>) }}",
        f"SELECT ?s ?n WHERE {{ ?s <{EX}p0> ?v BIND(1 AS ?n) }}",
        "SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o }",
        "SELECT ?p (COUNT(?s) AS ?n) WHERE { ?s ?p ?o } GROUP BY ?p",
        "SELECT ?s WHERE { ?s ?p ?o } ORDER BY ?s LIMIT 5",
    ])
    def test_operators_respect_tiny_budget(self, query):
        with pytest.raises(QueryPreempted):
            QueryEvaluator(small_graph(), execution=ExecutionContext(
                max_work=3)).evaluate_select(parse(query))

    def test_results_identical_with_and_without_context(self):
        graph = small_graph()
        query = ("SELECT ?p (COUNT(?s) AS ?n) WHERE { ?s ?p ?o } "
                 "GROUP BY ?p ORDER BY ?p")
        plain = QueryEvaluator(graph).evaluate_select(parse(query))
        guarded = QueryEvaluator(graph, execution=ExecutionContext(
            timeout=30.0)).evaluate_select(parse(query))
        assert plain.to_python() == guarded.to_python()

    def test_update_interruption_cannot_tear_the_graph(self):
        """A cancelled update aborts BEFORE mutation, never mid-mutation."""
        endpoint = SPARQLEndpoint()
        endpoint.graph.add(IRI(f"{EX}a"), IRI(f"{EX}p"), Literal("x"))
        before = len(endpoint.graph)
        cancel = threading.Event()
        cancel.set()
        with pytest.raises(QueryCancelled):
            endpoint.execute(
                f"INSERT {{ ?s <{EX}copied> ?o }} WHERE {{ ?s ?p ?o }}",
                context=ExecutionContext(cancel=cancel))
        assert len(endpoint.graph) == before

    def test_streaming_result_counts_rows_on_finish(self):
        endpoint = SPARQLEndpoint()
        for i in range(25):
            endpoint.graph.add(IRI(f"{EX}s{i}"), IRI(f"{EX}p"), Literal(str(i)))
        stream = endpoint.start("SELECT ?s WHERE { ?s ?p ?o }", require="query")
        assert isinstance(stream, StreamingResult)
        result = stream.materialize()
        assert len(result) == 25
        stats = endpoint.thread_statistics()
        assert stats is not None and stats.num_results == 25


# ---------------------------------------------------------------------------
# Scheduler: suspension, fairness, typed interruption
# ---------------------------------------------------------------------------
class TestQueryScheduler:
    def run_query(self, scheduler: QueryScheduler, endpoint: SPARQLEndpoint,
                  query: str, timeout=None, cancel=None):
        context = scheduler.context(timeout=timeout, cancel=cancel)
        return scheduler.run(
            lambda: endpoint.start(query, require="query", context=context), context)

    def endpoint(self, n: int = 120) -> SPARQLEndpoint:
        endpoint = SPARQLEndpoint()
        for i in range(n):
            endpoint.graph.add(IRI(f"{EX}s{i}"), IRI(f"{EX}p{i % 3}"),
                               Literal(f"v{i}"))
        return endpoint

    def test_sliced_query_completes_correctly(self):
        endpoint = self.endpoint(100)
        with QueryScheduler(max_workers=2, quantum_rows=64) as scheduler:
            result = self.run_query(scheduler, endpoint, CROSS_PRODUCT)
            assert len(result) == 100 * 100
            stats = scheduler.stats()
            # 10_000 rows through 64-row quanta: many suspensions, and the
            # result is still exact — resumption never recomputes rows.
            assert stats["queries_preempted"] > 10
            assert stats["queries_completed"] == 1

    def test_deadline_returns_typed_timeout(self):
        endpoint = self.endpoint(300)
        with QueryScheduler(max_workers=2) as scheduler:
            with pytest.raises(QueryTimeout) as info:
                self.run_query(
                    scheduler, endpoint,
                    "SELECT ?a ?d WHERE { ?a ?b ?c . ?d ?e ?f . ?g ?h ?i }",
                    timeout=0.05)
            assert info.value.rows_emitted > 0
            assert scheduler.stats()["queries_timed_out"] == 1

    def test_cancel_releases_the_lane(self):
        endpoint = self.endpoint(300)
        cancel = threading.Event()
        with QueryScheduler(max_workers=1) as scheduler:
            hog_error: List[BaseException] = []

            def hog():
                try:
                    self.run_query(
                        scheduler, endpoint,
                        "SELECT ?a ?d WHERE { ?a ?b ?c . ?d ?e ?f . "
                        "?g ?h ?i }", cancel=cancel)
                except BaseException as exc:  # noqa: BLE001
                    hog_error.append(exc)

            thread = threading.Thread(target=hog)
            thread.start()
            time.sleep(0.1)
            cancel.set()
            thread.join(timeout=10)
            assert not thread.is_alive()
            assert isinstance(hog_error[0], QueryCancelled)
            # The single lane is free again: a query runs to completion.
            result = self.run_query(scheduler, endpoint,
                                    f"SELECT ?s WHERE {{ ?s <{EX}p0> ?o }}")
            assert len(result) == 100

    @pytest.mark.concurrency
    def test_cheap_queries_overtake_a_cross_product(self):
        """FIFO re-enqueue = fairness: cheap latency stays bounded while an
        adversary churns on the same lanes."""
        endpoint = self.endpoint(200 * STRESS)
        cheap = f"SELECT ?s WHERE {{ ?s <{EX}p0> ?o }} LIMIT 10"
        with QueryScheduler(max_workers=2, quantum_rows=256,
                            quantum_seconds=0.01) as scheduler:
            stop = threading.Event()
            adversary_done = threading.Event()

            def adversary():
                try:
                    self.run_query(scheduler, endpoint, CROSS_PRODUCT,
                                   timeout=15.0)
                except QueryInterrupted:
                    pass
                finally:
                    adversary_done.set()

            threading.Thread(target=adversary, daemon=True).start()
            time.sleep(0.05)  # let it claim a lane
            latencies: List[float] = []
            for _ in range(20 * STRESS):
                t0 = time.perf_counter()
                result = self.run_query(scheduler, endpoint, cheap)
                latencies.append(time.perf_counter() - t0)
                assert len(result) == 10
            stop.set()
            latencies.sort()
            # Without preemption the first cheap query waits for the whole
            # cross product (seconds); with slicing it waits at most a few
            # quanta.  A generous bound keeps CI noise out.
            assert latencies[-1] < 2.0, (
                f"cheap query waited {latencies[-1]:.3f}s behind adversary")
            assert scheduler.stats()["queries_preempted"] > 0

    def test_close_fails_queued_queries_with_typed_error(self):
        endpoint = self.endpoint(50)
        scheduler = QueryScheduler(max_workers=1)
        scheduler.close()
        with pytest.raises(QueryCancelled):
            self.run_query(scheduler, endpoint, CROSS_PRODUCT)

    def test_full_queue_sheds_instead_of_deadlocking(self):
        """A scheduler run without admission control must never block an
        enqueue on a full pending queue (lanes re-enqueue into the same
        queue: blocking there is a permanent deadlock)."""
        endpoint = self.endpoint(10)
        with QueryScheduler(max_workers=1, max_pending=1) as scheduler:
            release = threading.Event()
            scheduler._pool.submit(release.wait)  # occupies the only lane
            scheduler._pool.submit(release.wait)  # fills the 1-slot queue
            t0 = time.perf_counter()
            with pytest.raises(ServerOverloaded):
                self.run_query(scheduler, endpoint,
                               f"SELECT ?s WHERE {{ ?s <{EX}p0> ?o }}")
            # Shed after the short bounded wait, not wedged forever.
            assert time.perf_counter() - t0 < 5.0
            release.set()


class TestSwitchInterval:
    """The GIL switch-interval knob is process-global: schedulers must
    share it by refcount, not clobber each other's save/restore."""

    def test_refcounted_across_overlapping_schedulers(self):
        prior = sys.getswitchinterval()
        a = QueryScheduler(max_workers=1, gil_switch_interval=0.002)
        b = QueryScheduler(max_workers=1, gil_switch_interval=0.003)
        try:
            assert sys.getswitchinterval() == pytest.approx(0.003)
            # Non-LIFO close: A going first must NOT restore its saved
            # value under the still-running B...
            a.close()
            assert sys.getswitchinterval() == pytest.approx(0.003)
        finally:
            b.close()
        # ...and the last owner restores the pre-scheduler value, not
        # some intermediate one.
        assert sys.getswitchinterval() == pytest.approx(prior)

    def test_none_leaves_the_knob_alone(self):
        prior = sys.getswitchinterval()
        with QueryScheduler(max_workers=1, gil_switch_interval=None):
            assert sys.getswitchinterval() == pytest.approx(prior)
        assert sys.getswitchinterval() == pytest.approx(prior)


# ---------------------------------------------------------------------------
# Admission control
# ---------------------------------------------------------------------------
class TestAdmissionController:
    def test_sheds_above_capacity_with_retry_hint(self):
        admission = AdmissionController(max_inflight=2, retry_after=3.5)
        t1 = admission.admit()
        admission.admit()
        with pytest.raises(ServerOverloaded) as info:
            admission.admit()
        assert info.value.retry_after == 3.5
        admission.release(t1)
        t3 = admission.admit()  # capacity restored
        assert admission.stats()["requests_shed"] == 1
        assert admission.stats()["admitted"] == 3
        admission.release(t3)

    def test_release_is_idempotent(self):
        admission = AdmissionController(max_inflight=1)
        ticket = admission.admit()
        admission.release(ticket)
        admission.release(ticket)
        assert admission.inflight == 0

    def test_stall_rule_sheds_when_oldest_request_wedges(self):
        admission = AdmissionController(max_inflight=4, stall_seconds=0.05)
        admission.admit()  # the "wedged" request
        admission.admit()  # half capacity reached
        time.sleep(0.1)
        with pytest.raises(ServerOverloaded):
            admission.admit()

    def test_stall_rule_needs_real_load(self):
        # One old request alone (below half capacity) must not shed.
        admission = AdmissionController(max_inflight=4, stall_seconds=0.05)
        admission.admit()
        time.sleep(0.1)
        admission.admit()  # fine: n was 1 < max(1, 4 // 2)

    @pytest.mark.concurrency
    def test_concurrent_admission_never_exceeds_capacity(self):
        admission = AdmissionController(max_inflight=8)
        peak = []
        lock = threading.Lock()
        errors: List[BaseException] = []

        def worker():
            for _ in range(50 * STRESS):
                try:
                    ticket = admission.admit()
                except ServerOverloaded:
                    continue
                try:
                    with lock:
                        peak.append(admission.inflight)
                    time.sleep(0.001)
                finally:
                    admission.release(ticket)

        threads = [threading.Thread(target=worker) for _ in range(16)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        if errors:
            raise errors[0]
        assert max(peak) <= 8
        stats = admission.stats()
        assert stats["inflight"] == 0
        assert stats["inflight_high_water"] <= 8


class TestRouterScheduling:
    """The router must time-slice queries whether or not the client pinned
    the request kind — the envelope dialect usually doesn't."""

    def make_platform(self):
        from repro.kgnet import KGNet
        from repro.rdf import Triple
        platform = KGNet(scheduler=QueryScheduler(max_workers=1,
                                                  quantum_rows=8))
        platform.load_graph([Triple(IRI(f"{EX}s{i}"), IRI(f"{EX}p"),
                                    Literal(f"v{i}")) for i in range(30)])
        return platform

    def dispatch(self, platform, params):
        return platform.api.dispatch({"api_version": "kgnet/v1",
                                      "op": "sparql",
                                      "params": params}).to_dict()

    def test_unpinned_envelope_query_is_scheduled(self):
        platform = self.make_platform()
        try:
            resp = self.dispatch(platform, {"query": CROSS_PRODUCT})
            assert resp["ok"]
            stats = platform.api.scheduler.stats()
            assert stats["queries_started"] == 1
            assert stats["queries_preempted"] > 0  # 900 rows / 8-row quanta
        finally:
            platform.api.scheduler.close()

    def test_unpinned_envelope_update_runs_inline(self):
        platform = self.make_platform()
        try:
            resp = self.dispatch(
                platform,
                {"query": f"INSERT DATA {{ <{EX}a> <{EX}p> <{EX}b> }}"})
            assert resp["ok"]
            assert platform.api.scheduler.stats()["queries_started"] == 0
        finally:
            platform.api.scheduler.close()

    def test_unpinned_envelope_timeout_counts_on_scheduler(self):
        platform = self.make_platform()
        try:
            # 900 id rows take well under a millisecond now: the deadline
            # has to be one no evaluation can meet.
            resp = self.dispatch(platform, {"query": CROSS_PRODUCT,
                                            "timeout": 0.00001})
            assert not resp["ok"]
            assert resp["error"]["code"] == "QUERY_TIMEOUT"
            assert platform.api.scheduler.stats()["queries_timed_out"] == 1
        finally:
            platform.api.scheduler.close()
