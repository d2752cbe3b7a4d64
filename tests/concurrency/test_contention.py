"""Contention tests: counters must not lose updates, pools must not lose work.

Every counter here used to be a bare ``+= 1`` — a read-modify-write that
drops increments when serving threads interleave.  These tests hammer each
counter from many threads and assert the totals are *exact*; before the
counters took locks they failed with drift on most runs.
"""

from __future__ import annotations

import threading
from typing import List

import pytest

from repro.concurrency import WorkerPool
from repro.kgnet import KGNet
from repro.kgnet.api.envelopes import APIRequest
from repro.kgnet.gmlaas.model_store import NodeClassArtefact, SimilarityArtefact
from repro.rdf import Graph, IRI, Literal, TermDictionary
from repro.sparql import SPARQLEndpoint
from repro.sparql.endpoint import PlanCache
from repro.kgnet.api.router import RouteMetrics

EX = "http://example.org/"

THREADS = 8
PER_THREAD = 400


def _hammer(target, threads: int = THREADS) -> None:
    """Run ``target`` concurrently and re-raise the first failure."""
    errors: List[BaseException] = []

    def wrapped() -> None:
        try:
            target()
        except BaseException as exc:  # noqa: BLE001
            errors.append(exc)

    workers = [threading.Thread(target=wrapped) for _ in range(threads)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=60)
    if errors:
        raise errors[0]


@pytest.mark.concurrency
class TestCounterContention:
    def test_route_metrics_do_not_lose_calls(self):
        metrics = RouteMetrics()

        def worker():
            for index in range(PER_THREAD):
                metrics.record(0.001, ok=index % 4 != 0)
                metrics.record_cache(hit=index % 2 == 0)

        _hammer(worker)
        snapshot = metrics.as_dict()
        assert snapshot["calls"] == THREADS * PER_THREAD
        assert snapshot["errors"] == THREADS * (PER_THREAD // 4)
        assert snapshot["cache_hits"] + snapshot["cache_misses"] == THREADS * PER_THREAD

    def test_plan_cache_counters_do_not_lose_updates(self):
        cache = PlanCache(maxsize=8)
        cache.store(("q", 0), parsed="ast", plan=None, epoch=0)

        def worker():
            for index in range(PER_THREAD):
                # Mix hits, misses and (every 50th) an epoch invalidation.
                cache.lookup(("q", 0), epoch=0 if index % 50 else 1)
                cache.lookup(("absent", index % 3), epoch=0)

        _hammer(worker)
        stats = cache.stats()
        recorded = stats["hits"] + stats["misses"] + stats["invalidations"]
        assert recorded == 2 * THREADS * PER_THREAD

    def test_endpoint_pattern_lookups_are_exact(self):
        endpoint = SPARQLEndpoint()
        for index in range(20):
            endpoint.graph.add(IRI(EX + f"s{index}"), IRI(EX + "p"),
                               Literal(index))
        text = f"SELECT ?s WHERE {{ ?s <{EX}p> ?o . }}"

        def worker():
            for _ in range(60):
                endpoint.select(text)

        _hammer(worker)
        assert len(endpoint.history) == THREADS * 60
        assert endpoint.total_pattern_lookups == sum(
            record.pattern_lookups for record in endpoint.history)

    def test_inference_http_call_counter_is_exact(self):
        platform = KGNet()
        model_uri = IRI(EX + "model/clf")
        platform.gmlaas.model_store.add(model_uri, NodeClassArtefact(
            prediction_map={EX + "n1": "A", EX + "n2": "B"}))
        manager = platform.gmlaas

        def worker():
            for _ in range(PER_THREAD // 4):
                manager.infer(model_uri, [EX + "n1"])

        _hammer(worker)
        assert manager.http_calls == THREADS * (PER_THREAD // 4)

    def test_term_dictionary_interns_each_term_exactly_once(self):
        dictionary = TermDictionary()
        universe = [IRI(EX + f"t{i}") for i in range(64)]

        def worker():
            for index in range(PER_THREAD):
                term = universe[index % len(universe)]
                term_id = dictionary.encode(term)
                assert dictionary.decode(term_id) == term

        _hammer(worker)
        assert len(dictionary) == len(universe)
        # Dense, collision-free id space.
        assert sorted(dictionary.lookup(t) for t in universe) == list(range(64))


class TestWorkerPool:
    def test_exceptions_propagate(self):
        def explode(value):
            if value == 3:
                raise ValueError("boom")
            return value

        with WorkerPool(max_workers=2) as pool:
            futures = [pool.submit(explode, value) for value in range(6)]
            with pytest.raises(ValueError, match="boom"):
                [future.result(timeout=30) for future in futures]
            assert futures[5].result(timeout=30) == 5

    def test_submit_after_shutdown_rejected(self):
        pool = WorkerPool(max_workers=1)
        pool.shutdown()
        with pytest.raises(RuntimeError):
            pool.submit(lambda: None)

    def test_back_pressure_queue_is_bounded(self):
        gate = threading.Event()
        overflow_submitted = threading.Event()
        pool = WorkerPool(max_workers=1, max_pending=2)
        try:
            pool.submit(gate.wait)   # occupies the only worker
            pool.submit(lambda: None)
            pool.submit(lambda: None)  # queue now full (max_pending=2)

            def feeder():
                pool.submit(lambda: None)
                overflow_submitted.set()

            thread = threading.Thread(target=feeder, daemon=True)
            thread.start()
            # The overflow submit must block while the queue is full ...
            assert not overflow_submitted.wait(timeout=0.2)
            # ... and complete once the worker drains it.
            gate.set()
            assert overflow_submitted.wait(timeout=10)
            thread.join(timeout=10)
        finally:
            gate.set()
            pool.shutdown()


@pytest.mark.concurrency
class TestConcurrentDispatch:
    def _platform_with_classifier(self):
        platform = KGNet()
        platform.load_graph(self._tiny_graph())
        model_uri = IRI(EX + "model/clf")
        platform.gmlaas.model_store.add(model_uri, NodeClassArtefact(
            prediction_map={
                EX + f"n{i}": ("A" if i % 2 else "B") for i in range(32)}))
        return platform, model_uri

    @staticmethod
    def _tiny_graph() -> Graph:
        graph = Graph()
        for index in range(8):
            graph.add(IRI(EX + f"n{index}"), IRI(EX + "p"), Literal(index))
        return graph

    def test_mixed_envelopes_return_in_order(self):
        platform, model_uri = self._platform_with_classifier()
        requests = []
        for index in range(24):
            if index % 3 == 0:
                requests.append(APIRequest(op="ping"))
            elif index % 3 == 1:
                requests.append(APIRequest(op="sparql", params={
                    "query": f"SELECT ?s WHERE {{ ?s <{EX}p> ?o . }}"}))
            else:
                requests.append(APIRequest(op="infer_node_class", params={
                    "model_uri": model_uri.value,
                    "node": EX + f"n{index % 32}"}))
        responses = {}
        indices = iter(range(len(requests)))

        def worker() -> None:
            # next() on a shared range iterator is atomic under the GIL.
            for index in indices:
                response = platform.api.dispatch(requests[index])
                responses[response.request_id] = response

        _hammer(worker, threads=6)
        assert len(responses) == len(requests)
        assert all(response.ok for response in responses.values()), [
            r.error for r in responses.values() if not r.ok]
        for request in requests:
            assert responses[request.request_id].op == request.op

    def test_one_bad_similarity_input_does_not_poison_the_batch(self):
        """Regression: ``infer_batch`` must isolate per-entity failures.

        One unknown entity used to abort the whole batched similarity call,
        failing every batch neighbour that succeeds alone; every prediction
        now goes through ``GMLaaS.infer``, where an unknown
        input gets an empty ranking on every mode.
        """
        import numpy as np
        platform = KGNet()
        model_uri = IRI(EX + "model/sim")
        names = [EX + f"e{i}" for i in range(4)]
        platform.gmlaas.model_store.add(model_uri, SimilarityArtefact(
            entity_embeddings=np.eye(4, dtype=float), entity_names=names))
        entities = [names[0], EX + "unknown", names[1]]
        response = platform.api.dispatch(APIRequest(op="infer_batch", params={
            "model_uri": model_uri.value, "inputs": entities, "k": 2}))
        assert response.ok, response.error
        outputs = {record["input"]: record["output"]
                   for record in response.result["predictions"]}
        assert outputs[names[0]] and outputs[names[1]]
        # The unknown entity gets an empty result, not an error for everyone.
        assert outputs[EX + "unknown"] == []
        assert response.result["http_calls"] == 1

    def test_infer_batch_reports_its_own_http_calls(self):
        """Two ``infer_batch`` requests in flight at once each report the
        one GMLaaS call they made, not the growth of the service-wide
        counter while they ran."""
        platform, model_uri = self._platform_with_classifier()
        platform.gmlaas.call_latency_seconds = 0.2
        barrier = threading.Barrier(2)
        reported: List[int] = []

        def worker() -> None:
            barrier.wait()
            response = platform.api.dispatch(APIRequest(op="infer_batch", params={
                "model_uri": model_uri.value, "inputs": [EX + "n1", EX + "n2"]}))
            assert response.ok, response.error
            reported.append(response.result["http_calls"])

        _hammer(worker, threads=2)
        assert reported == [1, 1]
        assert platform.gmlaas.http_calls == 2
