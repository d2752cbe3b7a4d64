"""Tests for the streaming pipeline's caching layer and its observability.

Covers the endpoint's LRU parse+plan cache (hits, misses, epoch
invalidation, eviction), short-circuiting behaviour, and the counters the
API stats route exposes.
"""

import pytest

from repro.kgnet import KGNet
from repro.rdf import Graph, IRI, Literal
from repro.sparql import PlanCache, SPARQLEndpoint
from repro.sparql.reference import ReferenceQueryEvaluator

EX = "https://example.org/"
PRED = f"<{EX}p>"


def build_endpoint(rows=5):
    endpoint = SPARQLEndpoint()
    for i in range(rows):
        endpoint.graph.add(IRI(f"{EX}s{i}"), IRI(EX + "p"), Literal(i))
    return endpoint


QUERY = f"SELECT ?s ?o WHERE {{ ?s {PRED} ?o . }}"


class TestPlanCache:
    def test_repeat_query_hits_cache(self):
        endpoint = build_endpoint()
        endpoint.select(QUERY)
        assert endpoint.history[-1].plan_cache_hit is False
        endpoint.select(QUERY)
        endpoint.select(QUERY)
        assert endpoint.history[-1].plan_cache_hit is True
        stats = endpoint.plan_cache.stats()
        assert stats["hits"] == 2
        assert stats["misses"] == 1
        assert stats["hit_rate"] > 0

    def test_mutation_invalidates_but_stays_correct(self):
        endpoint = build_endpoint()
        endpoint.select(QUERY)
        endpoint.select(QUERY)
        endpoint.graph.add(IRI(EX + "new"), IRI(EX + "p"), Literal("fresh"))
        result = endpoint.select(QUERY)
        assert endpoint.plan_cache.stats()["invalidations"] >= 1
        assert len(result) == 6
        fresh = ReferenceQueryEvaluator(endpoint.graph).evaluate(endpoint.parse(QUERY))
        assert {frozenset(s.items()) for s in result} == \
            {frozenset(s.items()) for s in fresh}

    def test_update_requests_are_cached_too(self):
        endpoint = build_endpoint()
        text = f"INSERT DATA {{ <{EX}x> {PRED} <{EX}y> . }}"
        endpoint.update(text)
        endpoint.update(text)
        # Second parse was served from the cache (epoch changed, so it
        # counts as an invalidation rather than a fresh miss).
        stats = endpoint.plan_cache.stats()
        assert stats["misses"] == 1
        assert stats["invalidations"] == 1

    def test_execute_routes_queries_and_updates_through_cache(self):
        endpoint = build_endpoint()
        assert endpoint.execute(QUERY) is not None
        affected = endpoint.execute(f"INSERT DATA {{ <{EX}a> {PRED} <{EX}b> . }}")
        assert affected == 1
        assert endpoint.plan_cache.stats()["misses"] == 2

    def test_lru_eviction(self):
        cache = PlanCache(maxsize=2)
        cache.store(("q1", 0), object(), None, (0, 0))
        cache.store(("q2", 0), object(), None, (0, 0))
        cache.store(("q3", 0), object(), None, (0, 0))
        assert len(cache) == 2
        assert cache.stats()["evictions"] == 1
        entry, fresh = cache.lookup(("q1", 0), (0, 0))
        assert entry is None and not fresh

    def test_reset_counters_keeps_entries(self):
        endpoint = build_endpoint()
        endpoint.select(QUERY)
        endpoint.select(QUERY)
        endpoint.plan_cache.reset_counters()
        stats = endpoint.plan_cache.stats()
        assert stats["hits"] == 0 and stats["misses"] == 0
        assert stats["size"] == 1
        endpoint.select(QUERY)
        assert endpoint.plan_cache.stats()["hits"] == 1

    def test_pattern_lookups_accumulate(self):
        endpoint = build_endpoint()
        endpoint.select(QUERY)
        first = endpoint.total_pattern_lookups
        assert first > 0
        endpoint.select(QUERY)
        assert endpoint.total_pattern_lookups > first
        info = endpoint.cache_info()
        assert info["pattern_lookups"] == endpoint.total_pattern_lookups


class TestBoundedHistory:
    def test_history_keeps_the_last_records_while_totals_keep_counting(self):
        endpoint = build_endpoint()
        bound = SPARQLEndpoint.HISTORY_LIMIT
        for i in range(10 * bound):
            # Alternate the three recording paths: query, stream, update.
            if i % 3 == 0:
                endpoint.select(QUERY)
            elif i % 3 == 1:
                endpoint.start(QUERY, require="query").materialize()
            else:
                endpoint.update(f"INSERT DATA {{ <{EX}h{i}> <{EX}q> {i} . }}")
        assert len(endpoint.history) == bound
        queries = 10 * bound - 10 * bound // 3
        assert endpoint.total_pattern_lookups == queries  # one scan each
        # The newest record is the last request's, per thread and globally.
        assert endpoint.last_statistics() is endpoint.history[-1]
        assert endpoint.thread_statistics() is endpoint.history[-1]
        assert endpoint.last_statistics().kind == "SELECT"


class TestShortCircuit:
    def test_limit_stops_consuming_the_pipeline(self):
        endpoint = build_endpoint(rows=200)
        join = f"SELECT ?s ?o WHERE {{ ?s {PRED} ?o . ?s {PRED} ?o2 . }}"
        endpoint.select(join)
        full_lookups = endpoint.history[-1].pattern_lookups
        endpoint.select(join + " LIMIT 1")
        limited_lookups = endpoint.history[-1].pattern_lookups
        assert limited_lookups < full_lookups

    def test_ask_stops_at_first_witness(self):
        endpoint = build_endpoint(rows=200)
        assert endpoint.query(f"ASK {{ ?s {PRED} ?o . }}") is True
        # One scan start, not one per row.
        assert endpoint.history[-1].pattern_lookups <= 2


class TestUnionGraphCache:
    def test_union_graph_is_reused_between_mutations(self):
        endpoint = build_endpoint()
        endpoint.named_graph(EX + "kgmeta").add(
            IRI(EX + "m"), IRI(EX + "p"), Literal("meta"))
        endpoint.select(QUERY)
        first = endpoint.dataset.snapshot().union()
        assert first is not None
        endpoint.select(QUERY)
        assert endpoint.dataset.snapshot().union() is first
        endpoint.graph.add(IRI(EX + "s9"), IRI(EX + "p"), Literal(9))
        result = endpoint.select(QUERY)
        assert endpoint.dataset.snapshot().union() is not first
        assert len(result) == 7  # 5 + meta row + new row


class TestStatsRoute:
    def test_stats_route_exposes_cache_and_lookup_counters(self):
        platform = KGNet()
        platform.load_graph(self._tiny_graph())
        platform.sparql(QUERY)
        platform.sparql(QUERY)
        stats = platform.client.call("stats")
        cache = stats["query_cache"]
        assert cache["hits"] >= 1
        assert cache["misses"] >= 1
        assert cache["hit_rate"] > 0
        assert cache["pattern_lookups"] > 0

    def test_sparql_route_metrics_count_cache_outcomes(self):
        platform = KGNet()
        platform.load_graph(self._tiny_graph())
        platform.client.call("sparql", query=QUERY)
        platform.client.call("sparql", query=QUERY)
        metrics = platform.client.call("metrics")["routes"]["sparql"]
        assert metrics["cache_hits"] >= 1
        assert metrics["cache_misses"] >= 1

    @staticmethod
    def _tiny_graph():
        graph = Graph()
        for i in range(3):
            graph.add(IRI(f"{EX}s{i}"), IRI(EX + "p"), Literal(i))
        return graph
