"""One way to run a query (ISSUE-20).

A SPARQL text is parsed once, started once and reported once, whichever op
or transport carries it and whether or not a scheduler is configured.  Every
test runs over {scheduler, no scheduler} x the five carriers a text can
arrive by, and counts what the request left behind: one history record, one
plan-cache lookup, one hit-or-miss on the route that served it.
"""

from __future__ import annotations

import json
from collections import Counter
from urllib.parse import quote

import pytest

from repro.concurrency import QueryScheduler
from repro.exceptions import KGNetError
from repro.kgnet import KGNet
from repro.kgnet.api.errors import error_payload
from repro.rdf import Triple
from repro.rdf.terms import IRI, Literal
from repro.server.service import ServiceHandler, ServiceRequest
from repro.sparql import ReferenceQueryEvaluator

EX = "http://example.org/"
ROWS = 40
SELECT = f"SELECT ?s ?o WHERE {{ ?s <{EX}p> ?o }}"
#: 40^3 rows: no evaluation finishes it inside TINY_TIMEOUT.  The first
#: streams its rows; `SELECT *` materialises them before the first one.
CROSS_PRODUCTS = {
    "streamed": "SELECT ?a ?d ?g WHERE { ?a ?b ?c . ?d ?e ?f . ?g ?h ?i }",
    "materialised": "SELECT * WHERE { ?a ?b ?c . ?d ?e ?f . ?g ?h ?i }",
}
TINY_TIMEOUT = 0.005
INSERT = f"INSERT DATA {{ <{EX}new> <{EX}p> \"new\" }}"


def envelope(platform: KGNet, op: str, **params):
    response = platform.api.dispatch(
        {"api_version": "kgnet/v1", "op": op, "params": params}).to_dict()
    if not response["ok"]:
        return "error", response["error"]["code"]
    return "ok", response["result"].get("rows")


def served(response):
    """Outcome of a protocol response, body read to its end: a deadline that
    fires after the 200 went out shows as the cut stream's typed error."""
    body = response.read_body()
    if response.stream_error is not None:
        return "error", error_payload(response.stream_error)["code"]
    document = json.loads(body)
    if response.status != 200:
        return "error", document["error"]["code"]
    return "ok", document


def protocol_get(platform: KGNet, text: str):
    # no-store: a result-cache hit answers without an evaluation at all.
    status, document = served(ServiceHandler(platform.api).handle(ServiceRequest(
        "GET", "/sparql?query=" + quote(text),
        {"Accept": "application/sparql-results+json",
         "Cache-Control": "no-store"})))
    if status == "ok":
        document = [{name: cell["value"] for name, cell in binding.items()}
                    for binding in document["results"]["bindings"]]
    return status, document


def protocol_post_update(platform: KGNet, text: str):
    return served(ServiceHandler(platform.api).handle(ServiceRequest(
        "POST", "/sparql", {"Content-Type": "application/sparql-update"},
        text.encode("utf-8"))))


def facade(platform: KGNet, text: str):
    try:
        result = platform.sparql(text)
    except KGNetError as exc:
        return "error", error_payload(exc)["code"]
    return "ok", result.to_python() if hasattr(result, "to_python") else result


#: carrier name -> (send(platform, text), the route whose metrics it bumps)
QUERY_CARRIERS = {
    "protocol-get": (protocol_get, "sparql"),
    "sparql-pinned": (lambda p, text: envelope(p, "sparql", query=text,
                                               require="query"), "sparql"),
    "sparql-unpinned": (lambda p, text: envelope(p, "sparql", query=text),
                        "sparql"),
    "sparqlml-plain-text": (lambda p, text: envelope(p, "sparqlml", query=text),
                            "sparqlml"),
    "facade": (facade, "sparql"),
}

UPDATE_CARRIERS = {
    "protocol-post": protocol_post_update,
    "sparql-pinned": lambda p, text: envelope(p, "sparql", query=text,
                                              require="update"),
    "sparql-unpinned": lambda p, text: envelope(p, "sparql", query=text),
    "facade": facade,
}


@pytest.fixture(params=[False, True], ids=["inline", "scheduler"])
def make_platform(request):
    """Builds platforms over the same 40 triples, with or without a
    scheduler; closes the schedulers it made."""
    schedulers = []

    def make(**kwargs) -> KGNet:
        if request.param:
            kwargs["scheduler"] = QueryScheduler(max_workers=1, quantum_rows=8)
            schedulers.append(kwargs["scheduler"])
        platform = KGNet(**kwargs)
        platform.load_graph([Triple(IRI(f"{EX}s{i}"), IRI(f"{EX}p"),
                                    Literal(f"v{i}")) for i in range(ROWS)])
        return platform

    yield make
    for scheduler in schedulers:
        scheduler.close()


def footprint(platform: KGNet, route: str):
    """(history records, plan-cache lookups, the route's hits, its misses)."""
    cache = platform.endpoint.plan_cache.stats()
    metrics = platform.api_metrics().get(route, {})
    return (len(platform.endpoint.history),
            cache["hits"] + cache["misses"] + cache["invalidations"],
            metrics.get("cache_hits", 0), metrics.get("cache_misses", 0))


def multiset(rows):
    return Counter(tuple(sorted((name, str(value)) for name, value in row.items()))
                   for row in rows)


@pytest.mark.parametrize("carrier", sorted(QUERY_CARRIERS))
class TestEveryCarrierTakesTheOnePath:
    def test_one_record_one_lookup_one_outcome(self, make_platform, carrier):
        platform = make_platform()
        send, route = QUERY_CARRIERS[carrier]
        endpoint = platform.endpoint
        expected = ReferenceQueryEvaluator(endpoint.graph).evaluate(
            endpoint.parse(SELECT))
        records, lookups, hits, misses = footprint(platform, route)

        status, rows = send(platform, SELECT)
        assert status == "ok", rows
        assert multiset(rows) == multiset(expected.to_python())
        assert len(rows) == ROWS
        # A text never seen before: one record, one lookup, and it missed.
        assert footprint(platform, route) == (records + 1, lookups + 1,
                                              hits, misses + 1)
        assert endpoint.history[-1].plan_cache_hit is False

        assert send(platform, SELECT)[0] == "ok"
        assert footprint(platform, route) == (records + 2, lookups + 2,
                                              hits + 1, misses + 1)
        assert endpoint.history[-1].plan_cache_hit is True

        if platform.api.scheduler is not None:
            # Both runs were drained in slices: 40 rows, 8-row quanta.
            stats = platform.api.scheduler.stats()
            assert stats["queries_started"] == stats["queries_completed"] == 2
            assert stats["queries_preempted"] > 0

    @pytest.mark.parametrize("shape", sorted(CROSS_PRODUCTS))
    def test_default_deadline_cuts_it_with_a_typed_timeout(self, make_platform,
                                                           carrier, shape):
        platform = make_platform(default_query_timeout=TINY_TIMEOUT)
        send, route = QUERY_CARRIERS[carrier]
        text = CROSS_PRODUCTS[shape]
        assert send(platform, text) == ("error", "QUERY_TIMEOUT")
        assert platform.api_metrics()[route]["queries_timed_out"] == 1
        # Nothing completed, so nothing was filed or attributed.
        assert not [record for record in platform.endpoint.history
                    if record.query == text]
        if platform.api.scheduler is not None:
            # It ran on a lane, materialising part included, and the
            # scheduler's own counters saw it end there.
            stats = platform.api.scheduler.stats()
            assert stats["queries_started"] == stats["queries_timed_out"] == 1


@pytest.mark.parametrize("carrier", sorted(UPDATE_CARRIERS))
def test_an_update_is_applied_once_on_the_calling_thread(make_platform, carrier):
    platform = make_platform()
    records, lookups, hits, misses = footprint(platform, "sparql")
    status, _ = UPDATE_CARRIERS[carrier](platform, INSERT)
    assert status == "ok"
    assert len(platform.graph) == ROWS + 1
    assert footprint(platform, "sparql") == (records + 1, lookups + 1,
                                             hits, misses + 1)
    assert platform.endpoint.history[-1].kind == "UPDATE"
    if platform.api.scheduler is not None:
        assert platform.api.scheduler.stats()["queries_started"] == 0


def test_sparqlml_refuses_a_plain_update(make_platform):
    platform = make_platform()
    assert envelope(platform, "sparqlml", query=INSERT) == ("error",
                                                            "QUERY_ERROR")
    assert len(platform.graph) == ROWS
    assert not [record for record in platform.endpoint.history
                if record.kind == "UPDATE"]
