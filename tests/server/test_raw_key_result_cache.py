"""A ``/sparql`` result-cache hit is one lookup on the request as it arrived.

The protocol route keys its result cache on the request's own bytes —
method, raw query string, ``Content-Type``, raw body and ``Accept`` — and
looks it up before decoding anything.  What must hold:

* **a hit decodes nothing** — it never parses the query string, so the
  request's ``query_params`` are never built;
* **a hit is what the full path answers** — for any text and any encoding
  of it, the hit's body equals a ``Cache-Control: no-store`` evaluation's;
  two encodings of one text are two entries with byte-identical bodies;
* **every carrier is cached** — GET, a form POST and an
  ``application/sparql-query`` POST each hit on their second request;
* **every parameter is in the key** — a changed ``timeout=`` or
  ``default-graph-uri=`` is its own entry;
* **updates take no lookup** — an ``application/sparql-update`` POST leaves
  the cache's hits and misses as they were, and a GET ``?update=`` is still
  a 400.
"""

from __future__ import annotations

from urllib.parse import quote, quote_plus

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.server.service as service
from repro.kgnet import KGNet
from repro.server.service import ServiceHandler, ServiceRequest

EX = "http://example.org/raw/"
JSON = "application/sparql-results+json"
HIT = "X-KGNet-Result-Cache"
TEXT = f"SELECT ?s ?o WHERE {{ ?s <{EX}p> ?o }} ORDER BY ?s ?o"


def make_handler() -> ServiceHandler:
    platform = KGNet()
    platform.endpoint.execute(
        f'INSERT DATA {{ <{EX}a> <{EX}p> <{EX}b> . <{EX}b> <{EX}p> "x y" . '
        f'<{EX}c> <{EX}q> "z" }}')
    platform.endpoint.execute(
        f"INSERT DATA {{ GRAPH <{EX}g> {{ <{EX}d> <{EX}p> <{EX}e> }} }}")
    return ServiceHandler(platform.api)


@pytest.fixture
def handler() -> ServiceHandler:
    return make_handler()


def get(target: str, **headers: str) -> ServiceRequest:
    return ServiceRequest("GET", target, dict({"Accept": JSON}, **headers))


def post(content_type: str, body: str, target: str = "/sparql",
         **headers: str) -> ServiceRequest:
    return ServiceRequest("POST", target, dict(
        {"Accept": JSON, "Content-Type": content_type}, **headers),
        body.encode("utf-8"))


def send(handler: ServiceHandler, request: ServiceRequest):
    response = handler.handle(request)
    return response.status, response.header(HIT), response.read_body()


def cache_counts(handler: ServiceHandler):
    stats = handler.router.endpoint.result_cache.stats()
    return stats["hits"], stats["misses"]


def test_a_hit_never_decodes_the_query_string(handler, monkeypatch):
    calls = []
    parse = service._parse_query_string
    monkeypatch.setattr(service, "_parse_query_string",
                        lambda qs: calls.append(qs) or parse(qs))
    target = "/sparql?query=" + quote(TEXT, safe="")
    assert send(handler, get(target))[:2] == (200, None)
    assert len(calls) == 1
    calls.clear()
    request = get(target)
    status, hit, _ = send(handler, request)
    assert (status, hit) == (200, "hit")
    assert calls == []
    assert "query_params" not in vars(request)


def test_two_encodings_are_two_entries_with_identical_bodies(handler):
    percent = "/sparql?query=" + quote(TEXT, safe="")
    plus = "/sparql?query=" + quote_plus(TEXT, safe="")
    assert "%20" in percent and "+" in plus and percent != plus
    answers = [send(handler, get(target))
               for target in (percent, percent, plus, plus)]
    assert [hit for _, hit, _ in answers] == [None, "hit", None, "hit"]
    assert {status for status, _, _ in answers} == {200}
    assert len({body for _, _, body in answers}) == 1
    assert b'"x y"' in answers[0][2]


@pytest.mark.parametrize("content_type, body", [
    ("application/sparql-query", TEXT),
    ("application/x-www-form-urlencoded", "query=" + quote_plus(TEXT)),
])
def test_repeated_query_posts_are_hits(handler, content_type, body):
    first = send(handler, post(content_type, body))
    second = send(handler, post(content_type, body))
    assert first[:2] == (200, None)
    assert second[:2] == (200, "hit")
    assert second[2] == first[2] == send(handler, get(
        "/sparql?query=" + quote(TEXT, safe=""), **{"Cache-Control": "no-store"}))[2]


def test_a_changed_parameter_is_its_own_entry(handler):
    base = "/sparql?query=" + quote(TEXT, safe="")
    assert send(handler, get(base))[1] is None
    assert send(handler, get(base))[1] == "hit"
    for extra in ("&timeout=5", "&timeout=6",
                  "&default-graph-uri=" + quote(EX + "g", safe="")):
        first = send(handler, get(base + extra))
        assert first[:2] == (200, None), extra
        assert send(handler, get(base + extra))[:2] == (200, "hit"), extra
    graph = send(handler, get(base + "&default-graph-uri=" + quote(EX + "g", safe="")))
    assert f"{EX}d".encode() in graph[2] and f"{EX}a".encode() not in graph[2]


def test_a_get_update_is_still_refused(handler):
    target = "/sparql?update=" + quote(f"INSERT DATA {{ <{EX}u> <{EX}p> 1 }}", safe="")
    for _ in range(2):
        status, hit, body = send(handler, get(target))
        assert (status, hit) == (400, None)
        assert b"BAD_REQUEST" in body
    assert handler.router.endpoint.query(f"ASK {{ <{EX}u> ?p ?o }}") is False


def test_an_update_post_takes_no_lookup(handler):
    target = "/sparql?query=" + quote(TEXT, safe="")
    send(handler, get(target))
    send(handler, get(target))
    before = cache_counts(handler)
    for index in range(3):
        status, hit, _ = send(handler, post(
            "application/sparql-update",
            f"INSERT DATA {{ <{EX}w{index}> <{EX}r> {index} }}"))
        assert (status, hit) == (200, None)
    assert cache_counts(handler) == before
    # The writes miss the query's footprint: its entry is still served.
    assert send(handler, get(target))[1] == "hit"


@pytest.fixture(scope="module")
def shared_handler() -> ServiceHandler:
    return make_handler()


_WORDS = st.text(alphabet=st.characters(
    blacklist_categories=("Cs", "Cc"), blacklist_characters='"\\'), max_size=8)


def _carriers(text: str):
    return {
        "percent": get("/sparql?query=" + quote(text, safe="")),
        "plus": get("/sparql?query=" + quote_plus(text, safe="")),
        "loose": get("/sparql?query=" + quote(text, safe="{}?<>:/")),
        "form": post("application/x-www-form-urlencoded",
                     "query=" + quote_plus(text, safe="")),
        "direct": post("application/sparql-query", text),
    }


@settings(max_examples=40, deadline=None)
@given(word=_WORDS, limit=st.integers(min_value=0, max_value=4),
       spaces=st.sampled_from([" ", "  ", "\n", "\t "]),
       carrier=st.sampled_from(["percent", "plus", "loose", "form", "direct"]))
def test_a_hit_is_what_a_no_store_evaluation_answers(shared_handler, word, limit,
                                                     spaces, carrier):
    text = (f'SELECT ?s ?o WHERE {{{spaces}?s ?p ?o FILTER(?o != "{word}") }}'
            f"{spaces}ORDER BY ?s ?o LIMIT {limit}")
    fresh = send(shared_handler, get("/sparql?query=" + quote(text, safe=""),
                                     **{"Cache-Control": "no-store"}))
    assert fresh[:2] == (200, None)
    send(shared_handler, _carriers(text)[carrier])
    status, hit, body = send(shared_handler, _carriers(text)[carrier])
    assert (status, hit) == (200, "hit")
    assert body == fresh[2]
