"""The result cache carries a body across every write that misses its footprint.

A cached protocol body is stored with the query's footprint — the id
patterns its answer can depend on (:mod:`repro.sparql.footprint`) — and a
lookup at a later dataset epoch serves it only when the dataset's change
log (:class:`~repro.rdf.graph.ChangeLog`) shows that no step since changed a
matching triple.  What must hold:

* **never stale** — a seeded differential interleaves every kind of write
  with cached reads of one text per footprint rule and requires each cached
  body to be byte-equal to a ``Cache-Control: no-store`` read at the same
  point; a writer-plus-readers thread test sandwiches every cached answer
  between the writer's commit counters;
* **fail closed** — whatever the log cannot vouch for drops the entry: a
  step the log does not hold, more steps than it holds, a constant stored
  only after the body was, a remove wider than a log record, a
  ``replace_dataset``, a prefix rebound in the endpoint's shared table
  (with or without a write: the table's version is part of the key);
* **worth it** — unrelated writes leave hot entries as hits, counted as
  ``revalidated`` in the cache's stats.
"""

from __future__ import annotations

import os
import random
import sys
import threading
import time
from urllib.parse import quote

import pytest

from repro.kgnet import KGNet
from repro.rdf import Dataset, IRI, Literal, Triple
from repro.rdf.graph import UNKNOWN, ChangeLog
from repro.server.service import ServiceHandler, ServiceRequest
from repro.sparql import SPARQLParser
from repro.sparql.footprint import footprint
from repro.storage.bulkload import stream_load_triples

EX = "http://example.org/rc/"
PREFIX = f"PREFIX ex: <{EX}> "
JSON = "application/sparql-results+json"
STRESS = 4 if os.environ.get("KGNET_STRESS") else 1

#: One text per footprint rule.  Every SELECT orders its rows fully, so a
#: re-evaluation under a different join order still gives the same bytes.
CORPUS = {
    "bgp": "SELECT ?s ?o WHERE { ?s ex:p0 ?o } ORDER BY ?s ?o",
    "bgp-constants": "SELECT ?p ?o WHERE { ex:s1 ?p ?o } ORDER BY ?p ?o",
    "bgp-literal": 'SELECT ?s WHERE { ?s ex:name "n1" } ORDER BY ?s',
    "unstored-constant": "SELECT ?s WHERE { ?s ex:p0 ex:late } ORDER BY ?s",
    "path-inverse": "SELECT ?s ?o WHERE { ?s ^ex:p1 ?o } ORDER BY ?s ?o",
    "path-sequence": "SELECT ?s ?o WHERE { ?s ex:p0/ex:p1 ?o } ORDER BY ?s ?o",
    "path-alternative": "SELECT ?s ?o WHERE { ?s ex:p2|ex:late ?o } ORDER BY ?s ?o",
    "path-plus": "SELECT ?o WHERE { ex:s0 ex:p0+ ?o } ORDER BY ?o",
    "path-star": "SELECT ?o WHERE { ex:s0 ex:p1* ?o } ORDER BY ?o",
    "path-optional": "SELECT ?s ?o WHERE { ?s ex:p2? ?o } ORDER BY ?s ?o",
    "path-negated": "SELECT ?s ?o WHERE { ?s !ex:p0 ?o } ORDER BY ?s ?o",
    "optional": ("SELECT ?s ?o ?n WHERE { ?s ex:p0 ?o OPTIONAL { ?o ex:name ?n } }"
                 " ORDER BY ?s ?o ?n"),
    "minus": "SELECT ?s WHERE { ?s ex:p1 ?o MINUS { ?s ex:p2 ?x } } ORDER BY ?s",
    "union": ("SELECT ?s WHERE { { ?s ex:p1 ex:s1 } UNION { ?s ex:p3 ?o } }"
              " ORDER BY ?s"),
    "sub-select": ("SELECT ?s ?n WHERE { ?s ex:p0 ?o { SELECT ?s (COUNT(?x) AS ?n)"
                   " WHERE { ?s ex:p1 ?x } GROUP BY ?s } } ORDER BY ?s ?n"),
    "not-exists": ("SELECT ?s ?o WHERE { ?s ex:p0 ?o FILTER NOT EXISTS"
                   " { ?o ex:p3 ?z } } ORDER BY ?s ?o"),
    "exists-projected": ("SELECT ?s (EXISTS { ?s ex:p2 ?x } AS ?e) WHERE"
                         " { ?s ex:p1 ?o } ORDER BY ?s ?e"),
    "count-all": "SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o }",
    "udf": "SELECT ?s ?v WHERE { ?s ex:p3 ?o BIND(ex:fn(?o) AS ?v) } ORDER BY ?s ?v",
    "from": "SELECT ?s ?o FROM ex:g1 WHERE { ?s ex:p1 ?o } ORDER BY ?s ?o",
    "ask": "ASK { ex:s2 ex:p3 ?o }",
}


def iri(name: str) -> IRI:
    return IRI(EX + name)


def random_triple(rng: random.Random) -> Triple:
    obj = rng.choice([iri(f"s{rng.randrange(6)}"), Literal(f"n{rng.randrange(3)}"),
                      iri("late")])
    return Triple(iri(f"s{rng.randrange(6)}"),
                  iri(rng.choice(["p0", "p1", "p2", "p3", "name", "late", "q"])),
                  obj)


def nt(triple: Triple) -> str:
    return " ".join(term.n3() for term in triple)


class Served:
    """A platform behind the protocol handler, read with and without cache."""

    def __init__(self) -> None:
        self.platform = KGNet()
        self.handler = ServiceHandler(self.platform.api)
        self.udf_state = [0]
        # A UDF whose answer moves with state outside the triples, as an
        # inference call's does when a model is retrained.
        self.platform.endpoint.register_udf(
            "ex:fn", lambda value: Literal(self.udf_state[0]))

    @property
    def endpoint(self):
        return self.platform.endpoint

    def get(self, text: str, no_store: bool = False, prologue: str = PREFIX):
        headers = {"accept": JSON}
        if no_store:
            headers["cache-control"] = "no-store"
        response = self.handler.handle(ServiceRequest(
            "GET", "/sparql?query=" + quote(prologue + text, safe=""), headers))
        body = response.read_body()
        assert response.status == 200, body
        return response.header("X-KGNet-Result-Cache") == "hit", body

    def update(self, text: str) -> None:
        self.endpoint.update(PREFIX + text)


def write(served: Served, rng: random.Random) -> str:
    """One random write of any kind; returns its name."""
    dataset = served.endpoint.dataset
    epoch = dataset.epoch()
    kind = rng.choice(["insert", "insert", "insert", "delete", "delete-where",
                       "bulk", "clear", "create", "drop", "remove-wide",
                       "insert-graph"])
    graph = rng.choice(["", "ex:g1"])
    if kind == "insert":
        served.update(f"INSERT DATA {{ {nt(random_triple(rng))} }}")
    elif kind == "insert-graph":
        served.update(f"INSERT DATA {{ GRAPH ex:g1 {{ {nt(random_triple(rng))} }} }}")
    elif kind == "delete":
        served.update(f"DELETE DATA {{ {nt(random_triple(rng))} }}")
    elif kind == "delete-where":
        served.update(f"DELETE WHERE {{ ?s ex:p{rng.randrange(4)} ex:s{rng.randrange(6)} }}")
    elif kind == "bulk":
        target = dataset.graph(iri("g1")) if graph else dataset.default_graph
        stream_load_triples(target, [random_triple(rng) for _ in range(3)])
    elif kind == "clear":
        served.update("CLEAR GRAPH ex:g1" if graph else "CLEAR DEFAULT")
    elif kind == "create":
        dataset.graph(iri(rng.choice(["g1", "g2"])))
    elif kind == "drop":
        dataset.drop_graph(iri(rng.choice(["g1", "g2"])))
    else:
        dataset.default_graph.remove(None, iri(f"p{rng.randrange(4)}"), None)
    if dataset.epoch() != epoch:
        # The model behind the UDF moves with the epoch (a body cached at
        # one epoch is served at that epoch whatever the UDF does).
        served.udf_state[0] += 1
    return kind


@pytest.mark.parametrize("seed", range(4))
def test_cached_bodies_equal_no_store_bodies_under_random_writes(seed):
    rng = random.Random(seed)
    served = Served()
    for _ in range(40):
        served.update(f"INSERT DATA {{ {nt(random_triple(rng))} }}")
    names = sorted(CORPUS)
    hits = 0
    for step in range(60 * STRESS):
        if step % 2:
            write(served, rng)
        for name in rng.sample(names, 8):
            hit, cached = served.get(CORPUS[name])
            _, fresh = served.get(CORPUS[name], no_store=True)
            assert cached == fresh, (seed, step, name, hit)
            hits += hit
    stats = served.endpoint.result_cache.stats()
    assert stats["revalidated"] > 0
    assert hits == stats["hits"]


# ---------------------------------------------------------------------------
# What a footprint is
# ---------------------------------------------------------------------------


def parsed_footprint(text: str, dataset: Dataset):
    return footprint(SPARQLParser(PREFIX + text).parse(),
                     dataset.dictionary.lookup)


@pytest.fixture()
def dataset() -> Dataset:
    dataset = Dataset()
    for name in ("s0", "s1"):
        for predicate in ("p0", "p1", "p2", "p3", "name"):
            dataset.default_graph.add(iri(name), iri(predicate), iri("s1"))
    return dataset


def test_footprint_takes_constants_as_ids_and_variables_as_wildcards(dataset):
    lookup = dataset.dictionary.lookup
    p0, p1, s1 = lookup(iri("p0")), lookup(iri("p1")), lookup(iri("s1"))
    assert parsed_footprint("SELECT ?s WHERE { ?s ex:p0 ex:s1 . _:b ex:p1 ?s }",
                            dataset) == {(None, p0, s1), (None, p1, None)}
    assert parsed_footprint("SELECT ?o WHERE { ex:s1 ^ex:p0/(ex:p1|ex:p2)+ ?o }",
                            dataset) == {(None, p0, None), (None, p1, None),
                                         (None, lookup(iri("p2")), None)}
    # Never stored yet: a wildcard, so the write that stores it still matches.
    assert parsed_footprint("SELECT ?s WHERE { ?s ex:late ex:s1 }",
                            dataset) == {(None, None, s1)}


@pytest.mark.parametrize("name", ["path-star", "path-optional", "path-negated",
                                  "udf"])
def test_footprint_is_any_change_where_patterns_cannot_say(dataset, name):
    assert parsed_footprint(CORPUS[name], dataset) is None


@pytest.mark.parametrize("name, outer, inner", [
    ("optional", "p0", "name"), ("minus", "p1", "p2"), ("sub-select", "p0", "p1"),
    ("not-exists", "p0", "p3"), ("exists-projected", "p1", "p2")])
def test_footprint_walks_every_nested_group(dataset, name, outer, inner):
    lookup = dataset.dictionary.lookup
    assert parsed_footprint(CORPUS[name], dataset) == {
        (None, lookup(iri(outer)), None), (None, lookup(iri(inner)), None)}


def test_footprint_of_union_and_of_a_full_scan(dataset):
    lookup = dataset.dictionary.lookup
    assert parsed_footprint(CORPUS["union"], dataset) == {
        (None, lookup(iri("p1")), lookup(iri("s1"))),
        (None, lookup(iri("p3")), None)}
    assert parsed_footprint(CORPUS["count-all"], dataset) == {(None, None, None)}


# ---------------------------------------------------------------------------
# The change log, and every way it fails closed
# ---------------------------------------------------------------------------


ANY_P0 = ((None, 7, None),)


def test_log_vouches_only_for_steps_that_miss_the_patterns():
    log = ChangeLog()
    log.record(((1, 8, 2),))
    log.record([(1, 9, 2), (3, 9, 4)])
    assert log.untouched(ANY_P0, 0, 2)
    log.record(((5, 7, 6),))
    assert not log.untouched(ANY_P0, 0, 3)
    assert not log.untouched(ANY_P0, 2, 2)           # nothing to vouch for
    log.record(UNKNOWN)
    assert not log.untouched(ANY_P0, 3, 4)
    log.record([(1, 8, 2)] * (ChangeLog.MAX_TRIPLES + 1))
    assert not log.untouched(ANY_P0, 4, 5)           # too wide: UNKNOWN


def test_log_gap_a_step_it_does_not_hold_fails_closed():
    log = ChangeLog()
    log.record(((1, 8, 2),))
    assert not log.untouched(ANY_P0, 1, 2)           # published ahead of the log
    for _ in range(ChangeLog.CAPACITY):
        log.record(((1, 8, 2),))
    assert log.untouched(ANY_P0, 1, 2)
    assert not log.untouched(ANY_P0, 0, 2)           # step 1 overwritten since


def test_log_overflow_drops_entries_older_than_the_log():
    served = Served()
    served.update("INSERT DATA { ex:s0 ex:p0 ex:s1 }")
    text = CORPUS["bgp"]
    served.get(text)
    for n in range(ChangeLog.CAPACITY + 1):
        served.update(f"INSERT DATA {{ ex:x{n} ex:q ex:s1 }}")
    hit, _ = served.get(text)
    assert not hit
    served.update("INSERT DATA { ex:x ex:q ex:s1 }")
    assert served.get(text)[0]                      # a fresh entry revalidates


def test_wide_remove_is_unknown_narrow_remove_is_logged():
    served = Served()
    graph = served.endpoint.dataset.default_graph
    served.update("INSERT DATA { ex:s0 ex:p0 ex:s1 }")

    def insert_unrelated(prefix: str) -> None:
        for n in range(ChangeLog.MAX_TRIPLES + 1):
            served.update(f"INSERT DATA {{ ex:{prefix}{n} ex:q ex:s1 }}")

    insert_unrelated("x")
    text = CORPUS["bgp"]
    served.get(text)
    assert graph.remove(iri("x0"), iri("q"), None) == 1
    assert served.get(text)[0]
    assert graph.remove(None, iri("q"), None) == ChangeLog.MAX_TRIPLES
    assert served.get(text)[0]
    insert_unrelated("y")
    assert served.get(text)[0]
    assert graph.remove(None, iri("q"), None) == ChangeLog.MAX_TRIPLES + 1
    assert not served.get(text)[0]


def test_constant_stored_after_the_body_still_invalidates_it():
    served = Served()
    served.update("INSERT DATA { ex:s0 ex:p0 ex:s1 }")
    text = CORPUS["unstored-constant"]
    assert served.endpoint.dataset.dictionary.lookup(iri("late")) is None
    served.get(text)
    served.update("INSERT DATA { ex:s0 ex:p1 ex:s1 }")
    assert served.get(text)[0]
    served.update("INSERT DATA { ex:s2 ex:p0 ex:late }")
    hit, body = served.get(text)
    assert not hit and f"{EX}s2".encode() in body


def test_replace_dataset_drops_bodies_and_refuses_in_flight_ones():
    served = Served()
    served.update("INSERT DATA { ex:s0 ex:p0 ex:s1 }")
    text = CORPUS["bgp"]
    served.get(text)
    endpoint, cache = served.endpoint, served.endpoint.result_cache
    old = endpoint.dataset
    replacement = Dataset()
    for n in range(5):
        replacement.default_graph.add(iri(f"n{n}"), iri("p0"), iri("s1"))
    endpoint.replace_dataset(replacement)
    assert len(cache) == 0
    hit, body = served.get(text)
    assert not hit and f"{EX}n4".encode() in body
    # A body evaluated on the old dataset that finishes streaming only now.
    cache.clear()
    cache.store(("late",), old.epoch(), old, (JSON, b"{}"), 2, frozenset())
    assert len(cache) == 0


def test_rebound_prefix_fails_closed():
    served = Served()
    other = "http://example.org/rc-other/"
    served.update("INSERT DATA { ex:s0 ex:p0 ex:s1 }")
    served.endpoint.update(f"INSERT DATA {{ <{other}s0> <{other}p0> <{other}s1> }}")
    namespaces = served.endpoint.namespaces
    namespaces.bind("ex", EX)
    text = "SELECT ?o WHERE { ex:s0 ex:p0 ?o }"     # reads the shared table
    served.get(text, prologue="")
    # A request's own PREFIX binds for that request only.
    served.endpoint.update(f"PREFIX ex: <{other}> INSERT DATA {{ ex:x ex:q ex:z }}")
    hit, body = served.get(text, prologue="")
    assert hit and body == served.get(text, no_store=True, prologue="")[1]
    # Rebinding the shared table changes what the text asks; an unrelated
    # write must not carry the old answer across.
    namespaces.bind("ex", other)
    served.update("INSERT DATA { ex:x ex:q ex:z }")
    hit, body = served.get(text, prologue="")
    assert not hit
    assert body == served.get(text, no_store=True, prologue="")[1]
    assert f"{other}s1".encode() in body
    served.update("INSERT DATA { ex:y ex:q ex:z }")
    assert served.get(text, prologue="")[0]


def test_rebound_prefix_without_a_write_is_a_miss():
    served = Served()
    served.endpoint.update('INSERT DATA { <http://a/x> <http://a/p> "A" . '
                           '<http://b/x> <http://b/p> "B" }')
    namespaces = served.endpoint.namespaces
    namespaces.bind("ex", "http://a/")
    epoch = served.endpoint.dataset.epoch()
    text = "SELECT ?o WHERE { ex:x ?p ?o }"
    served.get(text, prologue="")
    hit, body = served.get(text, prologue="")
    assert hit and b'"A"' in body
    namespaces.bind("ex", "http://b/")
    hit, body = served.get(text, prologue="")
    assert served.endpoint.dataset.epoch() == epoch
    assert not hit and b'"B"' in body and b'"A"' not in body
    assert body == served.get(text, no_store=True, prologue="")[1]
    assert served.get(text, prologue="")[0]


def test_create_and_drop_fail_closed():
    served = Served()
    served.update("INSERT DATA { ex:s0 ex:p0 ex:s1 }")
    text = CORPUS["bgp"]
    served.get(text)
    served.endpoint.dataset.graph(iri("g2"))
    assert not served.get(text)[0]
    served.endpoint.dataset.drop_graph(iri("g2"))
    assert not served.get(text)[0]
    served.update("INSERT DATA { ex:s0 ex:q ex:s1 }")
    assert served.get(text)[0]


def test_unrelated_writes_keep_hits_and_count_them():
    served = Served()
    served.update("INSERT DATA { ex:s0 ex:p0 ex:s1 }")
    text = CORPUS["bgp"]
    served.get(text)
    for n in range(5):
        served.update(f"INSERT DATA {{ ex:x{n} ex:q ex:s1 }}")
        assert served.get(text)[0]
    served.update("DELETE DATA { ex:s0 ex:p0 ex:s1 }")
    assert not served.get(text)[0]
    stats = served.endpoint.result_cache.stats()
    assert stats["revalidated"] == 5
    assert stats["hits"] == 5 and stats["invalidations"] == 1
    assert "revalidated" not in served.endpoint.plan_cache.stats()


def test_dataset_epoch_is_the_log_step():
    dataset = Dataset()
    dataset.default_graph.add(iri("s0"), iri("p0"), iri("s1"))
    dataset.graph(iri("g1")).add(iri("s0"), iri("p0"), iri("s1"))
    dataset.graph(iri("g1")).remove(None, None, None)
    assert dataset.epoch() == dataset.changes.step == 4


# ---------------------------------------------------------------------------
# One writer, several readers, a tiny switch interval
# ---------------------------------------------------------------------------


@pytest.mark.concurrency
def test_cached_reads_are_never_stale_under_a_concurrent_writer():
    served = Served()
    served.update("INSERT DATA { ex:w ex:hot 0 }")
    text = "SELECT (COUNT(*) AS ?n) WHERE { ?s ex:hot ?o }"
    # Hot triples whose insert returned / began: every answer must lie
    # between the two counts read around it.
    committed, started = [1], [1]
    errors = []

    def writer():
        for n in range(1, 300 * STRESS):
            served.update(f"INSERT DATA {{ ex:x{n} ex:cold {n} }}")
            if n % 10 == 0:
                started[0] += 1
                served.update(f"INSERT DATA {{ ex:w ex:hot {n} }}")
                committed[0] += 1
            time.sleep(0)  # let the readers in between writes

    def reader():
        try:
            while writer_thread.is_alive():
                before = committed[0]
                _, body = served.get(text)
                count = int(body.split(b'"value":"')[1].split(b'"')[0])
                after = started[0]
                if not before <= count <= after:
                    errors.append((before, count, after))
        except Exception as exc:  # noqa: BLE001 — reported below
            errors.append(exc)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        writer_thread = threading.Thread(target=writer)
        readers = [threading.Thread(target=reader) for _ in range(3)]
        writer_thread.start()
        for thread in readers:
            thread.start()
        writer_thread.join(timeout=120)
        for thread in readers:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(previous)
    assert not writer_thread.is_alive()
    assert not any(thread.is_alive() for thread in readers)
    assert not errors, errors[:5]
    _, body = served.get(text)
    assert f'"value":"{committed[0]}"'.encode() in body
    assert served.endpoint.result_cache.stats()["revalidated"] > 0
