"""Differential stress tests for snapshot isolation.

The serving claim under test: a reader that pins a snapshot observes a
frozen, internally consistent graph state — regardless of how many writers
are committing concurrently — and the streaming evaluator's answer on that
snapshot is *identical* to the frozen seed evaluator's
(:class:`~repro.sparql.reference.ReferenceQueryEvaluator`) answer on the
same snapshot.  Any torn read, copy-on-write slip or stale compiled plan
shows up as a multiset mismatch.

The suite is differential end to end:

* N reader threads run randomized BGP queries against pinned snapshots and
  compare the streaming pipeline with the reference evaluator on *the same
  pinned snapshot*,
* M writer threads add/remove random triples the whole time,
* endpoint-level readers hammer one cached query text (so the plan cache is
  in play) and sandwich every answer between the writer's commit counters —
  a stale plan or torn index read breaks the sandwich.

Sizes are kept CI-friendly by default; set ``KGNET_STRESS=1`` (the dedicated
CI stress job does) to multiply iterations.
"""

from __future__ import annotations

import os
import random
import threading
import time
from collections import Counter

import pytest

from repro.rdf import Dataset, Graph, GraphSnapshot, IRI, Literal, Triple
from repro.sparql import (
    QueryEvaluator,
    ReferenceQueryEvaluator,
    SPARQLEndpoint,
    SPARQLParser,
)

EX = "http://example.org/"
PREDICATES = [IRI(EX + f"p{i}") for i in range(4)]

#: Stress multiplier: 1 for the tier-1 run, bigger in the CI stress job.
STRESS = 4 if os.environ.get("KGNET_STRESS") else 1


def _random_triples(rng: random.Random, count: int):
    return [Triple(IRI(EX + f"s{rng.randrange(40)}"),
                   PREDICATES[rng.randrange(len(PREDICATES))],
                   rng.choice([IRI(EX + f"s{rng.randrange(40)}"),
                               Literal(rng.randrange(25))]))
            for _ in range(count)]


def _seed_graph(graph: Graph, rng: random.Random, triples: int = 300) -> None:
    # Batched on purpose: add_all holds the write lock for the whole batch,
    # so the copy-on-write detach after a reader snapshot is paid once per
    # batch, not once per triple (the intended writer idiom under load).
    graph.add_all(_random_triples(rng, triples))


def _random_query(rng: random.Random) -> str:
    """A 1-3 pattern BGP SELECT whose patterns share the ?s join variable."""
    patterns = []
    for index in range(rng.randrange(1, 4)):
        predicate = rng.choice(
            [f"<{rng.choice(PREDICATES).value}>", f"?p{index}"])
        obj = rng.choice([f"?o{index}", f"<{EX}s{rng.randrange(40)}>",
                          str(rng.randrange(25))])
        patterns.append(f"?s {predicate} {obj} .")
    return "SELECT * WHERE { " + " ".join(patterns) + " }"


def _multiset(result) -> Counter:
    return Counter(frozenset(sol.items()) for sol in result)


class _WriterMix(threading.Thread):
    """Randomly adds/removes triple batches; bounded so the stress run ends.

    ``stop`` cuts the run short once the readers are done — the writers'
    job is to overlap reader snapshots, not to win a race.
    """

    def __init__(self, graph: Graph, seed: int, iterations: int = 80 * STRESS) -> None:
        super().__init__(daemon=True)
        self.graph = graph
        self.rng = random.Random(seed)
        self.iterations = iterations
        self.stop = threading.Event()
        self.errors: list = []

    def run(self) -> None:
        try:
            for _ in range(self.iterations):
                if self.stop.is_set():
                    return
                if self.rng.random() < 0.7:
                    _seed_graph(self.graph, self.rng, triples=5)
                else:
                    self.graph.remove(IRI(EX + f"s{self.rng.randrange(40)}"),
                                      self.rng.choice(PREDICATES), None)
        except Exception as exc:  # pragma: no cover - surfaced by the test
            self.errors.append(exc)


@pytest.mark.concurrency
class TestDifferentialSnapshotIsolation:
    """Streaming == reference on the pinned snapshot, under writer fire."""

    def test_readers_match_reference_on_pinned_snapshot(self):
        rng = random.Random(7)
        graph = Graph()
        _seed_graph(graph, rng)
        writers = [_WriterMix(graph, seed) for seed in (11, 13)]
        reader_errors: list = []

        def reader(seed: int) -> None:
            reader_rng = random.Random(seed)
            parser_ns = graph.namespaces
            try:
                for _ in range(30 * STRESS):
                    text = _random_query(reader_rng)
                    query = SPARQLParser(text, namespaces=parser_ns).parse_query()
                    snap = graph.snapshot()
                    assert isinstance(snap, GraphSnapshot)
                    size_at_pin = len(snap)
                    streaming = QueryEvaluator(snap).evaluate(query)
                    reference = ReferenceQueryEvaluator(snap).evaluate(query)
                    assert _multiset(streaming) == _multiset(reference)
                    # The pinned view must not have drifted while we read it.
                    assert len(snap) == size_at_pin
            except Exception as exc:
                reader_errors.append(exc)

        readers = [threading.Thread(target=reader, args=(seed,), daemon=True)
                   for seed in range(4)]
        for thread in writers + readers:
            thread.start()
        for thread in readers:
            thread.join(timeout=120)
        for writer in writers:
            writer.stop.set()
        for writer in writers:
            writer.join(timeout=30)
        assert not reader_errors, reader_errors[0]
        assert not any(writer.errors for writer in writers)

    def test_snapshot_results_are_repeatable_after_more_commits(self):
        graph = Graph()
        rng = random.Random(3)
        _seed_graph(graph, rng)
        text = f"SELECT * WHERE {{ ?s <{PREDICATES[0].value}> ?o . }}"
        query = SPARQLParser(text, namespaces=graph.namespaces).parse_query()
        snap = graph.snapshot()
        before = _multiset(QueryEvaluator(snap).evaluate(query))
        _seed_graph(graph, rng, triples=100)
        graph.remove(None, PREDICATES[0], None)
        after = _multiset(QueryEvaluator(snap).evaluate(query))
        assert before == after
        # And the live graph moved on.
        assert _multiset(QueryEvaluator(graph.snapshot()).evaluate(query)) != before


@pytest.mark.concurrency
class TestEndpointFreshnessSandwich:
    """Plan-cached endpoint answers are bounded by the writer's commits.

    The writer only ever *adds* marker triples and maintains two counters:
    ``started`` (bumped before each add) and ``committed`` (bumped after).
    For any reader, the count it observes must lie between the commits that
    had definitely finished before the query began and the adds that had
    started by the time it ended.  A stale cached plan (serving ids compiled
    for an old epoch) or a torn index read lands outside the sandwich.
    """

    def test_cached_query_never_serves_stale_results(self):
        endpoint = SPARQLEndpoint()
        marker = IRI(EX + "marker")
        text = f"SELECT ?s WHERE {{ ?s <{marker.value}> ?o . }}"
        total = 150 * STRESS
        started = [0]
        committed = [0]
        errors: list = []
        done = threading.Event()

        def writer() -> None:
            try:
                for index in range(total):
                    started[0] = index + 1
                    endpoint.graph.add(IRI(EX + f"m{index}"), marker,
                                       Literal(index))
                    committed[0] = index + 1
            finally:
                done.set()

        def reader() -> None:
            try:
                while not done.is_set():
                    low = committed[0]
                    observed = len(endpoint.select(text))
                    high = started[0]
                    assert low <= observed <= high, (low, observed, high)
            except Exception as exc:
                errors.append(exc)

        threads = [threading.Thread(target=reader, daemon=True)
                   for _ in range(4)]
        writer_thread = threading.Thread(target=writer, daemon=True)
        for thread in threads:
            thread.start()
        writer_thread.start()
        writer_thread.join(timeout=120)
        for thread in threads:
            thread.join(timeout=30)
        assert not errors, errors[0]
        assert len(endpoint.select(text)) == total
        # The cache was actually exercised: same text, many lookups.
        stats = endpoint.plan_cache.stats()
        assert stats["hits"] + stats["invalidations"] > 0


@pytest.mark.concurrency
class TestDatasetSnapshotConsistency:
    """Union-graph (default + named) readers see one dataset-wide epoch."""

    def test_union_readers_match_reference_under_writers(self):
        dataset = Dataset()
        endpoint = SPARQLEndpoint(dataset=dataset)
        rng = random.Random(23)
        _seed_graph(dataset.default_graph, rng, triples=150)
        meta = dataset.graph(EX + "kgmeta")
        _seed_graph(meta, rng, triples=50)
        errors: list = []
        stop = threading.Event()

        def writer(seed: int) -> None:
            writer_rng = random.Random(seed)
            try:
                for _ in range(60 * STRESS):
                    if stop.is_set():
                        return
                    target = meta if writer_rng.random() < 0.5 else dataset.default_graph
                    _seed_graph(target, writer_rng, triples=4)
            except Exception as exc:
                errors.append(exc)

        def reader(seed: int) -> None:
            reader_rng = random.Random(seed)
            try:
                for _ in range(20 * STRESS):
                    text = _random_query(reader_rng)
                    query = SPARQLParser(
                        text, namespaces=dataset.namespaces).parse_query()
                    union = dataset.snapshot().union()
                    streaming = QueryEvaluator(union).evaluate(query)
                    reference = ReferenceQueryEvaluator(union).evaluate(query)
                    assert _multiset(streaming) == _multiset(reference)
            except Exception as exc:
                errors.append(exc)

        threads = ([threading.Thread(target=writer, args=(s,), daemon=True)
                    for s in (31, 37)]
                   + [threading.Thread(target=reader, args=(s,), daemon=True)
                      for s in range(3)])
        for thread in threads:
            thread.start()
        for thread in threads[2:]:
            thread.join(timeout=120)
        stop.set()
        for thread in threads[:2]:
            thread.join(timeout=30)
        assert not errors, errors[0]
        # The endpoint serves the same pinned union (identity-stable between
        # mutations), so plans compiled by one reader are reused by the next.
        first = endpoint.dataset.snapshot().union()
        assert endpoint.dataset.snapshot().union() is first

    def test_readers_survive_concurrent_graph_creation(self):
        """dataset.epoch()/named_graphs() iterate while a writer creates graphs.

        Regression: these iterated the live ``_named`` dict without a copy,
        so any query running while a ``load``/UPDATE envelope created a new
        named graph could die with "dictionary changed size during
        iteration".
        """
        dataset = Dataset()
        endpoint = SPARQLEndpoint(dataset=dataset)
        rng = random.Random(5)
        _seed_graph(dataset.default_graph, rng, triples=100)
        text = f"SELECT * WHERE {{ ?s <{PREDICATES[0].value}> ?o . }}"
        errors: list = []
        done = threading.Event()

        def creator() -> None:
            try:
                for index in range(60 * STRESS):
                    graph = dataset.graph(EX + f"g{index}")
                    graph.add(IRI(EX + f"m{index}"), PREDICATES[1],
                              Literal(index))
            finally:
                done.set()

        def reader() -> None:
            try:
                while not done.is_set():
                    endpoint.select(text)
                    dataset.epoch()
            except Exception as exc:
                errors.append(exc)

        threads = [threading.Thread(target=reader, daemon=True)
                   for _ in range(3)]
        creator_thread = threading.Thread(target=creator, daemon=True)
        for thread in threads:
            thread.start()
        creator_thread.start()
        creator_thread.join(timeout=120)
        for thread in threads:
            thread.join(timeout=30)
        assert not errors, errors[0]


@pytest.mark.concurrency
class TestHeldSnapshotsAcrossCommits:
    """Readers hold a snapshot across writer commits while other readers
    pin and release at once, so writes both copy (a snapshot is held) and
    mutate in place (nobody holds the last one).  A held snapshot answers
    the same before and after the commits it outlived, and the streaming
    evaluator agrees with the reference evaluator on it both times."""

    def test_held_snapshot_answers_stay_put_across_commits(self):
        dataset = Dataset()
        endpoint = SPARQLEndpoint(dataset=dataset)
        rng = random.Random(41)
        _seed_graph(dataset.default_graph, rng, triples=150)
        meta = dataset.graph(EX + "kgmeta")
        _seed_graph(meta, rng, triples=40)
        errors: list = []
        done = threading.Event()

        def writer(seed: int) -> None:
            writer_rng = random.Random(seed)
            try:
                for index in range(80 * STRESS):
                    s = f"<{EX}s{writer_rng.randrange(40)}>"
                    p = f"<{writer_rng.choice(PREDICATES).value}>"
                    o = writer_rng.randrange(25)
                    verb = "INSERT" if writer_rng.random() < 0.7 else "DELETE"
                    body = f"{s} {p} {o}"
                    if index % 3 == 0:
                        body = f"GRAPH <{EX}kgmeta> {{ {body} }}"
                    endpoint.execute(f"{verb} DATA {{ {body} }}")
                    # Let the readers pin between commits.
                    time.sleep(0.0005)
            except Exception as exc:
                errors.append(exc)
            finally:
                done.set()

        def holder(seed: int) -> None:
            reader_rng = random.Random(seed)
            try:
                while not done.is_set():
                    query = SPARQLParser(
                        _random_query(reader_rng),
                        namespaces=dataset.namespaces).parse_query()
                    pinned = dataset.snapshot()
                    union = pinned.union()
                    before = _multiset(QueryEvaluator(union).evaluate(query))
                    assert before == _multiset(
                        ReferenceQueryEvaluator(union).evaluate(query))
                    size = len(union)
                    # Outlive at least one commit (or the writer).
                    while dataset.epoch() == pinned.token and not done.is_set():
                        done.wait(0.001)
                    assert len(union) == size
                    assert _multiset(QueryEvaluator(union).evaluate(query)) == before
                    assert _multiset(
                        ReferenceQueryEvaluator(union).evaluate(query)) == before
                    # Release, and hold nothing for a while: the commits
                    # meanwhile mutate in place.
                    del pinned, union
                    done.wait(0.002)
            except Exception as exc:
                errors.append(exc)

        def passer(seed: int) -> None:
            reader_rng = random.Random(seed)
            try:
                while not done.is_set():
                    endpoint.select(_random_query(reader_rng))
                    done.wait(0.001)
            except Exception as exc:
                errors.append(exc)

        threads = ([threading.Thread(target=writer, args=(43,), daemon=True)]
                   + [threading.Thread(target=holder, args=(s,), daemon=True)
                      for s in (1, 2)]
                   + [threading.Thread(target=passer, args=(3,), daemon=True)])
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors, errors[0]
        assert len(endpoint.select("SELECT * WHERE { ?s ?p ?o }")) == len(
            dataset.snapshot().union())
