"""The cost-based optimizer: statistics, ordering, explain, and proofs.

Four layers of coverage, matching the plan-quality contract:

* **statistics** — the per-predicate distinct counters the estimator reads
  stay correct through every mutation path (add / bulk / remove), and the
  graph ``epoch`` keys the plan cache so stale orders cannot survive a
  statistics change;
* **estimator** — constant patterns probe exact index counts, bound
  variables divide by the matching distinct count, estimates are clamped;
* **ordering** — greedy smallest-cardinality-first with bound-variable
  propagation is *deterministic*: every written permutation of a BGP (and
  of a group's join elements) converges on one canonical plan, and
  non-commutative elements (FILTER / OPTIONAL / BIND ...) never move;
* **differential** — optimized execution is result-identical to the frozen
  :class:`~repro.sparql.reference.ReferenceQueryEvaluator` over the
  SPARQL-ML corpus and the property-path corpus, and Hypothesis-drawn
  random BGPs agree across all orderings with the syntactic evaluator.

``KGNET_STRESS=1`` scales Hypothesis example counts for the CI job.
"""

from __future__ import annotations

import itertools
import json
import os
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.datasets import StreamingKGConfig, stream_synthetic_kg
from repro.rdf import Dataset, Graph, IRI, Literal, Triple
from repro.rdf.terms import RDF_TYPE, Variable
from repro.sparql import (
    QueryEvaluator,
    ReferenceQueryEvaluator,
    SPARQLEndpoint,
    SPARQLParser,
)
from repro.sparql.ast import BGP, TriplePattern
from repro.sparql.optimizer import (
    estimate_pattern_cardinality,
    reorder_group_elements,
    reorder_patterns,
)
from repro.storage.bulkload import stream_load_triples

STRESS = bool(os.environ.get("KGNET_STRESS"))
SETTINGS = settings(max_examples=120 if STRESS else 30, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

EX = "http://ex/"
FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def iri(local: str) -> IRI:
    return IRI(EX + local)


def var(name: str) -> Variable:
    return Variable(name)


def order_of(graph, patterns):
    """The join order alone, off ``reorder_patterns``' (pattern, estimate) levels."""
    return [pattern for pattern, _ in reorder_patterns(graph, patterns)]


@pytest.fixture()
def skewed_graph() -> Graph:
    """60 popular-predicate edges, 3 rare-type members, 12 typed hubs."""
    g = Graph()
    for i in range(12):
        g.add(iri(f"e{i}"), RDF_TYPE, iri("Common"))
    for i in range(3):
        g.add(iri(f"e{i}"), RDF_TYPE, iri("Rare"))
    for i in range(12):
        for j in range(5):  # 60 distinct edges over 12 subjects
            g.add(iri(f"e{i}"), iri("link"), iri(f"e{(i + j) % 12}"))
    for i in range(5):
        g.add(iri(f"e{i}"), iri("score"), Literal(i))
    return g


# ---------------------------------------------------------------------------
# Statistics maintenance
# ---------------------------------------------------------------------------

def _distincts(graph, predicate=None):
    """(distinct subjects, distinct objects) of ``predicate``, or overall,
    from the id-level counters; a predicate the graph never stored has
    none (``encode_term``'s ``None`` would select every triple instead)."""
    if predicate is None:
        return graph.distinct_subjects_ids(), graph.distinct_objects_ids()
    pid = graph.encode_term(predicate)
    if pid is None:
        return 0, 0
    return graph.distinct_subjects_ids(pid), graph.distinct_objects_ids(pid)


class TestDistinctStatistics:
    def _truth(self, graph: Graph, predicate: IRI):
        subjects = {s for s, p, o in graph if p == predicate}
        objects = {o for s, p, o in graph if p == predicate}
        return len(subjects), len(objects)

    def test_counts_track_adds_and_removes(self):
        g = Graph()
        link = iri("link")
        for i in range(6):
            g.add(iri(f"s{i % 3}"), link, iri(f"o{i % 2}"))
        assert _distincts(g, link) == self._truth(g, link)
        g.remove(iri("s0"), link, None)
        assert _distincts(g, link) == self._truth(g, link)
        g.remove(None, link, None)
        assert _distincts(g, link) == (0, 0)
        assert _distincts(g, iri("never-stored")) == (0, 0)

    def test_counts_track_bulk_ingest(self):
        from repro.storage.bulkload import stream_load_triples
        g = Graph()
        triples = [Triple(iri(f"s{i % 4}"), iri(f"p{i % 2}"), iri(f"o{i % 5}"))
                   for i in range(40)]
        stream_load_triples(g, triples, batch_size=7)
        for p in (iri("p0"), iri("p1")):
            assert _distincts(g, p) == self._truth(g, p)
        assert g.distinct_predicates_ids() == 2

    def test_global_distincts(self, skewed_graph):
        subjects = {s for s, _, _ in skewed_graph}
        objects = {o for _, _, o in skewed_graph}
        assert _distincts(skewed_graph) == (len(subjects), len(objects))

    def test_epoch_advances_with_mutations(self):
        g = Graph()
        before = g.epoch
        g.add(iri("s"), iri("p"), iri("o"))
        assert g.epoch > before
        # Removing nothing leaves the statistics (and the plans) alone.
        unchanged = g.epoch
        g.remove(iri("missing"), None, None)
        assert g.epoch == unchanged


# ---------------------------------------------------------------------------
# The estimator
# ---------------------------------------------------------------------------

class TestEstimator:
    def test_constant_pattern_is_exact(self, skewed_graph):
        pattern = TriplePattern(var("x"), RDF_TYPE, iri("Rare"))
        assert estimate_pattern_cardinality(skewed_graph, pattern) == 3.0
        popular = TriplePattern(var("x"), iri("link"), var("y"))
        assert estimate_pattern_cardinality(skewed_graph, popular) == float(
            sum(1 for _, p, _ in skewed_graph if p == iri("link")))

    def test_bound_variable_divides_by_distinct_count(self, skewed_graph):
        pattern = TriplePattern(var("x"), iri("link"), var("y"))
        free = estimate_pattern_cardinality(skewed_graph, pattern)
        seeded = estimate_pattern_cardinality(skewed_graph, pattern,
                                              bound={var("x")})
        assert seeded == pytest.approx(
            free / _distincts(skewed_graph, iri("link"))[0])
        both = estimate_pattern_cardinality(
            skewed_graph, pattern, bound={var("x"), var("y")})
        assert both < seeded < free

    def test_estimates_are_clamped_to_at_least_one(self, skewed_graph):
        pattern = TriplePattern(var("x"), iri("score"), var("v"))
        bound = {var("x"), var("v")}
        assert estimate_pattern_cardinality(skewed_graph, pattern,
                                            bound=bound) >= 1.0

    def test_empty_match_estimates_zero(self, skewed_graph):
        pattern = TriplePattern(var("x"), iri("absent"), var("y"))
        assert estimate_pattern_cardinality(skewed_graph, pattern) == 0.0


# ---------------------------------------------------------------------------
# Deterministic greedy ordering
# ---------------------------------------------------------------------------

class TestReordering:
    def test_selective_pattern_leads(self, skewed_graph):
        rare = TriplePattern(var("x"), RDF_TYPE, iri("Rare"))
        popular = TriplePattern(var("x"), iri("link"), var("y"))
        assert order_of(skewed_graph, [popular, rare])[0] is rare

    def test_all_permutations_one_plan(self, skewed_graph):
        patterns = [
            TriplePattern(var("x"), iri("link"), var("y")),
            TriplePattern(var("x"), RDF_TYPE, iri("Rare")),
            TriplePattern(var("y"), RDF_TYPE, iri("Common")),
            TriplePattern(var("x"), iri("score"), var("v")),
        ]
        canonical = {
            tuple(patterns.index(p) for p in order_of(
                skewed_graph, list(perm)))
            for perm in itertools.permutations(patterns)
        }
        assert len(canonical) == 1

    def test_connected_patterns_preferred_over_cartesian(self, skewed_graph):
        anchor = TriplePattern(var("x"), RDF_TYPE, iri("Rare"))
        joined = TriplePattern(var("x"), iri("link"), var("y"))
        disjoint = TriplePattern(var("a"), iri("score"), var("v"))
        ordered = order_of(skewed_graph, [disjoint, joined, anchor])
        assert ordered[0] is anchor
        assert ordered[1] is joined  # shares ?x; the cartesian product waits

    def test_barriers_never_move(self, skewed_graph):
        query = SPARQLParser(f"""
            SELECT ?x ?y WHERE {{
                ?x <{EX}link> ?y .
                FILTER(?x != ?y)
                ?x a <{EX}Rare> .
            }}
        """).parse_query()
        elements = query.where.elements
        ordered = reorder_group_elements(skewed_graph, elements)
        kinds = [type(e).__name__ for e in ordered]
        assert kinds[1] == "FilterPattern"
        assert kinds.count("FilterPattern") == 1
        assert len(ordered) == len(elements)

    def test_levels_cover_all_patterns_with_their_estimates(self, skewed_graph):
        patterns = [
            TriplePattern(var("x"), iri("link"), var("y")),
            TriplePattern(var("x"), RDF_TYPE, iri("Rare")),
        ]
        levels = reorder_patterns(skewed_graph, patterns)
        assert sorted(map(id, order_of(skewed_graph, patterns))) == sorted(
            map(id, patterns))
        # Each estimate is the one its pick was made under: the variables
        # of the levels before it bound.
        bound = set()
        for pattern, estimate in levels:
            assert estimate == estimate_pattern_cardinality(
                skewed_graph, pattern, bound)
            bound.update(pattern.variables())
        assert levels[0][1] <= levels[1][1]


# ---------------------------------------------------------------------------
# explain() — the plan-quality contract
# ---------------------------------------------------------------------------

def _endpoint(graph_triples) -> SPARQLEndpoint:
    dataset = Dataset()
    for s, p, o in graph_triples:
        dataset.default_graph.add(s, p, o)
    return SPARQLEndpoint(dataset=dataset)


class TestExplain:
    QUERY = (f"SELECT ?x ?y WHERE {{ ?x <{EX}link> ?y . "
             f"?x a <{EX}Rare> . }}")

    def test_explain_reports_estimates_and_chosen_order(self, skewed_graph):
        endpoint = _endpoint(skewed_graph)
        plan = endpoint.explain(self.QUERY)
        bgp = plan["plan"][0]
        assert bgp["join_order_optimized"] is True
        assert bgp["patterns"][0].endswith("Rare>")  # selective anchor first
        levels = bgp["levels"]
        assert len(levels) == 2
        assert all("estimated" in level for level in levels)
        assert "actual" not in levels[0]

    def test_explain_analyze_reports_actuals(self, skewed_graph):
        endpoint = _endpoint(skewed_graph)
        plan = endpoint.explain(self.QUERY, analyze=True)
        levels = plan["plan"][0]["levels"]
        assert levels[0]["actual"] == 3  # the three Rare members
        graph = endpoint.dataset.snapshot().union()
        evaluator = QueryEvaluator(graph)
        query = SPARQLParser(self.QUERY).parse_query()
        expected = sum(1 for _ in evaluator.evaluate(query).solutions)
        assert levels[-1]["actual"] == expected

    def test_statistics_block_keys_the_plan_cache(self, skewed_graph):
        endpoint = _endpoint(skewed_graph)
        first = endpoint.explain(self.QUERY)
        assert first["statistics"]["plan_cache_hit"] is False
        assert first["statistics"]["num_triples"] == len(skewed_graph)
        second = endpoint.explain(self.QUERY)
        assert second["statistics"]["plan_cache_hit"] is True
        assert (second["statistics"]["dataset_epoch"]
                == first["statistics"]["dataset_epoch"])

    def test_mutation_invalidates_the_described_plan(self, skewed_graph):
        endpoint = _endpoint(skewed_graph)
        before = endpoint.explain(self.QUERY)["statistics"]
        endpoint.execute(
            f"INSERT DATA {{ <{EX}e99> <{EX}link> <{EX}e98> . }}")
        after = endpoint.explain(self.QUERY)["statistics"]
        assert after["dataset_epoch"] != before["dataset_epoch"]
        assert after["num_triples"] == before["num_triples"] + 1

    def test_stale_plan_is_not_reused_after_stats_change(self):
        """New statistics must re-derive the join order, not replay it."""
        g = Graph()
        # Initially: type triples are the *popular* side.
        for i in range(30):
            g.add(iri(f"e{i}"), RDF_TYPE, iri("T"))
        g.add(iri("e0"), iri("link"), iri("e1"))
        evaluator = QueryEvaluator(g)
        rare_first = [TriplePattern(var("x"), RDF_TYPE, iri("T")),
                      TriplePattern(var("x"), iri("link"), var("y"))]
        first = order_of(g, rare_first)
        assert first[0].predicate == iri("link")
        # Flip the skew: flood link triples, keep types small.
        for i in range(300):
            g.add(iri(f"e{i}"), iri("link"), iri(f"e{i + 1}"))
        second = order_of(g, rare_first)
        assert second[0].predicate == RDF_TYPE
        # And the evaluator still answers correctly through the flip.
        query = SPARQLParser(
            f"SELECT ?x WHERE {{ ?x a <{EX}T> . ?x <{EX}link> ?y . }}"
        ).parse_query()
        assert sum(1 for _ in evaluator.evaluate(query).solutions) == 30


# ---------------------------------------------------------------------------
# Differential: optimized execution ≡ the reference oracle
# ---------------------------------------------------------------------------

def _multiset(result) -> Counter:
    return Counter(tuple(sorted((v.name, str(solution.get(v)))
                                for v in result.variables))
                   for solution in result.solutions)


def _reference_multiset(graph, text) -> Counter:
    query = SPARQLParser(text).parse_query()
    return _multiset(ReferenceQueryEvaluator(graph).evaluate(query))


def _adversarial_queries():
    """Popular pattern written first, the 20-member ``RareType`` anchor last."""
    base = StreamingKGConfig().base_iri
    p0, p1, rare = f"{base}p0", f"{base}p1", f"{base}RareType"
    return [
        ("popular_scan",
         f"SELECT ?x ?y WHERE {{ ?x <{p0}> ?y . ?x a <{rare}> . }}"),
        ("popular_chain",
         f"SELECT ?x ?y ?z WHERE {{ ?x <{p0}> ?y . ?y <{p1}> ?z . "
         f"?x a <{rare}> . }}"),
        ("unanchored_closure",
         f"SELECT ?x ?z WHERE {{ ?x <{p1}>+ ?z . ?x a <{rare}> . }}"),
    ]


@pytest.fixture(scope="module")
def zipf_graph() -> Graph:
    graph = Graph()
    stream_load_triples(
        graph, stream_synthetic_kg(StreamingKGConfig(num_triples=20_000)))
    return graph


@pytest.mark.parametrize("name,text", _adversarial_queries())
def test_adversarial_written_order_is_flipped_by_statistics(zipf_graph, name, text):
    """A lost cost-based order shows as index lookups, not as wall-clock time.

    ``pattern_lookups`` is a deterministic count: starting at the rare
    anchor costs 21 / 72 / 1 lookups on this graph, the written order
    6,833 / 13,593 / 3,251.
    """
    query = SPARQLParser(text).parse_query()
    optimized = QueryEvaluator(zipf_graph, optimize_joins=True)
    written = QueryEvaluator(zipf_graph, optimize_joins=False)
    optimized_rows = _multiset(optimized.evaluate(query))
    assert optimized_rows == _multiset(written.evaluate(query))
    assert sum(optimized_rows.values()) > 0, f"{name} must not be vacuous"
    assert optimized.pattern_lookups * 20 <= written.pattern_lookups


def _sparqlml_dataset() -> Dataset:
    from tests.storage.test_differential import _populate
    dataset = Dataset()
    _populate(dataset)
    return dataset


SPARQLML_CORPUS = sorted(
    name for name in os.listdir(os.path.join(FIXTURES, "sparqlml_corpus"))
    if name.endswith(".rq"))


@pytest.mark.parametrize("name", SPARQLML_CORPUS)
def test_optimized_matches_reference_on_sparqlml_corpus(name):
    dataset = _sparqlml_dataset()
    with open(os.path.join(FIXTURES, "sparqlml_corpus", name),
              encoding="utf-8") as handle:
        text = handle.read()
    graph = dataset.snapshot().union()
    endpoint = SPARQLEndpoint(dataset=dataset)
    assert endpoint.optimize_joins
    optimized = _multiset(endpoint.select(text))
    assert optimized == _reference_multiset(graph, text)
    assert sum(optimized.values()) > 0, f"{name} must not be vacuous"


def _path_corpus_cases():
    corpus_dir = os.path.join(FIXTURES, "path_corpus")
    for name in sorted(os.listdir(corpus_dir)):
        if not name.endswith(".json"):
            continue
        with open(os.path.join(corpus_dir, name), encoding="utf-8") as handle:
            doc = json.load(handle)
        prefixes = "".join(f"PREFIX {p}: <{i}>\n"
                           for p, i in doc.get("prefixes", {}).items())
        for case in doc["cases"]:
            yield f"{name}::{case['name']}", prefixes, case


PATH_CASES = list(_path_corpus_cases())


@pytest.mark.parametrize("case_id,prefixes,case",
                         PATH_CASES, ids=[c[0] for c in PATH_CASES])
def test_optimized_matches_reference_on_path_corpus(case_id, prefixes, case):
    from repro.rdf.io import parse_turtle
    graph = parse_turtle(prefixes.replace("PREFIX", "@prefix")
                         .replace(">\n", "> .\n") + case["data"])
    text = prefixes + case["query"]
    query = SPARQLParser(text).parse_query()
    optimized = QueryEvaluator(graph, optimize_joins=True).evaluate(query)
    reference = ReferenceQueryEvaluator(graph).evaluate(query)
    if isinstance(case["expected"], dict) and "ask" in case["expected"]:
        # ASK evaluates straight to a bool on both engines.
        assert optimized == reference == case["expected"]["ask"]
    else:
        assert _multiset(optimized) == _multiset(reference)


# ---------------------------------------------------------------------------
# Hypothesis: random BGPs, all written orders → one plan, one answer
# ---------------------------------------------------------------------------

NODES = [iri(f"n{i}") for i in range(5)]
PREDS = [iri(f"p{i}") for i in range(3)]
VARS = [var(name) for name in "abcd"]


@st.composite
def graph_and_bgp(draw):
    edges = draw(st.lists(
        st.tuples(st.sampled_from(NODES), st.sampled_from(PREDS),
                  st.sampled_from(NODES)),
        min_size=1, max_size=24))
    graph = Graph()
    for s, p, o in edges:
        graph.add(s, p, o)
    terms = st.one_of(st.sampled_from(NODES), st.sampled_from(VARS))
    patterns = draw(st.lists(
        st.tuples(terms, st.sampled_from(PREDS + VARS[:2]), terms),
        min_size=2, max_size=4))
    bgp = [TriplePattern(s, p, o) for s, p, o in patterns]
    return graph, bgp


@given(data=graph_and_bgp(), seed=st.randoms(use_true_random=False))
@SETTINGS
def test_any_written_order_same_rows_same_plan(data, seed):
    graph, patterns = data
    shuffled = list(patterns)
    seed.shuffle(shuffled)

    canonical = reorder_patterns(graph, patterns)
    assert reorder_patterns(graph, shuffled) == canonical

    projected = sorted({v for p in patterns for v in p.variables()},
                       key=lambda v: v.name)
    if not projected:
        return
    text_for = lambda ordering: (
        "SELECT " + " ".join(f"?{v.name}" for v in projected) + " WHERE { "
        + " . ".join(
            " ".join(term.n3() if not isinstance(term, Variable)
                     else f"?{term.name}" for term in (p.subject,
                                                       p.predicate, p.object))
            for p in ordering) + " . }")
    query_a = SPARQLParser(text_for(patterns)).parse_query()
    query_b = SPARQLParser(text_for(shuffled)).parse_query()
    optimized_a = _multiset(QueryEvaluator(graph).evaluate(query_a))
    optimized_b = _multiset(QueryEvaluator(graph).evaluate(query_b))
    syntactic = _multiset(
        QueryEvaluator(graph, optimize_joins=False).evaluate(query_a))
    assert optimized_a == optimized_b == syntactic
