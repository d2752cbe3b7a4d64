"""Property-based tests (hypothesis) for core data structures and invariants.

These cover the invariants the rest of the platform silently relies on:
graph index consistency under arbitrary add/remove sequences, serialization
round-trips, split partitioning, metric ranges, autograd linearity, embedding
search ordering and the plan-choice cost model.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.gml.autograd import Parameter, Tensor, cross_entropy, softmax
from repro.gml.splits import SplitFractions, random_split, split_masks
from repro.gml.kge.base import ranking_metrics
from repro.gml.train.metrics import accuracy, f1_score
from repro.kgnet.gmlaas.embedding_store import FlatIndex
from repro.kgnet.sparqlml.optimizer import SPARQLMLOptimizer
from repro.rdf import Graph, IRI, Literal, Triple, Variable, parse_ntriples, serialize_ntriples
from repro.sparql import QueryEvaluator, ReferenceQueryEvaluator, SPARQLEndpoint
from repro.sparql.ast import (
    BGP,
    BinaryOp,
    ConstantExpr,
    FilterPattern,
    GroupPattern,
    OptionalPattern,
    SelectItem,
    SelectQuery,
    TriplePattern,
    VariableExpr,
)

SETTINGS = settings(max_examples=30, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

_local_names = st.text(alphabet="abcdefgh", min_size=1, max_size=4)


@st.composite
def iris(draw):
    return IRI("https://example.org/" + draw(_local_names))


@st.composite
def literals(draw):
    choice = draw(st.integers(0, 2))
    if choice == 0:
        return Literal(draw(st.text(alphabet="xyz ", max_size=8)))
    if choice == 1:
        return Literal(draw(st.integers(-1000, 1000)))
    return Literal(draw(st.floats(-100, 100, allow_nan=False, allow_infinity=False)))


@st.composite
def triples(draw):
    subject = draw(iris())
    predicate = draw(iris())
    obj = draw(st.one_of(iris(), literals()))
    return Triple(subject, predicate, obj)


# ---------------------------------------------------------------------------
# RDF graph invariants
# ---------------------------------------------------------------------------

class TestGraphProperties:
    @SETTINGS
    @given(st.lists(triples(), max_size=30))
    def test_add_is_idempotent_and_len_matches_distinct(self, triple_list):
        graph = Graph()
        graph.add_all(triple_list)
        assert len(graph) == len(set(triple_list))
        # Adding everything again must not change the size.
        graph.add_all(triple_list)
        assert len(graph) == len(set(triple_list))

    @SETTINGS
    @given(st.lists(triples(), max_size=30))
    def test_every_access_path_agrees(self, triple_list):
        graph = Graph()
        graph.add_all(triple_list)
        for triple in set(triple_list):
            assert triple in graph
            assert triple in list(graph.triples(triple.subject, None, None))
            assert triple in list(graph.triples(None, triple.predicate, None))
            assert triple in list(graph.triples(None, None, triple.object))

    @SETTINGS
    @given(st.lists(triples(), max_size=25), st.integers(0, 24))
    def test_remove_then_absent(self, triple_list, index):
        graph = Graph()
        graph.add_all(triple_list)
        if not triple_list:
            return
        victim = triple_list[index % len(triple_list)]
        graph.remove(*victim)
        assert victim not in graph
        assert graph.count(*victim) == 0

    @SETTINGS
    @given(st.lists(triples(), max_size=25))
    def test_ntriples_roundtrip(self, triple_list):
        graph = Graph()
        graph.add_all(triple_list)
        assert parse_ntriples(serialize_ntriples(graph)) == graph

    @SETTINGS
    @given(st.lists(triples(), max_size=20))
    def test_sparql_select_all_returns_every_triple(self, triple_list):
        graph = Graph()
        graph.add_all(triple_list)
        endpoint = SPARQLEndpoint()
        endpoint.load(graph)
        result = endpoint.select("SELECT ?s ?p ?o WHERE { ?s ?p ?o . }")
        assert len(result) == len(graph)


# ---------------------------------------------------------------------------
# Streaming evaluator vs seed evaluator equivalence
# ---------------------------------------------------------------------------

_QUERY_VARIABLES = (Variable("v0"), Variable("v1"), Variable("v2"))


def _solution_multiset(result) -> Counter:
    return Counter(frozenset(sol.items()) for sol in result)


@st.composite
def graphs_with_queries(draw):
    """A random graph plus a random BGP/OPTIONAL/FILTER/LIMIT SELECT over it.

    Patterns are seeded from the graph's own triples so joins actually hit;
    each component is kept as its concrete term or replaced by a variable.
    """
    triple_list = draw(st.lists(triples(), min_size=1, max_size=20))

    def random_pattern():
        base = draw(st.sampled_from(triple_list))
        components = []
        for term in base:
            if draw(st.booleans()):
                components.append(draw(st.sampled_from(_QUERY_VARIABLES)))
            else:
                components.append(term)
        return TriplePattern(*components)

    elements = [BGP([random_pattern()
                     for _ in range(draw(st.integers(1, 3)))])]
    if draw(st.booleans()):
        elements.append(OptionalPattern(GroupPattern([BGP([random_pattern()])])))
    if draw(st.booleans()):
        variable = draw(st.sampled_from(_QUERY_VARIABLES))
        constant = draw(st.sampled_from(triple_list)).object
        elements.append(FilterPattern(
            BinaryOp("=", VariableExpr(variable), ConstantExpr(constant))))
    if draw(st.booleans()):
        select_items, select_all = [], True
    else:
        chosen = draw(st.lists(st.sampled_from(_QUERY_VARIABLES),
                               min_size=1, max_size=3, unique=True))
        select_items, select_all = [SelectItem(expression=VariableExpr(v))
                                    for v in chosen], False
    query = SelectQuery(
        select_items=select_items,
        where=GroupPattern(elements),
        select_all=select_all,
        distinct=draw(st.booleans()),
        limit=draw(st.one_of(st.none(), st.integers(0, 8))),
    )
    return triple_list, query


class TestEvaluatorEquivalence:
    """The streaming id-space evaluator must match the frozen seed evaluator."""

    @SETTINGS
    @given(graphs_with_queries())
    def test_streaming_matches_seed_solution_multisets(self, case):
        triple_list, query = case
        graph = Graph()
        graph.add_all(triple_list)
        streaming = QueryEvaluator(graph).evaluate(query)
        seed = ReferenceQueryEvaluator(graph).evaluate(query)
        if query.limit is None:
            assert _solution_multiset(streaming) == _solution_multiset(seed)
        else:
            # With LIMIT both engines may pick different rows; sizes must
            # agree and every streamed row must be a valid unlimited row.
            assert len(streaming) == len(seed)
            unlimited = SelectQuery(
                select_items=query.select_items, where=query.where,
                select_all=query.select_all, distinct=query.distinct)
            full = _solution_multiset(ReferenceQueryEvaluator(graph).evaluate(unlimited))
            assert all(key in full for key in _solution_multiset(streaming))

    @SETTINGS
    @given(st.lists(triples(), min_size=1, max_size=20), triples(),
           st.integers(0, 19))
    def test_plan_cache_hits_never_serve_stale_results(self, triple_list,
                                                       extra, index):
        endpoint = SPARQLEndpoint()
        endpoint.load(triple_list)
        predicate = triple_list[index % len(triple_list)].predicate
        text = f"SELECT ?s ?o WHERE {{ ?s {predicate.n3()} ?o . }}"
        first = endpoint.select(text)
        assert not endpoint.history[-1].plan_cache_hit
        # Warm hit on the unchanged graph.
        endpoint.select(text)
        assert endpoint.history[-1].plan_cache_hit
        assert endpoint.plan_cache.stats()["hits"] > 0
        # Mutate, then re-issue the same text: the cached plan must
        # recompile and the answer must match a fresh evaluation.
        endpoint.graph.add(extra)
        victim = triple_list[index % len(triple_list)]
        endpoint.graph.remove(*victim)
        again = endpoint.select(text)
        fresh = ReferenceQueryEvaluator(endpoint.graph).evaluate(
            endpoint.parse(text))
        assert _solution_multiset(again) == _solution_multiset(fresh)
        assert len(first.variables) == len(again.variables)


# ---------------------------------------------------------------------------
# Splits
# ---------------------------------------------------------------------------

class TestSplitProperties:
    @SETTINGS
    @given(st.integers(3, 200), st.integers(0, 10_000))
    def test_random_split_partitions(self, num_nodes, seed):
        nodes = np.arange(num_nodes)
        train, valid, test = random_split(nodes, seed=seed)
        combined = np.concatenate([train, valid, test])
        assert sorted(combined.tolist()) == list(range(num_nodes))
        masks = split_masks(num_nodes, train, valid, test)
        assert sum(mask.sum() for mask in masks) == num_nodes

    @SETTINGS
    @given(st.floats(0.1, 0.8), st.integers(5, 300))
    def test_fraction_counts_sum(self, train_fraction, total):
        remainder = 1.0 - train_fraction
        fractions = SplitFractions(train_fraction, remainder / 2, remainder / 2)
        assert sum(fractions.counts(total)) == total


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

class TestMetricProperties:
    @SETTINGS
    @given(st.lists(st.integers(0, 4), min_size=1, max_size=50))
    def test_perfect_predictions_max_out_metrics(self, labels):
        labels = np.asarray(labels)
        assert accuracy(labels, labels) == 1.0
        assert f1_score(labels, labels, average="macro") == pytest.approx(1.0)

    @SETTINGS
    @given(st.lists(st.integers(0, 4), min_size=1, max_size=50),
           st.lists(st.integers(0, 4), min_size=1, max_size=50))
    def test_metrics_bounded(self, y_true, y_pred):
        size = min(len(y_true), len(y_pred))
        y_true, y_pred = np.asarray(y_true[:size]), np.asarray(y_pred[:size])
        assert 0.0 <= accuracy(y_true, y_pred) <= 1.0
        assert 0.0 <= f1_score(y_true, y_pred) <= 1.0

    @SETTINGS
    @given(st.lists(st.integers(1, 10_000), min_size=1, max_size=60))
    def test_ranking_metrics_bounded_and_monotone(self, ranks):
        ranks = np.asarray(ranks)
        metrics = ranking_metrics(ranks, ks=(1, 10, 100))
        assert 0.0 < metrics["mrr"] <= 1.0
        assert metrics["hits@1"] <= metrics["hits@10"] <= metrics["hits@100"]


# ---------------------------------------------------------------------------
# Autograd
# ---------------------------------------------------------------------------

class TestAutogradProperties:
    @SETTINGS
    @given(st.lists(st.floats(-5, 5, allow_nan=False), min_size=2, max_size=12),
           st.floats(-3, 3, allow_nan=False))
    def test_gradient_of_scaled_sum_is_scale(self, values, scale):
        parameter = Parameter(np.asarray(values))
        (parameter * scale).sum().backward()
        assert np.allclose(parameter.grad, scale)

    @SETTINGS
    @given(st.integers(2, 8), st.integers(2, 6))
    def test_softmax_rows_sum_to_one(self, rows, cols):
        rng = np.random.default_rng(rows * 13 + cols)
        probabilities = softmax(Tensor(rng.normal(size=(rows, cols)))).data
        assert np.allclose(probabilities.sum(axis=1), 1.0)
        assert (probabilities >= 0).all()

    @SETTINGS
    @given(st.integers(2, 8), st.integers(2, 5))
    def test_cross_entropy_non_negative(self, rows, classes):
        rng = np.random.default_rng(rows * 31 + classes)
        logits = Parameter(rng.normal(size=(rows, classes)))
        targets = rng.integers(0, classes, size=rows)
        loss = cross_entropy(logits, targets)
        assert loss.item() >= 0.0


# ---------------------------------------------------------------------------
# Embedding store and plan optimizer
# ---------------------------------------------------------------------------

class TestStoreAndPlannerProperties:
    @SETTINGS
    @given(st.integers(5, 40), st.integers(2, 8), st.integers(1, 5))
    def test_flat_index_scores_sorted_and_self_first(self, n, dim, k):
        rng = np.random.default_rng(n * dim)
        vectors = rng.normal(size=(n, dim))
        index = FlatIndex(dim=dim)
        index.add(vectors)
        scores, indices = index.search(vectors[:1], k=min(k, n))
        assert indices[0, 0] == 0
        assert (np.diff(scores[0]) <= 1e-12).all()

    @SETTINGS
    @given(st.integers(0, 100_000), st.integers(0, 100_000))
    def test_plan_choice_picks_cheaper_alternative(self, targets, cardinality):
        optimizer = SPARQLMLOptimizer()
        choice = optimizer.choose_plan(targets, cardinality)
        assert choice.estimated_cost == min(choice.alternatives.values())
        assert choice.plan in choice.alternatives
        if choice.plan == "dictionary":
            assert choice.estimated_http_calls == 1
        else:
            assert choice.estimated_http_calls == targets
