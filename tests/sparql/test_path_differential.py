"""Differential fuzzing for property paths: streaming engine vs. oracle.

Hypothesis generates random small graphs and random path expressions (every
operator, arbitrarily nested) and asserts that the streaming id-space
evaluator — BFS closure iterators, fresh-variable join rewrites — produces
exactly the same solution *multiset* as the naive fixed-point reference
oracle in :mod:`repro.sparql.reference`, which shares no code with it.

Endpoint shapes are drawn independently (both variables, bound subject,
bound object, both bound, same-variable), because closure evaluation picks
a different strategy per shape (forward BFS, backward BFS over the inverted
path, whole-graph enumeration) and each one has its own zero-length corner.

A serialize -> parse property pins the round-trip used by the SPARQL-ML
query re-writer, and a preemption property checks the differential pair
still agrees when the streaming side runs under a (non-firing) context.

``KGNET_STRESS=1`` scales example counts up for the dedicated CI job.
"""

from __future__ import annotations

import collections
import os

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.rdf import Graph, IRI, Triple
from repro.sparql import (
    AlternativePath,
    ExecutionContext,
    InversePath,
    LinkPath,
    MulPath,
    NegatedPath,
    QueryEvaluator,
    ReferenceQueryEvaluator,
    SPARQLParser,
    SequencePath,
    serialize_path,
)

STRESS = bool(os.environ.get("KGNET_STRESS"))
SETTINGS = settings(max_examples=200 if STRESS else 40, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

EX = "http://ex/"

#: Small closed vocabularies force dense graphs: collisions, cycles and
#: self-loops appear constantly instead of almost never.
NODES = [IRI(f"{EX}n{i}") for i in range(6)]
PREDICATES = [IRI(f"{EX}p{i}") for i in range(3)]


def graph_of(edges) -> Graph:
    graph = Graph()
    for s, p, o in edges:
        graph.add(Triple(s, p, o))
    return graph


@st.composite
def graphs(draw):
    return graph_of(draw(st.lists(
        st.tuples(st.sampled_from(NODES), st.sampled_from(PREDICATES),
                  st.sampled_from(NODES)),
        min_size=0, max_size=14)))


#: One edge that never mentions NODES[0], and p0* twice in a row.
ONE_EDGE = graph_of([(NODES[1], PREDICATES[0], NODES[2])])
STAR_STAR = SequencePath((MulPath(LinkPath(PREDICATES[0]), "*"),
                          MulPath(LinkPath(PREDICATES[0]), "*")))


def links():
    return st.sampled_from(PREDICATES).map(LinkPath)


@st.composite
def negated_sets(draw):
    forward = draw(st.lists(st.sampled_from(PREDICATES), max_size=2,
                            unique=True))
    inverse = draw(st.lists(st.sampled_from(PREDICATES), max_size=2,
                            unique=True))
    return NegatedPath(tuple(forward), tuple(inverse))


def paths(max_depth: int = 3):
    def extend(children):
        return st.one_of(
            children.map(InversePath),
            st.tuples(children, st.sampled_from("*+?")).map(
                lambda pair: MulPath(pair[0], pair[1])),
            st.lists(children, min_size=2, max_size=3).map(
                lambda steps: SequencePath(tuple(steps))),
            st.lists(children, min_size=2, max_size=3).map(
                lambda alts: AlternativePath(tuple(alts))),
        )
    return st.recursive(st.one_of(links(), negated_sets()), extend,
                        max_leaves=max_depth)


#: Endpoint shapes: (subject term or None, object term or None, same_var).
@st.composite
def endpoint_shapes(draw):
    shape = draw(st.integers(0, 4))
    if shape == 0:
        return None, None, False          # ?x path ?y
    if shape == 1:
        return draw(st.sampled_from(NODES)), None, False   # :n path ?y
    if shape == 2:
        return None, draw(st.sampled_from(NODES)), False   # ?x path :n
    if shape == 3:
        return (draw(st.sampled_from(NODES)),
                draw(st.sampled_from(NODES)), False)       # :n path :m
    return None, None, True               # ?x path ?x


def build_query(path, subject, object_, same_var):
    s_text = subject.n3() if subject is not None else "?x"
    o_text = object_.n3() if object_ is not None else ("?x" if same_var else "?y")
    return f"SELECT * WHERE {{ {s_text} {serialize_path(path)} {o_text} . }}"


def solution_multiset(result):
    if isinstance(result, bool):
        return result
    return collections.Counter(
        tuple(sorted((v.name, sol[v].n3()) for v in result.variables
                     if sol.get(v) is not None))
        for sol in result)


class TestPathDifferential:
    @SETTINGS
    @given(graphs(), paths(), endpoint_shapes())
    # (p*)+ from a term the graph never mentions still reaches that term.
    @example(Graph(), MulPath(MulPath(LinkPath(PREDICATES[0]), "*"), "+"),
             (NODES[0], None, False))
    @example(Graph(), MulPath(MulPath(LinkPath(PREDICATES[0]), "?"), "+"),
             (NODES[0], NODES[0], False))
    # A sequence joins its steps through a fresh variable, and p0* between
    # two variables pairs graph nodes only (SPARQL 1.1 §18.2.2.4, §18.5):
    # a term the graph never mentions passes the first step but not the
    # second — 0 rows from either end, and inside a closure.
    @example(ONE_EDGE, STAR_STAR, (None, NODES[0], False))
    @example(ONE_EDGE, STAR_STAR, (NODES[0], None, False))
    @example(ONE_EDGE, MulPath(STAR_STAR, "+"), (NODES[0], None, False))
    def test_streaming_matches_reference_oracle(self, graph, path, shape):
        subject, object_, same_var = shape
        query = SPARQLParser(build_query(path, subject, object_, same_var)).parse()
        streaming = solution_multiset(QueryEvaluator(graph).evaluate(query))
        reference = solution_multiset(
            ReferenceQueryEvaluator(graph).evaluate(query))
        assert streaming == reference

    def test_zero_length_stops_at_a_fresh_variable(self):
        # Agreement alone could hide both engines being wrong: pin the
        # answers.  A constant endpoint is reached from itself; through a
        # variable at both ends (fresh or written out) only graph nodes are.
        n0, p0 = NODES[0].n3(), PREDICATES[0].n3()
        expected = {
            f"?x {p0}* {n0}": 1,
            f"{n0} {p0}* ?x": 1,
            f"{n0} {p0}*/{p0}* {n0}": 1,
            f"?x {p0}*/{p0}* {n0}": 0,
            f"{n0} {p0}*/{p0}* ?x": 0,
            f"?x {p0}* ?v . ?v {p0}* {n0}": 0,
            f"?v {p0}* {n0} . ?x {p0}* ?v": 0,
            f"{n0} ({p0}*/{p0}*)+ ?x": 0,
        }
        for where, rows in expected.items():
            query = SPARQLParser(f"SELECT * WHERE {{ {where} }}").parse()
            for engine in (QueryEvaluator, ReferenceQueryEvaluator):
                answer = solution_multiset(engine(ONE_EDGE).evaluate(query))
                assert sum(answer.values()) == rows, (engine.__name__, where)

    @SETTINGS
    @given(graphs(), paths())
    def test_ask_agrees(self, graph, path):
        query = SPARQLParser(
            f"ASK {{ ?x {serialize_path(path)} ?y . }}").parse()
        assert (QueryEvaluator(graph).evaluate(query)
                == ReferenceQueryEvaluator(graph).evaluate(query))

    @SETTINGS
    @given(paths())
    def test_serialize_parse_round_trip(self, path):
        rendered = serialize_path(path)
        parsed = SPARQLParser(
            f"SELECT * WHERE {{ ?s {rendered} ?o . }}").parse()
        element = parsed.where.elements[0]
        reparsed = getattr(element, "path", None)
        if reparsed is None:
            # A bare link collapses to a triple pattern; its predicate is
            # the link IRI.
            assert isinstance(path, LinkPath)
            assert element.triples[0].predicate == path.iri
        else:
            assert reparsed == path

    @SETTINGS
    @given(graphs(), paths(), endpoint_shapes())
    def test_non_firing_context_is_transparent(self, graph, path, shape):
        # A generous deadline must not change any answer: checkpoints in
        # the closure iterators are observation points, not filters.
        subject, object_, same_var = shape
        query = SPARQLParser(build_query(path, subject, object_, same_var)).parse()
        plain = solution_multiset(QueryEvaluator(graph).evaluate(query))
        guarded = solution_multiset(
            QueryEvaluator(graph, execution=ExecutionContext(timeout=60.0))
            .evaluate(query))
        assert plain == guarded

    @SETTINGS
    @given(graphs(), paths())
    def test_path_joined_with_bgp_agrees(self, graph, path):
        # Paths compose with ordinary joins: the fresh-variable rewrite and
        # the closure iterators must thread incoming bindings correctly.
        query = SPARQLParser(
            f"SELECT * WHERE {{ ?x <{EX}p0> ?m . "
            f"?m {serialize_path(path)} ?y . }}").parse()
        streaming = solution_multiset(QueryEvaluator(graph).evaluate(query))
        reference = solution_multiset(
            ReferenceQueryEvaluator(graph).evaluate(query))
        assert streaming == reference
