"""SPARQL 1.1 property paths: conformance corpus, plans, preemption.

The corpus under ``tests/fixtures/path_corpus/`` is the golden contract for
path semantics (W3C-style: data + query + expected solutions per case), and
every case runs against BOTH evaluators — the streaming id-space engine and
the naive fixed-point reference — so the two implementations are pinned to
the same answers, not merely to each other.

The unit tests below the corpus runner pin the layers individually: the
grammar (operator precedence, AST shapes, the bare-IRI collapse that keeps
path-free queries on the plain triple-pattern fast path), the serializer
round-trip, ``explain()`` plan exposure, plan-cache epoch invalidation for
path queries, and the preemption contract (a closure over a large cyclic
graph is interrupted by its deadline with partial-progress statistics).
"""

from __future__ import annotations

import collections
import json
import os
import time
from pathlib import Path

import pytest

from repro.exceptions import ParseError, QueryTimeout, UnsupportedFeatureError
from repro.rdf import Graph, IRI, RDF_TYPE, Triple
from repro.rdf.io import parse_turtle
from repro.sparql import (
    AlternativePath,
    ClosurePattern,
    ExecutionContext,
    InversePath,
    LinkPath,
    MulPath,
    NegatedPath,
    PathPattern,
    QueryEvaluator,
    ReferenceQueryEvaluator,
    SPARQLEndpoint,
    SPARQLParser,
    SequencePath,
    is_fresh_path_variable,
    serialize_path,
    serialize_query,
)
from repro.sparql.ast import BGP, TriplePattern

CORPUS_DIR = Path(__file__).resolve().parent.parent / "fixtures" / "path_corpus"

EX = "http://ex/"


def load_corpus():
    cases = []
    for path in sorted(CORPUS_DIR.glob("*.json")):
        with open(path) as fh:
            document = json.load(fh)
        for case in document["cases"]:
            cases.append(pytest.param(document["prefixes"], case,
                                      id=f"{path.stem}:{case['name']}"))
    return cases


CORPUS = load_corpus()


def turtle_header(prefixes):
    return "".join(f"@prefix {p}: <{iri}> .\n" for p, iri in prefixes.items())


def sparql_header(prefixes):
    return "".join(f"PREFIX {p}: <{iri}>\n" for p, iri in prefixes.items())


def run_case(evaluator_cls, prefixes, case):
    graph = parse_turtle(turtle_header(prefixes) + case["data"])
    parsed = SPARQLParser(sparql_header(prefixes) + case["query"]).parse()
    result = evaluator_cls(graph).evaluate(parsed)
    if isinstance(result, bool):
        return {"ask": result}
    return [{v.name: sol[v].n3() for v in result.variables
             if sol.get(v) is not None} for sol in result]


def multiset(rows):
    return collections.Counter(tuple(sorted(r.items())) for r in rows)


class TestPathCorpus:
    def test_corpus_is_substantial(self):
        # The conformance contract: at least 40 golden cases across every
        # operator family (a shrunk corpus is a silently weakened spec).
        assert len(CORPUS) >= 40
        families = {param.id.split(":")[0] for param in CORPUS}
        assert {"seq", "alt", "inverse", "star", "plus", "opt",
                "negated", "nested", "cycles", "zero_length"} <= families

    @pytest.mark.parametrize("prefixes,case", CORPUS)
    def test_streaming_evaluator_matches_golden(self, prefixes, case):
        got = run_case(QueryEvaluator, prefixes, case)
        expected = case["expected"]
        if isinstance(expected, dict):
            assert got == expected
        else:
            assert multiset(got) == multiset(expected)

    @pytest.mark.parametrize("prefixes,case", CORPUS)
    def test_reference_evaluator_matches_golden(self, prefixes, case):
        got = run_case(ReferenceQueryEvaluator, prefixes, case)
        expected = case["expected"]
        if isinstance(expected, dict):
            assert got == expected
        else:
            assert multiset(got) == multiset(expected)


# ---------------------------------------------------------------------------
# Grammar and AST shapes
# ---------------------------------------------------------------------------
def parse_path(path_text: str):
    query = SPARQLParser(
        f"SELECT * WHERE {{ ?s {path_text} ?o . }}").parse()
    element = query.where.elements[0]
    assert isinstance(element, PathPattern)
    return element.path


class TestPathGrammar:
    def test_bare_iri_stays_a_plain_triple_pattern(self):
        # No path operators -> the pattern must stay on the compiled
        # triple-pattern fast path (plan caching, SPARQL-ML rewriting).
        query = SPARQLParser(
            f"SELECT * WHERE {{ ?s <{EX}p> ?o . }}").parse()
        element = query.where.elements[0]
        assert isinstance(element, BGP)
        assert isinstance(element.triples[0], TriplePattern)

    def test_alternative_binds_loosest(self):
        path = parse_path(f"<{EX}a>/<{EX}b>|<{EX}c>")
        assert isinstance(path, AlternativePath)
        assert isinstance(path.alternatives[0], SequencePath)
        assert path.alternatives[1] == LinkPath(IRI(EX + "c"))

    def test_inverse_binds_tighter_than_sequence(self):
        path = parse_path(f"^<{EX}a>/<{EX}b>")
        assert isinstance(path, SequencePath)
        assert path.steps[0] == InversePath(LinkPath(IRI(EX + "a")))

    def test_modifier_binds_tightest(self):
        path = parse_path(f"^<{EX}a>*")
        assert path == InversePath(MulPath(LinkPath(IRI(EX + "a")), "*"))

    @pytest.mark.parametrize("modifier", ["*", "+", "?"])
    def test_all_modifiers_parse(self, modifier):
        path = parse_path(f"<{EX}p>{modifier}")
        assert path == MulPath(LinkPath(IRI(EX + "p")), modifier)

    def test_grouping_overrides_precedence(self):
        path = parse_path(f"(<{EX}a>|<{EX}b>)/<{EX}c>")
        assert isinstance(path, SequencePath)
        assert isinstance(path.steps[0], AlternativePath)

    def test_a_keyword_in_paths(self):
        path = parse_path(f"a/<{EX}p>")
        assert path.steps[0] == LinkPath(RDF_TYPE)

    def test_negated_set_with_inverse_members(self):
        path = parse_path(f"!(<{EX}p>|^<{EX}q>|a)")
        assert isinstance(path, NegatedPath)
        assert path.forward == (IRI(EX + "p"), RDF_TYPE)
        assert path.inverse == (IRI(EX + "q"),)

    def test_empty_negated_set(self):
        path = parse_path("!()")
        assert path == NegatedPath((), ())
        assert path.match_forward and not path.match_inverse

    def test_qname_sequence_lexes_as_path(self):
        query = SPARQLParser(
            "PREFIX ex: <http://ex/>\n"
            "SELECT * WHERE { ?s ex:p/ex:q ?o . }").parse()
        path = query.where.elements[0].path
        assert path == SequencePath((LinkPath(IRI(EX + "p")),
                                     LinkPath(IRI(EX + "q"))))

    def test_slash_local_names_still_lex_whole(self):
        # KGNet-style IRIs keep '/' inside local names when it does not
        # start another prefixed name.
        query = SPARQLParser(
            "PREFIX dblp: <http://dblp.org/>\n"
            "SELECT * WHERE { ?s dblp:paper/1 ?o . }").parse()
        element = query.where.elements[0]
        assert isinstance(element, BGP)
        assert element.triples[0].predicate == IRI("http://dblp.org/paper/1")

    def test_paths_rejected_in_construct_template(self):
        with pytest.raises(ParseError):
            SPARQLParser(
                f"CONSTRUCT {{ ?s <{EX}p>+ ?o }} "
                f"WHERE {{ ?s <{EX}p> ?o }}").parse()

    def test_paths_rejected_in_delete_where_template(self):
        with pytest.raises(UnsupportedFeatureError):
            SPARQLParser(
                f"DELETE WHERE {{ ?s <{EX}p>+ ?o }}").parse()


# ---------------------------------------------------------------------------
# Serializer round-trip
# ---------------------------------------------------------------------------
ROUND_TRIP_PATHS = [
    f"^<{EX}p>",
    f"<{EX}p>/<{EX}q>",
    f"<{EX}p>|<{EX}q>",
    f"<{EX}p>*",
    f"<{EX}p>+",
    f"<{EX}p>?",
    f"!<{EX}p>",
    f"!(<{EX}p>|^<{EX}q>)",
    f"^(<{EX}p>/<{EX}q>)",
    f"(<{EX}p>|<{EX}q>)/<{EX}r>",
    f"((<{EX}p>*)+)?",
    f"<{EX}p>/(<{EX}q>|^<{EX}r>)*",
]


class TestPathSerializer:
    @pytest.mark.parametrize("text", ROUND_TRIP_PATHS)
    def test_serialize_parse_round_trip(self, text):
        path = parse_path(text)
        rendered = serialize_path(path)
        assert parse_path(rendered) == path

    def test_bare_link_serializes_as_its_iri(self):
        # A bare link never reaches the serializer from the parser (it
        # collapses to a plain triple pattern), but rewrites build them.
        assert serialize_path(LinkPath(IRI(EX + "p"))) == f"<{EX}p>"

    def test_whole_query_round_trip(self):
        query = SPARQLParser(
            f"SELECT ?s WHERE {{ ?s (<{EX}p>|^<{EX}q>)+ ?o . "
            f"?o <{EX}r> ?v . }}").parse()
        text = serialize_query(query)
        reparsed = SPARQLParser(text).parse()
        assert serialize_query(reparsed) == text


# ---------------------------------------------------------------------------
# explain(): rewritten patterns and closure nodes
# ---------------------------------------------------------------------------
def find_nodes(plan, kind):
    found = []
    stack = list(plan)
    while stack:
        node = stack.pop()
        if node.get("node") == kind:
            found.append(node)
        for key in ("rewritten", "children"):
            stack.extend(node.get(key, []))
        for branch in node.get("branches", []):
            stack.extend(branch)
    return found


class TestExplain:
    def endpoint(self):
        endpoint = SPARQLEndpoint()
        endpoint.load([Triple(IRI(f"{EX}a"), IRI(f"{EX}p"), IRI(f"{EX}b")),
                       Triple(IRI(f"{EX}b"), IRI(f"{EX}q"), IRI(f"{EX}c"))])
        return endpoint

    def test_path_node_exposes_rewrite_and_closure(self):
        plan = self.endpoint().explain(
            f"SELECT * WHERE {{ ?s <{EX}p>/<{EX}q>+ ?o . }}")
        assert plan["kind"] == "SELECT"
        paths = find_nodes(plan["plan"], "path")
        assert len(paths) == 1
        assert paths[0]["path"] == f"<{EX}p>/<{EX}q>+"
        assert paths[0]["fresh_variables"]  # the seq introduced a join var
        closures = find_nodes(plan["plan"], "closure")
        assert closures and closures[0]["modifier"] == "+"
        assert closures[0]["iterator"] == "bfs-closure"

    def test_alternative_rewrites_to_union(self):
        plan = self.endpoint().explain(
            f"SELECT * WHERE {{ ?s <{EX}p>|<{EX}q> ?o . }}")
        assert find_nodes(plan["plan"], "union")

    def test_negated_set_surfaces_as_iterator_node(self):
        plan = self.endpoint().explain(
            f"SELECT * WHERE {{ ?s !(<{EX}p>|^<{EX}q>) ?o . }}")
        negated = find_nodes(plan["plan"], "negated-property-set")
        assert negated and negated[0]["path"] == f"!(<{EX}p>|^<{EX}q>)"

    def test_bgp_join_order_is_exposed(self):
        plan = self.endpoint().explain(
            f"SELECT * WHERE {{ ?s ?p ?o . ?o <{EX}q> ?v . }}")
        bgps = find_nodes(plan["plan"], "bgp")
        assert bgps and bgps[0]["join_order_optimized"]
        # The selective constant-predicate pattern is joined first.
        assert bgps[0]["patterns"][0].endswith(f"<{EX}q> ?v")

    def test_explain_is_json_serializable_and_side_effect_free(self):
        endpoint = self.endpoint()
        plan = endpoint.explain(f"SELECT * WHERE {{ ?s <{EX}p>* ?o . }}")
        json.dumps(plan)
        assert len(endpoint.history) == 0  # no statistics recorded


# ---------------------------------------------------------------------------
# Plan cache: path queries invalidate on mutation like everything else
# ---------------------------------------------------------------------------
class TestPathPlanCache:
    def test_epoch_invalidation_recomputes_closure(self):
        endpoint = SPARQLEndpoint()
        endpoint.load([Triple(IRI(f"{EX}n0"), IRI(f"{EX}p"), IRI(f"{EX}n1"))])
        query = f"SELECT ?y WHERE {{ <{EX}n0> <{EX}p>+ ?y . }}"
        assert len(endpoint.select(query)) == 1
        assert len(endpoint.select(query)) == 1
        assert endpoint.plan_cache.hits >= 1

        before = endpoint.plan_cache.invalidations
        endpoint.update(
            f"INSERT DATA {{ <{EX}n1> <{EX}p> <{EX}n2> . }}")
        # The cached parse is reused but the compiled closure recompiles
        # against the new epoch — the BFS must see the new edge.
        result = endpoint.select(query)
        assert endpoint.plan_cache.invalidations > before
        assert len(result) == 2

    def test_fresh_variables_do_not_leak_into_select_star(self):
        endpoint = SPARQLEndpoint()
        endpoint.load([Triple(IRI(f"{EX}a"), IRI(f"{EX}p"), IRI(f"{EX}b")),
                       Triple(IRI(f"{EX}b"), IRI(f"{EX}q"), IRI(f"{EX}c"))])
        result = endpoint.select(
            f"SELECT * WHERE {{ ?s <{EX}p>/<{EX}q> ?o . }}")
        names = {v.name for v in result.variables}
        assert names == {"s", "o"}
        for solution in result:
            assert not any(is_fresh_path_variable(v) for v in solution)


# ---------------------------------------------------------------------------
# Preemption: closures respect deadlines with partial progress
# ---------------------------------------------------------------------------
def ring_graph(n: int) -> Graph:
    graph = Graph()
    p = IRI(f"{EX}p")
    for i in range(n):
        graph.add(IRI(f"{EX}n{i}"), p, IRI(f"{EX}n{(i + 1) % n}"))
    return graph


class TestClosurePreemption:
    def test_star_over_dense_cycle_respects_deadline(self):
        # Both endpoints unbound over a 10k-node ring: 10k BFS runs of 10k
        # nodes each — unbounded in test time without interruption.
        graph = ring_graph(10_000)
        parsed = SPARQLParser(
            f"SELECT ?x ?y WHERE {{ ?x <{EX}p>+ ?y . }}").parse()
        deadline = 0.25
        context = ExecutionContext(timeout=deadline)
        evaluator = QueryEvaluator(graph, execution=context)
        started = time.perf_counter()
        with pytest.raises(QueryTimeout) as info:
            evaluator.evaluate(parsed)
        elapsed = time.perf_counter() - started
        # Typed, with partial progress, within 2x the deadline: the BFS
        # frontier loop checkpoints, it does not run to exhaustion.
        assert info.value.work_units > 0
        assert info.value.elapsed_seconds >= deadline
        assert elapsed < 2 * deadline

    def test_directed_closure_respects_deadline(self):
        graph = ring_graph(10_000)
        # Repeated bound-subject closures: each BFS walks the full ring.
        parsed = SPARQLParser(
            f"SELECT ?m ?y WHERE {{ ?x <{EX}p> ?m . "
            f"?m <{EX}p>* ?y . }}").parse()
        context = ExecutionContext(timeout=0.25)
        evaluator = QueryEvaluator(graph, execution=context)
        with pytest.raises(QueryTimeout) as info:
            evaluator.evaluate(parsed)
        assert info.value.work_units > 0

    def test_closure_without_context_is_unaffected(self):
        graph = ring_graph(50)
        parsed = SPARQLParser(
            f"SELECT ?y WHERE {{ <{EX}n0> <{EX}p>* ?y . }}").parse()
        result = QueryEvaluator(graph).evaluate(parsed)
        assert len(result) == 50

    def test_negated_scan_respects_work_budget(self):
        from repro.exceptions import QueryPreempted

        graph = ring_graph(5_000)
        parsed = SPARQLParser(
            f"SELECT ?x ?y WHERE {{ ?x !<{EX}q> ?y . }}").parse()
        context = ExecutionContext(max_work=500)
        evaluator = QueryEvaluator(graph, execution=context)
        with pytest.raises(QueryPreempted):
            evaluator.evaluate(parsed)
