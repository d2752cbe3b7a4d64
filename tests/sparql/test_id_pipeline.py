"""Differential proofs at the seams of the id-row pipeline.

The streaming evaluator moves term ids from index scan to socket and decodes
once, at the edge that needs a ``Term``.  Three seams carry that design, and
each is pinned here against an independent implementation:

* **compiled expressions** — Hypothesis-generated expression ASTs over rows
  with unbound cells, overlay ids, numerically-equal literals in different
  lexical forms and constants the dictionary has never seen: the compiled
  closure must equal the tree-walking ``evaluate_expression`` on the decoded
  row, including the errors it raises;
* **id rows** — one query per ``query_cold`` class, plus BIND / VALUES /
  aggregate / UDF queries whose computed terms are joined or DISTINCT-ed
  against stored ones, and HAVING over aggregates, aliases and errors:
  solution multisets must equal ``ReferenceQueryEvaluator``'s;
* **id-keyed serializers** — for JSON, XML, CSV and TSV the streamed body
  must be byte-identical to the writer run over the decoded ``ResultSet``.

A fourth test pins the accounting (``pattern_lookups``, ``num_results``,
``explain(analyze=True)``) to golden values recorded at the parent commit.
"""

from __future__ import annotations

import json
import os
import re
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.rdf import BNode, Graph, IRI, Literal, Variable
from repro.rdf.dictionary import DictionaryOverlay
from repro.rdf.terms import RDF_TYPE, XSD_DOUBLE, XSD_INTEGER
from repro.sparql import (
    QueryEvaluator,
    ReferenceQueryEvaluator,
    ResultSet,
    Solution,
    SPARQLEndpoint,
    UDFRegistry,
    parse_query,
)
from repro.sparql.ast import (
    BinaryOp,
    ConstantExpr,
    ExistsExpr,
    FunctionCall,
    GroupPattern,
    InExpr,
    UnaryOp,
    VariableExpr,
)
from repro.sparql.functions import (
    EvaluationContext,
    OpaqueValue,
    compile_expression,
    compile_filter,
    effective_boolean_value,
    evaluate_expression,
)
from repro.sparql.results.serialize import (
    MEDIA_CSV,
    MEDIA_JSON,
    MEDIA_TSV,
    MEDIA_XML,
    serialize_result,
)

EX = "http://example.org/idrows/"
STRESS = bool(os.environ.get("KGNET_STRESS"))
GOLDEN = Path(__file__).parent.parent / "fixtures" / "id_pipeline" / "accounting.json"


def e(name: str) -> IRI:
    return IRI(EX + name)


def build_graph() -> Graph:
    """A small typed graph with hubs, a cycle and awkward literals."""
    graph = Graph()
    for i in range(60):
        node = e(f"e{i}")
        graph.add(node, RDF_TYPE, e(f"T{i % 4}"))
        graph.add(node, e("p0"), e(f"e{(i * 7 + 1) % 60}"))
        graph.add(node, e("p1"), e(f"e{i % 5}"))           # five hubs
        if i % 3 == 0:
            graph.add(node, e("p2"), e(f"e{(i + 3) % 60}"))
        graph.add(node, e("num"), Literal(i % 6))
    # Numerically equal, lexically different; language-tagged vs plain.
    graph.add(e("e0"), e("num"), Literal("1.0", datatype=XSD_DOUBLE))
    graph.add(e("e1"), e("num"), Literal("01", datatype=XSD_INTEGER))
    graph.add(e("e2"), e("label"), Literal("chat", language="fr"))
    graph.add(e("e3"), e("label"), Literal("chat"))
    graph.add(e("e4"), e("label"), BNode("anon"))
    return graph


def solution_multiset(result: ResultSet) -> Counter:
    return Counter(
        tuple(sorted((var.name, term.n3()) for var, term in solution.items()))
        for solution in result)


# ---------------------------------------------------------------------------
# The overlay itself
# ---------------------------------------------------------------------------

class TestDictionaryOverlay:
    def test_stored_terms_keep_their_id_and_unseen_ones_never_intern(self):
        graph = build_graph()
        dictionary = graph.dictionary
        size = len(dictionary)
        overlay = DictionaryOverlay(dictionary)
        stored = e("e7")
        assert overlay.encode(stored) == dictionary.lookup(stored) >= 0
        unseen = [Literal("never stored"), e("nowhere"), OpaqueValue({"k": 1})]
        ids = [overlay.encode(term) for term in unseen]
        assert all(term_id < 0 for term_id in ids) and len(set(ids)) == 3
        assert [overlay.encode(term) for term in unseen] == ids   # stable
        assert [overlay.decode(term_id) for term_id in ids] == unseen
        assert overlay.decode(dictionary.lookup(stored)) == stored
        assert len(dictionary) == size and len(overlay) == 3

    def test_a_private_id_survives_a_concurrent_intern(self):
        graph = build_graph()
        overlay = DictionaryOverlay(graph.dictionary)
        late = e("interned-later")
        private = overlay.encode(late)
        graph.add(late, e("p0"), e("e1"))      # a writer interns the term
        assert overlay.encode(late) == private


# ---------------------------------------------------------------------------
# (a) compiled closure == tree-walking oracle
# ---------------------------------------------------------------------------

VARIABLES = [Variable("a"), Variable("b"), Variable("c")]
UNSLOTTED = Variable("nowhere")
SLOTS = {variable: index for index, variable in enumerate(VARIABLES)}

STORED_TERMS = [
    e("e0"), e("e1"), e("T1"), BNode("anon"),
    Literal(1), Literal("1.0", datatype=XSD_DOUBLE),
    Literal("01", datatype=XSD_INTEGER), Literal(0), Literal(5),
    Literal("chat"), Literal("chat", language="fr"), Literal(""),
]
UNSTORED_TERMS = [
    e("unstored"), BNode("fresh"), Literal("1", datatype=XSD_DOUBLE),
    Literal(2.5), Literal("abc", datatype=XSD_INTEGER), Literal(True),
    Literal("zebra"), Literal("Chat", language="en"),
]
ALL_TERMS = STORED_TERMS + UNSTORED_TERMS


def expression_graph() -> Graph:
    graph = build_graph()
    for index, term in enumerate(STORED_TERMS):
        graph.add(e(f"holder{index}"), e("holds"), term)
    return graph


leaves = st.one_of(
    st.sampled_from(VARIABLES + [UNSLOTTED]).map(VariableExpr),
    st.sampled_from(ALL_TERMS).map(ConstantExpr),
)


def composites(children):
    binary_ops = ["&&", "||", "=", "!=", "<", "<=", ">", ">=", "+", "-", "*", "/"]
    calls = st.one_of(
        st.tuples(st.just("BOUND"), st.tuples(children)),
        st.tuples(st.just("IF"), st.tuples(children, children, children)),
        st.tuples(st.just("COALESCE"), st.lists(children, min_size=0, max_size=3)
                  .map(tuple)),
        st.tuples(st.sampled_from(["STR", "ISIRI", "ISNUMERIC", "DATATYPE",
                                   "LANG", "ABS", "STRLEN", "UCASE",
                                   "ex:twice", "ex:nosuch"]),
                  st.tuples(children)),
        st.tuples(st.sampled_from(["REGEX", "sameTerm"]),
                  st.tuples(children, children)),
    ).map(lambda call: FunctionCall(call[0], tuple(call[1])))
    # ``?y >= 2000``: the compiler derives a numeric constant's order key
    # once, not per row ("abc"^^xsd:integer is numeric by type only).
    ordered = st.sampled_from(["<", "<=", ">", ">="])
    numeric = st.sampled_from([term for term in ALL_TERMS if isinstance(
        term, Literal) and term.is_numeric()]).map(ConstantExpr)
    return st.one_of(
        st.builds(UnaryOp, st.sampled_from(["!", "-", "+"]), children),
        st.builds(BinaryOp, st.sampled_from(binary_ops), children, children),
        st.builds(BinaryOp, ordered, children, numeric),
        st.builds(BinaryOp, ordered, numeric, children),
        st.builds(InExpr, children,
                  st.lists(children, min_size=0, max_size=3).map(tuple),
                  st.booleans()),
        st.builds(ExistsExpr, st.just(GroupPattern([])), st.booleans()),
        calls,
    )


expressions = st.recursive(leaves, composites, max_leaves=8)
cells = st.one_of(st.none(), st.sampled_from(ALL_TERMS),
                  st.just(OpaqueValue({"opaque": 1})))
rows = st.lists(cells, min_size=len(VARIABLES), max_size=len(VARIABLES))


NOTHING_TWICE = [None, None]


def outcome(call):
    try:
        return ("value", call())
    except Exception as error:  # noqa: BLE001 - the error IS the outcome
        return ("raised", type(error), str(error))


class TestCompiledExpressions:
    @settings(max_examples=1500 if STRESS else 300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(expression=expressions, terms=rows)
    def test_compiled_equals_tree_walker(self, expression, terms):
        graph = expression_graph()
        overlay = DictionaryOverlay(graph.dictionary)
        udfs = UDFRegistry()
        # OpaqueValue equality is identity of the wrapped object: share it.
        udfs.register("ex:twice", lambda value: NOTHING_TWICE
                      if value is None else str(value) * 2)
        row = [None if term is None else overlay.encode(term) for term in terms]
        solution = Solution({variable: term for variable, term
                             in zip(VARIABLES, terms) if term is not None})
        # EXISTS { } stands in for "?a is bound", answered per engine.
        oracle = EvaluationContext(
            udfs=udfs, exists_evaluator=lambda pattern, sol: VARIABLES[0] in sol)
        compiled = EvaluationContext(
            udfs=udfs, terms=overlay,
            exists_evaluator=lambda pattern, cells, slots:
                cells[slots[VARIABLES[0]]] is not None)

        expected = outcome(lambda: evaluate_expression(expression, solution, oracle))
        value_of = compile_expression(expression, SLOTS, graph.dictionary)
        assert outcome(lambda: value_of(row, compiled)) == expected
        test = compile_filter(expression, SLOTS, graph.dictionary)
        if expected[0] == "value":
            assert test(row, compiled) is effective_boolean_value(expected[1])
        else:
            assert outcome(lambda: test(row, compiled)) == expected

    def test_constant_subexpressions_fold_but_their_errors_stay_per_row(self):
        graph = expression_graph()
        context = EvaluationContext(terms=DictionaryOverlay(graph.dictionary))
        folded = compile_expression(
            BinaryOp("+", ConstantExpr(Literal(2)), ConstantExpr(Literal(3))),
            SLOTS, graph.dictionary)
        assert folded(None, None) == Literal(5)          # no row, no context
        broken = compile_expression(
            BinaryOp("/", ConstantExpr(Literal(1)), ConstantExpr(Literal(0))),
            SLOTS, graph.dictionary)                     # compiling is fine
        with pytest.raises(Exception, match="division by zero"):
            broken([None, None, None], context)

    def test_iri_comparisons_never_decode(self):
        graph = expression_graph()
        stored = graph.dictionary.lookup(e("e0"))

        class NoDecode:
            def decode(self, term_id):
                raise AssertionError(f"decoded id {term_id}")

        context = EvaluationContext(terms=NoDecode())
        variable = VariableExpr(VARIABLES[0])
        differs = compile_filter(
            BinaryOp("!=", variable, ConstantExpr(e("e1"))), SLOTS, graph.dictionary)
        listed = compile_filter(
            InExpr(variable, (ConstantExpr(e("e0")), ConstantExpr(e("T1")))),
            SLOTS, graph.dictionary)
        bound = compile_filter(FunctionCall("BOUND", (variable,)),
                               SLOTS, graph.dictionary)
        same = compile_filter(
            FunctionCall("sameTerm", (variable, VariableExpr(VARIABLES[1]))),
            SLOTS, graph.dictionary)
        same_literal = compile_filter(
            FunctionCall("sameTerm", (variable, ConstantExpr(Literal(1)))),
            SLOTS, graph.dictionary)
        assert differs([stored, None, None], context) is True
        assert listed([stored, None, None], context) is True
        assert bound([stored, None, None], context) is True
        # Unbound satisfies neither = nor !=.
        assert differs([None, None, None], context) is False
        # sameTerm is the id compare itself — slots and stored constants of
        # any kind, private ids included; 1 and 1.0 are different terms.
        one = graph.dictionary.lookup(Literal(1))
        one_point_zero = graph.dictionary.lookup(Literal("1.0", datatype=XSD_DOUBLE))
        assert same([stored, stored, None], context) is True
        assert same([-1, -1, None], context) is True
        assert same([-1, -2, None], context) is False
        assert same([stored, None, None], context) is False
        assert same([None, None, None], context) is False
        assert same_literal([one, None, None], context) is True
        assert same_literal([one_point_zero, None, None], context) is False


# ---------------------------------------------------------------------------
# (b) id-row pipeline == ReferenceQueryEvaluator
# ---------------------------------------------------------------------------

P = f"PREFIX ex: <{EX}>\n"
COLD_CLASS_QUERIES = {
    "join": "SELECT ?a ?b ?c WHERE { ?a a ex:T1 . ?a ex:p0 ?b . ?b ex:p1 ?c . "
            "FILTER(?c != ex:e3) }",
    "star": "SELECT ?s ?a ?b WHERE { ?s a ex:T2 . ?s ex:p0 ?a . ?s ex:p1 ?b . "
            "FILTER(?a != ex:e15) }",
    "agg": "SELECT ?t (COUNT(?s) AS ?n) WHERE { ?s ex:p1 ex:e2 . ?s a ?t . "
           "FILTER(?s != ex:e7) } GROUP BY ?t",
    "optional": "SELECT ?s ?o WHERE { ?s a ex:T0 . OPTIONAL { ?s ex:p2 ?o } "
                "FILTER(!BOUND(?o) || ?o != ex:e3) }",
    "path": "SELECT ?s WHERE { ?s ex:p0+ ex:e1 . FILTER(?s != ex:e8) }",
}
COMPUTED_TERM_QUERIES = [
    # BIND of a stored term, then joined: the computed id IS the stored id.
    "SELECT ?s ?t WHERE { BIND(ex:e5 AS ?s) ?s a ?t }",
    'SELECT ?s ?o WHERE { BIND(IRI(CONCAT(STR(ex:e), "9")) AS ?s) ?s ex:p0 ?o }',
    # An unstored computed term joins with nothing, but survives OPTIONAL.
    "SELECT ?s ?o WHERE { BIND(ex:nowhere AS ?s) OPTIONAL { ?s ex:p0 ?o } }",
    "SELECT ?s ?o WHERE { BIND(ex:nowhere AS ?s) ?s ex:p0 ?o }",
    # Arithmetic lands on a stored literal (2 + 3 = 5) and on an unstored one.
    "SELECT ?s WHERE { ?x ex:num ?n . FILTER(?x = ex:e2) BIND(?n + 3 AS ?m) ?s ex:num ?m }",
    "SELECT ?s ?m WHERE { ?s ex:num ?n . BIND(?n * 100 AS ?m) }",
    # VALUES mixing stored, unstored and UNDEF cells, then joined.
    "SELECT ?s ?t WHERE { VALUES (?s ?t) { (ex:e1 ex:T1) (ex:e2 UNDEF) (ex:ghost ex:T1) } ?s a ?t }",
    "SELECT DISTINCT ?v WHERE { { ?s ex:num ?v } UNION { VALUES ?v { 1 2 77 } } }",
    # An aggregate result joined back against stored literals.
    "SELECT ?x ?m WHERE { { SELECT (MAX(?n) AS ?m) WHERE { ?s ex:num ?n } } ?x ex:num ?m }",
    "SELECT ?t (COUNT(DISTINCT ?n) AS ?c) (SUM(?n) AS ?sum) (MIN(?n) AS ?lo) "
    "WHERE { ?s a ?t . ?s ex:num ?n } GROUP BY ?t",
    # DISTINCT must not tell a computed 1 from another computed 1; 1.0 is another term.
    "SELECT DISTINCT ?v WHERE { { ex:e0 ex:num ?v } UNION { BIND(1 AS ?v) } "
    "UNION { BIND(0 + 1 AS ?v) } }",
    # A UDF result joined against stored data, and an opaque one passed on.
    "SELECT ?s ?t WHERE { ?s ex:p1 ex:e4 . BIND(ex:next(?s) AS ?o) ?o a ?t }",
    "SELECT ?s (ex:size(?bag) AS ?n) WHERE { ?s ex:p1 ex:e3 . BIND(ex:bag(?s) AS ?bag) }",
    # MINUS, EXISTS and ORDER BY over computed and unbound cells.
    "SELECT ?s WHERE { ?s a ex:T3 MINUS { ?s ex:p2 ?o } }",
    "SELECT ?s WHERE { ?s a ex:T0 FILTER NOT EXISTS { ?s ex:p2 ?o . ?o a ex:T3 } }",
    "SELECT ?s ?o WHERE { ?s a ex:T1 OPTIONAL { ?s ex:p2 ?o } } ORDER BY DESC(?o) ?s",
    "SELECT * WHERE { ?s ex:label ?l OPTIONAL { ?s ex:p2 ?never } }",
]


def registry() -> UDFRegistry:
    udfs = UDFRegistry()
    number = lambda term: int(term.value.rsplit("e", 1)[1])      # noqa: E731
    udfs.register("ex:next", lambda s: f"{EX}e{(number(s) + 1) % 60}")
    udfs.register("ex:bag", lambda s: {"of": s})
    udfs.register("ex:size", lambda bag: len(bag.value))
    return udfs


class TestIdRowsAgainstReference:
    @pytest.fixture(scope="class")
    def graph(self):
        return build_graph()

    def both(self, graph, text):
        query = parse_query(P + text)
        udfs = registry()
        streamed = QueryEvaluator(graph, udfs=udfs).evaluate_select(query)
        reference = ReferenceQueryEvaluator(graph, udfs=udfs).evaluate_select(query)
        return streamed, reference

    @pytest.mark.parametrize("cls", sorted(COLD_CLASS_QUERIES))
    def test_query_cold_classes(self, graph, cls):
        streamed, reference = self.both(graph, COLD_CLASS_QUERIES[cls])
        assert len(streamed) > 0
        assert solution_multiset(streamed) == solution_multiset(reference)

    def test_query_cold_wide_slice_is_contained_in_the_unsliced_answer(self, graph):
        streamed, _ = self.both(
            graph, "SELECT ?s ?o WHERE { ?s ex:p0 ?o } LIMIT 25 OFFSET 10")
        _, everything = self.both(graph, "SELECT ?s ?o WHERE { ?s ex:p0 ?o }")
        assert len(streamed) == 25
        assert not solution_multiset(streamed) - solution_multiset(everything)

    @pytest.mark.parametrize("text", COMPUTED_TERM_QUERIES)
    def test_computed_terms_join_and_dedupe_like_stored_ones(self, graph, text):
        size = len(graph.dictionary)
        streamed, reference = self.both(graph, text)
        assert set(streamed.variables) == set(reference.variables)
        assert solution_multiset(streamed) == solution_multiset(reference)
        assert len(graph.dictionary) == size      # reads never intern

    #: ``ex:num`` has eight values: 0..5 on ten subjects each, "1.0" and "01"
    #: on one.  Both engines ignored HAVING before: all eight came back.
    @pytest.mark.parametrize("having,groups", [
        ("COUNT(?s) > 1", 6),                       # an aggregate of its own
        ("?c = 1", 2),                              # the select item's alias
        ("COUNT(?s) > 1 && MIN(?s) = ex:e0", 1),    # two, neither projected
        ("COUNT(?s) > 100", 0),                     # rejects every group
        ("1 / ?n > 0", 7),                          # 1 / 0 raises: group dropped
        ("ex:nosuch(?n)", 0),                       # unknown UDF: all dropped
    ])
    def test_having_filters_groups(self, graph, having, groups):
        streamed, reference = self.both(
            graph, "SELECT ?n (COUNT(?s) AS ?c) WHERE { ?s ex:num ?n } "
                   f"GROUP BY ?n HAVING ({having})")
        assert len(streamed) == groups
        assert streamed.variables == reference.variables
        assert solution_multiset(streamed) == solution_multiset(reference)

    def test_having_rejects_the_implicit_group(self, graph):
        for threshold, rows in ((10, 1), (1000, 0)):
            streamed, reference = self.both(
                graph, "SELECT (COUNT(?s) AS ?c) WHERE { ?s ex:num ?n } "
                       f"HAVING (COUNT(?s) > {threshold})")
            assert len(streamed) == len(reference) == rows

    def test_the_interesting_cases_are_not_vacuous(self, graph):
        joined, _ = self.both(graph, COMPUTED_TERM_QUERIES[4])
        assert len(joined) > 0                    # 2 + 3 met the stored 5
        deduped, _ = self.both(graph, COMPUTED_TERM_QUERIES[10])
        assert sorted(s[Variable("v")].n3() for s in deduped) == sorted(
            [Literal(0).n3(), Literal(1).n3(),
             Literal("1.0", datatype=XSD_DOUBLE).n3()])


# ---------------------------------------------------------------------------
# (c) streamed id rows serialize byte-identically to the decoded ResultSet
# ---------------------------------------------------------------------------

SERIALIZED_QUERIES = [
    "SELECT ?s ?o ?l WHERE { ?s a ex:T0 OPTIONAL { ?s ex:p2 ?o } OPTIONAL { ?s ex:label ?l } }",
    "SELECT ?s ?l ?m WHERE { ?s ex:label ?l BIND(CONCAT(\"<&>, \\\"\", STR(?l)) AS ?m) }",
    "SELECT ?s ?n WHERE { ?s ex:num ?n } ORDER BY ?n ?s LIMIT 300",
    "SELECT ?s WHERE { ?s a ex:NoSuchType }",                       # empty
]


class TestIdKeyedSerializers:
    @pytest.mark.parametrize("media", [MEDIA_JSON, MEDIA_XML, MEDIA_CSV, MEDIA_TSV])
    @pytest.mark.parametrize("text", SERIALIZED_QUERIES)
    def test_streamed_body_equals_writer_over_decoded_result(self, media, text):
        endpoint = SPARQLEndpoint()
        endpoint.load(build_graph())
        for i in range(400):                      # several 256-row batches
            endpoint.graph.add(e(f"x{i}"), e("num"), Literal(i % 9))
        streamed = b"".join(serialize_result(
            endpoint.start(P + text, require="query"), media))
        result = endpoint.select(P + text)
        from_ids = b"".join(serialize_result(result, media))
        decoded = ResultSet(result.variables, list(result.solutions))
        assert decoded.id_rows is None            # terms, not ids
        from_terms = b"".join(serialize_result(decoded, media))
        assert streamed == from_ids == from_terms
        if media == MEDIA_JSON:
            assert len(json.loads(streamed)["results"]["bindings"]) == len(result)

    def test_one_fragment_per_batch_of_at_most_256_rows(self):
        endpoint = SPARQLEndpoint()
        for i in range(1000):
            endpoint.graph.add(e(f"x{i}"), e("num"), Literal(i))
        stream = endpoint.start(P + "SELECT ?s ?n WHERE { ?s ex:num ?n }", require="query")
        fragments = list(serialize_result(stream, MEDIA_CSV))
        rows_per_fragment = [fragment.count(b"\r\n") for fragment in fragments[1:]]
        assert sum(rows_per_fragment) == 1000
        assert max(rows_per_fragment) <= 256
        assert len(fragments) < 20                # batches, not rows


# ---------------------------------------------------------------------------
# Accounting: golden values recorded at the parent commit
# ---------------------------------------------------------------------------

ACCOUNTING_QUERIES = [
    COLD_CLASS_QUERIES["join"], COLD_CLASS_QUERIES["star"],
    COLD_CLASS_QUERIES["agg"], COLD_CLASS_QUERIES["optional"],
    COLD_CLASS_QUERIES["path"],
    "SELECT ?s ?o WHERE { ?s ex:p0 ?o } LIMIT 25 OFFSET 10",
    "SELECT ?s ?o WHERE { ?s ex:p0 ?o }",
    "SELECT ?s WHERE { ?s a ex:T1 . ?s ex:p1 ex:e1 . ?s ex:p0 ?o . ?o a ex:T0 }",
    "SELECT ?a ?c WHERE { ?a ex:p1 ?b . ?c ex:p1 ?b . FILTER(?a != ?c) }",
    "SELECT ?s ?o WHERE { ?s ex:p0 ?o . ?s ex:p2 ?o2 } LIMIT 1",
    "ASK { ?s ex:p2 ?o . ?o ex:p2 ?o2 }",
    "SELECT ?s ?t WHERE { BIND(ex:e5 AS ?s) ?s a ?t }",
    "SELECT ?s ?o WHERE { BIND(ex:nowhere AS ?s) ?s ex:p0 ?o }",
    "SELECT ?s ?t WHERE { VALUES (?s ?t) { (ex:e1 ex:T1) (ex:e2 UNDEF) (ex:ghost ex:T1) } ?s a ?t }",
    "SELECT ?x ?m WHERE { { SELECT (MAX(?n) AS ?m) WHERE { ?s ex:num ?n } } ?x ex:num ?m }",
    "SELECT ?s WHERE { ?s a ex:T3 MINUS { ?s ex:p2 ?o } }",
    "SELECT ?s WHERE { ?s a ex:T0 FILTER NOT EXISTS { ?s ex:p2 ?o . ?o a ex:T3 } }",
    "SELECT ?s WHERE { { ?s ex:p2 ?o . ?o a ex:T0 } UNION { ?s ex:p1 ex:e4 . ?s a ex:T2 } }",
    "SELECT DISTINCT ?t WHERE { ?s ex:p0/ex:p1 ?h . ?h a ?t }",
    "SELECT ?s ?n WHERE { ?s a ex:T2 . ?s ex:num ?n } ORDER BY DESC(?n) ?s",
]


def bgp_levels(plan):
    """(pattern, estimated, actual) of every BGP level of an explain tree;
    fresh path variables lose their number (a process-wide counter)."""
    for node in plan:
        for level in node.get("levels", ()):
            yield [re.sub(r"__pp\d+", "__pp", level["pattern"]),
                   level["estimated"], level.get("actual")]
        for key in ("children", "rewritten"):
            yield from bgp_levels(node.get(key, ()))
        for branch in node.get("branches", ()):
            yield from bgp_levels(branch)


def accounting() -> list:
    """What the golden file records, computed by the checked-out code.

    ``accounting.json`` is this function's output, dumped with
    ``json.dumps(..., indent=1)``: recorded under commit 07db36f (the last
    one with ``Solution`` rows inside the evaluator) and re-recorded when
    ``explain`` began to print the plan that runs — every record that moved
    is listed, with its reason, in CHANGES.md (PR 16).
    """
    endpoint = SPARQLEndpoint()
    endpoint.load(build_graph())
    records = []
    for text in ACCOUNTING_QUERIES:
        endpoint.query(P + text)
        statistics = endpoint.last_statistics()
        records.append({
            "query": text,
            "pattern_lookups": statistics.pattern_lookups,
            "num_results": statistics.num_results,
            "levels": list(bgp_levels(
                endpoint.explain(P + text, analyze=True)["plan"])),
        })
    return records


def test_accounting_matches_the_parent_commit():
    golden = json.loads(GOLDEN.read_text())
    assert len(golden) == len(ACCOUNTING_QUERIES) == 20
    assert accounting() == golden
