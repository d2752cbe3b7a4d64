"""The explain contract: the printed plan is the executed plan.

``repro.sparql.plan`` builds one tree per WHERE group; ``QueryEvaluator``
runs it and ``SPARQLEndpoint.explain`` renders it.  Four things are pinned:

* **(a) seeded orders** — a BGP after an OPTIONAL / inside one / after BIND
  or VALUES is ordered under the variables bound before it, ``explain``
  prints that order, and ``levels[].actual`` are the rows each level made in
  one real run (checked against the oracle's prefix joins, and against the
  index lookups a separate ``query`` of the same text reports);
* **(b) any query** — over the Hypothesis strategies of ``test_optimizer``
  and ``test_path_differential``: rendered node kinds and BGP orders equal
  the compiled ones, and the WHERE group's ``rows_out`` equals the result;
* **(c) shared trees, private counters** — threads analyzing and executing
  one cached text each see exactly one run's numbers;
* **(d) multisets** — the differential suites' comparison helpers ignore
  row order, pinned on a UNION whose order differs between engines.
"""

from __future__ import annotations

import re
import sys
import threading

import pytest
from hypothesis import given

import test_id_pipeline
import test_optimizer
import test_path_differential
from repro.rdf import Graph, IRI
from repro.sparql import (
    QueryEvaluator,
    ReferenceQueryEvaluator,
    SPARQLParser,
)

EX = "http://x/"
P = f"PREFIX x: <{EX}>\n"


def x(name: str) -> IRI:
    return IRI(EX + name)


def skewed_graph() -> Graph:
    """2000 ``x:p``, 200 ``x:s`` and 20 ``x:q`` edges: ``?b x:p ?c . ?m x:s
    ?c`` starts with ``s`` on its own and with ``p`` once ``?b`` is bound."""
    graph = Graph()
    for i in range(2000):
        graph.add(x(f"b{i % 20}"), x("p"), x(f"c{i}"))
    for i in range(200):
        graph.add(x(f"m{i}"), x("s"), x(f"c{i}"))
    for i in range(20):
        graph.add(x(f"a{i}"), x("q"), x(f"b{i}"))
    graph.add(x("elsewhere"), x("zz"), x("thing"))
    return graph


#: A fresh endpoint whose default graph holds the given triples.
endpoint_over = test_optimizer._endpoint


def bgps(plan):
    """Every rendered BGP node, in executed order."""
    for node in plan:
        if node["node"] == "bgp":
            yield node
        for group in ([node.get("children", ()), node.get("rewritten", ())]
                      + list(node.get("branches", ()))):
            yield from bgps(group)


def lookups_implied(plan, rows_in: int = 1) -> int:
    """Index lookups a run makes if it is the run ``plan`` (analyzed) shows:
    every row entering a join level is one lookup."""
    total = 0
    for node in plan:
        if node["node"] == "bgp":
            entering = rows_in
            for level in node["levels"]:
                if not level.get("folded"):
                    total += entering
                entering = level["actual"]
        inner = 1 if node["node"] in ("minus", "subselect") else rows_in
        for group in ([node.get("children", ()), node.get("rewritten", ())]
                      + list(node.get("branches", ()))):
            total += lookups_implied(group, inner)
        rows_in = node["rows_out"]
    return total


# ---------------------------------------------------------------------------
# (a) seeded orders, real-run actuals
# ---------------------------------------------------------------------------

JOIN = ["?b <http://x/p> ?c", "?m <http://x/s> ?c"]

#: (WHERE group, what precedes the two-pattern BGP as a plain join).
SEEDED = {
    "after-optional": ("{ ?a x:q ?b . OPTIONAL { ?a x:zz ?z } "
                       "?b x:p ?c . ?m x:s ?c }", "?a x:q ?b ."),
    "inside-optional": ("{ ?a x:q ?b . OPTIONAL { ?b x:p ?c . ?m x:s ?c } }",
                        "?a x:q ?b ."),
    "after-bind": ("{ BIND(x:b3 AS ?b) ?b x:p ?c . ?m x:s ?c }",
                   "BIND(x:b3 AS ?b)"),
    "after-values": ("{ VALUES ?b { x:b1 x:b2 } ?b x:p ?c . ?m x:s ?c }",
                     "VALUES ?b { x:b1 x:b2 }"),
}


class TestSeededOrders:
    @pytest.fixture(scope="class")
    def endpoint(self):
        return endpoint_over(skewed_graph())

    def test_unseeded_the_small_side_leads(self, endpoint):
        plan = endpoint.explain(P + "SELECT * WHERE { ?b x:p ?c . ?m x:s ?c }")
        assert next(bgps(plan["plan"]))["patterns"] == JOIN[::-1]

    @pytest.mark.parametrize("name", sorted(SEEDED))
    def test_printed_order_is_the_executed_order(self, endpoint, name):
        group, head = SEEDED[name]
        text = P + f"SELECT * WHERE {group}"
        explained = endpoint.explain(text, analyze=True)
        join = [node for node in bgps(explained["plan"])
                if len(node["patterns"]) == 2]
        assert [node["patterns"] for node in join] == [JOIN]
        # Each level's actual is the oracle's count of the join so far.
        oracle = ReferenceQueryEvaluator(endpoint.graph)
        for depth, level in enumerate(join[0]["levels"], start=1):
            prefix = SPARQLParser(P + f"SELECT * WHERE {{ {head} "
                                  + " . ".join(JOIN[:depth]) + " }").parse()
            assert level["actual"] == len(oracle.evaluate(prefix))
        # A run of its own made exactly the lookups that order implies: had
        # it started from ``x:s`` it would scan 200 edges per input row.
        result = endpoint.query(text)
        assert explained["rows_out"] == len(result)
        assert (endpoint.last_statistics().pattern_lookups
                == lookups_implied(explained["plan"]))

    def test_analyze_evaluates_the_where_group_exactly_once(self, endpoint):
        seen = []
        endpoint.register_udf("x:seen", lambda term: seen.append(term) or True)
        text = P + ("SELECT ?m WHERE { ?a x:q ?b FILTER(x:seen(?b)) "
                    "{ SELECT ?m WHERE { ?m x:s x:c7 } } } LIMIT 3")
        history = len(endpoint.history)
        explained = endpoint.explain(text, analyze=True)
        assert len(seen) == 20
        # To exhaustion, LIMIT or not, and sub-SELECTs are counted too.
        assert explained["rows_out"] == 20
        subselect = explained["plan"][-1]
        assert subselect["node"] == "subselect" and subselect["rows_out"] == 20
        assert subselect["children"][0]["levels"][0]["actual"] == 1
        assert len(endpoint.history) == history   # explain records nothing

    def test_folds_show_at_the_level_that_runs_them(self):
        graph = skewed_graph()
        for i in range(50):
            graph.add(x(f"m{i}"), x("t"), x("k"))
        endpoint = endpoint_over(graph)
        text = P + ("SELECT * WHERE { ?m x:t x:k . ?m x:s ?c . ?b x:p ?c . "
                    "?a x:q ?b }")
        explained = endpoint.explain(text, analyze=True)
        # ``?m x:t x:k`` binds nothing new after ``?m x:s ?c``: it runs as a
        # set intersection inside that level, and is printed right after it.
        assert next(bgps(explained["plan"]))["levels"] == [
            {"pattern": "?a <http://x/q> ?b", "estimated": 20.0, "actual": 20},
            {"pattern": "?b <http://x/p> ?c", "estimated": 100.0, "actual": 2000},
            {"pattern": "?m <http://x/s> ?c", "estimated": 1.0, "actual": 200},
            {"pattern": "?m <http://x/t> <http://x/k>", "estimated": 1.0,
             "folded": True, "actual": 50}]
        assert len(endpoint.query(text)) == explained["rows_out"] == 50
        assert endpoint.last_statistics().pattern_lookups == 1 + 20 + 2000
        assert lookups_implied(explained["plan"]) == 1 + 20 + 2000


# ---------------------------------------------------------------------------
# (b) any query: rendered == compiled, rows_out == the answer
# ---------------------------------------------------------------------------

def assert_rendered_is_compiled(nodes, rendered, graph: Graph, layout) -> None:
    """Walk a plan tree and its rendering together: same kinds, same child
    groups, and every BGP's printed order is its compiled levels and folds
    decoded back to text."""
    assert [node.kind for node in nodes] == [item["node"] for item in rendered]
    # Fresh path variables are numbered per parse; the two trees come from two.
    names = {slot: re.sub(r"__pp\d+", "__pp", f"?{variable.name}")
             for variable, slot in layout.items()}
    for node, item in zip(nodes, rendered):
        if node.kind == "bgp" and not node.compiled.empty:
            assert [re.sub(r"__pp\d+", "__pp", pattern)
                    for pattern in item["patterns"]] == [
                " ".join(names[slot] if slot is not None
                         else graph.dictionary.decode(constant).n3()
                         for constant, slot in spec)
                for level, folds in zip(node.compiled.specs,
                                        node.compiled.intersectors)
                for spec in [level] + [folded for folded, _ in folds]]
        groups = [item[key] for key in ("children", "rewritten") if key in item]
        groups += item.get("branches", [])
        assert len(groups) == len(node.groups)
        inner = node.compiled.layout if node.kind == "subselect" else layout
        for group, printed in zip(node.groups, groups):
            assert_rendered_is_compiled(group, printed, graph, inner)


def check_printed_equals_executed(graph: Graph, text: str) -> None:
    endpoint = endpoint_over(graph)
    explained = endpoint.explain(text, analyze=True)
    assert explained["rows_out"] == len(endpoint.query(text))
    # The tree an evaluator of its own runs, read off its compiled half.
    snapshot = endpoint.graph.snapshot()
    tree = QueryEvaluator(snapshot).plan_for(SPARQLParser(text).parse())
    assert_rendered_is_compiled(tree.where, explained["plan"], snapshot,
                                tree.layout)


@given(data=test_optimizer.graph_and_bgp())
@test_optimizer.SETTINGS
def test_random_bgps_print_what_they_run(data):
    graph, patterns = data
    variables = sorted({v.name for p in patterns for v in p.variables()})
    if not variables:
        return
    term = lambda t: f"?{t.name}" if hasattr(t, "name") else t.n3()  # noqa: E731
    text = ("SELECT " + " ".join(f"?{name}" for name in variables) + " WHERE { "
            + " . ".join(" ".join(map(term, p)) for p in patterns) + " . }")
    check_printed_equals_executed(graph, text)


@given(test_path_differential.graphs(), test_path_differential.paths(),
       test_path_differential.endpoint_shapes())
@test_path_differential.SETTINGS
def test_random_paths_print_what_they_run(graph, path, ends):
    check_printed_equals_executed(
        graph, test_path_differential.build_query(path, *ends))


# ---------------------------------------------------------------------------
# (c) one cached tree, counters per run
# ---------------------------------------------------------------------------

@pytest.mark.concurrency
def test_concurrent_analyze_and_execute_keep_their_own_counters():
    endpoint = endpoint_over(skewed_graph())
    text = P + f"SELECT * WHERE {SEEDED['inside-optional'][0]}"
    expected = endpoint.explain(text, analyze=True)
    rows = len(endpoint.query(text))
    lookups = endpoint.last_statistics().pattern_lookups
    failures = []

    def analyze():
        for _ in range(15):
            explained = endpoint.explain(text, analyze=True)
            if explained["plan"] != expected["plan"]:
                failures.append(explained)

    def execute():
        for _ in range(15):
            if len(endpoint.query(text)) != rows or \
                    endpoint.thread_statistics().pattern_lookups != lookups:
                failures.append(endpoint.thread_statistics())

    threads = [threading.Thread(target=target)
               for target in (analyze, execute, analyze, execute)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures
    assert endpoint.plan_cache.stats()["size"] == 1     # one text, one tree


# ---------------------------------------------------------------------------
# (d) the differential suites compare multisets
# ---------------------------------------------------------------------------

def test_differential_helpers_ignore_row_order():
    graph = skewed_graph()
    query = SPARQLParser(P + "SELECT ?b ?y WHERE { ?a x:q ?b . "
                         "{ ?b x:p ?y } UNION { ?a x:q ?y } }").parse()
    streamed = QueryEvaluator(graph).evaluate(query)
    reference = ReferenceQueryEvaluator(graph).evaluate(query)
    rows = lambda result: [tuple(s.items()) for s in result]  # noqa: E731
    # UNION runs branch by branch per input *batch* in one engine and per
    # input *set* in the other: same rows, another order.
    assert rows(streamed) != rows(reference)
    assert sorted(map(str, rows(streamed))) == sorted(map(str, rows(reference)))
    for multiset in (test_optimizer._multiset,
                     test_path_differential.solution_multiset,
                     test_id_pipeline.solution_multiset):
        assert multiset(streamed) == multiset(reference)
