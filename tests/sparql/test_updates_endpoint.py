"""Unit tests for SPARQL UPDATE execution and the endpoint facade."""

import pytest

from repro.exceptions import QueryError
from repro.rdf import DBLP, Graph, IRI, Literal, Triple, RDF_TYPE
from repro.sparql import ReferenceQueryEvaluator, SPARQLEndpoint

PREFIXES = "PREFIX dblp: <https://www.dblp.org/>\nPREFIX kgnet: <https://www.kgnet.com/>\n"


class TestUpdates:
    def test_insert_data(self, endpoint):
        before = len(endpoint.graph)
        affected = endpoint.update(PREFIXES + """
            INSERT DATA { dblp:paper/3 a dblp:Publication .
                          dblp:paper/3 dblp:title "Third" . }""")
        assert affected == 2
        assert len(endpoint.graph) == before + 2

    def test_insert_data_is_idempotent_on_duplicates(self, endpoint):
        update = PREFIXES + "INSERT DATA { dblp:paper/1 a dblp:Publication . }"
        assert endpoint.update(update) == 0

    def test_delete_data(self, endpoint):
        affected = endpoint.update(PREFIXES + """
            DELETE DATA { dblp:paper/1 dblp:publishedIn dblp:venue/ICDE . }""")
        assert affected == 1
        assert endpoint.graph.value(DBLP["paper/1"], DBLP["publishedIn"]) is None

    def test_delete_where_pattern(self, endpoint):
        affected = endpoint.update(PREFIXES + "DELETE WHERE { ?s dblp:title ?t . }")
        assert affected == 2
        assert endpoint.graph.count(None, DBLP["title"], None) == 0

    def test_delete_insert_where(self, endpoint):
        endpoint.update(PREFIXES + """
            DELETE { ?p dblp:publishedIn ?v } INSERT { ?p dblp:presentedAt ?v }
            WHERE { ?p dblp:publishedIn ?v . }""")
        assert endpoint.graph.count(None, DBLP["publishedIn"], None) == 0
        assert endpoint.graph.count(None, DBLP["presentedAt"], None) == 1

    def test_insert_where_derives_new_triples(self, endpoint):
        endpoint.update(PREFIXES + """
            INSERT { ?a dblp:wrote ?p } WHERE { ?p dblp:authoredBy ?a . }""")
        assert endpoint.graph.count(None, DBLP["wrote"], None) == 2

    def test_insert_into_named_graph(self, endpoint):
        endpoint.update(PREFIXES + """
            INSERT INTO <https://www.kgnet.com/KGMeta> { ?p a kgnet:Example }
            WHERE { ?p a dblp:Publication . }""")
        meta = endpoint.named_graph("https://www.kgnet.com/KGMeta")
        assert len(meta) == 2
        # The default graph is untouched.
        assert endpoint.graph.count(None, RDF_TYPE, IRI("https://www.kgnet.com/Example")) == 0

    def test_clear_graph(self, endpoint):
        endpoint.update(PREFIXES + """
            INSERT DATA { GRAPH <https://x.org/g> { dblp:a dblp:p dblp:b . } }""")
        assert len(endpoint.named_graph("https://x.org/g")) == 1
        endpoint.update("CLEAR GRAPH <https://x.org/g>")
        assert len(endpoint.named_graph("https://x.org/g")) == 0

    def test_update_statistics_recorded(self, endpoint):
        endpoint.update(PREFIXES + "INSERT DATA { dblp:x dblp:p dblp:y . }")
        assert endpoint.last_statistics().kind == "UPDATE"


class TestEndpoint:
    def test_load_counts_triples(self, tiny_graph):
        endpoint = SPARQLEndpoint()
        assert endpoint.load(tiny_graph) == len(tiny_graph)

    def test_load_into_named_graph(self, tiny_graph):
        endpoint = SPARQLEndpoint()
        endpoint.load(tiny_graph, graph_iri="https://x.org/data")
        assert len(endpoint.graph) == 0
        assert len(endpoint.named_graph("https://x.org/data")) == len(tiny_graph)

    def test_query_over_union_of_graphs(self, tiny_graph):
        """KGMeta triples and data triples can be matched in one query."""
        endpoint = SPARQLEndpoint()
        endpoint.load(tiny_graph)
        endpoint.named_graph("https://www.kgnet.com/KGMeta").add(
            IRI("https://www.kgnet.com/model/1"), RDF_TYPE,
            IRI("https://www.kgnet.com/NodeClassifier"))
        result = endpoint.select(PREFIXES + """
            SELECT ?m ?p WHERE { ?m a kgnet:NodeClassifier .
                                 ?p a dblp:Publication . }""")
        assert len(result) == 2

    def test_from_clause_selects_named_graph(self, tiny_graph):
        endpoint = SPARQLEndpoint()
        endpoint.load(tiny_graph, graph_iri="https://x.org/data")
        result = endpoint.select(PREFIXES + """
            SELECT ?p FROM <https://x.org/data> WHERE { ?p a dblp:Publication . }""")
        assert len(result) == 2

    def test_from_clauses_evaluate_the_union_of_their_graphs(self, tiny_graph):
        """Several FROM clauses — one naming a graph the dataset lacks — are
        the union of the named graphs they list, as the oracle computes it
        over their merged triples, and run on the pinned view the protocol's
        ``default-graph-uri`` gets: one object per epoch, not a copy."""
        endpoint = SPARQLEndpoint()
        endpoint.load(tiny_graph, graph_iri="https://x.org/data")
        more = endpoint.named_graph("https://x.org/more")
        more.add(DBLP["paper/1"], RDF_TYPE, DBLP["Publication"])  # in both
        more.add(DBLP["paper/9"], RDF_TYPE, DBLP["Publication"])
        endpoint.graph.add(DBLP["paper/0"], RDF_TYPE, DBLP["Publication"])
        graphs = ["https://x.org/data", "https://x.org/more", "https://x.org/none"]
        text = PREFIXES + "SELECT ?p " + "".join(
            f"FROM <{graph}> " for graph in graphs) + \
            "WHERE { ?p a dblp:Publication . }"
        union = Graph()
        union.add_all(tiny_graph)
        union.add_all(more)
        expected = ReferenceQueryEvaluator(union).evaluate(endpoint.parse(text))
        rows = endpoint.select(text).to_python()
        assert sorted(row["p"] for row in rows) == sorted(
            row["p"] for row in expected.to_python())
        assert len(rows) == 3                     # paper/0 is in no FROM graph
        view = endpoint._evaluation_graph(endpoint.parse(text))
        assert endpoint._evaluation_graph(endpoint.parse(text)) is view
        assert endpoint._protocol_graph(graphs) is view

    def test_select_raises_on_ask(self, endpoint):
        with pytest.raises(QueryError):
            endpoint.select(PREFIXES + "ASK { ?s ?p ?o . }")

    def test_history(self, endpoint):
        endpoint.select("SELECT ?s WHERE { ?s ?p ?o . }")
        assert endpoint.last_statistics().kind == "SELECT"
        assert endpoint.last_statistics().num_results == len(endpoint.graph)

    def test_udf_call_counting(self, endpoint):
        """A UDF in the projection runs once per solution row."""
        calls = []
        endpoint.register_udf("sql:UDFS.constant",
                              lambda *args: calls.append(args) or "x")
        result = endpoint.select(PREFIXES + """
            SELECT ?p sql:UDFS.constant(?p) as ?c WHERE { ?p a dblp:Publication . }""")
        assert len(calls) == 2
        assert sorted(str(args[0]) for args in calls) == sorted(
            str(term) for term in result.column("p"))

    def test_result_set_helpers(self, endpoint):
        result = endpoint.select(PREFIXES +
                                 "SELECT ?p ?t WHERE { ?p dblp:title ?t . } ORDER BY ?t")
        assert len(result.rows()) == 2
        assert len(result.column("t")) == 2
        table = result.to_table()
        assert "?t" in table and "Graph Machine Learning" in table
        python_rows = result.to_python()
        assert python_rows[0]["t"] == "Graph Machine Learning"

    def test_to_table_truncation(self, endpoint):
        result = endpoint.select("SELECT ?s WHERE { ?s ?p ?o . }")
        table = result.to_table(max_rows=2)
        assert "more rows" in table

    def test_repr_mentions_sizes(self, endpoint):
        assert "triples" in repr(endpoint)


class TestExecuteRouting:
    """``execute()`` parses once and routes Query vs Update from the AST."""

    def test_execute_routes_select(self, endpoint):
        result = endpoint.execute(PREFIXES +
                                  "SELECT ?s WHERE { ?s a dblp:Publication . }")
        assert len(result) == 2
        assert endpoint.last_statistics().kind == "SELECT"

    def test_execute_routes_ask(self, endpoint):
        assert endpoint.execute(PREFIXES +
                                "ASK { dblp:paper/1 a dblp:Publication . }") is True
        assert endpoint.last_statistics().kind == "ASK"

    def test_execute_routes_construct(self, endpoint):
        graph = endpoint.execute(PREFIXES + """
            CONSTRUCT { ?s a dblp:Work } WHERE { ?s a dblp:Publication . }""")
        assert isinstance(graph, Graph)
        assert len(graph) == 2

    def test_execute_routes_insert_data(self, endpoint):
        before = len(endpoint.graph)
        affected = endpoint.execute(PREFIXES +
                                    "INSERT DATA { dblp:paper/9 a dblp:Publication . }")
        assert affected == 1
        assert len(endpoint.graph) == before + 1
        assert endpoint.last_statistics().kind == "UPDATE"

    def test_execute_routes_delete_where(self, endpoint):
        affected = endpoint.execute(PREFIXES +
                                    "DELETE WHERE { ?s dblp:title ?t . }")
        assert affected == 2

    def test_execute_handles_leading_prologue(self, endpoint):
        """Dispatch comes from the AST, not from sniffing the raw text."""
        affected = endpoint.execute(
            "BASE <https://example.org/>\n" + PREFIXES +
            "DELETE DATA { dblp:paper/1 dblp:publishedIn dblp:venue/ICDE . }")
        assert affected == 1
