"""Unit tests for the indexed Graph and the Dataset of named graphs."""

import pytest

from repro.exceptions import RDFError
from repro.rdf import DBLP, Dataset, Graph, IRI, Literal, Triple, Variable, RDF_TYPE


@pytest.fixture()
def graph(tiny_graph):
    return tiny_graph


class TestGraphMutation:
    def test_add_returns_true_for_new_triple(self):
        g = Graph()
        assert g.add(DBLP["a"], DBLP["p"], DBLP["b"]) is True
        assert g.add(DBLP["a"], DBLP["p"], DBLP["b"]) is False
        assert len(g) == 1

    def test_add_triple_object(self):
        g = Graph()
        g.add(Triple(DBLP["a"], DBLP["p"], Literal("x")))
        assert len(g) == 1

    def test_add_coerces_python_values(self):
        g = Graph()
        g.add("https://www.dblp.org/a", "https://www.dblp.org/year", 2023)
        triple = next(iter(g))
        assert isinstance(triple.object, Literal)
        assert triple.object.to_python() == 2023

    def test_literal_subject_rejected(self):
        g = Graph()
        with pytest.raises(RDFError):
            g.add(Literal("x"), DBLP["p"], DBLP["o"])

    def test_non_iri_predicate_rejected(self):
        g = Graph()
        with pytest.raises(RDFError):
            g.add(DBLP["a"], Literal("p"), DBLP["o"])

    def test_variable_in_add_rejected(self):
        g = Graph()
        with pytest.raises(RDFError):
            g.add(Variable("s"), DBLP["p"], DBLP["o"])

    def test_add_all_counts_new(self, graph):
        g = Graph()
        added = g.add_all(graph)
        assert added == len(graph)
        assert g.add_all(graph) == 0

    def test_remove_exact_triple(self, graph):
        before = len(graph)
        removed = graph.remove(DBLP["paper/1"], DBLP["title"], None)
        assert removed == 1
        assert len(graph) == before - 1

    def test_remove_with_wildcards(self, graph):
        removed = graph.remove(DBLP["paper/1"], None, None)
        assert removed == 4
        assert list(graph.triples(DBLP["paper/1"], None, None)) == []

    def test_remove_everything(self, graph):
        assert graph.remove() == 10
        assert len(graph) == 0

    def test_clear(self, graph):
        graph.clear()
        assert len(graph) == 0
        assert list(graph) == []

    def test_remove_keeps_indexes_consistent(self, graph):
        graph.remove(None, DBLP["authoredBy"], None)
        assert graph.count(None, DBLP["authoredBy"], None) == 0
        # Other triples still reachable through every index.
        assert graph.count(DBLP["paper/1"], None, None) == 3
        assert graph.count(None, None, DBLP["Publication"]) == 2


class TestGraphAccess:
    def test_len_and_contains(self, graph):
        assert len(graph) == 10
        assert Triple(DBLP["paper/1"], RDF_TYPE, DBLP["Publication"]) in graph
        assert Triple(DBLP["paper/9"], RDF_TYPE, DBLP["Publication"]) not in graph

    def test_triples_by_subject(self, graph):
        triples = list(graph.triples(DBLP["paper/1"], None, None))
        assert len(triples) == 4
        assert all(t.subject == DBLP["paper/1"] for t in triples)

    def test_triples_by_predicate(self, graph):
        triples = list(graph.triples(None, DBLP["authoredBy"], None))
        assert len(triples) == 2

    def test_triples_by_object(self, graph):
        triples = list(graph.triples(None, None, DBLP["Publication"]))
        assert len(triples) == 2

    def test_triples_by_subject_predicate(self, graph):
        triples = list(graph.triples(DBLP["paper/1"], DBLP["title"], None))
        assert len(triples) == 1

    def test_triples_fully_bound(self, graph):
        pattern = (DBLP["paper/1"], RDF_TYPE, DBLP["Publication"])
        assert len(list(graph.triples(*pattern))) == 1

    def test_triples_no_match(self, graph):
        assert list(graph.triples(DBLP["missing"], None, None)) == []

    def test_variables_act_as_wildcards(self, graph):
        triples = list(graph.triples(Variable("s"), RDF_TYPE, Variable("o")))
        assert len(triples) == 4

    def test_count_matches_iteration(self, graph):
        patterns = [
            (None, None, None),
            (DBLP["paper/1"], None, None),
            (None, RDF_TYPE, None),
            (None, None, DBLP["Publication"]),
            (DBLP["paper/1"], DBLP["title"], None),
            (None, RDF_TYPE, DBLP["Person"]),
        ]
        for pattern in patterns:
            assert graph.count(*pattern) == len(list(graph.triples(*pattern)))

    def test_subjects_predicates_objects_unique(self, graph):
        assert len(list(graph.subjects(RDF_TYPE, DBLP["Publication"]))) == 2
        assert DBLP["title"] in set(graph.predicates(DBLP["paper/1"]))
        objects = list(graph.objects(DBLP["paper/1"], DBLP["authoredBy"]))
        assert objects == [DBLP["person/ada"]]

    def test_value_returns_missing_component(self, graph):
        assert graph.value(DBLP["paper/1"], DBLP["publishedIn"]) == DBLP["venue/ICDE"]
        assert graph.value(None, DBLP["title"], Literal("Knowledge Graphs")) == DBLP["paper/2"]
        assert graph.value(DBLP["paper/9"], DBLP["title"]) is None

    def test_rdf_type_helper(self, graph):
        assert graph.rdf_type(DBLP["paper/1"]) == DBLP["Publication"]

    def test_nodes_cover_subjects_and_objects(self, graph):
        nodes = set(graph.nodes())
        assert DBLP["paper/1"] in nodes
        assert DBLP["venue/ICDE"] in nodes


class TestGraphSetOperations:
    def test_copy_is_deep_for_triples(self, graph):
        clone = graph.copy()
        clone.add(DBLP["x"], DBLP["p"], DBLP["y"])
        assert len(clone) == len(graph) + 1

    def test_union(self, graph):
        other = Graph()
        other.add(DBLP["x"], DBLP["p"], DBLP["y"])
        merged = graph.union(other)
        assert len(merged) == len(graph) + 1

    def test_iadd(self, graph):
        g = Graph()
        g += graph
        assert len(g) == len(graph)

    def test_equality_is_set_equality(self, graph):
        assert graph == graph.copy()
        other = graph.copy()
        other.add(DBLP["x"], DBLP["p"], DBLP["y"])
        assert graph != other

    def test_repr_mentions_size(self, graph):
        assert "10" in repr(graph)


class TestDataset:
    def test_default_graph(self):
        ds = Dataset()
        ds.default_graph.add(DBLP["a"], DBLP["p"], DBLP["b"])
        assert len(ds) == 1

    def test_named_graph_created_on_demand(self):
        ds = Dataset()
        named = ds.graph("https://www.kgnet.com/KGMeta")
        named.add(DBLP["a"], DBLP["p"], DBLP["b"])
        assert ds.has_graph("https://www.kgnet.com/KGMeta")
        assert len(ds) == 1
        assert len(ds.default_graph) == 0

    def test_graph_create_false_raises(self):
        ds = Dataset()
        with pytest.raises(RDFError):
            ds.graph("https://missing.org/g", create=False)

    def test_invalid_identifier_type(self):
        ds = Dataset()
        with pytest.raises(RDFError):
            ds.graph(Literal("not-a-graph-name"))

    def test_drop_graph(self):
        ds = Dataset()
        ds.graph("https://x.org/g").add(DBLP["a"], DBLP["p"], DBLP["b"])
        assert ds.drop_graph("https://x.org/g") is True
        assert ds.drop_graph("https://x.org/g") is False

    def test_union_graph_merges_everything(self, graph):
        ds = Dataset()
        ds.default_graph.add_all(graph)
        ds.graph("https://x.org/meta").add(DBLP["m"], DBLP["p"], DBLP["o"])
        union = ds.snapshot().union()
        assert len(union) == len(graph) + 1
        assert Triple(DBLP["m"], DBLP["p"], DBLP["o"]) in union

    def test_quads_report_graph(self):
        ds = Dataset()
        ds.default_graph.add(DBLP["a"], DBLP["p"], DBLP["b"])
        ds.graph("https://x.org/g").add(DBLP["c"], DBLP["p"], DBLP["d"])
        graphs = {(triple.subject, snapshot.identifier)
                  for snapshot in ds.snapshot().graphs() for triple in snapshot}
        assert graphs == {(DBLP["a"], None), (DBLP["c"], IRI("https://x.org/g"))}

    def test_contains_searches_all_graphs(self):
        ds = Dataset()
        ds.graph("https://x.org/g").add(DBLP["a"], DBLP["p"], DBLP["b"])
        assert Triple(DBLP["a"], DBLP["p"], DBLP["b"]) in ds
