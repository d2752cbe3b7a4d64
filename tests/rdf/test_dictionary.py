"""Tests for the term dictionary and the dictionary-encoded graph internals."""

import pytest

from repro.rdf import Graph, IRI, Literal, TermDictionary, Triple
from repro.rdf.dataset import Dataset


EX = "https://example.org/"


def iri(name):
    return IRI(EX + name)


class TestTermDictionary:
    def test_encode_is_stable_and_dense(self):
        dictionary = TermDictionary()
        terms = [iri("a"), iri("b"), Literal("x"), Literal(7)]
        ids = [dictionary.encode(t) for t in terms]
        assert ids == [0, 1, 2, 3]
        # Re-encoding returns the same ids, no growth.
        assert [dictionary.encode(t) for t in terms] == ids
        assert len(dictionary) == 4

    def test_decode_roundtrip(self):
        dictionary = TermDictionary()
        term = Literal("hello", language="en")
        assert dictionary.decode(dictionary.encode(term)) == term

    def test_lookup_never_interns(self):
        dictionary = TermDictionary()
        assert dictionary.lookup(iri("never-seen")) is None
        assert len(dictionary) == 0
        assert iri("never-seen") not in dictionary

    def test_equal_terms_share_one_id(self):
        dictionary = TermDictionary()
        assert dictionary.encode(iri("same")) == dictionary.encode(IRI(EX + "same"))


class TestEncodedGraph:
    def test_read_misses_allocate_nothing(self):
        """Regression: index probes on absent keys must not auto-vivify."""
        graph = Graph()
        graph.add(iri("s"), iri("p"), iri("o"))
        spo_size = len(graph._spo)
        pos_size = len(graph._pos)
        osp_size = len(graph._osp)
        dict_size = len(graph.dictionary)
        # Reads that miss on every index path.
        assert list(graph.triples(iri("ghost"), None, None)) == []
        assert list(graph.triples(None, iri("ghost"), None)) == []
        assert list(graph.triples(None, None, iri("ghost"))) == []
        assert list(graph.triples(iri("s"), iri("ghost"), None)) == []
        assert graph.count(iri("ghost")) == 0
        assert Triple(iri("ghost"), iri("p"), iri("o")) not in graph
        assert len(graph._spo) == spo_size
        assert len(graph._pos) == pos_size
        assert len(graph._osp) == osp_size
        assert len(graph.dictionary) == dict_size

    def test_epoch_bumps_on_mutation_only(self):
        graph = Graph()
        epoch = graph.epoch
        graph.add(iri("s"), iri("p"), iri("o"))
        assert graph.epoch > epoch
        epoch = graph.epoch
        # Duplicate insert: no change.
        graph.add(iri("s"), iri("p"), iri("o"))
        assert graph.epoch == epoch
        # Reads: no change.
        list(graph)
        graph.count(None, iri("p"), None)
        assert graph.epoch == epoch
        graph.remove(iri("s"), iri("p"), iri("o"))
        assert graph.epoch > epoch
        epoch = graph.epoch
        graph.clear()  # already empty: no change
        assert graph.epoch == epoch

    def test_predicate_cardinalities_maintained_incrementally(self):
        graph = Graph()
        graph.add(iri("s1"), iri("p"), iri("o1"))
        graph.add(iri("s2"), iri("p"), iri("o2"))
        graph.add(iri("s1"), iri("q"), Literal("x"))
        assert graph.count(None, iri("p"), None) == 2
        assert graph.count(None, iri("q"), None) == 1
        assert graph.count(None, iri("ghost"), None) == 0
        graph.remove(iri("s1"), iri("p"), None)
        assert graph.count(None, iri("p"), None) == 1
        assert graph.count(None, iri("q"), None) == 1

    def test_id_space_agrees_with_term_space(self):
        graph = Graph()
        graph.add(iri("s"), iri("p"), iri("o1"))
        graph.add(iri("s"), iri("p"), iri("o2"))
        graph.add(iri("t"), iri("p"), iri("o1"))
        sid = graph.encode_term(iri("s"))
        pid = graph.encode_term(iri("p"))
        assert graph.count_ids(sid, pid, None) == graph.count(iri("s"), iri("p"), None) == 2
        decoded = {tuple(map(graph.decode_id, t)) for t in graph.triples_ids(None, pid, None)}
        from_terms = {tuple(t) for t in graph.triples(None, iri("p"), None)}
        assert decoded == from_terms
        assert set(graph.object_ids(sid, pid)) == {
            graph.encode_term(iri("o1")), graph.encode_term(iri("o2"))}

    def test_dataset_graphs_share_dictionary(self):
        dataset = Dataset()
        dataset.default_graph.add(iri("s"), iri("p"), iri("o"))
        named = dataset.graph(EX + "g")
        named.add(iri("s2"), iri("p"), iri("o"))
        assert named.dictionary is dataset.default_graph.dictionary

    def test_dataset_epoch_token_changes_on_any_mutation(self):
        dataset = Dataset()
        token = dataset.epoch()
        dataset.default_graph.add(iri("s"), iri("p"), iri("o"))
        token2 = dataset.epoch()
        assert token2 != token
        dataset.graph(EX + "g")  # structural change
        token3 = dataset.epoch()
        assert token3 != token2
        dataset.drop_graph(EX + "g")
        assert dataset.epoch() != token3
