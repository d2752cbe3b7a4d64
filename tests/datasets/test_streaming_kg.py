"""The streaming Zipf-skewed synthetic KG (the optimizer's proving ground)."""

from __future__ import annotations

import itertools

import pytest

from repro.datasets import StreamingKGConfig, stream_synthetic_kg
from repro.exceptions import DatasetError
from repro.rdf.graph import Graph
from repro.rdf.terms import RDF_TYPE
from repro.storage.bulkload import stream_load_triples


SMALL = StreamingKGConfig(num_triples=20_000, batch_size=1_000)


def materialize(config):
    graph = Graph()
    stream_load_triples(graph, stream_synthetic_kg(config))
    return graph


class TestStreamingGenerator:
    def test_exact_triple_budget(self):
        assert sum(1 for _ in stream_synthetic_kg(SMALL)) == SMALL.num_triples

    def test_same_seed_same_stream(self):
        first = list(itertools.islice(stream_synthetic_kg(SMALL), 5_000))
        second = list(itertools.islice(stream_synthetic_kg(SMALL), 5_000))
        assert first == second

    def test_different_seed_different_stream(self):
        other = StreamingKGConfig(num_triples=20_000, batch_size=1_000,
                                  seed=11)
        a = list(itertools.islice(stream_synthetic_kg(SMALL), 19_000, None))
        b = list(itertools.islice(stream_synthetic_kg(other), 19_000, None))
        assert a != b

    def test_stream_is_lazy(self):
        """Pulling a prefix must not cost the whole 10M-triple budget."""
        big = StreamingKGConfig()  # the full 10M-triple default
        prefix = list(itertools.islice(stream_synthetic_kg(big), 100))
        assert len(prefix) == 100

    def test_rare_type_cardinality_is_exact(self):
        graph = materialize(SMALL)
        rare = list(graph.subjects(RDF_TYPE, SMALL.rare_type))
        assert len(rare) == SMALL.rare_type_cardinality
        # RareType members are the hub entities — every one participates in
        # at least one link triple, so the adversarial join is non-empty.
        assert any(
            next(graph.triples(member, SMALL.predicate(0), None), None)
            or next(graph.triples(None, SMALL.predicate(0), member), None)
            for member in rare)

    def test_predicate_frequencies_are_zipf_skewed(self):
        graph = materialize(SMALL)
        popular = sum(1 for _ in graph.triples(None, SMALL.predicate(0), None))
        unpopular = sum(1 for _ in graph.triples(None,
                                                 SMALL.predicate(12), None))
        assert popular > 20 * max(unpopular, 1)

    def test_every_entity_is_typed(self):
        graph = materialize(SMALL)
        typed = {s for s in graph.subjects(RDF_TYPE, None)}
        # Phase 1 types min(num_entities, num_triples) entities.
        assert len(typed) >= min(SMALL.num_entities, 1024)

    def test_config_validation(self):
        with pytest.raises(DatasetError):
            StreamingKGConfig(num_triples=0)
        with pytest.raises(DatasetError):
            StreamingKGConfig(zipf_exponent=1.0)
        with pytest.raises(DatasetError):
            StreamingKGConfig(batch_size=0)
