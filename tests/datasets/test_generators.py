"""Unit tests for the synthetic DBLP / YAGO knowledge-graph generators."""

import numpy as np
import pytest

from repro.datasets import (
    DBLPConfig,
    YAGOConfig,
    dblp_author_affiliation_task,
    dblp_author_similarity_task,
    dblp_paper_venue_task,
    generate_dblp_kg,
    generate_yago_kg,
    yago_place_country_task,
)
from repro.datasets.generator import GeneratorConfig, KGBuilder
from repro.exceptions import DatasetError
from repro.gml.tasks import TaskType
from repro.rdf import DBLP, YAGO, SCHEMA, Literal, RDF_TYPE
from repro.rdf.stats import compute_statistics


class TestKGBuilder:
    def test_new_entity_asserts_type(self):
        builder = KGBuilder(DBLP, seed=0)
        entity = builder.new_entity("Publication", "publication")
        assert builder.graph.rdf_type(entity) == DBLP["Publication"]
        assert list(builder.graph.subjects(RDF_TYPE, DBLP["Publication"])) == [entity]

    def test_entity_ids_are_sequential(self):
        builder = KGBuilder(DBLP, seed=0)
        first = builder.new_entity("Venue", "venue")
        second = builder.new_entity("Venue", "venue")
        assert first.value.endswith("/0") and second.value.endswith("/1")

    def test_zipf_choice_skews_towards_head(self):
        builder = KGBuilder(DBLP, seed=0)
        items = list(range(20))
        draws = [builder.zipf_choice(items) for _ in range(500)]
        assert draws.count(0) > draws.count(19)

    def test_scaled_counts(self):
        config = GeneratorConfig(scale=0.1)
        assert config.scaled(100) == 10
        assert config.scaled(3, minimum=5) == 5


class TestDBLPGenerator:
    def test_deterministic_for_seed(self):
        config = DBLPConfig(scale=0.1, seed=11)
        assert generate_dblp_kg(config) == generate_dblp_kg(DBLPConfig(scale=0.1, seed=11))

    def test_different_seeds_differ(self):
        a = generate_dblp_kg(DBLPConfig(scale=0.1, seed=1))
        b = generate_dblp_kg(DBLPConfig(scale=0.1, seed=2))
        assert a != b

    def test_schema_shape(self, dblp_graph):
        stats = compute_statistics(dblp_graph)
        # Core node types exist.
        for type_name in ("Publication", "Person", "Venue", "Affiliation", "Keyword"):
            assert dblp_graph.count(None, RDF_TYPE, DBLP[type_name]) > 0, type_name
        # Task-irrelevant types exist too (what meta-sampling prunes).
        for type_name in ("Publisher", "ConferenceEvent", "Project"):
            assert dblp_graph.count(None, RDF_TYPE, DBLP[type_name]) > 0, type_name
        assert stats.num_edge_types >= 15

    def test_every_paper_has_venue_and_author(self, dblp_graph):
        papers = list(dblp_graph.subjects(RDF_TYPE, DBLP["Publication"]))
        for paper in papers:
            assert dblp_graph.value(paper, DBLP["publishedIn"]) is not None
            assert dblp_graph.value(paper, DBLP["authoredBy"]) is not None

    def test_every_author_has_affiliation(self, dblp_graph):
        authors = list(dblp_graph.subjects(RDF_TYPE, DBLP["Person"]))
        assert authors
        for author in authors:
            assert dblp_graph.value(author, DBLP["affiliation"]) is not None

    def test_venue_labels_are_learnable_from_structure(self, dblp_graph):
        """Papers sharing an author should mostly share a venue (community signal)."""
        venue_of = {}
        for paper in dblp_graph.subjects(RDF_TYPE, DBLP["Publication"]):
            venue_of[paper] = dblp_graph.value(paper, DBLP["publishedIn"])
        same, total = 0, 0
        for author in dblp_graph.subjects(RDF_TYPE, DBLP["Person"]):
            papers = [p for p in dblp_graph.subjects(DBLP["authoredBy"], author)
                      if p in venue_of]
            for i in range(len(papers) - 1):
                total += 1
                if venue_of[papers[i]] == venue_of[papers[i + 1]]:
                    same += 1
        if total:
            assert same / total > 0.4

    def test_scale_controls_size(self):
        small = generate_dblp_kg(DBLPConfig(scale=0.1, seed=5))
        large = generate_dblp_kg(DBLPConfig(scale=0.3, seed=5))
        assert len(large) > len(small)

    def test_literals_can_be_disabled(self):
        config = DBLPConfig(scale=0.1, include_literals=False)
        graph = generate_dblp_kg(config)
        assert not any(isinstance(o, Literal) for _, _, o in graph)

    def test_irrelevant_structure_can_be_disabled(self):
        config = DBLPConfig(scale=0.1, include_irrelevant_structure=False)
        graph = generate_dblp_kg(config)
        assert graph.count(None, RDF_TYPE, DBLP["Publisher"]) == 0
        with_irrelevant = generate_dblp_kg(DBLPConfig(scale=0.1))
        assert len(with_irrelevant) > len(graph)


class TestYAGOGenerator:
    def test_deterministic_for_seed(self):
        config = YAGOConfig(scale=0.1, seed=11)
        assert generate_yago_kg(config) == generate_yago_kg(YAGOConfig(scale=0.1, seed=11))

    def test_schema_shape(self, yago_graph):
        for type_name in ("Place", "Country", "Person", "Organization"):
            assert yago_graph.count(None, RDF_TYPE, YAGO[type_name]) > 0, type_name
        for type_name in ("CreativeWork", "Event", "Product"):
            assert yago_graph.count(None, RDF_TYPE, YAGO[type_name]) > 0, type_name

    def test_every_place_has_country(self, yago_graph):
        places = list(yago_graph.subjects(RDF_TYPE, YAGO["Place"]))
        assert places
        for place in places:
            assert yago_graph.value(place, YAGO["locatedInCountry"]) is not None

    def test_country_labels_learnable_from_neighbours(self, yago_graph):
        country_of = {place: yago_graph.value(place, YAGO["locatedInCountry"])
                      for place in yago_graph.subjects(RDF_TYPE, YAGO["Place"])}
        same, total = 0, 0
        for place, country in country_of.items():
            for neighbor in yago_graph.objects(place, SCHEMA["containedInPlace"]):
                if neighbor in country_of:
                    total += 1
                    if country_of[neighbor] == country:
                        same += 1
        assert total > 0
        assert same / total > 0.6

    def test_bigger_than_zero_and_heterogeneous(self, yago_graph):
        stats = compute_statistics(yago_graph)
        assert stats.num_triples > 500
        assert stats.num_node_types >= 10


class TestTaskDefinitions:
    def test_dblp_tasks(self):
        nc = dblp_paper_venue_task()
        lp = dblp_author_affiliation_task()
        es = dblp_author_similarity_task()
        assert nc.task_type == TaskType.NODE_CLASSIFICATION
        assert nc.target_node_type == DBLP["Publication"]
        assert nc.label_predicate == DBLP["publishedIn"]
        assert lp.task_type == TaskType.LINK_PREDICTION
        assert lp.target_predicate == DBLP["affiliation"]
        assert es.task_type == TaskType.ENTITY_SIMILARITY
        assert nc.seed_node_type == DBLP["Publication"]
        assert lp.seed_node_type == DBLP["Person"]

    def test_yago_task(self):
        task = yago_place_country_task()
        assert task.target_node_type == YAGO["Place"]
        assert task.label_predicate == YAGO["locatedInCountry"]

    def test_task_validation(self):
        from repro.gml.tasks import TaskSpec
        with pytest.raises(DatasetError):
            TaskSpec(task_type="node_classification")
        with pytest.raises(DatasetError):
            TaskSpec(task_type="link_prediction")
        with pytest.raises(DatasetError):
            TaskSpec(task_type="unknown_task")

    def test_task_as_dict_and_default_name(self):
        task = dblp_paper_venue_task()
        payload = task.as_dict()
        assert payload["target_node_type"] == DBLP["Publication"].value
        from repro.gml.tasks import TaskSpec
        unnamed = TaskSpec(task_type=TaskType.NODE_CLASSIFICATION,
                           target_node_type=DBLP["Publication"],
                           label_predicate=DBLP["publishedIn"])
        assert unnamed.name.startswith("nc_")
