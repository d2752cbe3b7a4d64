"""Pinned Dataset-Transformer output on the tasks the model digests miss.

``test_train_pipeline_models_are_pinned`` fixes the DBLP node-classification
path end to end; these fix KG' (its triples, in its iteration order) and the
transformed arrays and name lists for YAGO node classification, DBLP link
prediction, entity similarity and a d2h2 KG'.  Node order is part of the
digest, so any change to how KG' or the transformer numbers terms shows.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.datasets import (
    DBLPConfig,
    YAGOConfig,
    dblp_author_affiliation_task,
    dblp_paper_venue_task,
    generate_dblp_kg,
    generate_yago_kg,
    yago_place_country_task,
)
from repro.exceptions import DatasetError
from repro.gml.tasks import TaskSpec, TaskType
from repro.gml.transform import RDFGraphTransformer
from repro.kgnet import MetaSampler, MetaSamplingConfig
from repro.kgnet.gmlaas.training_manager import GMLTrainingManager
from repro.rdf import BNode, DBLP, Graph, IRI, Literal, RDF_TYPE


def triples_digest(graph) -> str:
    return hashlib.sha256("\n".join(t.n3() for t in graph).encode()).hexdigest()


def data_digest(data) -> str:
    """Every field of a GraphData / TriplesData: arrays by dtype, shape and
    bytes, everything else (counts, name lists) by repr."""
    hashed = hashlib.sha256()
    for entry in dataclasses.fields(data):
        value = getattr(data, entry.name)
        hashed.update(entry.name.encode())
        if isinstance(value, np.ndarray):
            hashed.update(f"{value.dtype}{value.shape}".encode())
            hashed.update(np.ascontiguousarray(value).tobytes())
        else:
            hashed.update(repr(value).encode())
    return hashed.hexdigest()


@pytest.fixture(scope="module")
def dblp():
    return generate_dblp_kg(DBLPConfig(scale=0.25, seed=3))


@pytest.fixture(scope="module")
def yago():
    return generate_yago_kg(YAGOConfig(scale=0.25, seed=3))


TRANSFORMER = RDFGraphTransformer(feature_dim=8, seed=0)
SIMILARITY = TaskSpec(task_type=TaskType.ENTITY_SIMILARITY, entity_node_type=DBLP["Person"])


def transform(task, kg_prime):
    if task.task_type == TaskType.NODE_CLASSIFICATION:
        return TRANSFORMER.to_node_classification_data(
            kg_prime, task.target_node_type, task.label_predicate)
    if task.task_type == TaskType.LINK_PREDICTION:
        return TRANSFORMER.to_link_prediction_data(kg_prime, task.target_predicate)
    return GMLTrainingManager()._entity_similarity_data(TRANSFORMER, kg_prime)


#: (graph fixture, task, meta-sampling label) -> digests of KG' triples and
#: of the transformed data, and the transform report.
PINS = {
    "yago-place-country-d1h1": (
        "yago", yago_place_country_task(), "d1h1",
        "9a47b1db59d6ed00edbdeaf73165c6b490a46eed155d3a2e5e2485f4655831d9",
        "a5e681f6afa47fa60a6e042c85a80588db95006e4d084362dfe9aa7039d10407",
        {"num_input_triples": 623, "num_structural_edges": 323,
         "num_literal_triples_removed": 200, "num_label_edges_removed": 100,
         "num_nodes": 105, "num_relations": 2, "num_target_nodes": 100,
         "num_labeled_nodes": 100, "num_classes": 3,
         "split_train": 60, "split_valid": 20, "split_test": 20}),
    "dblp-author-affiliation-d2h1": (
        "dblp", dblp_author_affiliation_task(), "d2h1",
        "1d3d14002d8050ef0154af19f387dec5277e2b2d9895673613a7ad8f1fc5c443",
        "4516a524799fdc8bfdef66138dc86f7b20532f6efa11e269452cbb1185824938",
        {"num_input_triples": 646, "num_structural_edges": 596,
         "num_literal_triples_removed": 50, "num_label_edges_removed": 0,
         "num_nodes": 227, "num_relations": 7, "num_target_nodes": 50,
         "num_labeled_nodes": 0, "num_classes": 0,
         "split_train": 576, "split_valid": 10, "split_test": 10}),
    "dblp-person-similarity-d1h1": (
        "dblp", SIMILARITY, "d1h1",
        "b5ebc33d53a97a6ef6f876dc9d14ab5f5a920a699cfe3cacd120e1dad59b163c",
        "d6873f601482c46036aa2f81d9d939f85d92e99e545800a72f7758e31ee259af",
        {"num_input_triples": 239, "num_structural_edges": 189,
         "num_literal_triples_removed": 50, "num_label_edges_removed": 0,
         "num_nodes": 84, "num_relations": 4, "num_target_nodes": 81,
         "num_labeled_nodes": 0, "num_classes": 0,
         "split_train": 157, "split_valid": 16, "split_test": 16}),
    "dblp-paper-venue-d2h2": (
        "dblp", dblp_paper_venue_task(), "d2h2",
        "672ff6f2249bbcef2b7ddaecdbbfe7b1d2116277d257576d243d5bc88f99f0aa",
        "6df087e92cf8ac302844d70ceacd888d1e183f739ccd310cba2946c5d76b3d67",
        {"num_input_triples": 1719, "num_structural_edges": 1264,
         "num_literal_triples_removed": 355, "num_label_edges_removed": 100,
         "num_nodes": 320, "num_relations": 18, "num_target_nodes": 100,
         "num_labeled_nodes": 100, "num_classes": 3,
         "split_train": 60, "split_valid": 20, "split_test": 20}),
}


@pytest.mark.parametrize("case", sorted(PINS))
def test_kg_prime_and_transform_are_pinned(request, case):
    graph_name, task, label, kg_digest, digest, counts = PINS[case]
    graph = request.getfixturevalue(graph_name)
    kg_prime, _ = MetaSampler(MetaSamplingConfig.from_label(label)).extract(graph, task)
    data, report = transform(task, kg_prime)
    assert (triples_digest(kg_prime), data_digest(data), report.as_dict()) == \
        (kg_digest, digest, counts)


# ---------------------------------------------------------------------------
# A hand-built graph: the corners the generated KGs do not reach
# ---------------------------------------------------------------------------

EX = "http://example.org/"
PAPER, VENUE, CITES = IRI(EX + "Paper"), IRI(EX + "venue"), IRI(EX + "cites")
DRAFT, TOPIC = IRI(EX + "Draft"), IRI(EX + "topic")


def corner_graph() -> Graph:
    graph = Graph()
    p1, p2, p3 = IRI(EX + "p1"), IRI(EX + "p2"), IRI(EX + "p3")
    graph.add(p1, RDF_TYPE, PAPER)
    graph.add(p1, CITES, p2)
    graph.add(p1, VENUE, IRI(EX + "v1"))
    graph.add(p2, RDF_TYPE, PAPER)        # two types: the first one seen wins
    graph.add(p2, RDF_TYPE, DRAFT)
    graph.add(p2, TOPIC, BNode("t1"))
    graph.add(p2, VENUE, Literal("Venue Two"))
    graph.add(p3, RDF_TYPE, PAPER)        # reached only by its type and label
    graph.add(p3, VENUE, IRI(EX + "v1"))
    graph.add(p3, IRI(EX + "title"), Literal("Three"))
    return graph


def test_corner_cases_number_by_first_occurrence():
    data, report = TRANSFORMER.to_node_classification_data(corner_graph(), PAPER, VENUE)
    assert data.node_names == [EX + "p1", EX + "Paper", EX + "p2", EX + "Draft",
                               "_:t1", EX + "p3"]
    assert data.relation_names == [RDF_TYPE.value, EX + "cites", EX + "topic"]
    assert data.class_names == [EX + "v1", "Venue Two"]
    assert data.labels.tolist() == [0, -1, 1, -1, -1, 0]
    assert data.node_types.tolist() == [0, -1, 0, -1, -1, 0]
    assert data.node_type_names == [PAPER.value]
    assert data.edge_index.tolist() == [[0, 0, 2, 2, 2, 5], [1, 2, 1, 3, 4, 1]]
    assert data.edge_type.tolist() == [0, 1, 0, 0, 2, 0]
    assert (report.num_target_nodes, report.num_labeled_nodes,
            report.num_label_edges_removed, report.num_literal_triples_removed) == \
        (3, 3, 3, 1)


@pytest.mark.parametrize("call", [
    lambda graph: TRANSFORMER.to_node_classification_data(graph, IRI(EX + "Unseen"), VENUE),
    lambda graph: TRANSFORMER.to_node_classification_data(graph, PAPER, IRI(EX + "unseen")),
    lambda graph: TRANSFORMER.to_link_prediction_data(graph, IRI(EX + "unseen")),
], ids=["target-type", "label-predicate", "target-predicate"])
def test_a_term_the_dictionary_never_saw_matches_nothing(call):
    graph = corner_graph()
    with pytest.raises(DatasetError):
        call(graph)
    assert IRI(EX + "unseen") not in graph.dictionary
    assert IRI(EX + "Unseen") not in graph.dictionary


def test_no_type_at_all_is_no_target():
    graph = Graph()
    graph.add(IRI(EX + "p1"), VENUE, IRI(EX + "v1"))
    with pytest.raises(DatasetError):
        TRANSFORMER.to_node_classification_data(graph, IRI(EX + "Unseen"), VENUE)
