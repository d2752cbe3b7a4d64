"""Unit tests for the KGMeta governor and the kgnet: ontology."""

import pytest

from repro.exceptions import ModelNotFoundError
from repro.gml.tasks import TaskSpec, TaskType
from repro.kgnet import KGMetaGovernor, ModelMetadata
from repro.kgnet.kgmeta import ontology as O
from repro.rdf import DBLP, IRI, RDF_TYPE
from repro.sparql import SPARQLEndpoint


@pytest.fixture()
def governor():
    return KGMetaGovernor(SPARQLEndpoint())


def make_metadata(governor, task, method="rgcn", accuracy=0.8, inference=0.05,
                  cardinality=100):
    uri = governor.mint_model_uri(task, method)
    return ModelMetadata(
        uri=uri, task_type=task.task_type,
        model_class=O.classifier_class_for_task(task.task_type),
        method=method, accuracy=accuracy, inference_seconds=inference,
        training_seconds=1.0, training_memory_bytes=1024, cardinality=cardinality,
        sampler=method, meta_sampling="d1h1",
        target_node_type=task.target_node_type,
        label_predicate=task.label_predicate,
        source_node_type=task.source_node_type,
        destination_node_type=task.destination_node_type,
        target_predicate=task.target_predicate,
    )


class TestOntology:
    def test_task_to_class_mapping(self):
        assert O.classifier_class_for_task(TaskType.NODE_CLASSIFICATION) == O.NODE_CLASSIFIER
        assert O.classifier_class_for_task(TaskType.LINK_PREDICTION) == O.LINK_PREDICTOR
        assert O.classifier_class_for_task(TaskType.ENTITY_SIMILARITY) == O.ENTITY_SIMILARITY

    def test_unknown_task_raises(self):
        with pytest.raises(KeyError):
            O.classifier_class_for_task("clustering")

    def test_class_to_task_inverse(self):
        assert O.task_type_for_classifier(O.NODE_CLASSIFIER) == TaskType.NODE_CLASSIFICATION
        assert O.task_type_for_classifier(O.LINK_PREDICTOR) == TaskType.LINK_PREDICTION
        assert O.task_type_for_classifier(DBLP["Publication"]) is None

    def test_vocabulary_iris_use_kgnet_namespace(self):
        for term in (O.TARGET_NODE, O.NODE_LABEL, O.MODEL_ACCURACY, O.INFERENCE_TIME):
            assert term.value.startswith("https://www.kgnet.com/")


class TestGovernorRegistration:
    def test_register_and_describe(self, governor, paper_venue_task):
        metadata = make_metadata(governor, paper_venue_task)
        uri = governor.register_model(paper_venue_task, metadata)
        described = governor.describe(uri)
        assert described.method == "rgcn"
        assert described.accuracy == pytest.approx(0.8)
        assert described.inference_seconds == pytest.approx(0.05)
        assert described.cardinality == 100
        assert described.target_node_type == paper_venue_task.target_node_type
        assert described.label_predicate == paper_venue_task.label_predicate
        assert described.task_type == TaskType.NODE_CLASSIFICATION

    def test_register_writes_kgmeta_named_graph(self, governor, paper_venue_task):
        metadata = make_metadata(governor, paper_venue_task)
        governor.register_model(paper_venue_task, metadata)
        assert len(governor.graph) > 0
        # The data KG default graph is untouched.
        assert len(governor.endpoint.graph) == 0

    def test_interlink_with_data_kg(self, governor, paper_venue_task):
        """Fig 7: the target node type carries a HasGMLTask edge into KGMeta."""
        metadata = make_metadata(governor, paper_venue_task)
        governor.register_model(paper_venue_task, metadata)
        task_nodes = list(governor.graph.objects(paper_venue_task.target_node_type,
                                                 O.HAS_GML_TASK))
        assert len(task_nodes) == 1

    def test_mint_model_uri_unique(self, governor, paper_venue_task):
        uri1 = governor.mint_model_uri(paper_venue_task, "rgcn")
        uri2 = governor.mint_model_uri(paper_venue_task, "rgcn")
        assert uri1 != uri2

    def test_describe_unknown_model_raises(self, governor):
        with pytest.raises(ModelNotFoundError):
            governor.describe(IRI("https://www.kgnet.com/model/none"))

    def test_metadata_as_dict(self, governor, paper_venue_task):
        metadata = make_metadata(governor, paper_venue_task)
        payload = metadata.as_dict()
        assert payload["method"] == "rgcn"
        assert payload["target_node_type"] == paper_venue_task.target_node_type.value


class TestGovernorQueries:
    def test_list_models(self, governor, paper_venue_task, author_affiliation_task):
        governor.register_model(paper_venue_task,
                                make_metadata(governor, paper_venue_task))
        governor.register_model(author_affiliation_task,
                                make_metadata(governor, author_affiliation_task,
                                              method="morse"))
        assert len(governor.list_models()) == 2
        assert len(governor.list_models(O.NODE_CLASSIFIER)) == 1
        assert len(governor) == 2

    def test_find_models_with_constraints(self, governor, paper_venue_task):
        governor.register_model(paper_venue_task,
                                make_metadata(governor, paper_venue_task))
        matches = governor.find_models(O.NODE_CLASSIFIER, {
            O.TARGET_NODE: paper_venue_task.target_node_type,
            O.NODE_LABEL: paper_venue_task.label_predicate,
        })
        assert len(matches) == 1
        misses = governor.find_models(O.NODE_CLASSIFIER, {
            O.TARGET_NODE: DBLP["Person"],
        })
        assert misses == []

    def test_find_models_ignores_none_constraints(self, governor, paper_venue_task):
        governor.register_model(paper_venue_task,
                                make_metadata(governor, paper_venue_task))
        matches = governor.find_models(O.NODE_CLASSIFIER, {O.TARGET_NODE: None})
        assert len(matches) == 1

    def test_kgmeta_queryable_via_sparql(self, governor, paper_venue_task):
        """KGMeta is an ordinary RDF graph: the Fig 2 triple patterns match it."""
        governor.register_model(paper_venue_task,
                                make_metadata(governor, paper_venue_task))
        result = governor.endpoint.select("""
            PREFIX kgnet: <https://www.kgnet.com/>
            PREFIX dblp: <https://www.dblp.org/>
            SELECT ?m ?acc WHERE {
              ?m a kgnet:NodeClassifier .
              ?m kgnet:TargetNode dblp:Publication .
              ?m kgnet:NodeLabel dblp:publishedIn .
              ?m kgnet:modelAccuracy ?acc . }""")
        assert len(result) == 1
        assert result[0].get_value("acc").to_python() == pytest.approx(0.8)


class TestGovernorDeletion:
    def test_delete_model_removes_triples(self, governor, paper_venue_task):
        metadata = make_metadata(governor, paper_venue_task)
        uri = governor.register_model(paper_venue_task, metadata)
        removed = governor.delete_model(uri)
        assert removed > 0
        assert governor.find_models(O.NODE_CLASSIFIER) == []
        with pytest.raises(ModelNotFoundError):
            governor.describe(uri)

    def test_delete_models_by_constraints(self, governor, paper_venue_task):
        governor.register_model(paper_venue_task,
                                make_metadata(governor, paper_venue_task))
        governor.register_model(paper_venue_task,
                                make_metadata(governor, paper_venue_task,
                                              method="graph_saint"))
        matching = governor.find_models(O.NODE_CLASSIFIER, {
            O.TARGET_NODE: paper_venue_task.target_node_type})
        for metadata in matching:
            governor.delete_model(metadata.uri)
        assert len(matching) == 2
        assert len(governor) == 0
