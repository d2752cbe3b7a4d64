"""Integration tests: the full KGNet platform executing SPARQL-ML end to end."""

import numpy as np
import pytest

from repro.exceptions import ModelNotFoundError
from repro.gml.tasks import TaskType
from repro.kgnet import KGNet, ModelSelectionObjective
from repro.kgnet.kgmeta import ontology as O
from repro.rdf import DBLP, IRI, RDF_TYPE
from tests.kgnet.test_sparqlml import (
    FIG2_SELECT,
    FIG8_INSERT,
    FIG9_DELETE,
    FIG10_LINK_SELECT,
)


class TestTrainingFlows:
    def test_programmatic_training_registers_model(self, fresh_platform,
                                                   paper_venue_task):
        report = fresh_platform.train_task(paper_venue_task, method="rgcn")
        assert report.task_type == TaskType.NODE_CLASSIFICATION
        assert report.method == "rgcn"
        assert 0.0 <= report.metrics["accuracy"] <= 1.0
        assert report.meta_sampling["enabled"]
        assert report.meta_sampling["num_subgraph_triples"] < \
            report.meta_sampling["num_kg_triples"]
        models = fresh_platform.list_models()
        assert len(models) == 1
        assert models[0].uri.value == report.model_uri
        assert fresh_platform.describe_model(report.model_uri)["method"] == "rgcn"

    def test_training_without_meta_sampling(self, fresh_platform, paper_venue_task):
        report = fresh_platform.train_task(paper_venue_task, method="graph_saint",
                                           use_meta_sampling=False)
        assert not report.meta_sampling["enabled"]

    def test_sparqlml_insert_trains_model(self, fresh_platform):
        report = fresh_platform.train_sparqlml(FIG8_INSERT, method="rgcn")
        assert report.task_name == "MAG_Paper-Venue_Classifer"
        assert len(fresh_platform.list_models()) == 1
        assert report.within_budget

    def test_automatic_method_selection(self, fresh_platform, paper_venue_task):
        report = fresh_platform.train_task(paper_venue_task)
        assert report.method in ("shadow_saint", "graph_saint", "rgcn", "gcn", "gat")

    def test_link_prediction_training(self, fresh_platform, author_affiliation_task):
        report = fresh_platform.train_task(author_affiliation_task, method="morse",
                                           meta_sampling="d2h1")
        assert report.task_type == TaskType.LINK_PREDICTION
        assert "hits@10" in report.metrics
        assert report.meta_sampling["config"] == "d2h1"


class TestSelectQueries:
    def test_fig2_select_returns_predictions(self, trained_platform):
        report = trained_platform.query(FIG2_SELECT)
        kg = trained_platform.graph
        num_papers = kg.count(None, RDF_TYPE, DBLP["Publication"])
        assert len(report.results) == num_papers
        assert len(report.models) == 1
        venues = set(report.results.column("venue")) - {None}
        assert venues, "every paper should get a predicted venue"
        for venue in venues:
            assert "venue" in venue.value
        titles = report.results.column("title")
        assert all(title is not None for title in titles)

    def test_dictionary_plan_uses_single_http_call(self, trained_platform):
        report = trained_platform.query(FIG2_SELECT, force_plan="dictionary")
        assert report.plans[0].plan == "dictionary"
        assert report.http_calls == 1

    def test_per_instance_plan_calls_once_per_target(self, trained_platform):
        report = trained_platform.query(FIG2_SELECT, force_plan="per_instance")
        num_papers = trained_platform.graph.count(None, RDF_TYPE, DBLP["Publication"])
        assert report.http_calls == num_papers

    def test_default_plan_minimises_calls(self, trained_platform):
        """With many targets the optimizer must pick the dictionary plan."""
        report = trained_platform.query(FIG2_SELECT)
        assert report.plans[0].plan == "dictionary"
        assert report.http_calls == 1
        assert report.as_dict()["plans"][0]["plan"] == "dictionary"

    def test_link_prediction_select(self, trained_platform):
        report = trained_platform.query(FIG10_LINK_SELECT)
        num_persons = trained_platform.graph.count(None, RDF_TYPE, DBLP["Person"])
        assert len(report.results) == num_persons
        affiliations = report.results.column("affiliation")
        assert any(value is not None for value in affiliations)

    def test_select_without_model_raises(self, fresh_platform):
        with pytest.raises(ModelNotFoundError):
            fresh_platform.query(FIG2_SELECT)

    def test_plain_sparql_passthrough(self, trained_platform):
        result = trained_platform.execute(
            "PREFIX dblp: <https://www.dblp.org/>\n"
            "SELECT (COUNT(?p) AS ?n) WHERE { ?p a dblp:Publication . }")
        assert result[0].get_value("n").to_python() == \
            trained_platform.graph.count(None, RDF_TYPE, DBLP["Publication"])

    def test_model_selection_objective_threaded(self, trained_platform):
        report = trained_platform.query(
            FIG2_SELECT, objective=ModelSelectionObjective(max_inference_seconds=1e9))
        assert len(report.models) == 1

    def test_predictions_agree_with_direct_inference(self, trained_platform):
        query_with_paper = FIG2_SELECT.replace("select ?title ?venue",
                                               "select ?paper ?title ?venue")
        report = trained_platform.query(query_with_paper)
        model_uri = report.models[0].uri
        row = report.results[0]
        paper = row.get_value("paper")
        venue = row.get_value("venue")
        assert paper is not None and venue is not None
        assert trained_platform.predict_node_class(model_uri, paper.value) == venue.value


class TestDeleteQueries:
    def test_fig9_delete_removes_model_and_metadata(self, fresh_platform,
                                                    paper_venue_task):
        report = fresh_platform.train_task(paper_venue_task, method="rgcn")
        assert len(fresh_platform.list_models()) == 1
        deletion = fresh_platform.delete_models(FIG9_DELETE)
        assert deletion.deleted_models == [report.model_uri]
        assert deletion.deleted_triples > 0
        assert fresh_platform.list_models() == []
        assert not fresh_platform.gmlaas.has_model(IRI(report.model_uri))

    def test_delete_via_execute_routing(self, fresh_platform, paper_venue_task):
        fresh_platform.train_task(paper_venue_task, method="rgcn")
        deletion = fresh_platform.execute(FIG9_DELETE)
        assert len(deletion.deleted_models) == 1

    def test_delete_with_no_matching_model(self, fresh_platform):
        deletion = fresh_platform.delete_models(FIG9_DELETE)
        assert deletion.deleted_models == []


class TestDirectInference:
    def test_predict_links_topk(self, trained_platform):
        lp_model = next(m for m in trained_platform.list_models()
                        if m.task_type == TaskType.LINK_PREDICTION)
        author = next(iter(trained_platform.graph.subjects(
            RDF_TYPE, DBLP["Person"])))
        links = trained_platform.predict_links(lp_model.uri, author.value, k=3)
        assert 0 < len(links) <= 3
        assert all("affiliation" in link["entity"] for link in links)

    def test_similar_entities(self, trained_platform):
        lp_model = next(m for m in trained_platform.list_models()
                        if m.task_type == TaskType.LINK_PREDICTION)
        entity = next(iter(trained_platform.graph.subjects(
            RDF_TYPE, DBLP["Person"])))
        similar = trained_platform.similar_entities(lp_model.uri, entity.value, k=4)
        assert len(similar) == 4

    def test_statistics_summary(self, trained_platform):
        stats = trained_platform.statistics()
        assert stats["kgmeta_models"] == len(trained_platform.list_models())
        assert stats["stored_models"] >= 2
        assert stats["kg"]["num_triples"] == len(trained_platform.graph)
        assert "KGNet" in repr(trained_platform)


class TestExecuteRouting:
    def test_execute_routes_train(self, fresh_platform):
        report = fresh_platform.execute(FIG8_INSERT, method="rgcn")
        assert report.model_uri in [m.uri.value for m in fresh_platform.list_models()]

    def test_sparql_method_handles_updates(self, fresh_platform):
        before = len(fresh_platform.graph)
        fresh_platform.sparql(
            "PREFIX dblp: <https://www.dblp.org/>\n"
            "INSERT DATA { dblp:extra a dblp:Publication . }")
        assert len(fresh_platform.graph) == before + 1
