"""Unit tests for the SPARQL-ML layer: parser, optimizer, rewriter, UDFs."""

import pytest

from repro.exceptions import ModelNotFoundError, SPARQLMLError
from repro.gml.tasks import TaskType
from repro.kgnet import (
    ModelMetadata,
    ModelSelectionObjective,
    SPARQLMLOptimizer,
    SPARQLMLParser,
    SPARQLMLRewriter,
)
from repro.kgnet.kgmeta import ontology as O
from repro.rdf import DBLP, IRI, Literal
from repro.sparql.parser import parse_query

# --- canonical query texts from the paper -----------------------------------

FIG2_SELECT = """
prefix dblp: <https://www.dblp.org/>
prefix kgnet: <https://www.kgnet.com/>
select ?title ?venue
where {
?paper a dblp:Publication.
?paper dblp:title ?title.
?paper ?NodeClassifier ?venue.
?NodeClassifier a kgnet:NodeClassifier.
?NodeClassifier kgnet:TargetNode dblp:Publication.
?NodeClassifier kgnet:NodeLabel dblp:publishedIn.}
"""

FIG8_INSERT = """
prefix dblp:<https://www.dblp.org/>
prefix kgnet:<https://www.kgnet.com/>
Insert into <kgnet> { ?s ?p ?o }
where {select * from kgnet.TrainGML(
  {Name: 'MAG_Paper-Venue_Classifer',
   GML-Task:{ TaskType: kgnet:NodeClassifier,
              TargetNode: dblp:Publication,
              NodeLable: dblp:publishedIn},
   Task Budget:{ MaxMemory:50GB, MaxTime:1h, Priority:ModelScore} } )};
"""

FIG9_DELETE = """
prefix dblp: <https://www.dblp.org/>
prefix kgnet: <https://www.kgnet.com/>
delete {?NodeClassifier ?p ?o}
where {
?NodeClassifier a kgnet:NodeClassifier.
?NodeClassifier kgnet:TargetNode dblp:Publication.
?NodeClassifier kgnet:NodeLabel dblp:publishedIn.}
"""

FIG10_LINK_SELECT = """
prefix dblp: <https://www.dblp.org/>
prefix kgnet: <https://www.kgnet.com/>
select ?author ?affiliation
where { ?author a dblp:Person.
?author ?LinkPredictor ?affiliation.
?LinkPredictor a kgnet:LinkPredictor.
?LinkPredictor kgnet:SourceNode dblp:Person.
?LinkPredictor kgnet:DestinationNode dblp:Affiliation.
?LinkPredictor kgnet:TopK-Links 10.}
"""


@pytest.fixture()
def parser():
    return SPARQLMLParser()


class TestClassification:
    def test_classify_each_request_kind(self, parser):
        assert parser.classify(FIG8_INSERT) == "train"
        assert parser.classify(FIG9_DELETE) == "delete"
        assert parser.classify(FIG2_SELECT) == "select"
        assert parser.classify("SELECT ?s WHERE { ?s ?p ?o . }") == "sparql"
        # Kinds come from the parse, not the surface text.
        assert parser.classify(FIG2_SELECT.replace(
            "a kgnet:NodeClassifier", "a <https://www.kgnet.com/NodeClassifier>")) == "select"
        assert parser.classify(FIG2_SELECT.replace("kgnet:", "kg:")) == "select"
        assert parser.classify(
            "SELECT ?s WHERE { ?s <http://example.org/ns#p> ?o . }"
            "  # next: kgnet.TrainGML({Name: 'x'})\n") == "sparql"
        assert parser.classify(
            "prefix kgnet: <https://www.kgnet.com/>\n"
            'SELECT ?s WHERE { ?s ?p "kgnet:NodeClassifier" . }') == "sparql"
        assert parser.classify(
            "prefix kgnet: <https://www.kgnet.com/>\n"
            "DELETE DATA { kgnet:m1 a kgnet:NodeClassifier . }") == "sparql"

    def test_plain_update_is_sparql(self, parser):
        assert parser.classify(
            "PREFIX dblp: <https://www.dblp.org/>\n"
            "INSERT DATA { dblp:a dblp:p dblp:b . }") == "sparql"


class TestSelectParsing:
    def test_fig2_user_defined_predicate(self, parser):
        query, predicates = parser.parse_select(FIG2_SELECT)
        assert len(predicates) == 1
        udp = predicates[0]
        assert udp.variable.name == "NodeClassifier"
        assert udp.task_type == TaskType.NODE_CLASSIFICATION
        assert udp.model_class == O.NODE_CLASSIFIER
        assert udp.constraints[O.TARGET_NODE] == DBLP["Publication"]
        assert udp.constraints[O.NODE_LABEL] == DBLP["publishedIn"]
        assert udp.subject_variable.name == "paper"
        assert udp.object_variable.name == "venue"

    def test_fig10_link_predictor_with_topk(self, parser):
        _, predicates = parser.parse_select(FIG10_LINK_SELECT)
        udp = predicates[0]
        assert udp.task_type == TaskType.LINK_PREDICTION
        assert udp.top_k == 10
        assert udp.constraints[O.SOURCE_NODE] == DBLP["Person"]
        assert udp.constraints[O.DESTINATION_NODE] == DBLP["Affiliation"]
        assert udp.subject_variable.name == "author"

    def test_plain_select_has_no_predicates(self, parser):
        _, predicates = parser.parse_select(
            "PREFIX dblp: <https://www.dblp.org/>\n"
            "SELECT ?s WHERE { ?s a dblp:Publication . }")
        assert predicates == []


class TestTrainParsing:
    def test_fig8_train_request(self, parser):
        request = parser.parse_train(FIG8_INSERT)
        assert request.name == "MAG_Paper-Venue_Classifer"
        assert request.task.task_type == TaskType.NODE_CLASSIFICATION
        assert request.task.target_node_type == DBLP["Publication"]
        assert request.task.label_predicate == DBLP["publishedIn"]
        assert request.budget.max_memory_bytes == 50 * 1024 ** 3
        assert request.budget.max_time_seconds == 3600
        assert request.budget.priority == "ModelScore"

    def test_train_request_link_prediction_payload(self, parser):
        request = parser.request_from_payload({
            "Name": "author_affiliation",
            "GML-Task": {
                "TaskType": "kgnet:LinkPredictor",
                "SourceNode": "dblp:Person",
                "DestinationNode": "dblp:Affiliation",
                "TargetEdge": "dblp:affiliation",
            },
            "TaskBudget": {"MaxMemory": "8GB", "Priority": "Time"},
        })
        assert request.task.task_type == TaskType.LINK_PREDICTION
        assert request.task.target_predicate == DBLP["affiliation"]
        assert request.budget.priority == "Time"

    def test_train_request_with_method_hint(self, parser):
        request = parser.request_from_payload({
            "Name": "x",
            "GML-Task": {"TaskType": "NodeClassifier",
                         "TargetNode": "dblp:Publication",
                         "NodeLabel": "dblp:publishedIn",
                         "GMLMethod": "ShadowSAINT"},
        })
        assert request.method == "shadowsaint"

    def test_non_train_insert_raises(self, parser):
        with pytest.raises(SPARQLMLError):
            parser.parse_train("INSERT DATA { <urn:a> <urn:b> <urn:c> . }")

    def test_malformed_json_raises(self, parser):
        with pytest.raises(SPARQLMLError):
            parser.parse_train("select * from kgnet.TrainGML({Name: 'x', )};")

    def test_unknown_task_type_raises(self, parser):
        with pytest.raises(SPARQLMLError):
            parser.request_from_payload({"Name": "x",
                                         "GML-Task": {"TaskType": "clustering"}})


class TestDeleteParsing:
    def test_fig9_delete_request(self, parser):
        request = parser.parse_delete(FIG9_DELETE)
        assert request.model_class == O.NODE_CLASSIFIER
        assert request.task_type == TaskType.NODE_CLASSIFICATION
        assert request.constraints[O.TARGET_NODE] == DBLP["Publication"]

    def test_delete_without_model_constraint_raises(self, parser):
        with pytest.raises(SPARQLMLError):
            parser.parse_delete(
                "PREFIX dblp: <https://www.dblp.org/>\n"
                "DELETE WHERE { ?s dblp:title ?t . }")


def make_model(uri: str, accuracy: float, inference: float,
               cardinality: int = 100) -> ModelMetadata:
    return ModelMetadata(uri=IRI(uri), task_type=TaskType.NODE_CLASSIFICATION,
                         model_class=O.NODE_CLASSIFIER, method="rgcn",
                         accuracy=accuracy, inference_seconds=inference,
                         cardinality=cardinality)


class TestModelSelectionOptimizer:
    def test_picks_highest_accuracy_by_default(self):
        optimizer = SPARQLMLOptimizer()
        models = [make_model("urn:m1", 0.7, 0.1), make_model("urn:m2", 0.9, 0.3)]
        assert optimizer.select_model(models).uri.value == "urn:m2"

    def test_inference_time_constraint(self):
        optimizer = SPARQLMLOptimizer()
        models = [make_model("urn:m1", 0.7, 0.1), make_model("urn:m2", 0.9, 0.3)]
        objective = ModelSelectionObjective(max_inference_seconds=0.2)
        assert optimizer.select_model(models, objective).uri.value == "urn:m1"

    def test_accuracy_floor_constraint(self):
        optimizer = SPARQLMLOptimizer()
        models = [make_model("urn:m1", 0.7, 0.1), make_model("urn:m2", 0.9, 0.3)]
        objective = ModelSelectionObjective(min_accuracy=0.8)
        assert optimizer.select_model(models, objective).uri.value == "urn:m2"

    def test_infeasible_constraints_fall_back_to_best(self):
        optimizer = SPARQLMLOptimizer()
        models = [make_model("urn:m1", 0.7, 0.1)]
        objective = ModelSelectionObjective(min_accuracy=0.99,
                                            max_inference_seconds=0.01)
        assert optimizer.select_model(models, objective).uri.value == "urn:m1"

    def test_time_weight_trades_accuracy(self):
        optimizer = SPARQLMLOptimizer()
        models = [make_model("urn:fast", 0.80, 0.01), make_model("urn:slow", 0.82, 5.0)]
        objective = ModelSelectionObjective(time_weight=0.1)
        assert optimizer.select_model(models, objective).uri.value == "urn:fast"

    def test_empty_candidates_raise(self):
        with pytest.raises(ModelNotFoundError):
            SPARQLMLOptimizer().select_model([])

    def test_rank_models_orders_best_first(self):
        """Picking from what is left each time orders the models best first."""
        optimizer = SPARQLMLOptimizer()
        models = [make_model("urn:m1", 0.7, 0.1), make_model("urn:m2", 0.9, 0.3),
                  make_model("urn:m3", 0.8, 0.2)]
        ranked = []
        while models:
            ranked.append(optimizer.select_model(models))
            models.remove(ranked[-1])
        assert [m.uri.value for m in ranked] == ["urn:m2", "urn:m3", "urn:m1"]


class TestPlanChoice:
    def test_many_targets_prefer_dictionary(self):
        optimizer = SPARQLMLOptimizer()
        choice = optimizer.choose_plan(target_cardinality=10_000,
                                       model_cardinality=10_000)
        assert choice.plan == "dictionary"
        assert choice.estimated_http_calls == 1
        assert choice.estimated_dictionary_entries == 10_000

    def test_few_targets_prefer_per_instance(self):
        optimizer = SPARQLMLOptimizer()
        choice = optimizer.choose_plan(target_cardinality=2, model_cardinality=1_000_000)
        assert choice.plan == "per_instance"
        assert choice.estimated_http_calls == 2
        assert choice.estimated_dictionary_entries == 0

    def test_force_plan_overrides_cost(self):
        optimizer = SPARQLMLOptimizer()
        choice = optimizer.choose_plan(10_000, 10_000, force_plan="per_instance")
        assert choice.plan == "per_instance"
        assert choice.alternatives["dictionary"] < choice.alternatives["per_instance"]

    def test_unknown_plan_rejected(self):
        with pytest.raises(Exception):
            SPARQLMLOptimizer().choose_plan(10, 10, force_plan="magic")

    def test_as_dict(self):
        payload = SPARQLMLOptimizer().choose_plan(10, 10).as_dict()
        assert "plan" in payload and "alternatives" in payload


class TestRewriter:
    def setup_method(self):
        self.parser = SPARQLMLParser()
        self.rewriter = SPARQLMLRewriter()
        self.optimizer = SPARQLMLOptimizer()
        self.model_uri = IRI("https://www.kgnet.com/model/test/1")

    def test_per_instance_plan_rewrite(self):
        query, predicates = self.parser.parse_select(FIG2_SELECT)
        plan = self.optimizer.choose_plan(3, 100)
        rewritten = self.rewriter.rewrite(query, predicates[0], self.model_uri, plan)
        assert rewritten.plan == "per_instance"
        assert "sql:UDFS.getNodeClass" in rewritten.text
        assert "?NodeClassifier" not in rewritten.text
        assert "kgnet:TargetNode" not in rewritten.text
        # The rewritten text is plain SPARQL: it must re-parse.
        parse_query(rewritten.text)

    def test_dictionary_plan_rewrite(self):
        query, predicates = self.parser.parse_select(FIG2_SELECT)
        plan = self.optimizer.choose_plan(10_000, 10_000)
        rewritten = self.rewriter.rewrite(query, predicates[0], self.model_uri, plan)
        assert rewritten.plan == "dictionary"
        assert "sql:UDFS.getKeyValue" in rewritten.text
        assert rewritten.text.count("sql:UDFS.getNodeClass") == 1
        assert "SELECT" in rewritten.text and rewritten.text.count("SELECT") == 2
        parse_query(rewritten.text)

    def test_link_prediction_rewrite_uses_topk(self):
        query, predicates = self.parser.parse_select(FIG10_LINK_SELECT)
        plan = self.optimizer.choose_plan(5, 100)
        rewritten = self.rewriter.rewrite(query, predicates[0], self.model_uri, plan)
        assert "sql:UDFS.getTopKLinks" in rewritten.text
        parse_query(rewritten.text)

    def test_link_prediction_rewrite_top1(self):
        text = FIG10_LINK_SELECT.replace("kgnet:TopK-Links 10", "kgnet:TopK-Links 1")
        query, predicates = self.parser.parse_select(text)
        plan = self.optimizer.choose_plan(5, 100)
        rewritten = self.rewriter.rewrite(query, predicates[0], self.model_uri, plan)
        assert "sql:UDFS.getLinkPred" in rewritten.text

    def test_rewrite_requires_data_triple(self):
        text = """
        prefix kgnet: <https://www.kgnet.com/>
        select ?m where { ?m a kgnet:NodeClassifier . }
        """
        query, predicates = self.parser.parse_select(text)
        plan = self.optimizer.choose_plan(5, 10)
        with pytest.raises(SPARQLMLError):
            self.rewriter.rewrite(query, predicates[0], self.model_uri, plan)

    def test_rewritten_as_dict(self):
        query, predicates = self.parser.parse_select(FIG2_SELECT)
        plan = self.optimizer.choose_plan(3, 10)
        rewritten = self.rewriter.rewrite(query, predicates[0], self.model_uri, plan)
        payload = rewritten.as_dict()
        assert payload["model_uri"] == self.model_uri.value
        assert payload["predicate_variable"] == "?NodeClassifier"
