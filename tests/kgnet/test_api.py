"""Tests for the versioned service API: envelopes, error codes, router, client."""

import inspect
import json

import pytest

import repro.exceptions as X
from repro.exceptions import (
    BadRequestError,
    CursorError,
    KGNetError,
    ModelNotFoundError,
    UnknownOperationError,
)
from repro.gml.tasks import TaskSpec
from repro.kgnet import KGNet
from repro.kgnet.api import (
    API_VERSION,
    APIClient,
    APIRequest,
    APIResponse,
    error_code,
    error_payload,
    exception_from_payload,
)
from repro.kgnet.api.errors import ERROR_CODES
from repro.rdf import DBLP, RDF_TYPE
from repro.rdf.io import serialize_ntriples
from repro.server.service import ServiceHandler, ServiceRequest
from tests.kgnet.test_sparqlml import FIG2_SELECT, FIG8_INSERT, FIG9_DELETE


def post(platform, op, **params):
    """One op over the service layer: ``(HTTP status, error code or None)``."""
    response = ServiceHandler(platform.api).handle(ServiceRequest(
        "POST", f"/kgnet/v1/{op}", {"Content-Type": "application/json"},
        json.dumps(params).encode("utf-8")))
    error = json.loads(response.read_body()).get("error")
    return response.status, error and error["code"]


def _all_exception_classes():
    return [cls for _, cls in inspect.getmembers(X, inspect.isclass)
            if issubclass(cls, X.KGNetError)]


# ---------------------------------------------------------------------------
# Error-code contract
# ---------------------------------------------------------------------------


class TestErrorCodes:
    def test_every_exception_class_has_a_registered_code(self):
        for cls in _all_exception_classes():
            assert cls in ERROR_CODES, f"{cls.__name__} misses an error code"

    def test_codes_are_unique(self):
        codes = list(ERROR_CODES.values())
        assert len(codes) == len(set(codes))

    @pytest.mark.parametrize("cls", _all_exception_classes(),
                             ids=lambda cls: cls.__name__)
    def test_round_trip_through_json_envelope(self, cls):
        """exception -> error payload -> JSON -> payload -> same class."""
        if cls is X.ParseError:
            error = cls("bad token", line=3, column=7)
        elif cls is X.BudgetExceededError:
            error = cls("too slow", elapsed_seconds=1.5, peak_memory_bytes=2048)
        else:
            error = cls("boom")
        request = APIRequest(op="test")
        response = APIResponse.failure(request, error)
        wire = json.loads(json.dumps(response.to_dict()))
        parsed = APIResponse.from_dict(wire)
        assert parsed.error["code"] == ERROR_CODES[cls]
        rebuilt = exception_from_payload(parsed.error)
        assert type(rebuilt) is cls
        with pytest.raises(cls):
            parsed.raise_for_error()

    def test_parse_error_keeps_position(self):
        rebuilt = exception_from_payload(
            error_payload(X.ParseError("oops", line=4, column=9)))
        assert (rebuilt.line, rebuilt.column) == (4, 9)

    def test_budget_error_keeps_measurements(self):
        rebuilt = exception_from_payload(error_payload(
            X.BudgetExceededError("x", elapsed_seconds=2.0, peak_memory_bytes=99)))
        assert rebuilt.elapsed_seconds == 2.0
        assert rebuilt.peak_memory_bytes == 99

    def test_unregistered_subclass_inherits_parent_code(self):
        class CustomError(ModelNotFoundError):
            pass
        assert error_code(CustomError("x")) == ERROR_CODES[ModelNotFoundError]

    def test_foreign_exception_maps_to_internal_error(self):
        assert error_code(ValueError("x")) == "INTERNAL_ERROR"
        rebuilt = exception_from_payload(error_payload(ValueError("x")))
        assert isinstance(rebuilt, KGNetError)


# ---------------------------------------------------------------------------
# Envelopes
# ---------------------------------------------------------------------------


class TestEnvelopes:
    def test_request_round_trip(self):
        request = APIRequest(op="sparql", params={"query": "SELECT * WHERE {?s ?p ?o}"})
        clone = APIRequest.from_json(request.to_json())
        assert clone.op == request.op
        assert clone.params == request.params
        assert clone.request_id == request.request_id
        assert clone.api_version == API_VERSION

    def test_request_ids_are_assigned_and_distinct(self):
        a, b = APIRequest(op="ping"), APIRequest(op="ping")
        assert a.request_id and b.request_id and a.request_id != b.request_id

    def test_request_without_op_is_rejected(self):
        with pytest.raises(BadRequestError):
            APIRequest.from_dict({"params": {}})

    def test_wrong_version_family_is_rejected(self):
        with pytest.raises(BadRequestError):
            APIRequest.from_dict({"op": "ping", "api_version": "otherproto/v9"})

    def test_future_version_of_same_family_is_rejected(self):
        with pytest.raises(BadRequestError):
            APIRequest.from_dict({"op": "ping", "api_version": "kgnet/v99"})

    def test_response_round_trip_drops_attachment(self):
        request = APIRequest(op="ping")
        response = APIResponse.success(request, {"status": "ok"},
                                       attachment=object())
        clone = APIResponse.from_json(response.to_json())
        assert clone.ok and clone.result == {"status": "ok"}
        assert clone.attachment is None
        assert clone.raise_for_error() is clone


# ---------------------------------------------------------------------------
# Router dispatch
# ---------------------------------------------------------------------------


class TestRouterDispatch:
    def test_unknown_operation_becomes_error_envelope(self, fresh_platform):
        response = fresh_platform.api.dispatch(APIRequest(op="explode"))
        assert not response.ok
        assert response.error["code"] == "UNKNOWN_OPERATION"
        assert isinstance(response.attachment, UnknownOperationError)

    def test_missing_parameter_becomes_bad_request(self, fresh_platform):
        response = fresh_platform.api.dispatch(APIRequest(op="sparql"))
        assert not response.ok
        assert response.error["code"] == "BAD_REQUEST"

    def test_malformed_envelope_dict(self, fresh_platform):
        response = fresh_platform.api.dispatch({"params": {}})
        assert not response.ok
        assert response.error["code"] == "BAD_REQUEST"

    def test_platform_error_maps_to_stable_code(self, fresh_platform):
        response = fresh_platform.api.dispatch(
            APIRequest(op="sparqlml_select", params={"query": FIG2_SELECT}))
        assert not response.ok
        assert response.error["code"] == "MODEL_NOT_FOUND"
        assert isinstance(response.attachment, ModelNotFoundError)

    @pytest.mark.parametrize("bad_k", ["abc", None, [1]], ids=repr)
    @pytest.mark.parametrize("op,params", [
        ("infer_links", {"source": "http://s"}),
        ("infer_similar", {"entity": "http://s"}),
        ("infer_batch", {"inputs": ["http://s"]}),
    ])
    def test_malformed_k_is_a_bad_request(self, fresh_platform, op, params, bad_k):
        response = fresh_platform.api.dispatch(APIRequest(
            op=op, params={"model_uri": "http://m", "k": bad_k, **params}))
        assert not response.ok
        assert response.error["code"] == "BAD_REQUEST"
        assert "'k'" in response.error["message"]

    def test_every_route_result_is_json_serializable(self, trained_platform):
        model_uri = next(m for m in trained_platform.list_models()
                         if m.task_type == "node_classification").uri.value
        paper = next(iter(trained_platform.graph.subjects(
            RDF_TYPE, DBLP["Publication"]))).value
        calls = {
            "ping": {},
            "sparql": {"query": "SELECT ?s WHERE { ?s a <https://www.dblp.org/Publication> }"},
            "sparqlml": {"query": FIG2_SELECT},
            "sparqlml_select": {"query": FIG2_SELECT},
            "infer_node_class": {"model_uri": model_uri, "node": paper},
            "infer_batch": {"model_uri": model_uri, "inputs": [paper]},
            "list_models": {},
            "describe_model": {"model_uri": model_uri},
            "stats": {},
            "metrics": {},
        }
        for op, params in calls.items():
            response = trained_platform.api.dispatch(
                APIRequest(op=op, params=params))
            assert response.ok, f"{op} failed: {response.error}"
            json.dumps(response.to_dict())
            assert response.meta["elapsed_seconds"] >= 0.0

    def test_metrics_count_calls_and_errors(self, fresh_platform):
        fresh_platform.api.dispatch(APIRequest(op="ping"))
        fresh_platform.api.dispatch(APIRequest(op="ping"))
        fresh_platform.api.dispatch(APIRequest(op="sparql"))  # missing param
        metrics = fresh_platform.api.metrics()
        assert metrics["ping"]["calls"] == 2
        assert metrics["ping"]["errors"] == 0
        assert metrics["sparql"]["errors"] == 1

    def test_unknown_ops_share_one_metrics_key(self, fresh_platform):
        for i in range(5):
            fresh_platform.api.dispatch(APIRequest(op=f"bogus_{i}"))
        metrics = fresh_platform.api.metrics()
        assert metrics["<unknown>"]["calls"] == 5
        assert metrics["<unknown>"]["errors"] == 5
        assert not any(op.startswith("bogus_") for op in metrics)

    def test_unknown_parameter_is_rejected_not_ignored(self, fresh_platform):
        response = fresh_platform.api.dispatch(APIRequest(
            op="train", params={"query": "x", "methd": "rgcn"}))
        assert not response.ok
        assert response.error["code"] == "BAD_REQUEST"
        assert "methd" in response.error["message"]
        with pytest.raises(BadRequestError):
            fresh_platform.train_sparqlml("unused", use_metasampling=False)

    @pytest.mark.parametrize("op,params", [
        ("train", {"meta_sampling": {"direction": 1, "hops": 1, "bogus": 1}}),
        ("train", {"meta_sampling": {"direction": 1, "hops": "x"}}),
        ("sparqlml_select", {"query": FIG2_SELECT, "objective": {"bogus": 1}}),
        ("sparqlml_select", {"query": FIG2_SELECT,
                             "objective": {"minimise": "inference_time"}}),
        ("train", {"budget": {"MaxMemory": "lots"}}),
        ("train", {"budget": {"MaxMemory": "-5GB"}}),
        ("train", {"budget": {"MaxMemory": "nan"}}),
        ("train", {"budget": {"MaxMemory": True}}),
        ("train", {"budget": {"priority": "Fast"}}),
        ("train", {"task": {"task_type": "nope"}}),
        ("train", {"task": {"task_type": "node_classification"}}),
    ], ids=["meta_sampling-unknown-field", "meta_sampling-wrong-type",
            "objective-unknown-field", "objective-minimise",
            "budget-bad-quantity", "budget-negative", "budget-nan", "budget-boolean",
            "budget-unknown-priority", "task-unknown-type", "task-missing-target"])
    def test_malformed_config_object_is_a_bad_request(self, fresh_platform,
                                                      paper_venue_task, op, params):
        if op == "train":
            params = {"task": paper_venue_task.as_dict(), **params}
        response = fresh_platform.api.dispatch(APIRequest(op=op, params=params))
        assert not response.ok
        assert response.error["code"] == "BAD_REQUEST"
        assert isinstance(response.attachment, BadRequestError)
        if op == "train":
            assert post(fresh_platform, op, **params) == (400, "BAD_REQUEST")

    @pytest.mark.parametrize("old,new", [
        ("MaxMemory:50GB", "MaxMemory:lots"),
        ("MaxMemory:50GB", "MaxMemory:'-5GB'"),
        ("MaxMemory:50GB", "MaxMemory:'nan'"),
        ("Priority:ModelScore", "Priority:Fast"),
        ("TargetNode: dblp:Publication,", ""),
        ("{ MaxMemory:50GB, MaxTime:1h, Priority:ModelScore}", "8GB"),
        ("{ MaxMemory:50GB, MaxTime:1h, Priority:ModelScore}", "[1]"),
    ], ids=["budget-bad-quantity", "budget-negative", "budget-nan",
            "budget-unknown-priority", "task-missing-target", "budget-not-an-object",
            "budget-a-list"])
    def test_malformed_train_insert_is_a_sparqlml_error(self, fresh_platform,
                                                        old, new):
        assert old in FIG8_INSERT
        query = FIG8_INSERT.replace(old, new)
        assert post(fresh_platform, "sparqlml", query=query) == (400, "SPARQLML_ERROR")
        assert fresh_platform.list_models() == []

    def test_select_pagination_cursors(self, fresh_platform):
        result = fresh_platform.api.dispatch(APIRequest(
            op="sparql",
            params={"query": "SELECT ?s ?p ?o WHERE { ?s ?p ?o }",
                    "page_size": 10})).result
        assert len(result["rows"]) == 10
        assert result["total_rows"] > 10
        cursor = result["next_cursor"]
        seen = len(result["rows"])
        while cursor:
            page = fresh_platform.api.dispatch(
                APIRequest(op="next_page", params={"cursor": cursor})).result
            seen += len(page["items"])
            cursor = page["next_cursor"]
        assert seen == result["total_rows"]

    def test_bad_page_size_does_not_consume_cursor(self, fresh_platform):
        result = fresh_platform.api.dispatch(APIRequest(
            op="sparql", params={"query": "SELECT ?s WHERE { ?s ?p ?o }",
                                 "page_size": 5})).result
        cursor = result["next_cursor"]
        for bad in (-1, 0, "five"):
            response = fresh_platform.api.dispatch(
                APIRequest(op="next_page",
                           params={"cursor": cursor, "page_size": bad}))
            assert not response.ok
            assert response.error["code"] == "BAD_REQUEST"
        # The failed requests must not have destroyed the remaining pages.
        page = fresh_platform.api.dispatch(
            APIRequest(op="next_page", params={"cursor": cursor})).result
        assert len(page["items"]) == 5

    def test_consumed_cursor_expires(self, fresh_platform):
        result = fresh_platform.api.dispatch(APIRequest(
            op="sparql", params={"query": "SELECT ?s WHERE { ?s ?p ?o }",
                                 "page_size": 5})).result
        cursor = result["next_cursor"]
        fresh_platform.api.dispatch(
            APIRequest(op="next_page",
                       params={"cursor": cursor, "page_size": 10 ** 9}))
        response = fresh_platform.api.dispatch(
            APIRequest(op="next_page", params={"cursor": cursor}))
        assert not response.ok
        assert response.error["code"] == "CURSOR_ERROR"
        assert isinstance(response.attachment, CursorError)


# ---------------------------------------------------------------------------
# Batched inference
# ---------------------------------------------------------------------------


class TestBatchedInference:
    def test_node_classification_batch_is_one_http_call(self, trained_platform):
        model = next(m for m in trained_platform.list_models()
                     if m.task_type == "node_classification")
        papers = [s.value for s in trained_platform.graph.subjects(
            RDF_TYPE, DBLP["Publication"])][:12]
        before = trained_platform.http_calls
        records = trained_platform.infer_batch(model.uri, papers)
        assert trained_platform.http_calls - before == 1
        assert [r["input"] for r in records] == papers
        for record in records:
            if record["output"] is not None:
                assert record["output"] == trained_platform.predict_node_class(
                    model.uri, record["input"])

    def test_link_prediction_batch_is_one_http_call(self, trained_platform):
        model = next(m for m in trained_platform.list_models()
                     if m.task_type == "link_prediction")
        people = [s.value for s in trained_platform.graph.subjects(
            RDF_TYPE, DBLP["Person"])][:6]
        before = trained_platform.http_calls
        records = trained_platform.infer_batch(model.uri, people, k=3)
        assert trained_platform.http_calls - before == 1
        assert all(len(r["output"]) <= 3 for r in records)

    def test_unknown_model_raises_model_not_found(self, fresh_platform):
        with pytest.raises(ModelNotFoundError):
            fresh_platform.infer_batch("https://www.kgnet.com/model/nope", ["x"])

    @pytest.mark.parametrize("mode", ["bogus", 5, ["class"]],
                             ids=["unknown", "number", "list"])
    def test_unknown_mode_is_a_bad_request(self, trained_platform, mode):
        model = trained_platform.list_models()[0]
        before = trained_platform.http_calls
        assert post(trained_platform, "infer_batch", model_uri=model.uri.value,
                    inputs=["urn:x"], mode=mode) == (400, "BAD_REQUEST")
        assert trained_platform.http_calls == before


# ---------------------------------------------------------------------------
# APIClient: pure JSON, end to end
# ---------------------------------------------------------------------------


class TestAPIClient:
    def test_train_list_infer_delete_round_trip(self, dblp_graph, paper_venue_task):
        """The acceptance loop, entirely through JSON envelopes."""
        from tests.conftest import _quick_training_config
        client = APIClient.in_process(training_config=_quick_training_config())
        loaded = client.load_graph(serialize_ntriples(dblp_graph))
        assert loaded["triples_loaded"] == len(dblp_graph)

        report = client.train(task=paper_venue_task.as_dict(), method="rgcn")
        assert report["kind"] == "TRAIN_REPORT"
        assert report["method"] == "rgcn"
        assert 0.0 <= report["metrics"]["accuracy"] <= 1.0

        models = client.list_models()
        assert [m["uri"] for m in models] == [report["model_uri"]]
        assert client.describe_model(report["model_uri"])["method"] == "rgcn"

        papers = [row["s"] for row in client.sparql(
            "SELECT ?s WHERE { ?s a <https://www.dblp.org/Publication> }")["rows"]]
        batch = client.infer_batch(report["model_uri"], papers[:8], page_size=3)
        assert batch["total"] == 8
        assert batch["http_calls"] == 1
        assert len(list(client.iter_pages(batch, "predictions"))) == 8

        deletion = client.delete_models(FIG9_DELETE)
        assert deletion["deleted_models"] == [report["model_uri"]]
        assert client.list_models() == []

    def test_select_report_payload_has_rows(self, trained_platform):
        client = trained_platform.client
        payload = client.query(FIG2_SELECT)
        assert payload["kind"] == "SELECT_REPORT"
        assert payload["num_results"] == len(payload["rows"])
        assert set(payload["variables"]) == {"title", "venue"}
        assert payload["plans"]

    def test_objective_travels_as_json(self, trained_platform):
        payload = trained_platform.client.query(
            FIG2_SELECT, objective={"max_inference_seconds": 1e9})
        assert payload["models"]

    def test_error_surfaces_as_typed_exception(self, fresh_platform):
        with pytest.raises(ModelNotFoundError):
            fresh_platform.client.query(FIG2_SELECT)

    def test_check_false_returns_error_envelope(self, fresh_platform):
        response = fresh_platform.client.send(
            APIRequest(op="nope"), check=False)
        assert not response.ok
        assert response.error["code"] == "UNKNOWN_OPERATION"

    def test_ask_and_update_projections(self, fresh_platform):
        client = fresh_platform.client
        update = client.sparql(
            "PREFIX dblp: <https://www.dblp.org/>\n"
            "INSERT DATA { dblp:extra a dblp:Publication . }")
        assert update == {"kind": "UPDATE", "affected_triples": 1}
        ask = client.sparql(
            "PREFIX dblp: <https://www.dblp.org/>\n"
            "ASK { dblp:extra a dblp:Publication . }")
        assert ask == {"kind": "ASK", "answer": True}


# ---------------------------------------------------------------------------
# Facade parity: the legacy KGNet surface rides on the API
# ---------------------------------------------------------------------------


class TestFacadeOverAPI:
    def test_facade_calls_are_counted_by_router_metrics(self, dblp_graph):
        platform = KGNet()
        platform.load_graph(dblp_graph)
        platform.sparql("SELECT ?s WHERE { ?s ?p ?o } LIMIT 1")
        metrics = platform.api_metrics()
        assert metrics["load"]["calls"] == 1
        assert metrics["sparql"]["calls"] == 1

    def test_statistics_include_api_metrics(self, fresh_platform):
        stats = fresh_platform.statistics()
        assert "api" in stats
        assert stats["kg"]["num_triples"] == len(fresh_platform.graph)

    def test_task_spec_dict_round_trip(self, paper_venue_task):
        clone = TaskSpec.from_dict(
            json.loads(json.dumps(paper_venue_task.as_dict())))
        assert clone == paper_venue_task
