"""Unit tests for GMLaaS: stores, method selector, training and inference managers."""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from repro.datasets import (
    DBLPConfig,
    dblp_author_similarity_task,
    dblp_paper_venue_task,
    generate_dblp_kg,
)
from repro.exceptions import (
    InferenceError,
    ModelNotFoundError,
    ModelSelectionError,
    PlatformError,
)
from repro.gml.kge import DistMult
from repro.gml.tasks import TaskSpec, TaskType
from repro.gml.train.budget import TaskBudget
from repro.kgnet import (
    GMLaaS,
    KGNet,
    MetaSampler,
    MetaSamplingConfig,
    ModelStore,
    TrainingManagerConfig,
)
from repro.kgnet.gmlaas.model_store import (
    LinkArtefact,
    NodeClassArtefact,
    SimilarityArtefact,
)
from repro.kgnet.gmlaas.embedding_store import FlatIndex
from repro.kgnet.gmlaas.method_selector import (
    GML_METHODS,
    MethodCostEstimator,
    MethodSelector,
)
from repro.kgnet.gmlaas.training_manager import GMLTrainingManager
from repro.rdf import DBLP, IRI
from benchmarks.ivf_index import IVFIndex


# ---------------------------------------------------------------------------
# Embedding indexes
# ---------------------------------------------------------------------------

class TestEmbeddingStore:
    def _vectors(self, n=30, dim=8, seed=0):
        rng = np.random.default_rng(seed)
        keys = [f"entity/{i}" for i in range(n)]
        return keys, rng.normal(size=(n, dim))

    def test_flat_index_exact_top1_is_self(self):
        keys, vectors = self._vectors()
        index = FlatIndex(dim=8)
        index.add(vectors)
        scores, indices = index.search(vectors[:3], k=1)
        assert indices.reshape(-1).tolist() == [0, 1, 2]

    def test_flat_index_empty_search_raises(self):
        with pytest.raises(PlatformError):
            FlatIndex(dim=4).search(np.zeros((1, 4)))

    def test_ivf_index_matches_flat_on_small_data(self):
        keys, vectors = self._vectors(n=40)
        flat = FlatIndex(dim=8)
        flat.add(vectors)
        ivf = IVFIndex(dim=8, num_clusters=4, nprobe=4)  # probe all clusters
        ivf.add(vectors)
        _, flat_idx = flat.search(vectors[:5], k=3)
        _, ivf_idx = ivf.search(vectors[:5], k=3)
        assert (flat_idx[:, 0] == ivf_idx[:, 0]).all()

    def test_ivf_reduced_probe_still_returns_k(self):
        keys, vectors = self._vectors(n=50)
        ivf = IVFIndex(dim=8, num_clusters=8, nprobe=1)
        ivf.add(vectors)
        scores, indices = ivf.search(vectors[:2], k=5)
        assert indices.shape == (2, 5)

    # A similarity model keeps the index of its embeddings with its own
    # artefact; these drive it through GMLaaS on a hand-stored model.
    URI = "https://www.kgnet.com/model/test/index"

    def _service(self, keys, vectors):
        service = GMLaaS(config=QUICK)
        service.model_store.add(IRI(self.URI), SimilarityArtefact(
            entity_names=keys, entity_embeddings=vectors))
        return service

    def test_store_create_and_search(self):
        keys, vectors = self._vectors()
        service = self._service(keys, vectors)
        stored = service.model_store.get(self.URI)
        assert "_similarity_index" not in vars(stored)     # built on first use
        results = service.infer(self.URI, [keys[0]], "similar", 3)[0]
        assert [result["rank"] for result in results] == [0, 1, 2]
        index = stored.similarity_index
        assert len(index) == len(keys) and stored.rows[keys[7]] == 7
        _, found = index.search(vectors[0], k=4)
        assert [keys[int(at)] for at in found[0][1:]] == [
            result["entity"] for result in results]
        # Built once: a second search reuses the same index.
        service.infer(self.URI, [keys[1]], "similar", 3)
        assert stored.similarity_index is index

    def test_store_similar_to_excludes_self(self):
        keys, vectors = self._vectors()
        service = self._service(keys, vectors)
        results = service.infer(self.URI, [keys[5]], "similar", 4)[0]
        assert len(results) == 4
        assert all(result["entity"] != keys[5] for result in results)
        assert results[0]["score"] >= results[-1]["score"]

    def test_store_unknown_collection_and_key(self):
        keys, vectors = self._vectors()
        service = self._service(keys, vectors)
        with pytest.raises(ModelNotFoundError):
            service.infer("https://www.kgnet.com/model/none", [keys[0]], "similar")
        assert service.infer(self.URI, ["unknown-key"], "similar")[0] == []
        # A model without its embeddings cannot be stored: it fails to build.
        with pytest.raises(TypeError):
            SimilarityArtefact()

    def test_store_drop_collection(self):
        keys, vectors = self._vectors()
        service = self._service(keys, vectors)
        stored = service.model_store.get(self.URI)
        service.infer(self.URI, [keys[0]], "similar", 3)
        assert "_similarity_index" in vars(stored)
        assert service.delete_model(self.URI) is True
        assert service.delete_model(self.URI) is False
        assert service.list_models() == []
        with pytest.raises(ModelNotFoundError):
            service.infer(self.URI, [keys[0]], "similar")


# ---------------------------------------------------------------------------
# Model store
# ---------------------------------------------------------------------------

class TestModelStore:
    URI = IRI("https://www.kgnet.com/model/x")

    def test_add_get_contains(self):
        store = ModelStore()
        stored = NodeClassArtefact(prediction_map={"a": "b"})
        store.add(self.URI, stored)
        assert store.get(self.URI) is stored
        assert store.get(self.URI.value) is stored
        assert self.URI in store
        assert len(store) == 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            stored.prediction_map = {}

    def test_get_missing_raises(self):
        with pytest.raises(ModelNotFoundError):
            ModelStore().get("https://www.kgnet.com/model/none")

    def test_remove(self):
        store = ModelStore()
        store.add(self.URI, NodeClassArtefact(prediction_map={"a": "b"}))
        assert store.remove(self.URI) is True
        assert store.remove(self.URI) is False


# ---------------------------------------------------------------------------
# Model artefacts: a missing or empty field fails at construction
# ---------------------------------------------------------------------------

NAMES = [f"urn:e{i}" for i in range(20)]
VECTORS = np.random.default_rng(0).normal(size=(len(NAMES), 4))


def link_fields(**changed):
    fields = {"entity_names": NAMES, "entity_embeddings": VECTORS,
              "candidate_tails": np.arange(0, len(NAMES), 2),
              "target_relation": 0,
              "scorer": DistMult(len(NAMES), 1, dim=4, seed=0)}
    fields.update(changed)
    return fields


def without(name):
    return {field: value for field, value in link_fields().items() if field != name}


@pytest.mark.parametrize("build, error", [
    # A required field left out: the dataclass refuses the call.
    (lambda: NodeClassArtefact(), TypeError),
    (lambda: SimilarityArtefact(entity_names=NAMES), TypeError),
    (lambda: LinkArtefact(**without("scorer")), TypeError),
    (lambda: LinkArtefact(**without("candidate_tails")), TypeError),
    # A field given but empty, absent or of the wrong shape: the artefact does.
    (lambda: NodeClassArtefact(prediction_map={}), InferenceError),
    (lambda: NodeClassArtefact(prediction_map=None), InferenceError),
    (lambda: SimilarityArtefact(entity_names=[], entity_embeddings=VECTORS[:0]),
     InferenceError),
    (lambda: SimilarityArtefact(entity_names=NAMES, entity_embeddings=None),
     InferenceError),
    (lambda: SimilarityArtefact(entity_names=NAMES, entity_embeddings=VECTORS[:5]),
     InferenceError),
    (lambda: SimilarityArtefact(entity_names=NAMES, entity_embeddings=VECTORS[0]),
     InferenceError),
    (lambda: LinkArtefact(**link_fields(candidate_tails=np.arange(0))), InferenceError),
    (lambda: LinkArtefact(**link_fields(candidate_tails=None)), InferenceError),
    (lambda: LinkArtefact(**link_fields(candidate_tails=np.array([0, len(NAMES)]))),
     InferenceError),
    (lambda: LinkArtefact(**link_fields(target_relation=None)), InferenceError),
    (lambda: LinkArtefact(**link_fields(target_relation=-1)), InferenceError),
    (lambda: LinkArtefact(**link_fields(scorer=None)), InferenceError),
    (lambda: LinkArtefact(**link_fields(entity_embeddings=VECTORS[:5])), InferenceError),
])
def test_an_artefact_without_a_required_field_is_refused(build, error):
    """A model whose map is missing used to be stored and answer ``None`` for
    every node; now it cannot be built."""
    with pytest.raises(error):
        build()


# ---------------------------------------------------------------------------
# A ranking of k <= 0 is empty, on both ranked modes and every route
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def ranked_platform():
    platform = KGNet()
    platform.gmlaas.model_store.add("urn:links", LinkArtefact(**link_fields()))
    platform.gmlaas.model_store.add("urn:similar", SimilarityArtefact(
        entity_names=NAMES, entity_embeddings=VECTORS))
    return platform


@pytest.mark.parametrize("mode, udf", [("links", "getTopKLinks"),
                                       ("similar", "getSimilarEntities")])
@pytest.mark.parametrize("k", [-3, 0])
def test_a_ranking_of_k_at_most_zero_is_empty(ranked_platform, mode, udf, k):
    """A negative ``k`` on the similarity route used to return almost every
    entity (``search(k + 1)`` then ``[:k]``)."""
    gmlaas, uri = ranked_platform.gmlaas, f"urn:{mode}"
    assert len(gmlaas.infer(uri, ["urn:e1"], mode, 3)[0]) == 3
    assert gmlaas.infer(uri, ["urn:e1", "urn:nobody"], mode, k) == [[], []]
    query = ("SELECT ?s WHERE { BIND(sql:UDFS.%s(<%s>, <urn:e1>, %d) AS ?s) }")
    assert ranked_platform.endpoint.query(query % (udf, uri, 3)).to_python()[0]["s"]
    assert ranked_platform.endpoint.query(query % (udf, uri, k)).to_python() == [{}]


@pytest.mark.parametrize("mode, udf, name", [("links", "getTopKLinks", "source"),
                                             ("similar", "getSimilarEntities", "entity")])
@pytest.mark.parametrize("bad_k", ['"abc"', "<urn:k>"])
def test_a_malformed_k_is_a_bad_request_on_both_routes(ranked_platform, mode,
                                                       udf, name, bad_k):
    """The UDFs used to read a non-numeric ``k`` as the default and answer
    10 entities, where the ``infer_*`` ops answer 400."""
    query = ("SELECT ?s WHERE { BIND(sql:UDFS.%s(<urn:%s>, <urn:e1>, %s) AS ?s) }"
             % (udf, mode, bad_k))
    requests = [{"op": "sparql", "params": {"query": query}},
                {"op": f"infer_{mode}",
                 "params": {"model_uri": f"urn:{mode}", name: "urn:e1", "k": "abc"}}]
    for request in requests:
        response = ranked_platform.api.dispatch(request)
        assert not response.ok
        assert response.error["code"] == "BAD_REQUEST"
        assert "'k'" in response.error["message"]


# ---------------------------------------------------------------------------
# Cost estimator and method selector
# ---------------------------------------------------------------------------

#: The config a training manager trains with when given none.
DEFAULT = TrainingManagerConfig()


class TestMethodCostEstimator:
    def test_estimates_for_all_methods(self, dblp_nc_data, dblp_lp_data):
        estimator = MethodCostEstimator(DEFAULT)
        nc_data, lp_data = dblp_nc_data[0], dblp_lp_data[0]
        for name, method in GML_METHODS.items():
            data = nc_data if TaskType.NODE_CLASSIFICATION in method.tasks else lp_data
            estimate = estimator.estimate(name, data)
            assert estimate.memory_bytes > 0
            assert estimate.time_seconds > 0
            assert estimate.method == name

    def test_full_batch_needs_more_memory_than_sampling(self, dblp_nc_data):
        estimator = MethodCostEstimator(DEFAULT)
        data = dblp_nc_data[0]
        rgcn = estimator.estimate("rgcn", data)
        saint = estimator.estimate("graph_saint", data)
        assert saint.details["batch_size"] < data.num_nodes
        assert rgcn.memory_bytes > saint.memory_bytes

    def test_morse_prices_no_entity_table(self, dblp_lp_data):
        """MorsE keeps relation tables only and composes the entities of one
        sub-KG, so more entities over the same triples leave its estimate
        flat once they outnumber a sub-KG's, while a transductive KGE pays a
        row per entity: with enough entities MorsE needs less memory."""
        estimator = MethodCostEstimator(DEFAULT)
        data = dblp_lp_data[0]
        larger = dataclasses.replace(data, num_entities=data.num_entities * 100)
        morse, complex_est = (estimator.estimate(method, larger).memory_bytes
                              for method in ("morse", "complex"))
        wider = dataclasses.replace(data, num_entities=data.num_entities * 200)
        assert estimator.estimate("morse", wider).memory_bytes == morse
        assert estimator.estimate("complex", wider).memory_bytes > complex_est
        assert morse < complex_est

    def test_morse_needs_less_memory_than_transductive_kge(self, dblp_lp_data):
        estimator = MethodCostEstimator(DEFAULT)
        data = dblp_lp_data[0]
        morse = estimator.estimate("morse", data)
        complex_est = estimator.estimate("complex", data)
        assert morse.memory_bytes < complex_est.memory_bytes

    def test_link_predictors_are_priced_in_the_order_of_their_peaks(self, dblp_lp_data):
        """Each link predictor's memory estimate ranks where the traced
        first-epoch peak of the run it prices ranks."""
        config = TrainingManagerConfig(epochs_kge=1)
        estimator = MethodCostEstimator(config)
        data = dblp_lp_data[0]
        methods = [name for name, method in GML_METHODS.items()
                   if TaskType.LINK_PREDICTION in method.tasks]
        estimated = {name: estimator.estimate(name, data).memory_bytes
                     for name in methods}
        peaks = {name: GML_METHODS[name].trainer(config, data, TaskBudget())
                 .train().usage.peak_memory_bytes for name in methods}
        assert sorted(methods, key=estimated.get) == sorted(methods, key=peaks.get)

    def test_smaller_graph_costs_less(self, dblp_nc_data):
        """Less memory, and an epoch that draws no more nodes."""
        estimator = MethodCostEstimator(DEFAULT)
        data = dblp_nc_data[0]
        sub, _ = data.subgraph(np.arange(data.num_nodes // 3))
        for method in ("rgcn", "graph_saint", "shadow_saint"):
            small, large = (estimator.estimate(method, graph) for graph in (sub, data))
            assert small.memory_bytes <= large.memory_bytes
            drawn = [estimate.details["batch_size"] * estimate.details["batches_per_epoch"]
                     for estimate in (small, large)]
            assert drawn[0] <= drawn[1]

    def test_unknown_method_raises(self, dblp_nc_data):
        with pytest.raises(ModelSelectionError):
            MethodCostEstimator(DEFAULT).estimate("no_such_method", dblp_nc_data[0])

    def test_prices_at_the_config(self, dblp_nc_data):
        """A wider model or more epochs costs more: the estimate reads the
        config the manager trains with."""
        data = dblp_nc_data[0]
        narrow = MethodCostEstimator(DEFAULT).estimate("rgcn", data)
        wide = MethodCostEstimator(TrainingManagerConfig(hidden_dim=64)).estimate(
            "rgcn", data)
        longer = MethodCostEstimator(TrainingManagerConfig(epochs_full_batch=60)).estimate(
            "rgcn", data)
        assert wide.memory_bytes > narrow.memory_bytes
        assert longer.details["epochs"] == 2 * narrow.details["epochs"] == 60
        assert longer.time_seconds == \
            60 * longer.trainer.monitor.usage.elapsed_seconds
        assert longer.memory_bytes == narrow.memory_bytes


class TestMethodSelector:
    def test_applicable_methods_by_task(self):
        selector = MethodSelector(DEFAULT)
        nc_methods = selector.applicable_methods(TaskType.NODE_CLASSIFICATION)
        lp_methods = selector.applicable_methods(TaskType.LINK_PREDICTION)
        assert "rgcn" in nc_methods and "graph_saint" in nc_methods
        assert "morse" in lp_methods and "complex" in lp_methods
        assert "rgcn" not in lp_methods

    def test_select_prefers_high_prior_unconstrained(self, dblp_nc_data):
        selection = MethodSelector(DEFAULT).select(TaskType.NODE_CLASSIFICATION,
                                                   dblp_nc_data[0])
        assert selection.method == "shadow_saint"  # highest accuracy prior
        assert selection.within_budget
        assert selection.objective == "ModelScore"
        assert len(selection.candidates) >= 3

    def test_memory_budget_excludes_full_batch(self, dblp_nc_data):
        data = dblp_nc_data[0]
        selector = MethodSelector(DEFAULT)
        rgcn_estimate = selector.estimator.estimate("rgcn", data)
        budget = TaskBudget(max_memory_bytes=rgcn_estimate.memory_bytes * 0.9,
                            priority="ModelScore")
        selection = selector.select(TaskType.NODE_CLASSIFICATION, data, budget=budget)
        assert selection.method != "rgcn"

    def test_time_priority_picks_fastest(self, dblp_nc_data):
        budget = TaskBudget(priority="Time")
        selection = MethodSelector(DEFAULT).select(TaskType.NODE_CLASSIFICATION,
                                                   dblp_nc_data[0], budget=budget)
        estimates = {e.method: e.time_seconds for e in selection.candidates}
        assert selection.estimate.time_seconds == min(estimates.values())

    def test_infeasible_budget_falls_back(self, dblp_nc_data):
        budget = TaskBudget(max_memory_bytes=1.0)
        selection = MethodSelector(DEFAULT).select(TaskType.NODE_CLASSIFICATION,
                                                   dblp_nc_data[0], budget=budget)
        assert not selection.within_budget

    def test_candidate_restriction(self, dblp_nc_data):
        selection = MethodSelector(DEFAULT).select(TaskType.NODE_CLASSIFICATION,
                                                   dblp_nc_data[0],
                                                   candidate_methods=["gcn"])
        assert selection.method == "gcn"

    def test_unknown_candidate_rejected(self, dblp_nc_data):
        with pytest.raises(ModelSelectionError):
            MethodSelector(DEFAULT).select(TaskType.NODE_CLASSIFICATION, dblp_nc_data[0],
                                           candidate_methods=["alexnet"])

    def test_a_method_priced_within_the_budget_keeps_it(self):
        """KG' (d1h1) of DBLP 1.0 under 2 MB, time first.  GAT's attention
        books 4.7 MB a step; a price without it (1.1 MB) made GAT the
        fastest fit, and the run stopped after its first epoch."""
        task = dblp_paper_venue_task()
        graph = generate_dblp_kg(DBLPConfig(scale=1.0, seed=7))
        subgraph, _ = MetaSampler(MetaSamplingConfig(1, 1)).extract(graph, task)
        budget = TaskBudget(max_memory_bytes=2e6, priority="Time")
        outcome = GMLTrainingManager().train(subgraph, task, budget=budget)
        assert outcome.selection.within_budget
        assert not outcome.result.stopped_early
        assert outcome.result.usage.peak_memory_bytes <= 2e6
        assert outcome.selection.method != "gat"

    @pytest.mark.parametrize("method", list(GML_METHODS))
    def test_a_budget_at_the_price_holds_the_run(self, dblp_nc_data, dblp_lp_data,
                                                 method):
        """A full-batch or KGE epoch books what every epoch books, so a memory
        budget at the price never stops the run.  GraphSAINT, ShaDow and
        MorsE draw new batches each epoch, and a later draw may book a
        little more than the first (measured at most 1.8 %)."""
        task_type = GML_METHODS[method].tasks[0]
        data = dblp_nc_data[0] if task_type == TaskType.NODE_CLASSIFICATION \
            else dblp_lp_data[0]
        price = MethodCostEstimator(DEFAULT).estimate(method, data).memory_bytes
        selection = MethodSelector(DEFAULT).select(
            task_type, data, budget=TaskBudget(max_memory_bytes=price),
            candidate_methods=[method])
        assert selection.within_budget and selection.estimate.memory_bytes == price
        result = selection.estimate.trainer.train()
        if method in ("graph_saint", "shadow_saint", "morse"):
            assert result.usage.peak_memory_bytes <= 1.02 * price
        else:
            assert not result.stopped_early
            assert result.usage.peak_memory_bytes == price

    def test_losing_candidates_are_released(self, dblp_nc_data):
        selection = MethodSelector(DEFAULT).select(TaskType.NODE_CLASSIFICATION,
                                                   dblp_nc_data[0])
        assert [estimate.method for estimate in selection.candidates
                if estimate.trainer is not None] == [selection.method]
        assert selection.estimate.trainer.epochs_run == 1

    @pytest.mark.parametrize("task_type, method", [
        (TaskType.NODE_CLASSIFICATION, "morse"),
        (TaskType.LINK_PREDICTION, "rgcn"),
        (TaskType.ENTITY_SIMILARITY, "graph_saint"),
        (TaskType.ENTITY_SIMILARITY, "morse"),
    ])
    def test_a_method_that_does_not_serve_the_task_is_rejected(
            self, dblp_nc_data, dblp_lp_data, task_type, method):
        data = dblp_nc_data[0] if task_type == TaskType.NODE_CLASSIFICATION \
            else dblp_lp_data[0]
        with pytest.raises(ModelSelectionError, match="do not support"):
            MethodSelector(DEFAULT).select(task_type, data, candidate_methods=[method])


# ---------------------------------------------------------------------------
# Training manager + GMLaaS service + inference manager
# ---------------------------------------------------------------------------

QUICK = TrainingManagerConfig(feature_dim=16, hidden_dim=16, embedding_dim=16,
                              epochs_full_batch=6, epochs_sampling=4, epochs_kge=6,
                              learning_rate=0.05, seed=0)


class TestTrainingManager:
    def test_node_classification_outcome(self, dblp_graph, paper_venue_task):
        manager = GMLTrainingManager(QUICK)
        outcome = manager.train(dblp_graph, paper_venue_task, method="rgcn")
        assert outcome.result.method == "rgcn"
        assert outcome.selection.method == "rgcn"
        assert outcome.transform_report.num_labeled_nodes > 0
        assert type(outcome.artefact) is NodeClassArtefact
        prediction_map = outcome.artefact.prediction_map
        assert all(value.startswith(DBLP["venue/"].value)
                   for value in prediction_map.values())
        assert outcome.selection.estimate.method == "rgcn"
        assert outcome.selection.estimate.memory_bytes > 0

    def test_link_prediction_outcome(self, dblp_graph, author_affiliation_task):
        manager = GMLTrainingManager(QUICK)
        outcome = manager.train(dblp_graph, author_affiliation_task, method="morse")
        assert outcome.result.task_type == TaskType.LINK_PREDICTION
        artefact = outcome.artefact
        assert type(artefact) is LinkArtefact
        assert artefact.entity_embeddings.shape[0] == len(artefact.entity_names)
        assert artefact.candidate_tails.size > 0
        assert artefact.scorer is outcome.result.model

    def test_entity_similarity_outcome(self, dblp_graph):
        task = TaskSpec(task_type=TaskType.ENTITY_SIMILARITY,
                        entity_node_type=DBLP["Person"])
        manager = GMLTrainingManager(QUICK)
        outcome = manager.train(dblp_graph, task, method="distmult")
        assert type(outcome.artefact) is SimilarityArtefact
        assert outcome.artefact.entity_embeddings.shape[0] > 0

    @pytest.mark.parametrize("task", ["paper_venue_task", "author_affiliation_task"])
    def test_an_auto_selected_run_is_the_run_of_its_method_by_name(self, dblp_graph,
                                                                   request, task):
        """Pricing every candidate's first epoch leaves the chosen run as it
        would be had the request named the method."""
        task = request.getfixturevalue(task)
        auto = GMLTrainingManager(QUICK).train(dblp_graph, task)
        assert len(auto.selection.candidates) > 1
        named = GMLTrainingManager(QUICK).train(dblp_graph, task,
                                                method=auto.selection.method)
        runs = [(run.result.method, run.result.history, run.result.metrics,
                 run.result.usage.peak_memory_bytes,
                 [parameter.data.tobytes() for parameter in run.result.model.parameters()])
                for run in (auto, named)]
        assert runs[0] == runs[1]

    def test_budget_is_threaded_through(self, dblp_graph, paper_venue_task):
        manager = GMLTrainingManager(QUICK)
        budget = TaskBudget(max_memory_bytes=1.0, priority="ModelScore")
        outcome = manager.train(dblp_graph, paper_venue_task, budget=budget)
        assert not outcome.selection.within_budget


class TestGMLaaSService:
    @pytest.fixture()
    def service(self):
        return GMLaaS(config=QUICK)

    def test_train_and_store(self, service, dblp_graph, paper_venue_task):
        uri = IRI("https://www.kgnet.com/model/test/nc")
        response = service.train(dblp_graph, paper_venue_task, uri, method="graph_saint")
        assert response.model_uri == uri.value
        assert service.has_model(uri)
        assert uri.value in service.list_models()
        assert response.metrics["accuracy"] >= 0.0
        assert response.elapsed_seconds > 0
        assert response.as_dict()["method"] == "graph_saint"

    def test_node_class_inference(self, service, dblp_graph, paper_venue_task):
        uri = IRI("https://www.kgnet.com/model/test/nc2")
        service.train(dblp_graph, paper_venue_task, uri, method="rgcn")
        stored = service.model_store.get(uri)
        node, predicted = next(iter(stored.prediction_map.items()))
        assert service.infer_node_class(uri, node) == predicted
        dictionary = service.infer_node_class_dictionary(uri)
        assert dictionary[node] == predicted
        subset = service.infer_node_class_dictionary(uri, [node])
        assert list(subset) == [node]
        assert service.http_calls == 3

    def test_link_inference(self, service, dblp_graph, author_affiliation_task):
        uri = IRI("https://www.kgnet.com/model/test/lp")
        service.train(dblp_graph, author_affiliation_task, uri, method="morse")
        stored = service.model_store.get(uri)
        author = next(name for name in stored.entity_names
                      if "person" in name)
        links = service.infer_links(uri, author, k=3)
        assert 0 < len(links) <= 3
        assert all("affiliation" in link["entity"] for link in links)
        assert links[0]["score"] >= links[-1]["score"]

    def test_similarity_inference(self, service, dblp_graph, author_affiliation_task):
        uri = IRI("https://www.kgnet.com/model/test/sim")
        service.train(dblp_graph, author_affiliation_task, uri, method="morse")
        stored = service.model_store.get(uri)
        entity = stored.entity_names[0]
        similar = service.infer(uri, [entity], "similar", 5)[0]
        assert len(similar) == 5
        assert all(result["entity"] != entity for result in similar)

    def test_wrong_model_type_raises(self, service, dblp_graph, paper_venue_task):
        uri = IRI("https://www.kgnet.com/model/test/nc3")
        service.train(dblp_graph, paper_venue_task, uri, method="rgcn")
        with pytest.raises(InferenceError):
            service.infer_links(uri, "https://www.dblp.org/person/0")

    def test_unknown_model_raises(self, service):
        with pytest.raises(ModelNotFoundError):
            service.infer_node_class("https://www.kgnet.com/model/none", "x")

    def test_delete_model(self, service, dblp_graph, paper_venue_task):
        uri = IRI("https://www.kgnet.com/model/test/del")
        service.train(dblp_graph, paper_venue_task, uri, method="rgcn")
        assert service.delete_model(uri) is True
        assert not service.has_model(uri)
        assert service.delete_model(uri) is False


#: sha256 of a DBLP person-similarity model's answers (see the test below).
#: The KGE model trains through numpy BLAS, whose kernels may differ between
#: builds and CPUs: on another one, take the digest from the parent commit.
SIMILARITY_DIGEST = "95ef23ef5160fb49072faf82832bf63934f6e994f92ad90a011f962b29e81ddc"


def test_similarity_answers_are_pinned(dblp_graph):
    """Similarity inference answers exactly what it did when each model's
    embeddings sat in a separate URI-keyed store: every entity name plus one
    unknown name through ``infer_batch``, and a prefix through one
    ``infer`` call each."""
    service = GMLaaS(config=QUICK)
    uri = IRI("https://www.kgnet.com/model/test/sim-pin")
    service.train(dblp_graph, dblp_author_similarity_task(), uri, method="distmult")
    names = service.model_store.get(uri).entity_names
    batch = service.infer_batch(uri, list(names) + ["https://www.dblp.org/nobody"],
                                k=7, mode="similar")
    singles = [service.infer(uri, [name], "similar", 3)[0] for name in names[:40]]
    digest = hashlib.sha256(json.dumps([batch, singles]).encode()).hexdigest()
    assert digest == SIMILARITY_DIGEST
