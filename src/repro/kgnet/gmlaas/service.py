"""GML-as-a-Service (paper Fig 3, right-hand box).

The paper's GMLaaS trains models on request and serves their predictions to
the RDF engine's UDFs over HTTP (§IV-A).  :class:`GMLaaS` is that one
component: the training manager trains, the model store keeps what was
trained, and GMLaaS answers predictions from it.  The model store is the one
registry keyed by model URI: everything inference needs, a similarity
model's embedding index included, lives in the stored model.

GMLaaS has two prediction routes, each one "HTTP call" (so the query-plan
experiments can report call counts): :meth:`GMLaaS.infer`, the predictions
for a batch of inputs — the Fig 11 plan calls it with one input per target,
the ``infer`` plan node with a batch — and
:meth:`GMLaaS.infer_node_class_dictionary`, the whole node -> class
dictionary of the Fig 12 plan.  Both take plain strings/URIs in and return
JSON-serialisable Python structures.  GMLaaS holds no scoring of its own: a
link is ranked by the stored model's ``tail_scores``
(:mod:`repro.gml.kge.base`), the one kernel the model's training evaluation
ranked with too.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.exceptions import InferenceError
from repro.gml.tasks import TaskSpec, TaskType
from repro.gml.train.budget import TaskBudget
from repro.kgnet.gmlaas.embedding_store import FlatIndex
from repro.kgnet.gmlaas.model_store import ModelStore, StoredModel
from repro.kgnet.gmlaas.training_manager import (
    GMLTrainingManager,
    TrainingManagerConfig,
)
from repro.rdf.graph import Graph
from repro.rdf.terms import IRI

__all__ = ["TrainResponse", "GMLaaS"]

#: The prediction a model answers when the caller names no ``mode``.
_MODE_OF_TASK = {TaskType.NODE_CLASSIFICATION: "class",
                 TaskType.LINK_PREDICTION: "links",
                 TaskType.ENTITY_SIMILARITY: "similar"}


def _text(value) -> str:
    return value.value if isinstance(value, IRI) else str(value)


@dataclass
class TrainResponse:
    """JSON-style response of a ``/train`` request.

    ``estimated_memory_bytes`` is the method selector's estimate for the
    trained method at the training manager's dimensions; ``stopped_early``
    says the budget cut the run short between epochs.
    """

    model_uri: str
    method: str
    task_type: str
    metrics: Dict[str, float]
    elapsed_seconds: float
    peak_memory_bytes: int
    estimated_memory_bytes: int
    inference_seconds: float
    within_budget: bool
    transform: Dict[str, object] = field(default_factory=dict)
    stopped_early: bool = False

    def as_dict(self) -> Dict[str, object]:
        return {
            "model_uri": self.model_uri,
            "method": self.method,
            "task_type": self.task_type,
            "metrics": {k: round(float(v), 6) for k, v in self.metrics.items()},
            "elapsed_seconds": round(self.elapsed_seconds, 6),
            "peak_memory_bytes": self.peak_memory_bytes,
            "estimated_memory_bytes": self.estimated_memory_bytes,
            "inference_seconds": round(self.inference_seconds, 6),
            "within_budget": self.within_budget,
            "transform": self.transform,
            "stopped_early": self.stopped_early,
        }


class GMLaaS:
    """The GML-as-a-service component: training and the inference endpoint.

    Safe to call from many serving threads: the HTTP-call counter is
    lock-protected (bare ``+=`` would lose updates under contention), and
    the per-model artefact reads are lookups into the stored model; the one
    artefact written here, a similarity model's index, is set once with
    ``dict.setdefault``.
    """

    def __init__(self, config: Optional[TrainingManagerConfig] = None) -> None:
        self.training_manager = GMLTrainingManager(config)
        self.model_store = ModelStore()
        #: Number of inference requests served (each equals one HTTP call in
        #: the paper's architecture).
        self.http_calls = 0
        self._calls_lock = threading.Lock()
        #: Simulated per-call latency of the HTTP hop between the RDF engine
        #: and GMLaaS (seconds).  Zero by default; tests set it to model
        #: the paper's deployment, where every inference call is a real
        #: network round-trip — exactly what batching amortises.
        self.call_latency_seconds = 0.0

    # ------------------------------------------------------------------
    # Training API
    # ------------------------------------------------------------------
    def train(self, graph: Graph, task: TaskSpec, model_uri: IRI,
              budget: Optional[TaskBudget] = None,
              method: Optional[str] = None) -> TrainResponse:
        """Train a model for ``task`` on ``graph`` and store it under ``model_uri``."""
        outcome = self.training_manager.train(graph, task, budget=budget,
                                              method=method)
        result = outcome.result
        self.model_store.add(StoredModel(
            uri=model_uri,
            task_type=task.task_type,
            method=result.method,
            model=result.model,
            artifacts=outcome.artifacts,
        ))
        return TrainResponse(
            model_uri=model_uri.value,
            method=result.method,
            task_type=task.task_type,
            metrics=result.metrics,
            elapsed_seconds=result.usage.elapsed_seconds,
            peak_memory_bytes=result.usage.peak_memory_bytes,
            estimated_memory_bytes=int(outcome.selection.estimate.memory_bytes),
            inference_seconds=result.inference_seconds,
            within_budget=outcome.selection.within_budget,
            transform=outcome.transform_report.as_dict(),
            stopped_early=result.stopped_early,
        )

    # ------------------------------------------------------------------
    # The two prediction routes
    # ------------------------------------------------------------------
    def _record_call(self) -> None:
        with self._calls_lock:
            self.http_calls += 1
        if self.call_latency_seconds > 0.0:
            time.sleep(self.call_latency_seconds)

    def infer(self, model_uri, inputs: Sequence, mode: Optional[str] = None,
              k: int = 10) -> List[object]:
        """Predictions for ``inputs`` in one HTTP call, in input order.

        ``mode`` is ``"class"`` (the predicted class, a string), ``"links"``
        (the ``k`` best destinations of a source) or ``"similar"`` (the ``k``
        entities nearest in embedding space); omitted, it follows the model's
        task type.  A ranking is a list of ``{"entity", "score", "rank"}``,
        best first.  An input the model does not know gets ``None`` for a
        class and ``[]`` for a ranking; a model that cannot answer ``mode``
        raises :class:`~repro.exceptions.InferenceError` for the whole call.
        """
        key = _text(model_uri)
        self._record_call()
        stored = self.model_store.get(key)
        if mode is None:
            mode = _MODE_OF_TASK.get(stored.task_type)
        inputs = [_text(value) for value in inputs]
        if mode == "class":
            return list(map(self._prediction_map(stored, key).get, inputs))
        if mode == "links":
            return self._links_for(stored, key, inputs, k)
        if mode == "similar":
            return self._similar_for(stored, key, inputs, k)
        raise InferenceError(
            f"cannot infer with model {key!r} "
            f"(task_type={stored.task_type!r}, mode={mode!r})")

    def infer_node_class_dictionary(self, model_uri,
                                    node_iris: Optional[List[str]] = None) -> Dict[str, str]:
        """Predictions for all (or the requested) target nodes in one HTTP call.

        This is the inner sub-select of the paper's Fig 12 plan: one call
        returns the whole dictionary and the outer query looks values up.
        """
        key = _text(model_uri)
        self._record_call()
        prediction_map = self._prediction_map(self.model_store.get(key), key)
        if node_iris is None:
            return dict(prediction_map)
        return {node: prediction_map[node] for node in map(str, node_iris)
                if node in prediction_map}

    # ------------------------------------------------------------------
    # Forms of :meth:`infer`
    # ------------------------------------------------------------------
    def infer_node_class(self, model_uri, node_iri) -> Optional[str]:
        return self.infer(model_uri, [node_iri], "class")[0]

    def infer_links(self, model_uri, source_iri, k: int = 10) -> List[Dict[str, object]]:
        return self.infer(model_uri, [source_iri], "links", k)[0]

    def infer_batch(self, model_uri, inputs: Sequence[str], k: int = 10,
                    mode: Optional[str] = None) -> List[Dict[str, object]]:
        """:meth:`infer` as one ``{"input": ..., "output": ...}`` record per
        input, in input order."""
        inputs = [_text(value) for value in inputs]
        return [{"input": value, "output": output} for value, output in zip(
            inputs, self.infer(model_uri, inputs, mode, k))]

    # ------------------------------------------------------------------
    # Node classification
    # ------------------------------------------------------------------
    @staticmethod
    def _prediction_map(stored: StoredModel, key: str) -> Dict[str, str]:
        if stored.task_type != TaskType.NODE_CLASSIFICATION:
            raise InferenceError(f"model {key!r} is not a node classifier")
        return stored.artifact("prediction_map", {})

    # ------------------------------------------------------------------
    # Link prediction
    # ------------------------------------------------------------------
    def _links_for(self, stored: StoredModel, key: str, sources: List[str],
                   k: int) -> List[List[Dict[str, object]]]:
        """Per source, its ``k`` best candidate tails, best first.

        All sources the model knows are scored in one call of the model's
        own ``tail_scores``; equal scores rank by candidate index (a stable
        sort), and a source's scores do not depend on what it is batched
        with.
        """
        if stored.task_type != TaskType.LINK_PREDICTION:
            raise InferenceError(f"model {key!r} is not a link predictor")
        entity_index: Dict[str, int] = stored.artifact("entity_index", {})
        embeddings: np.ndarray = stored.artifact("entity_embeddings")
        candidates: np.ndarray = stored.artifact("candidate_tails")
        entity_names: List[str] = stored.artifact("entity_names", [])
        target_relation: int = stored.artifact("target_relation", 0)
        results: List[List[Dict[str, object]]] = [[] for _ in sources]
        if embeddings is None or candidates is None:
            return results
        source_ids = list(map(entity_index.get, sources))
        known = [index for index, source_id in enumerate(source_ids)
                 if source_id is not None]
        if not known:
            return results
        scores = stored.model.tail_scores(
            embeddings, [source_ids[index] for index in known],
            target_relation, candidates)
        order = np.argsort(-scores, axis=1, kind="stable")[:, :max(0, k)]
        best = np.take_along_axis(scores, order, axis=1).tolist()
        tails = candidates[order].tolist()
        for index, row_tails, row_scores in zip(known, tails, best):
            results[index] = [
                {"entity": entity_names[tail], "score": score, "rank": rank}
                for rank, (tail, score) in enumerate(zip(row_tails, row_scores))]
        return results

    # ------------------------------------------------------------------
    # Entity similarity
    # ------------------------------------------------------------------
    def _similar_for(self, stored: StoredModel, key: str, entities: List[str],
                     k: int) -> List[List[Dict[str, object]]]:
        """Per entity, the ``k`` nearest other entities of the model's
        embeddings, best first.

        The index is built on first use and kept in the model's own
        artefacts, so it goes when the model goes.
        """
        names = stored.artifact("entity_names", [])
        embeddings = stored.artifact("entity_embeddings")
        if embeddings is None or not len(names):
            raise InferenceError(f"model {key!r} has no entity embeddings")
        indexed = stored.artifact("similarity_index")
        if indexed is None:
            index = FlatIndex(embeddings.shape[1])
            index.add(embeddings)
            indexed = stored.artifacts.setdefault("similarity_index", (
                index, {name: row for row, name in enumerate(names)}))
        index, rows = indexed
        results = []
        for entity in entities:
            row = rows.get(entity)
            if row is None:
                results.append([])
                continue
            scores, found = index.search(embeddings[row], k + 1)
            hits = [(names[int(at)], float(score))
                    for score, at in zip(scores[0], found[0])
                    if names[int(at)] != entity][:k]
            results.append([{"entity": name, "score": score, "rank": rank}
                            for rank, (name, score) in enumerate(hits)])
        return results

    # ------------------------------------------------------------------
    # Model management
    # ------------------------------------------------------------------
    def delete_model(self, model_uri) -> bool:
        """Drop the stored model, and with it any index of its embeddings."""
        return self.model_store.remove(model_uri)

    def has_model(self, model_uri) -> bool:
        return model_uri in self.model_store

    def list_models(self) -> List[str]:
        return self.model_store.list_uris()
