"""GML-as-a-Service (paper Fig 3, right-hand box).

The paper's GMLaaS trains models on request and serves their predictions to
the RDF engine's UDFs over HTTP (§IV-A).  :class:`GMLaaS` is that one
component: the training manager trains, the model store keeps what was
trained, and GMLaaS answers predictions from it.  The model store is the one
registry keyed by model URI, one typed artefact per model holding exactly
what inference reads (:mod:`repro.kgnet.gmlaas.model_store`).

GMLaaS has two prediction routes, each one "HTTP call" (so the query-plan
experiments can report call counts): :meth:`GMLaaS.infer`, the predictions
for a batch of inputs — the Fig 11 plan calls it with one input per target,
the ``infer`` plan node with a batch — and
:meth:`GMLaaS.infer_node_class_dictionary`, the whole node -> class
dictionary of the Fig 12 plan.  Both take plain strings/URIs in and return
JSON-serialisable Python structures.  GMLaaS holds no scoring of its own: a
link is ranked by the artefact's scorer's ``tail_scores``
(:mod:`repro.gml.kge.base`), the one kernel the model's training evaluation
ranked with too.
"""

from __future__ import annotations

import threading
import time
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.exceptions import InferenceError
from repro.gml.tasks import TaskSpec
from repro.gml.train.budget import TaskBudget
from repro.kgnet.gmlaas.model_store import (
    ARTEFACT_OF_MODE,
    LinkArtefact,
    ModelStore,
    SimilarityArtefact,
)
from repro.kgnet.gmlaas.training_manager import (
    GMLTrainingManager,
    TrainingManagerConfig,
)
from repro.rdf.graph import Graph
from repro.rdf.terms import IRI

__all__ = ["TrainResponse", "GMLaaS"]


@dataclass
class TrainResponse:
    """JSON-style response of a ``/train`` request.

    ``estimated_memory_bytes`` is the method selector's price for the
    trained method: the memory ledger's peak over the run's first epoch,
    which the selector ran to price it (``peak_memory_bytes`` is the whole
    run's).  ``stopped_early`` says the budget cut the run short between
    epochs.
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
    transform: Dict[str, object]
    stopped_early: bool

    def as_dict(self) -> Dict[str, object]:
        payload = asdict(self)
        payload["metrics"] = {k: round(float(v), 6) for k, v in self.metrics.items()}
        for name in ("elapsed_seconds", "inference_seconds"):
            payload[name] = round(payload[name], 6)
        return payload


class GMLaaS:
    """The GML-as-a-service component: training and the inference endpoint.

    Safe to call from many serving threads: the HTTP-call counter is
    lock-protected (bare ``+=`` would lose updates under contention), and a
    stored artefact is frozen; the one thing derived from it at inference,
    a similarity model's index, is stored once with ``dict.setdefault``.
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
        self.model_store.add(model_uri, outcome.artefact)
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

    def _artefact(self, model_uri, mode: Optional[str]):
        """One HTTP call's artefact, and ``mode`` or else its default."""
        key = str(model_uri)
        self._record_call()
        artefact = self.model_store.get(key)
        if mode is None:
            mode = artefact.default_mode
        if not isinstance(artefact, ARTEFACT_OF_MODE.get(mode, ())):
            raise InferenceError(
                f"cannot infer with model {key!r} "
                f"({type(artefact).__name__}, mode={mode!r})")
        return artefact, mode

    def infer(self, model_uri, inputs: Sequence, mode: Optional[str] = None,
              k: int = 10) -> List[object]:
        """Predictions for ``inputs`` in one HTTP call, in input order.

        ``mode`` is ``"class"`` (the predicted class, a string), ``"links"``
        (the ``k`` best destinations of a source) or ``"similar"`` (the ``k``
        entities nearest in embedding space); omitted, it is the default of
        the model's artefact type.  A ranking is a list of ``{"entity",
        "score", "rank"}``, best first, and empty for ``k <= 0``.  An input
        the model does not know gets ``None`` for a class and ``[]`` for a
        ranking; a model that cannot answer ``mode`` raises
        :class:`~repro.exceptions.InferenceError` for the whole call.
        """
        k = max(0, k)
        artefact, mode = self._artefact(model_uri, mode)
        inputs = list(map(str, inputs))
        if mode == "class":
            return list(map(artefact.prediction_map.get, inputs))
        if mode == "links":
            return self._links_for(artefact, inputs, k)
        return self._similar_for(artefact, inputs, k)

    def infer_node_class_dictionary(self, model_uri,
                                    node_iris: Optional[List[str]] = None) -> Dict[str, str]:
        """Predictions for all (or the requested) target nodes in one HTTP call.

        This is the inner sub-select of the paper's Fig 12 plan: one call
        returns the whole dictionary and the outer query looks values up.
        """
        prediction_map = self._artefact(model_uri, "class")[0].prediction_map
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
        inputs = list(map(str, inputs))
        return [{"input": value, "output": output} for value, output in zip(
            inputs, self.infer(model_uri, inputs, mode, k))]

    # ------------------------------------------------------------------
    # Rankings
    # ------------------------------------------------------------------
    @staticmethod
    def _links_for(artefact: LinkArtefact, sources: List[str],
                   k: int) -> List[List[Dict[str, object]]]:
        """Per source, its ``k`` best candidate tails, best first.

        All sources the model knows are scored in one call of the scorer's
        ``tail_scores``; equal scores rank by candidate index (a stable
        sort), and a source's scores do not depend on what it is batched
        with.
        """
        results: List[List[Dict[str, object]]] = [[] for _ in sources]
        source_ids = list(map(artefact.rows.get, sources))
        known = [index for index, source_id in enumerate(source_ids)
                 if source_id is not None]
        if not known:
            return results
        candidates = artefact.candidate_tails
        scores = artefact.scorer.tail_scores(
            artefact.entity_embeddings, [source_ids[index] for index in known],
            artefact.target_relation, candidates)
        order = np.argsort(-scores, axis=1, kind="stable")[:, :k]
        best = np.take_along_axis(scores, order, axis=1).tolist()
        tails = candidates[order].tolist()
        names = artefact.entity_names
        for index, row_tails, row_scores in zip(known, tails, best):
            results[index] = [
                {"entity": names[tail], "score": score, "rank": rank}
                for rank, (tail, score) in enumerate(zip(row_tails, row_scores))]
        return results

    @staticmethod
    def _similar_for(artefact: SimilarityArtefact, entities: List[str],
                     k: int) -> List[List[Dict[str, object]]]:
        """Per entity, the ``k`` nearest other entities of the model's
        embeddings, best first."""
        names, embeddings = artefact.entity_names, artefact.entity_embeddings
        index = artefact.similarity_index
        results = []
        for entity in entities:
            row = artefact.rows.get(entity)
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
