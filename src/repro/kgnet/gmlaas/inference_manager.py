"""The GML Inference Manager.

The paper's GMLaaS receives HTTP calls from the RDF engine's UDFs, runs the
requested model and serialises the result back as JSON (§IV-A).  The
:class:`GMLInferenceManager` is that component: every public method counts as
one "HTTP call" (so the query-plan experiments can report call counts), takes
plain strings/URIs in, and returns JSON-serialisable Python structures.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Optional

import numpy as np

from repro.exceptions import InferenceError, ModelNotFoundError
from repro.gml.tasks import TaskType
from repro.kgnet.gmlaas.embedding_store import EmbeddingStore
from repro.kgnet.gmlaas.model_store import ModelStore, StoredModel
from repro.rdf.terms import IRI

__all__ = ["GMLInferenceManager"]


class GMLInferenceManager:
    """Serves predictions from stored models (the REST inference endpoint).

    Safe to call from many serving threads: the HTTP-call counters are
    lock-protected (bare ``+=`` would lose updates under contention), and
    the per-model artefact reads are pure lookups into append-only stores.
    """

    def __init__(self, model_store: ModelStore,
                 embedding_store: Optional[EmbeddingStore] = None) -> None:
        self.model_store = model_store
        self.embedding_store = embedding_store or EmbeddingStore()
        #: Number of inference requests served (each equals one HTTP call in
        #: the paper's architecture).
        self.http_calls = 0
        self.calls_by_model: Dict[str, int] = {}
        self._counters_lock = threading.Lock()
        #: Simulated per-call latency of the HTTP hop between the RDF engine
        #: and GMLaaS (seconds).  Zero by default; tests set it to model
        #: the paper's deployment, where every inference call is a real
        #: network round-trip — exactly what the batched routes amortise.
        self.call_latency_seconds = 0.0

    # ------------------------------------------------------------------
    def _record_call(self, model_uri: str) -> None:
        with self._counters_lock:
            self.http_calls += 1
            self.calls_by_model[model_uri] = self.calls_by_model.get(model_uri, 0) + 1
        if self.call_latency_seconds > 0.0:
            time.sleep(self.call_latency_seconds)

    def reset_counters(self) -> None:
        with self._counters_lock:
            self.http_calls = 0
            self.calls_by_model.clear()

    def _stored(self, model_uri) -> StoredModel:
        try:
            return self.model_store.get(model_uri)
        except ModelNotFoundError:
            raise
    # ------------------------------------------------------------------
    # Node classification
    # ------------------------------------------------------------------
    def get_node_class(self, model_uri, node_iri) -> Optional[str]:
        """Predicted class of one node (one HTTP call)."""
        key = model_uri.value if isinstance(model_uri, IRI) else str(model_uri)
        self._record_call(key)
        stored = self._stored(model_uri)
        if stored.task_type != TaskType.NODE_CLASSIFICATION:
            raise InferenceError(f"model {key!r} is not a node classifier")
        prediction_map: Dict[str, str] = stored.artifact("prediction_map", {})
        node_key = node_iri.value if isinstance(node_iri, IRI) else str(node_iri)
        return prediction_map.get(node_key)

    def get_node_class_dictionary(self, model_uri,
                                  node_iris: Optional[List[str]] = None) -> Dict[str, str]:
        """Predictions for all (or the requested) target nodes in one HTTP call.

        This is the inner sub-select of the paper's Fig 12 plan: one call
        returns the whole dictionary and the outer query looks values up.
        """
        key = model_uri.value if isinstance(model_uri, IRI) else str(model_uri)
        self._record_call(key)
        stored = self._stored(model_uri)
        if stored.task_type != TaskType.NODE_CLASSIFICATION:
            raise InferenceError(f"model {key!r} is not a node classifier")
        prediction_map: Dict[str, str] = stored.artifact("prediction_map", {})
        if node_iris is None:
            return dict(prediction_map)
        return {node: prediction_map[node] for node in map(str, node_iris)
                if node in prediction_map}

    # ------------------------------------------------------------------
    # Link prediction
    # ------------------------------------------------------------------
    def get_predicted_links(self, model_uri, source_iri, k: int = 10) -> List[Dict[str, object]]:
        """Top-k predicted destination entities for one source node."""
        key = model_uri.value if isinstance(model_uri, IRI) else str(model_uri)
        self._record_call(key)
        source = source_iri.value if isinstance(source_iri, IRI) else str(source_iri)
        return self._links_for(self._stored(model_uri), key, [source], k)[0]

    def get_predicted_links_batch(self, model_uri, source_iris,
                                  k: int = 10) -> Dict[str, List[Dict[str, object]]]:
        """Top-k predicted links for many source nodes in *one* HTTP call.

        The batched route amortises the per-call dispatch overhead: the model
        artefacts are fetched once and the whole batch is scored against them.
        """
        key = model_uri.value if isinstance(model_uri, IRI) else str(model_uri)
        self._record_call(key)
        sources = [source.value if isinstance(source, IRI) else str(source)
                   for source in source_iris]
        return dict(zip(sources, self._links_for(
            self._stored(model_uri), key, sources, k)))

    def _links_for(self, stored: StoredModel, key: str, sources: List[str],
                   k: int) -> List[List[Dict[str, object]]]:
        """Per source, its ``k`` best candidate tails, best first.

        All sources the model knows are scored in one kernel call; equal
        scores rank by candidate index (a stable sort), and a source's scores
        do not depend on what it is batched with (:meth:`_score_tails`).
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
        scores = self._score_tails(
            stored, embeddings, [source_ids[index] for index in known],
            target_relation, candidates)
        order = np.argsort(-scores, axis=1, kind="stable")[:, :max(0, k)]
        best = np.take_along_axis(scores, order, axis=1).tolist()
        tails = candidates[order].tolist()
        for index, row_tails, row_scores in zip(known, tails, best):
            results[index] = [
                {"entity": entity_names[tail], "score": score, "rank": rank}
                for rank, (tail, score) in enumerate(zip(row_tails, row_scores))]
        return results

    @staticmethod
    def _score_tails(stored: StoredModel, embeddings: np.ndarray, source_ids,
                     relation: int, candidates: np.ndarray) -> np.ndarray:
        """``(sources, candidates)`` decoder scores.

        Every score is reduced over the embedding dimension on its own
        (``einsum`` / a last-axis sum — not a BLAS product, whose blocking
        varies with the batch shape), so a source scores bit for bit the same
        alone and in a batch of any size.
        """
        model = stored.model
        relation_matrix = getattr(model, "relation_embeddings", None)
        if relation_matrix is None:
            raise InferenceError("stored link-prediction model has no relation embeddings")
        relation_vector = relation_matrix.weight.data[relation]
        heads = embeddings[source_ids]
        tails = embeddings[candidates]
        decoder = getattr(model, "decoder", "distmult")
        if decoder == "transe" or model.__class__.__name__.lower() == "transe":
            margin = getattr(model, "margin", 6.0)
            translated = heads + relation_vector
            # Source blocks bound the (block, candidates, dim) intermediate.
            block = max(1, (1 << 20) // max(1, tails.size))
            return np.concatenate([
                margin - np.abs(translated[start:start + block, None, :]
                                - tails[None, :, :]).sum(axis=2)
                for start in range(0, len(translated), block)])
        return np.einsum("sd,cd->sc", heads * relation_vector, tails)

    # ------------------------------------------------------------------
    # Entity similarity
    # ------------------------------------------------------------------
    def index_embeddings(self, model_uri, collection: Optional[str] = None) -> str:
        """Register a model's entity embeddings in the embedding store."""
        stored = self._stored(model_uri)
        embeddings = stored.artifact("entity_embeddings")
        names = stored.artifact("entity_names", [])
        if embeddings is None or not len(names):
            raise InferenceError("model has no entity embeddings to index")
        collection = collection or (model_uri.value if isinstance(model_uri, IRI)
                                    else str(model_uri))
        self.embedding_store.create_collection(collection, names, embeddings)
        return collection

    def get_similar_entities(self, model_uri, entity_iri, k: int = 10) -> List[Dict[str, object]]:
        """Top-k most similar entities by embedding cosine similarity."""
        key = model_uri.value if isinstance(model_uri, IRI) else str(model_uri)
        self._record_call(key)
        return self._similar_for(model_uri, key, entity_iri, k)

    def get_similar_entities_batch(self, model_uri, entity_iris,
                                   k: int = 10) -> Dict[str, List[Dict[str, object]]]:
        """Similarity search for many entities in *one* HTTP call.

        Per-entity failures (an entity missing from the collection) yield an
        empty result list instead of aborting the batch: one unknown entity
        must not fail its batch neighbours.  Model-level failures (no embeddings to index) still
        raise for the whole batch, matching the single-entity route.
        """
        key = model_uri.value if isinstance(model_uri, IRI) else str(model_uri)
        self._record_call(key)
        if not self.embedding_store.has_collection(key):
            self.index_embeddings(model_uri, key)
        results: Dict[str, List[Dict[str, object]]] = {}
        for entity in entity_iris:
            try:
                results[str(entity)] = self._similar_for(model_uri, key, entity, k)
            except InferenceError:
                results[str(entity)] = []
        return results

    def _similar_for(self, model_uri, collection: str, entity_iri,
                     k: int) -> List[Dict[str, object]]:
        if not self.embedding_store.has_collection(collection):
            self.index_embeddings(model_uri, collection)
        entity_key = entity_iri.value if isinstance(entity_iri, IRI) else str(entity_iri)
        try:
            results = self.embedding_store.similar_to(collection, entity_key, k=k)
        except Exception as exc:
            raise InferenceError(f"similarity search failed: {exc}") from exc
        return [{"entity": r.key, "score": r.score, "rank": r.rank} for r in results]
