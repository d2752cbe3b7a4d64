"""GML-as-a-Service facade (paper Fig 3, right-hand box).

The :class:`GMLaaS` object bundles the training manager, the model store and
the inference manager behind a small request/response API.  The model store
is the one registry keyed by model URI: everything inference needs, a
similarity model's embedding index included, lives in the stored model.
The SPARQL-ML layer (and the registered UDFs) talk only to this facade,
mirroring how the paper's RDF engine reaches GMLaaS over HTTP.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.gml.tasks import TaskSpec
from repro.gml.train.budget import TaskBudget
from repro.kgnet.gmlaas.inference_manager import GMLInferenceManager
from repro.kgnet.gmlaas.model_store import ModelStore, StoredModel
from repro.kgnet.gmlaas.training_manager import (
    GMLTrainingManager,
    TrainingManagerConfig,
)
from repro.rdf.graph import Graph
from repro.rdf.terms import IRI

__all__ = ["TrainResponse", "GMLaaS"]


@dataclass
class TrainResponse:
    """JSON-style response of a ``/train`` request."""

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
        }


class GMLaaS:
    """The GML-as-a-service component."""

    def __init__(self, config: Optional[TrainingManagerConfig] = None) -> None:
        self.training_manager = GMLTrainingManager(config)
        self.model_store = ModelStore()
        self.inference_manager = GMLInferenceManager(self.model_store)

    # ------------------------------------------------------------------
    # Training API
    # ------------------------------------------------------------------
    def train(self, graph: Graph, task: TaskSpec, model_uri: IRI,
              budget: Optional[TaskBudget] = None,
              method: Optional[str] = None) -> TrainResponse:
        """Train a model for ``task`` on ``graph`` and store it under ``model_uri``."""
        outcome = self.training_manager.train(graph, task, budget=budget,
                                              method=method)
        stored = StoredModel(
            uri=model_uri,
            task_type=task.task_type,
            method=outcome.result.method,
            model=outcome.result.model,
            artifacts=outcome.artifacts,
        )
        self.model_store.add(stored)
        usage = outcome.result.usage
        return TrainResponse(
            model_uri=model_uri.value,
            method=outcome.result.method,
            task_type=task.task_type,
            metrics=outcome.result.metrics,
            elapsed_seconds=usage.elapsed_seconds,
            peak_memory_bytes=usage.peak_memory_bytes,
            estimated_memory_bytes=usage.estimated_memory_bytes,
            inference_seconds=outcome.result.inference_seconds,
            within_budget=outcome.selection.within_budget,
            transform=outcome.transform_report.as_dict(),
        )

    # ------------------------------------------------------------------
    # Inference API: each method is one HTTP call, each a form of
    # GMLInferenceManager.infer but the Fig 12 dictionary
    # ------------------------------------------------------------------
    def infer_node_class(self, model_uri, node_iri) -> Optional[str]:
        return self.inference_manager.infer(model_uri, [node_iri], "class")[0]

    def infer_node_class_dictionary(self, model_uri,
                                    node_iris: Optional[List[str]] = None) -> Dict[str, str]:
        return self.inference_manager.get_node_class_dictionary(model_uri, node_iris)

    def infer_links(self, model_uri, source_iri, k: int = 10) -> List[Dict[str, object]]:
        return self.inference_manager.infer(model_uri, [source_iri], "links", k)[0]

    def infer_similar_entities(self, model_uri, entity_iri,
                               k: int = 10) -> List[Dict[str, object]]:
        return self.inference_manager.infer(model_uri, [entity_iri], "similar", k)[0]

    def infer_batch(self, model_uri, inputs: Sequence[str], k: int = 10,
                    mode: Optional[str] = None) -> List[Dict[str, object]]:
        """:meth:`GMLInferenceManager.infer` as one ``{"input": ...,
        "output": ...}`` record per input, in input order."""
        inputs = [value.value if isinstance(value, IRI) else str(value)
                  for value in inputs]
        return [{"input": value, "output": output} for value, output in zip(
            inputs, self.inference_manager.infer(model_uri, inputs, mode, k))]

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

    @property
    def http_calls(self) -> int:
        """Total inference HTTP calls served (paper Figs 11-12 cost driver)."""
        return self.inference_manager.http_calls
