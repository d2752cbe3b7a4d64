"""The KGMeta Governor (paper §IV-B.1).

KGMeta is an RDF graph describing every trained GML model — its task, the
nodes/predicates it covers, its accuracy, inference time and cardinality —
stored as a named graph alongside the data KG.  The governor is the only
component that writes to it; the SPARQL-ML service reads it through the
governor's graph-API lookups (``find_models``) to pick a model for a
user-defined predicate.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.exceptions import ModelNotFoundError
from repro.gml.tasks import TaskSpec, TaskType
from repro.kgnet.kgmeta import ontology as O
from repro.rdf.graph import Graph
from repro.rdf.namespace import KGNET
from repro.rdf.terms import IRI, Literal, Term, RDF_TYPE
from repro.sparql.endpoint import SPARQLEndpoint

__all__ = ["ModelMetadata", "KGMetaGovernor"]

#: Named graph holding KGMeta inside the endpoint's dataset.
KGMETA_GRAPH_IRI = IRI(KGNET.base + "KGMeta")


@dataclass
class ModelMetadata:
    """A row of KGMeta describing one trained model."""

    uri: IRI
    task_type: str
    model_class: IRI
    method: str = ""
    accuracy: float = 0.0
    inference_seconds: float = 0.0
    training_seconds: float = 0.0
    training_memory_bytes: int = 0
    cardinality: int = 0
    sampler: str = ""
    meta_sampling: str = ""
    target_node_type: Optional[IRI] = None
    label_predicate: Optional[IRI] = None
    source_node_type: Optional[IRI] = None
    destination_node_type: Optional[IRI] = None
    target_predicate: Optional[IRI] = None
    entity_node_type: Optional[IRI] = None

    def as_dict(self) -> Dict[str, object]:
        def iri(value: Optional[IRI]) -> Optional[str]:
            return value.value if value is not None else None
        return {
            "uri": self.uri.value,
            "task_type": self.task_type,
            "method": self.method,
            "accuracy": round(self.accuracy, 6),
            "inference_seconds": round(self.inference_seconds, 6),
            "training_seconds": round(self.training_seconds, 6),
            "training_memory_bytes": self.training_memory_bytes,
            "cardinality": self.cardinality,
            "sampler": self.sampler,
            "meta_sampling": self.meta_sampling,
            "target_node_type": iri(self.target_node_type),
            "label_predicate": iri(self.label_predicate),
            "source_node_type": iri(self.source_node_type),
            "destination_node_type": iri(self.destination_node_type),
            "target_predicate": iri(self.target_predicate),
        }


class KGMetaGovernor:
    """Creates, queries and deletes KGMeta entries on a SPARQL endpoint."""

    def __init__(self, endpoint: SPARQLEndpoint) -> None:
        self.endpoint = endpoint
        # The named graph exists from the start, so creating it is not part
        # of the first registration's transaction.
        endpoint.named_graph(KGMETA_GRAPH_IRI)
        #: The largest suffix minted here per URI prefix, registered or not.
        self._minted: Dict[str, int] = {}
        self._mint_lock = threading.Lock()

    @property
    def graph(self) -> Graph:
        return self.endpoint.named_graph(KGMETA_GRAPH_IRI)

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def mint_model_uri(self, task: TaskSpec, method: str) -> IRI:
        """One more than the largest suffix for (task, method) among the
        URIs KGMeta holds and the ones this governor minted before.

        KGMeta is durable with the dataset, so a restarted process does not
        name a registered model's URI again; the minted suffixes cover a
        model still training when the next one is minted, and one deleted
        since.
        """
        prefix = f"{O.MODEL_URI_PREFIX}{task.name}/{method}/"
        with self._mint_lock:
            largest = self._minted.get(prefix, 0)
            for subject in self.graph.subjects(RDF_TYPE, O.GML_MODEL):
                if isinstance(subject, IRI) and subject.value.startswith(prefix):
                    suffix = subject.value[len(prefix):]
                    if suffix.isdigit():
                        largest = max(largest, int(suffix))
            self._minted[prefix] = largest + 1
        return IRI(f"{prefix}{largest + 1}")

    def register_model(self, task: TaskSpec, metadata: ModelMetadata) -> IRI:
        """Write one model's metadata into KGMeta (idempotent per URI).

        All of it commits as one transaction: a reader sees the whole model
        or none of it, and so does recovery.
        """
        with self.endpoint.dataset.write_lock:
            graph = self.graph
            uri = metadata.uri
            model_class = O.classifier_class_for_task(task.task_type)
            graph.add(uri, RDF_TYPE, model_class)
            graph.add(uri, RDF_TYPE, O.GML_MODEL)
            graph.add(uri, O.GML_METHOD, Literal(metadata.method))
            graph.add(uri, O.MODEL_ACCURACY, Literal(float(metadata.accuracy)))
            graph.add(uri, O.MODEL_SCORE, Literal(float(metadata.accuracy)))
            graph.add(uri, O.INFERENCE_TIME, Literal(float(metadata.inference_seconds)))
            graph.add(uri, O.TRAINING_TIME, Literal(float(metadata.training_seconds)))
            graph.add(uri, O.TRAINING_MEMORY, Literal(int(metadata.training_memory_bytes)))
            graph.add(uri, O.MODEL_CARDINALITY, Literal(int(metadata.cardinality)))
            if metadata.sampler:
                graph.add(uri, O.SAMPLER, Literal(metadata.sampler))
            if metadata.meta_sampling:
                graph.add(uri, O.META_SAMPLING_CONFIG, Literal(metadata.meta_sampling))

            # Task-description triples: these are what SPARQL-ML queries match on
            # (paper Fig 2 lines 8-10 and Fig 10 lines 6-9).
            if task.task_type == TaskType.NODE_CLASSIFICATION:
                graph.add(uri, O.TARGET_NODE, task.target_node_type)
                graph.add(uri, O.NODE_LABEL, task.label_predicate)
            elif task.task_type == TaskType.LINK_PREDICTION:
                if task.source_node_type is not None:
                    graph.add(uri, O.SOURCE_NODE, task.source_node_type)
                if task.destination_node_type is not None:
                    graph.add(uri, O.DESTINATION_NODE, task.destination_node_type)
                graph.add(uri, O.NODE_LABEL, task.target_predicate)
                graph.add(uri, KGNET["TargetEdge"], task.target_predicate)
            elif task.task_type == TaskType.ENTITY_SIMILARITY:
                graph.add(uri, O.ENTITY_NODE, task.entity_node_type)

            # Interlink with the data KG: a task node connects the model to the
            # target node type living in the data graph (Fig 7's HasGMLTask).
            task_uri = IRI(f"{O.TASK_URI_PREFIX}{task.name}")
            graph.add(task_uri, RDF_TYPE, O.GML_TASK)
            graph.add(task_uri, O.USES_MODEL, uri)
            seed = task.seed_node_type
            if seed is not None:
                graph.add(seed, O.HAS_GML_TASK, task_uri)
            return uri

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def _literal_float(self, subject: IRI, predicate: IRI) -> float:
        """The numeric literal at ``(subject, predicate)``; 0.0 when there
        is none or it does not parse."""
        value = self.graph.value(subject=subject, predicate=predicate)
        if isinstance(value, Literal):
            try:
                return float(value.lexical)
            except ValueError:
                return 0.0
        return 0.0

    def _literal_str(self, subject: IRI, predicate: IRI) -> str:
        value = self.graph.value(subject=subject, predicate=predicate)
        return value.lexical if isinstance(value, Literal) else ""

    def _iri(self, subject: IRI, predicate: IRI) -> Optional[IRI]:
        value = self.graph.value(subject=subject, predicate=predicate)
        return value if isinstance(value, IRI) else None

    def describe(self, uri: IRI) -> ModelMetadata:
        graph = self.graph
        model_class = None
        task_type = TaskType.NODE_CLASSIFICATION
        for _, _, cls in graph.triples(uri, RDF_TYPE, None):
            if isinstance(cls, IRI):
                mapped = O.task_type_for_classifier(cls)
                if mapped is not None:
                    model_class = cls
                    task_type = mapped
        if model_class is None:
            raise ModelNotFoundError(f"model {uri.n3()} is not registered in KGMeta")
        return ModelMetadata(
            uri=uri,
            task_type=task_type,
            model_class=model_class,
            method=self._literal_str(uri, O.GML_METHOD),
            accuracy=self._literal_float(uri, O.MODEL_ACCURACY),
            inference_seconds=self._literal_float(uri, O.INFERENCE_TIME),
            training_seconds=self._literal_float(uri, O.TRAINING_TIME),
            training_memory_bytes=int(self._literal_float(uri, O.TRAINING_MEMORY)),
            cardinality=int(self._literal_float(uri, O.MODEL_CARDINALITY)),
            sampler=self._literal_str(uri, O.SAMPLER),
            meta_sampling=self._literal_str(uri, O.META_SAMPLING_CONFIG),
            target_node_type=self._iri(uri, O.TARGET_NODE),
            label_predicate=self._iri(uri, O.NODE_LABEL),
            source_node_type=self._iri(uri, O.SOURCE_NODE),
            destination_node_type=self._iri(uri, O.DESTINATION_NODE),
            target_predicate=self._iri(uri, KGNET["TargetEdge"]),
            entity_node_type=self._iri(uri, O.ENTITY_NODE),
        )

    def list_models(self, model_class: Optional[IRI] = None) -> List[ModelMetadata]:
        graph = self.graph
        uris = set()
        if model_class is None:
            for subject in graph.subjects(RDF_TYPE, O.GML_MODEL):
                if isinstance(subject, IRI):
                    uris.add(subject)
        else:
            for subject in graph.subjects(RDF_TYPE, model_class):
                if isinstance(subject, IRI):
                    uris.add(subject)
        return [self.describe(uri) for uri in sorted(uris, key=lambda u: u.value)]

    def find_models(self, model_class: IRI,
                    constraints: Optional[Dict[IRI, Term]] = None) -> List[ModelMetadata]:
        """Models of ``model_class`` whose KGMeta triples match ``constraints``.

        ``constraints`` maps a kgnet: property (e.g. ``kgnet:TargetNode``) to
        the required value, mirroring the triple patterns of a SPARQL-ML
        query's user-defined predicate block.
        """
        constraints = constraints or {}
        candidates = []
        for metadata in self.list_models(model_class):
            graph = self.graph
            matches = True
            for predicate, value in constraints.items():
                if value is None:
                    continue
                found = any(True for _ in graph.triples(metadata.uri, predicate, value))
                if not found:
                    matches = False
                    break
            if matches:
                candidates.append(metadata)
        return candidates

    # ------------------------------------------------------------------
    # Deletion
    # ------------------------------------------------------------------
    def delete_model(self, uri: IRI) -> int:
        """Remove every KGMeta triple about ``uri``; returns triples removed."""
        graph = self.graph
        with self.endpoint.dataset.write_lock:
            removed = graph.remove(uri, None, None)
            removed += graph.remove(None, None, uri)
        return removed

    def __len__(self) -> int:
        return sum(1 for _ in self.graph.subjects(RDF_TYPE, O.GML_MODEL))
