"""GML task definitions.

A :class:`TaskSpec` captures what the SPARQL-ML ``TrainGML`` JSON object
(paper Fig 8) describes: the task type, the target node type and label
predicate for node classification, or the source/destination node types and
target predicate for link prediction, plus an optional similarity-search
configuration for entity matching.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.exceptions import DatasetError
from repro.rdf.terms import IRI

__all__ = ["TaskType", "TaskSpec"]


class TaskType:
    """String constants for the three GML tasks KGNet supports."""

    NODE_CLASSIFICATION = "node_classification"
    LINK_PREDICTION = "link_prediction"
    ENTITY_SIMILARITY = "entity_similarity"

    ALL = (NODE_CLASSIFICATION, LINK_PREDICTION, ENTITY_SIMILARITY)


@dataclass
class TaskSpec:
    """A fully specified GML task on a knowledge graph."""

    task_type: str
    name: str = ""
    #: Node classification: the type of the nodes being classified and the
    #: predicate whose object is the class label.
    target_node_type: Optional[IRI] = None
    label_predicate: Optional[IRI] = None
    #: Link prediction: source/destination node types and the predicate whose
    #: missing edges the model predicts.
    source_node_type: Optional[IRI] = None
    destination_node_type: Optional[IRI] = None
    target_predicate: Optional[IRI] = None
    #: Entity similarity: the node type whose embeddings are indexed.
    entity_node_type: Optional[IRI] = None

    def __post_init__(self) -> None:
        if self.task_type not in TaskType.ALL:
            raise DatasetError(f"unknown task type {self.task_type!r}")
        if self.task_type == TaskType.NODE_CLASSIFICATION:
            if self.target_node_type is None or self.label_predicate is None:
                raise DatasetError(
                    "node classification requires target_node_type and label_predicate")
        elif self.task_type == TaskType.LINK_PREDICTION:
            if self.target_predicate is None:
                raise DatasetError("link prediction requires target_predicate")
        elif self.task_type == TaskType.ENTITY_SIMILARITY:
            if self.entity_node_type is None:
                raise DatasetError("entity similarity requires entity_node_type")
        if not self.name:
            self.name = self._default_name()

    def _default_name(self) -> str:
        if self.task_type == TaskType.NODE_CLASSIFICATION:
            return (f"nc_{self.target_node_type.local_name()}"
                    f"_{self.label_predicate.local_name()}")
        if self.task_type == TaskType.LINK_PREDICTION:
            return f"lp_{self.target_predicate.local_name()}"
        return f"es_{self.entity_node_type.local_name()}"

    #: The node type the meta-sampler starts from.
    @property
    def seed_node_type(self) -> Optional[IRI]:
        if self.task_type == TaskType.NODE_CLASSIFICATION:
            return self.target_node_type
        if self.task_type == TaskType.LINK_PREDICTION:
            return self.source_node_type
        return self.entity_node_type

    def as_dict(self) -> Dict[str, object]:
        def iri(value: Optional[IRI]) -> Optional[str]:
            return value.value if value is not None else None
        return {
            "task_type": self.task_type,
            "name": self.name,
            "target_node_type": iri(self.target_node_type),
            "label_predicate": iri(self.label_predicate),
            "source_node_type": iri(self.source_node_type),
            "destination_node_type": iri(self.destination_node_type),
            "target_predicate": iri(self.target_predicate),
            "entity_node_type": iri(self.entity_node_type),
        }

    _IRI_FIELDS = ("target_node_type", "label_predicate", "source_node_type",
                   "destination_node_type", "target_predicate", "entity_node_type")

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "TaskSpec":
        """Inverse of :meth:`as_dict`; IRI fields arrive as plain strings."""
        if "task_type" not in payload:
            raise DatasetError("task payload misses 'task_type'")
        kwargs: Dict[str, object] = {
            "task_type": payload["task_type"],
            "name": str(payload.get("name") or ""),
        }
        for name in cls._IRI_FIELDS:
            value = payload.get(name)
            if isinstance(value, IRI):
                kwargs[name] = value
            elif value is not None:
                kwargs[name] = IRI(str(value))
        return cls(**kwargs)
