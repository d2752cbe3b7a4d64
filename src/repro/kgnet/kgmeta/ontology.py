"""The ``kgnet:`` vocabulary used by KGMeta and SPARQL-ML.

These are the classes and properties that appear in the paper's queries and
in the KGMeta graph of Fig 7: model classes per task
(``kgnet:NodeClassifier``, ``kgnet:LinkPredictor``, ``kgnet:EntitySimilarity``),
task description properties (``kgnet:TargetNode``, ``kgnet:NodeLabel``,
``kgnet:SourceNode``, ``kgnet:DestinationNode``), and the per-model metadata
KGNet collects (accuracy, inference time, cardinality, sampler, budget).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.gml.tasks import TaskType
from repro.rdf.namespace import KGNET
from repro.rdf.terms import IRI

__all__ = [
    "ENTITY_SIMILARITY",
    "GML_MODEL",
    "GML_TASK",
    "TARGET_NODE",
    "NODE_LABEL",
    "SOURCE_NODE",
    "DESTINATION_NODE",
    "ENTITY_NODE",
    "TOPK_LINKS",
    "HAS_GML_TASK",
    "USES_MODEL",
    "MODEL_ACCURACY",
    "MODEL_SCORE",
    "INFERENCE_TIME",
    "TRAINING_TIME",
    "TRAINING_MEMORY",
    "MODEL_CARDINALITY",
    "GML_METHOD",
    "SAMPLER",
    "META_SAMPLING_CONFIG",
    "MODEL_URI_PREFIX",
    "TASK_URI_PREFIX",
    "classifier_class_for_task",
    "task_type_for_classifier",
]

# -- classes ---------------------------------------------------------------
NODE_CLASSIFIER = KGNET["NodeClassifier"]
LINK_PREDICTOR = KGNET["LinkPredictor"]
ENTITY_SIMILARITY = KGNET["EntitySimilarityModel"]
GML_MODEL = KGNET["GMLModel"]
GML_TASK = KGNET["GMLTask"]

# -- task description properties --------------------------------------------
TARGET_NODE = KGNET["TargetNode"]
NODE_LABEL = KGNET["NodeLabel"]
SOURCE_NODE = KGNET["SourceNode"]
DESTINATION_NODE = KGNET["DestinationNode"]
ENTITY_NODE = KGNET["EntityNode"]
TOPK_LINKS = KGNET["TopK-Links"]

# -- model metadata properties (Fig 7) ---------------------------------------
HAS_GML_TASK = KGNET["HasGMLTask"]
USES_MODEL = KGNET["uses"]
MODEL_ACCURACY = KGNET["modelAccuracy"]
MODEL_SCORE = KGNET["modelScore"]
INFERENCE_TIME = KGNET["inferenceTime"]
TRAINING_TIME = KGNET["trainingTime"]
TRAINING_MEMORY = KGNET["trainingMemory"]
MODEL_CARDINALITY = KGNET["modelCardinality"]
GML_METHOD = KGNET["gmlMethod"]
SAMPLER = KGNET["sampler"]
META_SAMPLING_CONFIG = KGNET["metaSamplingConfig"]

MODEL_URI_PREFIX = KGNET.base + "model/"
TASK_URI_PREFIX = KGNET.base + "task/"

_TASK_TO_CLASS: Dict[str, IRI] = {
    TaskType.NODE_CLASSIFICATION: NODE_CLASSIFIER,
    TaskType.LINK_PREDICTION: LINK_PREDICTOR,
    TaskType.ENTITY_SIMILARITY: ENTITY_SIMILARITY,
}

_CLASS_TO_TASK: Dict[str, str] = {iri.value: task for task, iri in _TASK_TO_CLASS.items()}


def classifier_class_for_task(task_type: str) -> IRI:
    """The kgnet: model class for a task type (e.g. NC -> kgnet:NodeClassifier)."""
    try:
        return _TASK_TO_CLASS[task_type]
    except KeyError:
        raise KeyError(f"unknown task type {task_type!r}") from None


def task_type_for_classifier(classifier: IRI) -> Optional[str]:
    """Inverse of :func:`classifier_class_for_task`; None for unknown classes."""
    return _CLASS_TO_TASK.get(classifier.value)
