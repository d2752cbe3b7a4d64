"""Model store: one typed artefact per trained model, addressable by URI.

GMLaaS is "storing the trained models and embeddings related to KGs" (paper
§I).  A model is stored as its task's artefact, exactly what inference reads,
checked when it is built: a model missing a field fails there instead of
answering "no prediction".  KGMeta records a model's task and method.  The
store keeps each artefact in memory only: a model does not outlive its
process, although its KGMeta record does.  There is no on-disk model format
yet; an artefact's fields are what it will hold, and it must load without
running code, so it will not be ``pickle``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, List, Sequence, Union

import numpy as np

from repro.exceptions import InferenceError, ModelNotFoundError
from repro.kgnet.gmlaas.embedding_store import FlatIndex

__all__ = ["NodeClassArtefact", "SimilarityArtefact", "LinkArtefact",
           "ARTEFACT_OF_MODE", "ModelStore"]


def _check(holds: bool, what: str) -> None:
    if not holds:
        raise InferenceError(f"a stored model needs {what}")


@dataclass(frozen=True, eq=False)
class NodeClassArtefact:
    """A node classifier: the predicted class of every target node."""

    #: The prediction an artefact answers when the caller names no mode.
    default_mode = "class"
    prediction_map: Dict[str, str]

    def __post_init__(self) -> None:
        _check(isinstance(self.prediction_map, dict) and len(self.prediction_map) > 0,
               "a non-empty prediction map")


@dataclass(frozen=True, eq=False)
class SimilarityArtefact:
    """An embedding model: one embedding row per entity name.  ``rows`` maps
    each name to its row, built once for every mode that looks one up."""

    default_mode = "similar"
    entity_names: Sequence[str]
    entity_embeddings: np.ndarray

    def __post_init__(self) -> None:
        names, embeddings = self.entity_names, self.entity_embeddings
        _check(len(names) > 0 and np.ndim(embeddings) == 2
               and len(embeddings) == len(names), "one embedding row per entity name")
        object.__setattr__(self, "rows", {name: row for row, name in enumerate(names)})

    @property
    def similarity_index(self) -> FlatIndex:
        """The index of the embeddings, built on first use and kept with the
        artefact; of threads racing to build it, the first stored wins."""
        index = self.__dict__.get("_similarity_index")
        if index is None:
            index = FlatIndex(self.entity_embeddings.shape[1])
            index.add(self.entity_embeddings)
            index = self.__dict__.setdefault("_similarity_index", index)
        return index


@dataclass(frozen=True, eq=False)
class LinkArtefact(SimilarityArtefact):
    """A link predictor: the tails it ranks for the target relation, and the
    scorer whose ``tail_scores`` ranks them (the one ranking kernel its
    training evaluation used too)."""

    default_mode = "links"
    candidate_tails: np.ndarray
    target_relation: int
    scorer: object

    def __post_init__(self) -> None:
        super().__post_init__()
        tails = self.candidate_tails
        _check(isinstance(tails, np.ndarray) and tails.ndim == 1 and len(tails) > 0
               and 0 <= tails.min() and tails.max() < len(self.entity_names),
               "candidate tails among its entities")
        _check(isinstance(self.target_relation, (int, np.integer))
               and self.target_relation >= 0, "a target relation")
        _check(callable(getattr(self.scorer, "tail_scores", None)),
               "a scorer with tail_scores")


Artefact = Union[NodeClassArtefact, SimilarityArtefact, LinkArtefact]

#: The artefact type each inference mode reads: the type whose default mode
#: it is.  A subtype answers it too: a link predictor answers ``"similar"``.
ARTEFACT_OF_MODE = {artefact.default_mode: artefact for artefact in (
    NodeClassArtefact, SimilarityArtefact, LinkArtefact)}


class ModelStore:
    """URI-keyed registry of model artefacts.

    :attr:`generation` counts every :meth:`add` and :meth:`remove`, bumped
    after the change is visible: an answer computed from the store is
    current for as long as the generation read *before* computing it is.
    """

    def __init__(self) -> None:
        self._models: Dict[str, Artefact] = {}
        self.generation = 0
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def add(self, uri, artefact: Artefact) -> None:
        with self._lock:
            self._models[str(uri)] = artefact
            self.generation += 1

    def get(self, uri) -> Artefact:
        artefact = self._models.get(str(uri))
        if artefact is None:
            raise ModelNotFoundError(f"no stored model with URI {str(uri)!r}")
        return artefact

    def __contains__(self, uri) -> bool:
        return str(uri) in self._models

    def remove(self, uri) -> bool:
        with self._lock:
            existed = self._models.pop(str(uri), None) is not None
            self.generation += 1
        return existed

    def list_uris(self) -> List[str]:
        return sorted(self._models)

    def __len__(self) -> int:
        return len(self._models)
