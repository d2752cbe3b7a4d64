"""Model store: keeps trained models (and their artefacts) addressable by URI.

GMLaaS is "storing the trained models and embeddings related to KGs" (paper
§I).  The store keeps each model in memory only: a model does not outlive
its process, although its KGMeta record does.  There is no on-disk model
format yet; the one to come must load without running code, so it will not
be ``pickle``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, List

from repro.exceptions import ModelNotFoundError
from repro.rdf.terms import IRI

__all__ = ["StoredModel", "ModelStore"]


@dataclass
class StoredModel:
    """A trained model plus everything inference needs."""

    uri: IRI
    task_type: str
    method: str
    model: object
    #: Task-specific inference artefacts, e.g. for node classification the
    #: mapping node IRI -> predicted class IRI; for link prediction the
    #: entity index mapping and embeddings; for similarity the embeddings
    #: and, once inference has searched them, their index.
    artifacts: Dict[str, object] = field(default_factory=dict)

    def artifact(self, name: str, default=None):
        return self.artifacts.get(name, default)


class ModelStore:
    """URI-keyed registry of :class:`StoredModel` objects.

    :attr:`generation` counts every :meth:`add` and :meth:`remove`, bumped
    after the change is visible: an answer computed from the store is
    current for as long as the generation read *before* computing it is.
    """

    def __init__(self) -> None:
        self._models: Dict[str, StoredModel] = {}
        self.generation = 0
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def add(self, stored: StoredModel) -> IRI:
        with self._lock:
            self._models[stored.uri.value] = stored
            self.generation += 1
        return stored.uri

    def get(self, uri) -> StoredModel:
        key = uri.value if isinstance(uri, IRI) else str(uri)
        stored = self._models.get(key)
        if stored is None:
            raise ModelNotFoundError(f"no stored model with URI {key!r}")
        return stored

    def __contains__(self, uri) -> bool:
        key = uri.value if isinstance(uri, IRI) else str(uri)
        return key in self._models

    def remove(self, uri) -> bool:
        key = uri.value if isinstance(uri, IRI) else str(uri)
        with self._lock:
            existed = self._models.pop(key, None) is not None
            self.generation += 1
        return existed

    def list_uris(self) -> List[str]:
        return sorted(self._models)

    def __len__(self) -> int:
        return len(self._models)
