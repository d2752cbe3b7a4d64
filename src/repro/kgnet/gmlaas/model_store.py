"""Model store: keeps trained models (and their artefacts) addressable by URI.

GMLaaS is "storing the trained models and embeddings related to KGs" (paper
§I).  The store keeps each model in memory and can optionally persist it to
disk as a pickle (the ``model.pkl`` of paper Fig 6) so a later process can
reload it for inference.
"""

from __future__ import annotations

import os
import pickle
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional

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
    #: entity index mapping and embeddings; for similarity the collection name.
    artifacts: Dict[str, object] = field(default_factory=dict)

    def artifact(self, name: str, default=None):
        return self.artifacts.get(name, default)


class ModelStore:
    """URI-keyed registry of :class:`StoredModel` objects.

    :attr:`generation` counts every :meth:`add` and :meth:`remove`, bumped
    after the change is visible: an answer computed from the store is
    current for as long as the generation read *before* computing it is.
    """

    def __init__(self, directory: Optional[str] = None) -> None:
        self._models: Dict[str, StoredModel] = {}
        self.directory = directory
        self.generation = 0
        self._lock = threading.Lock()
        if directory:
            os.makedirs(directory, exist_ok=True)

    # ------------------------------------------------------------------
    def add(self, stored: StoredModel, persist: bool = False) -> IRI:
        with self._lock:
            self._models[stored.uri.value] = stored
            self.generation += 1
        if persist and self.directory:
            self.save_to_disk(stored.uri)
        return stored.uri

    def get(self, uri) -> StoredModel:
        key = uri.value if isinstance(uri, IRI) else str(uri)
        stored = self._models.get(key)
        if stored is None:
            stored = self._load_from_disk(key)
        if stored is None:
            raise ModelNotFoundError(f"no stored model with URI {key!r}")
        return stored

    def __contains__(self, uri) -> bool:
        key = uri.value if isinstance(uri, IRI) else str(uri)
        return key in self._models or self._disk_path(key) is not None and \
            os.path.exists(self._disk_path(key))

    def remove(self, uri) -> bool:
        key = uri.value if isinstance(uri, IRI) else str(uri)
        with self._lock:
            existed = self._models.pop(key, None) is not None
            path = self._disk_path(key)
            if path and os.path.exists(path):
                os.remove(path)
                existed = True
            self.generation += 1
        return existed

    def list_uris(self) -> List[str]:
        return sorted(self._models)

    def __len__(self) -> int:
        return len(self._models)

    # ------------------------------------------------------------------
    # Disk persistence (the "model.pkl" of paper Fig 6)
    # ------------------------------------------------------------------
    def _disk_path(self, key: str) -> Optional[str]:
        if not self.directory:
            return None
        safe = key.replace("/", "_").replace(":", "_")
        return os.path.join(self.directory, f"{safe}.pkl")

    def save_to_disk(self, uri) -> Optional[str]:
        key = uri.value if isinstance(uri, IRI) else str(uri)
        stored = self._models.get(key)
        path = self._disk_path(key)
        if stored is None or path is None:
            return None
        with open(path, "wb") as handle:
            pickle.dump(stored, handle)
        return path

    def _load_from_disk(self, key: str) -> Optional[StoredModel]:
        path = self._disk_path(key)
        if path is None or not os.path.exists(path):
            return None
        with open(path, "rb") as handle:
            stored = pickle.load(handle)
        self._models[key] = stored
        return stored
