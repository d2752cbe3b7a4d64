"""Embedding indexes for entity-similarity search (the FAISS stand-in).

The paper's GMLaaS keeps trained embeddings in a FAISS index "for fast
similarity search by storing, indexing, and searching embeddings" (§IV-A).
Here a model's index lives with the model itself: its
:class:`~repro.kgnet.gmlaas.model_store.SimilarityArtefact` builds it the
first time inference searches the embeddings, as a :class:`FlatIndex`:
exact brute-force search (FAISS ``IndexFlat``).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.exceptions import PlatformError

__all__ = ["FlatIndex"]


def _normalise(matrix: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return matrix / norms


class FlatIndex:
    """Exact (brute force) cosine nearest-neighbour index."""

    def __init__(self, dim: int) -> None:
        self.dim = dim
        #: The added vectors, each scaled to unit length once, when added.
        self._vectors = np.zeros((0, dim), dtype=np.float64)

    def __len__(self) -> int:
        return int(self._vectors.shape[0])

    def add(self, vectors: np.ndarray) -> None:
        vectors = np.asarray(vectors, dtype=np.float64).reshape(-1, self.dim)
        self._vectors = np.concatenate([self._vectors, _normalise(vectors)], axis=0)

    def search(self, queries: np.ndarray, k: int = 10) -> Tuple[np.ndarray, np.ndarray]:
        """Return (scores, indices) of the top-k neighbours per query row."""
        queries = np.asarray(queries, dtype=np.float64).reshape(-1, self.dim)
        if len(self) == 0:
            raise PlatformError("search on an empty index")
        scores = _normalise(queries) @ self._vectors.T
        k = min(k, len(self))
        indices = np.argsort(-scores, axis=1)[:, :k]
        top_scores = np.take_along_axis(scores, indices, axis=1)
        return top_scores, indices
