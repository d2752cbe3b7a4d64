"""An inverted-file embedding index (FAISS ``IndexIVFFlat``), for the
embedding-store ablation beside it.

Vectors are grouped by a k-means coarse quantiser; a search probes only the
``nprobe`` closest clusters, trading a little recall for speed.
``bench_ablation_embedding_store.py`` compares it with the exact
:class:`~repro.kgnet.gmlaas.embedding_store.FlatIndex` that GMLaaS serves
similarity queries with; the platform itself never builds one.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.exceptions import PlatformError
from repro.kgnet.gmlaas.embedding_store import _normalise

__all__ = ["IVFIndex"]


class IVFIndex:
    """Inverted-file index: k-means clusters + per-cluster exact search."""

    def __init__(self, dim: int, num_clusters: int = 16, nprobe: int = 2,
                 metric: str = "cosine", seed: int = 0,
                 kmeans_iterations: int = 10) -> None:
        if num_clusters < 1:
            raise PlatformError("num_clusters must be >= 1")
        self.dim = dim
        self.metric = metric
        self.num_clusters = num_clusters
        self.nprobe = max(1, min(nprobe, num_clusters))
        self.kmeans_iterations = kmeans_iterations
        self.seed = seed
        self._vectors = np.zeros((0, dim), dtype=np.float64)
        self._centroids: Optional[np.ndarray] = None
        self._assignments: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return int(self._vectors.shape[0])

    def add(self, vectors: np.ndarray) -> None:
        vectors = np.asarray(vectors, dtype=np.float64).reshape(-1, self.dim)
        self._vectors = np.concatenate([self._vectors, vectors], axis=0)
        self._centroids = None  # re-train lazily on next search

    def _train(self) -> None:
        rng = np.random.default_rng(self.seed)
        data = _normalise(self._vectors) if self.metric == "cosine" else self._vectors
        k = min(self.num_clusters, data.shape[0])
        centroids = data[rng.choice(data.shape[0], size=k, replace=False)]
        for _ in range(self.kmeans_iterations):
            distances = ((data[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=-1)
            assignments = distances.argmin(axis=1)
            for cluster in range(k):
                members = data[assignments == cluster]
                if members.shape[0]:
                    centroids[cluster] = members.mean(axis=0)
        self._centroids = centroids
        distances = ((data[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=-1)
        self._assignments = distances.argmin(axis=1)

    def search(self, queries: np.ndarray, k: int = 10) -> Tuple[np.ndarray, np.ndarray]:
        queries = np.asarray(queries, dtype=np.float64).reshape(-1, self.dim)
        if len(self) == 0:
            raise PlatformError("search on an empty index")
        if self._centroids is None:
            self._train()
        data = _normalise(self._vectors) if self.metric == "cosine" else self._vectors
        query_data = _normalise(queries) if self.metric == "cosine" else queries
        k = min(k, len(self))
        all_scores = np.full((queries.shape[0], k), -np.inf)
        all_indices = np.zeros((queries.shape[0], k), dtype=np.int64)
        for row, query in enumerate(query_data):
            centroid_distance = ((query[None, :] - self._centroids) ** 2).sum(axis=-1)
            probe = np.argsort(centroid_distance)[: self.nprobe]
            candidate_mask = np.isin(self._assignments, probe)
            candidates = np.flatnonzero(candidate_mask)
            if candidates.size == 0:
                candidates = np.arange(len(self))
            if self.metric == "cosine":
                scores = data[candidates] @ query
            else:
                scores = -((data[candidates] - query[None, :]) ** 2).sum(axis=-1)
            take = min(k, candidates.size)
            order = np.argsort(-scores)[:take]
            all_scores[row, :take] = scores[order]
            all_indices[row, :take] = candidates[order]
            if take < k:
                all_indices[row, take:] = candidates[order[-1]] if take else 0
        return all_scores, all_indices
