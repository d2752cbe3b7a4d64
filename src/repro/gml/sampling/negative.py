"""Triple batching and negative sampling for KGE / link-prediction training.

Also provides the edge-subgraph sampler that MorsE-style inductive training
uses to build meta-training sub-KGs (paper Fig 5 classifies MorsE under
subgraph-sampling methods for link prediction).
"""

from __future__ import annotations

from typing import Iterator, Tuple

import numpy as np

from repro.exceptions import SamplingError
from repro.gml.data import TriplesData

__all__ = ["TripleBatchSampler", "NegativeSampler", "EdgeSubKGSampler"]


class NegativeSampler:
    """Corrupt heads or tails of positive triples uniformly at random."""

    def __init__(self, num_entities: int, num_negatives: int,
                 seed: int = 0) -> None:
        if num_negatives < 1:
            raise SamplingError("num_negatives must be >= 1")
        self.num_entities = num_entities
        self.num_negatives = num_negatives
        self.rng = np.random.default_rng(seed)

    def corrupt(self, triples: np.ndarray) -> np.ndarray:
        """Return ``(len(triples) * num_negatives, 3)`` corrupted triples."""
        negatives = np.repeat(triples, self.num_negatives, axis=0)
        random_entities = self.rng.integers(0, self.num_entities,
                                            size=negatives.shape[0])
        corrupt_head = self.rng.random(negatives.shape[0]) < 0.5
        np.copyto(negatives[:, 0], random_entities, where=corrupt_head)
        np.copyto(negatives[:, 2], random_entities, where=~corrupt_head)
        return negatives


class TripleBatchSampler:
    """Iterate over shuffled mini-batches of positive training triples with
    negatives."""

    def __init__(self, data: TriplesData, batch_size: int, num_negatives: int,
                 seed: int = 0) -> None:
        if batch_size < 1:
            raise SamplingError("batch_size must be >= 1")
        self.data = data
        self.batch_size = batch_size
        self.rng = np.random.default_rng(seed)
        self.negative_sampler = NegativeSampler(
            data.num_entities, num_negatives=num_negatives, seed=seed)
        self._triples = data.split("train")

    def __len__(self) -> int:
        return int(np.ceil(self._triples.shape[0] / self.batch_size))

    def __iter__(self) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        order = self.rng.permutation(self._triples.shape[0])
        for start in range(0, order.shape[0], self.batch_size):
            batch_idx = order[start:start + self.batch_size]
            positives = self._triples[batch_idx]
            negatives = self.negative_sampler.corrupt(positives)
            yield positives, negatives


class EdgeSubKGSampler:
    """Sample edge-induced sub-KGs for MorsE-style meta-training.

    Each sampled sub-KG is a random subset of training triples re-indexed to
    its own local entity space, so the model learns entity-agnostic
    (inductive) representations from relation structure alone.
    """

    def __init__(self, data: TriplesData, triples_per_subkg: int,
                 num_subkgs: int, seed: int = 0) -> None:
        if triples_per_subkg < 1 or num_subkgs < 1:
            raise SamplingError("triples_per_subkg and num_subkgs must be >= 1")
        self.data = data
        self.triples_per_subkg = triples_per_subkg
        self.num_subkgs = num_subkgs
        self.rng = np.random.default_rng(seed)
        self._train = data.split("train")

    def sample(self) -> Tuple[np.ndarray, np.ndarray, int]:
        """Return (local_triples, entity_mapping, num_local_entities)."""
        count = min(self.triples_per_subkg, self._train.shape[0])
        chosen = self.rng.choice(self._train.shape[0], size=count, replace=False)
        triples = self._train[chosen]
        entities, local_ids = np.unique(
            np.concatenate([triples[:, 0], triples[:, 2]]), return_inverse=True)
        local = triples.copy()
        local[:, 0], local[:, 2] = local_ids[:count], local_ids[count:]
        return local, entities, entities.shape[0]

    def __iter__(self) -> Iterator[Tuple[np.ndarray, np.ndarray, int]]:
        for _ in range(self.num_subkgs):
            yield self.sample()

    def __len__(self) -> int:
        return self.num_subkgs
