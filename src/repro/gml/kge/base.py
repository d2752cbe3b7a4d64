"""Base class for knowledge-graph embedding (KGE) models.

A KGE model scores triples ``(head, relation, tail)``; training maximises the
scores of observed triples against negative-sampled corruptions, and link
prediction ranks candidate tails (or heads) by score.  Concrete scoring
functions: TransE, DistMult, ComplEx, RotatE (paper Fig 5, "KGE" branch).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.exceptions import TrainingError
from repro.gml.autograd import (
    Embedding,
    Tensor,
    binary_cross_entropy_with_logits,
    no_grad,
)
from repro.gml.nn.module import Module

__all__ = ["KGEModel", "known_tails", "ranking_metrics"]


class KGEModel(Module):
    """Entity/relation embedding tables plus an abstract scoring function."""

    #: Set by subclasses whose embeddings are split into (real, imaginary).
    complex_embeddings = False

    def __init__(self, num_entities: int, num_relations: int, dim: int = 64,
                 seed: int = 0) -> None:
        super().__init__()
        if dim < 2:
            raise TrainingError("embedding dimension must be >= 2")
        self.num_entities = num_entities
        self.num_relations = num_relations
        self.dim = dim
        rng = np.random.default_rng(seed)
        self.entity_embeddings = Embedding(num_entities, dim, rng=rng,
                                           name="kge.entities")
        self.relation_embeddings = Embedding(num_relations, dim, rng=rng,
                                             name="kge.relations")

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------
    def embed_triples(self, triples: np.ndarray) -> Tuple[Tensor, Tensor, Tensor]:
        triples = np.asarray(triples, dtype=np.int64).reshape(-1, 3)
        heads = self.entity_embeddings(triples[:, 0])
        relations = self.relation_embeddings(triples[:, 1])
        tails = self.entity_embeddings(triples[:, 2])
        return heads, relations, tails

    def score(self, heads: Tensor, relations: Tensor, tails: Tensor) -> Tensor:
        """Return a (batch,) tensor of triple plausibility scores (higher = better)."""
        raise NotImplementedError

    def score_triples(self, triples: np.ndarray) -> Tensor:
        heads, relations, tails = self.embed_triples(triples)
        return self.score(heads, relations, tails)

    # ------------------------------------------------------------------
    # Loss
    # ------------------------------------------------------------------
    def loss(self, positives: np.ndarray, negatives: np.ndarray) -> Tensor:
        """Binary cross-entropy over positive and corrupted triples."""
        positive_scores = self.score_triples(positives)
        negative_scores = self.score_triples(negatives)
        positive_loss = binary_cross_entropy_with_logits(
            positive_scores, np.ones(positive_scores.shape[0]))
        negative_loss = binary_cross_entropy_with_logits(
            negative_scores, np.zeros(negative_scores.shape[0]))
        return positive_loss + negative_loss

    # ------------------------------------------------------------------
    # Ranking evaluation / prediction
    # ------------------------------------------------------------------
    def score_against_all_tails(self, head: int, relation: int) -> np.ndarray:
        """Scores of ``(head, relation, e)`` for every entity ``e``."""
        with no_grad():
            triples = np.stack([
                np.full(self.num_entities, head, dtype=np.int64),
                np.full(self.num_entities, relation, dtype=np.int64),
                np.arange(self.num_entities, dtype=np.int64),
            ], axis=1)
            return self.score_triples(triples).data.reshape(-1)

    def rank_tail(self, head: int, relation: int, tail: int,
                  filtered_tails: Optional[np.ndarray] = None) -> int:
        """1-based rank of the true tail among all candidate entities."""
        scores = self.score_against_all_tails(head, relation)
        true_score = scores[tail]
        if filtered_tails is not None and filtered_tails.size:
            mask = np.zeros(self.num_entities, dtype=bool)
            mask[filtered_tails] = True
            mask[tail] = False
            scores = scores.copy()
            scores[mask] = -np.inf
        return int((scores > true_score).sum()) + 1

    def predict_tails(self, head: int, relation: int, k: int = 10,
                      exclude: Optional[np.ndarray] = None) -> List[Tuple[int, float]]:
        """Top-``k`` (entity, score) predictions for the tail slot."""
        scores = self.score_against_all_tails(head, relation)
        if exclude is not None and len(exclude):
            scores = scores.copy()
            scores[np.asarray(exclude, dtype=np.int64)] = -np.inf
        top = np.argsort(-scores)[:k]
        return [(int(entity), float(scores[entity])) for entity in top
                if np.isfinite(scores[entity])]

    def entity_embedding_matrix(self) -> np.ndarray:
        """The (num_entities, dim) embedding matrix (for the embedding store)."""
        return self.entity_embeddings.weight.data.copy()


def known_tails(triples: np.ndarray) -> Dict[Tuple[int, int], np.ndarray]:
    """The tails each ``(head, relation)`` pair of ``triples`` is seen with.

    Filtered ranking masks these out, so a test triple is not penalised for
    scoring below another true answer.
    """
    triples = np.asarray(triples, dtype=np.int64).reshape(-1, 3)
    if not triples.size:
        return {}
    heads, relations, tails = triples[np.lexsort((triples[:, 1], triples[:, 0]))].T
    starts = np.flatnonzero(np.concatenate(
        [[True], (heads[1:] != heads[:-1]) | (relations[1:] != relations[:-1])]))
    return dict(zip(zip(heads[starts].tolist(), relations[starts].tolist()),
                    np.split(tails, starts[1:])))


def ranking_metrics(ranks: np.ndarray, ks: Tuple[int, ...] = (1, 3, 10)) -> Dict[str, float]:
    """MRR and Hits@k from an array of 1-based ranks."""
    ranks = np.asarray(ranks, dtype=np.float64)
    if ranks.size == 0:
        return {"mrr": 0.0, **{f"hits@{k}": 0.0 for k in ks}}
    metrics = {"mrr": float((1.0 / ranks).mean())}
    for k in ks:
        metrics[f"hits@{k}"] = float((ranks <= k).mean())
    return metrics
