"""Base class for knowledge-graph embedding (KGE) models, and link ranking.

A KGE model scores triples ``(head, relation, tail)``; training maximises the
scores of observed triples against negative-sampled corruptions.  Concrete
scoring functions: TransE, DistMult, ComplEx, RotatE (paper Fig 5, "KGE"
branch).

Every link predictor — these four and
:class:`~repro.gml.kge.morse.MorsE` — ranks through one entry,
``tail_scores(entity_vectors, heads, relation, candidates)``, over the
vectors its ``entity_vectors(train_triples, num_entities)`` returns.  The
filtered test ranking of training (:func:`filtered_tail_ranks`) and GMLaaS
inference both call it, so how a model scores a triple is written once: for
the KGE models it is their own autograd ``score``, run here on broadcast
(heads x candidates) blocks.
"""

from __future__ import annotations

from typing import Callable, Dict, Sequence, Tuple

import numpy as np

from repro.exceptions import TrainingError
from repro.gml.autograd import (
    Embedding,
    Tensor,
    binary_cross_entropy_with_logits,
    no_grad,
)
from repro.gml.nn.module import Module

__all__ = ["KGEModel", "filtered_tail_ranks", "known_tails", "ranking_metrics",
           "score_in_blocks"]

#: Elements one (heads, candidates, dim) scoring block may hold.
_BLOCK_ELEMENTS = 1 << 18


def score_in_blocks(score_block: Callable[[slice], np.ndarray], num_heads: int,
                    num_candidates: int, dim: int) -> np.ndarray:
    """``(num_heads, num_candidates)`` scores, ``score_block(rows)`` giving
    the rows of the heads in slice ``rows``; head blocks bound the
    ``(block, candidates, dim)`` intermediate."""
    scores = np.empty((num_heads, num_candidates))
    step = max(1, _BLOCK_ELEMENTS // max(1, num_candidates * dim))
    for start in range(0, num_heads, step):
        rows = slice(start, start + step)
        scores[rows] = score_block(rows)
    return scores


class KGEModel(Module):
    """Entity/relation embedding tables plus an abstract scoring function."""

    #: Set by subclasses whose embeddings are split into (real, imaginary)
    #: halves; their ``dim`` is rounded up to an even width.
    complex_embeddings = False

    def __init__(self, num_entities: int, num_relations: int, dim: int = 64,
                 seed: int = 0) -> None:
        super().__init__()
        if self.complex_embeddings:
            dim += dim % 2
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

    def _split(self, embedding: Tensor):
        """The (real, imaginary) halves of complex embeddings."""
        half = self.dim // 2
        return embedding[..., :half], embedding[..., half:]

    def score(self, heads: Tensor, relations: Tensor, tails: Tensor) -> Tensor:
        """Triple plausibility scores (higher = better) of broadcastable
        ``(..., dim)`` embeddings, reduced over the last axis: ``(batch,)``
        for a training batch, ``(heads, candidates)`` in :meth:`tail_scores`."""
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
    # Ranking
    # ------------------------------------------------------------------
    def entity_vectors(self, train_triples: np.ndarray, num_entities: int) -> np.ndarray:
        """The ``(num_entities, dim)`` vectors :meth:`tail_scores` ranks over
        (and a similarity model's index holds): the trained table, whatever the
        triples."""
        return self.entity_embeddings.weight.data.copy()

    def tail_scores(self, entity_vectors: np.ndarray, heads: Sequence[int],
                    relation: int, candidates: np.ndarray) -> np.ndarray:
        """``(len(heads), len(candidates))`` scores of ``(head, relation,
        candidate)``: :meth:`score` under ``no_grad`` on broadcast (heads x
        candidates) blocks.  Each score is reduced over the last axis on its
        own, so a head scores bit for bit the same alone and in a batch of
        any size, and the same as the triple does in training."""
        heads = entity_vectors[np.asarray(heads, dtype=np.int64), None, :]
        tails = Tensor(entity_vectors[candidates][None])
        relation_vector = Tensor(self.relation_embeddings.weight.data[relation][None, None])
        with no_grad():
            return score_in_blocks(
                lambda rows: self.score(Tensor(heads[rows]), relation_vector, tails).data,
                heads.shape[0], tails.shape[1], self.dim)


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


def filtered_tail_ranks(model, entity_vectors: np.ndarray, test_triples: np.ndarray,
                        known: Dict[Tuple[int, int], np.ndarray]) -> np.ndarray:
    """1-based rank of each test triple's tail among all entities, by
    ``model.tail_scores`` over ``entity_vectors``, with the other tails
    ``known`` (:func:`known_tails`) for its ``(head, relation)`` filtered out.
    The test triples of one relation are scored in one call."""
    test_triples = np.asarray(test_triples, dtype=np.int64).reshape(-1, 3)
    candidates = np.arange(entity_vectors.shape[0])
    ranks = np.empty(test_triples.shape[0], dtype=np.int64)
    for relation in np.unique(test_triples[:, 1]).tolist():
        rows = np.flatnonzero(test_triples[:, 1] == relation)
        scores = model.tail_scores(entity_vectors, test_triples[rows, 0], relation,
                                   candidates)
        for row, row_scores in zip(rows, scores):
            head, _, tail = test_triples[row].tolist()
            true_score = row_scores[tail]
            other_tails = known.get((head, relation))
            if other_tails is not None:
                row_scores[other_tails] = -np.inf
            ranks[row] = np.count_nonzero(row_scores > true_score) + 1
    return ranks


def ranking_metrics(ranks: np.ndarray, ks: Tuple[int, ...] = (1, 3, 10)) -> Dict[str, float]:
    """MRR and Hits@k from an array of 1-based ranks."""
    ranks = np.asarray(ranks, dtype=np.float64)
    if ranks.size == 0:
        return {"mrr": 0.0, **{f"hits@{k}": 0.0 for k in ks}}
    metrics = {"mrr": float((1.0 / ranks).mean())}
    for k in ks:
        metrics[f"hits@{k}"] = float((ranks <= k).mean())
    return metrics
