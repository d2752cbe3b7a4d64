"""MorsE-style inductive knowledge-graph embedding (Chen et al., SIGIR 2022).

MorsE learns *entity-independent* meta-knowledge: entity embeddings are not
free parameters but are composed from the relational structure around the
entity, so the model transfers to entities unseen at training time and can be
meta-trained on small sampled sub-KGs — which is exactly why the paper uses
it as the edge-sampling-based link-prediction method (Fig 15).

The reproduction keeps the two MorsE ingredients that matter here:

1. **Entity initializer** — an entity's embedding is the degree-normalised sum
   of relation-direction vectors over its incident edges (one learnable vector
   per (relation, direction) pair).
2. **Meta-training over sub-KGs** — each training step samples an
   edge-induced sub-KG (:class:`~repro.gml.sampling.negative.EdgeSubKGSampler`),
   recomputes entity embeddings from structure, and optimises a DistMult (or
   TransE) decoder with negative sampling.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np
from scipy import sparse as sp

from repro.exceptions import TrainingError
from repro.gml.autograd import (
    Embedding,
    Tensor,
    binary_cross_entropy_with_logits,
    gather_rows,
    no_grad,
    spmm,
)
from repro.gml.kge.base import known_tails, ranking_metrics
from repro.gml.nn.module import Module

__all__ = ["MorsE"]


class MorsE(Module):
    """Inductive KGE with structure-derived entity embeddings."""

    def __init__(self, num_relations: int, dim: int = 64, decoder: str = "distmult",
                 margin: float = 6.0, seed: int = 0) -> None:
        super().__init__()
        if decoder not in ("distmult", "transe"):
            raise TrainingError(f"unknown MorsE decoder {decoder!r}")
        self.num_relations = num_relations
        self.dim = dim
        self.decoder = decoder
        self.margin = margin
        rng = np.random.default_rng(seed)
        #: One initialisation vector per (relation, direction): index r is the
        #: outgoing direction, index num_relations + r the incoming direction.
        self.relation_init = Embedding(2 * num_relations, dim, rng=rng,
                                       name="morse.relation_init")
        #: Relation embeddings used by the decoder.
        self.relation_embeddings = Embedding(num_relations, dim, rng=rng,
                                             name="morse.relations")

    # ------------------------------------------------------------------
    # Entity embedding composition
    # ------------------------------------------------------------------
    def entity_incidence(self, triples: np.ndarray,
                         num_entities: int) -> Tuple[sp.csr_matrix, np.ndarray]:
        """Build the (num_entities x num_incident) incidence matrix.

        Each incident edge contributes one row-lookup into
        :attr:`relation_init`: heads see ``relation``, tails see
        ``num_relations + relation``.  The matrix averages those vectors per
        entity (degree-normalised), so composition is a single spmm.
        """
        triples = np.asarray(triples, dtype=np.int64).reshape(-1, 3)
        heads, relations, tails = triples[:, 0], triples[:, 1], triples[:, 2]
        entity_of_slot = np.concatenate([heads, tails])
        init_index = np.concatenate([relations, relations + self.num_relations])
        counts = np.bincount(entity_of_slot, minlength=num_entities)
        # One entry per column: sorting the slots by entity is the CSR layout.
        slots = np.argsort(entity_of_slot, kind="stable")
        weights = 1.0 / np.maximum(counts, 1)[entity_of_slot[slots]]
        incidence = sp.csr_matrix(
            (weights, slots, np.concatenate([[0], np.cumsum(counts)])),
            shape=(num_entities, entity_of_slot.shape[0]))
        return incidence, init_index

    def compose_entity_embeddings(self, triples: np.ndarray,
                                  num_entities: int) -> Tensor:
        """Entity embeddings derived purely from the relational structure."""
        incidence, init_index = self.entity_incidence(triples, num_entities)
        init_vectors = self.relation_init(init_index)      # (2E, dim)
        return spmm(incidence, init_vectors)                # (num_entities, dim)

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------
    def score(self, entity_embeddings: Tensor, triples: np.ndarray) -> Tensor:
        triples = np.asarray(triples, dtype=np.int64).reshape(-1, 3)
        heads = gather_rows(entity_embeddings, triples[:, 0])
        relations = self.relation_embeddings(triples[:, 1])
        tails = gather_rows(entity_embeddings, triples[:, 2])
        if self.decoder == "distmult":
            return (heads * relations * tails).sum(axis=1)
        difference = heads + relations - tails
        distance = (difference.relu() + (-difference).relu()).sum(axis=1)
        return Tensor(np.full((distance.shape[0],), self.margin)) - distance

    def loss(self, entity_embeddings: Tensor, positives: np.ndarray,
             negatives: np.ndarray) -> Tensor:
        positive_scores = self.score(entity_embeddings, positives)
        negative_scores = self.score(entity_embeddings, negatives)
        return binary_cross_entropy_with_logits(
            positive_scores, np.ones(positive_scores.shape[0])) + \
            binary_cross_entropy_with_logits(
                negative_scores, np.zeros(negative_scores.shape[0]))

    # ------------------------------------------------------------------
    # Evaluation helpers
    # ------------------------------------------------------------------
    def materialise_entities(self, triples: np.ndarray, num_entities: int) -> np.ndarray:
        """Frozen entity embeddings for evaluation / the embedding store."""
        with no_grad():
            return self.compose_entity_embeddings(triples, num_entities).data.copy()

    def rank_tails(self, entity_embeddings: np.ndarray, test_triples: np.ndarray,
                   known_tails: Optional[Dict[Tuple[int, int], np.ndarray]] = None
                   ) -> np.ndarray:
        """1-based filtered ranks of true tails for each test triple."""
        relation_matrix = self.relation_embeddings.weight.data
        ranks: List[int] = []
        for head, relation, tail in np.asarray(test_triples, dtype=np.int64):
            if self.decoder == "distmult":
                scores = (entity_embeddings[head] * relation_matrix[relation]) @ \
                    entity_embeddings.T
            else:
                translated = entity_embeddings[head] + relation_matrix[relation]
                scores = self.margin - np.abs(translated[None, :] - entity_embeddings).sum(axis=1)
            true_score = scores[tail]
            if known_tails is not None:
                other_true = known_tails.get((int(head), int(relation)))
                if other_true is not None and other_true.size:
                    scores = scores.copy()
                    mask = np.zeros(scores.shape[0], dtype=bool)
                    mask[other_true] = True
                    mask[tail] = False
                    scores[mask] = -np.inf
            ranks.append(int((scores > true_score).sum()) + 1)
        return np.asarray(ranks, dtype=np.int64)

    def evaluate(self, entity_embeddings: np.ndarray, test_triples: np.ndarray,
                 all_triples: Optional[np.ndarray] = None) -> Dict[str, float]:
        """Filtered MRR / Hits@k on ``test_triples``."""
        known = known_tails(all_triples) \
            if all_triples is not None and len(all_triples) else None
        ranks = self.rank_tails(entity_embeddings, test_triples, known_tails=known)
        return ranking_metrics(ranks)
