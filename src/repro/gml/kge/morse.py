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

from typing import Dict, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse as sp

from repro.exceptions import TrainingError
from repro.gml.autograd import (
    Embedding,
    Tensor,
    _scatter,
    binary_cross_entropy_with_logits,
    no_grad,
    spmm,
)
from repro.gml.kge.base import score_in_blocks
from repro.gml.nn.module import Module

__all__ = ["MorsE"]


def _buffer(buffers: Optional[Dict[str, np.ndarray]], name: str,
            shape: Tuple[int, int]) -> np.ndarray:
    """``buffers[name]``, replaced by a new array when its shape differs; a
    new array every call when there are no buffers."""
    if buffers is None:
        return np.empty(shape)
    array = buffers.get(name)
    if array is None or array.shape != shape:
        array = buffers[name] = np.empty(shape)
    return array


def _take(source: np.ndarray, rows: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``source[rows]`` written straight into ``out``.  ``rows`` are ids of
    ``source``'s rows, which ``mode="wrap"`` leaves as they are; the default
    ``mode="raise"`` would copy through a temporary."""
    return np.take(source, rows, axis=0, out=out, mode="wrap")


class MorsE(Module):
    """Inductive KGE with structure-derived entity embeddings."""

    #: The ``transe`` decoder's margin.
    margin = 6.0

    def __init__(self, num_relations: int, dim: int = 64, decoder: str = "distmult",
                 seed: int = 0) -> None:
        super().__init__()
        if decoder not in ("distmult", "transe"):
            raise TrainingError(f"unknown MorsE decoder {decoder!r}")
        self.num_relations = num_relations
        self.dim = dim
        self.decoder = decoder
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
    def score(self, entity_embeddings: Tensor, triples: np.ndarray,
              buffers: Optional[Dict[str, np.ndarray]] = None) -> Tensor:
        """Decoder scores of ``triples`` as one autograd node.

        Its children are ``(entity_embeddings, relation embeddings,
        entity_embeddings)`` and its backward returns the tails' scatter, the
        relations' and the heads', so the entity gradient is summed tails
        before heads, in the order and with the bits of the same score built
        from gathers and element-wise ops (the reference in
        ``tests/gml/test_fused_nodes.py``).  ``buffers`` keeps the call's
        ``(n, dim)`` arrays from one step to the next: a training run owns one
        dict per call site (a step's shapes do not change); without it every
        array is new.
        """
        triples = np.asarray(triples, dtype=np.int64).reshape(-1, 3)
        heads, relations, tails = triples[:, 0], triples[:, 1], triples[:, 2]
        relation_table = self.relation_embeddings.weight
        entity_shape, relation_shape = entity_embeddings.shape, relation_table.shape
        shape = (triples.shape[0], entity_shape[1])
        h = _take(entity_embeddings.data, heads, _buffer(buffers, "heads", shape))
        r = _take(relation_table.data, relations, _buffer(buffers, "relations", shape))
        t = _take(entity_embeddings.data, tails, _buffer(buffers, "tails", shape))
        combined = _buffer(buffers, "combined", shape)
        spare = _buffer(buffers, "spare", shape)
        if self.decoder == "distmult":
            np.multiply(h, r, out=combined)
            scores = np.multiply(combined, t, out=spare).sum(axis=1)

            def backward(grad: np.ndarray):
                column = grad[:, None]
                grad_tails = _scatter(entity_shape, tails,
                                      np.multiply(combined, column, out=combined))
                grad_combined = np.multiply(t, column, out=spare)
                grad_heads = _scatter(entity_shape, heads,
                                      np.multiply(grad_combined, r, out=combined))
                grad_relations = _scatter(relation_shape, relations,
                                          np.multiply(grad_combined, h, out=spare))
                return grad_tails, grad_relations, grad_heads
        else:
            difference = np.subtract(np.add(h, r, out=combined), t, out=combined)
            scores = self.margin - np.abs(difference, out=spare).sum(axis=1)

            def backward(grad: np.ndarray):
                # |d| back-propagates as relu(d) + relu(-d): -(g [d < 0]) + g [d > 0].
                column = -grad[:, None]
                grad_difference = np.multiply(np.less(difference, 0.0), column, out=spare)
                np.negative(grad_difference, out=grad_difference)
                grad_difference += np.multiply(np.greater(difference, 0.0), column,
                                               out=difference)
                grad_tails = _scatter(entity_shape, tails,
                                      np.negative(grad_difference, out=difference))
                return (grad_tails, _scatter(relation_shape, relations, grad_difference),
                        _scatter(entity_shape, heads, grad_difference))

        return Tensor._result(scores, (entity_embeddings, relation_table, entity_embeddings),
                              backward)

    def loss(self, entity_embeddings: Tensor, positives: np.ndarray,
             negatives: np.ndarray,
             buffers: Optional[Dict[str, Dict[str, np.ndarray]]] = None) -> Tensor:
        """BCE of the positives' and the negatives' scores; ``buffers`` is a
        training run's dict, in which each of the two calls keeps its own."""
        positive_buffers = negative_buffers = None
        if buffers is not None:
            positive_buffers = buffers.setdefault("positives", {})
            negative_buffers = buffers.setdefault("negatives", {})
        positive_scores = self.score(entity_embeddings, positives, positive_buffers)
        negative_scores = self.score(entity_embeddings, negatives, negative_buffers)
        return binary_cross_entropy_with_logits(
            positive_scores, np.ones(positive_scores.shape[0])) + \
            binary_cross_entropy_with_logits(
                negative_scores, np.zeros(negative_scores.shape[0]))

    # ------------------------------------------------------------------
    # Ranking
    # ------------------------------------------------------------------
    def entity_vectors(self, train_triples: np.ndarray, num_entities: int) -> np.ndarray:
        """Frozen entity embeddings composed from ``train_triples``, which
        :meth:`tail_scores` ranks over (and a similarity model's index holds)."""
        with no_grad():
            return self.compose_entity_embeddings(train_triples, num_entities).data

    def tail_scores(self, entity_vectors: np.ndarray, heads: Sequence[int],
                    relation: int, candidates: np.ndarray) -> np.ndarray:
        """``(len(heads), len(candidates))`` decoder scores of ``(head,
        relation, candidate)``: an ``einsum`` (distmult) or the L1 margin in
        head blocks (transe).  Each score is reduced over the embedding axis
        on its own — not in a BLAS product, whose blocking varies with the
        batch shape — so a head scores bit for bit the same alone and in a
        batch of any size."""
        relation_vector = self.relation_embeddings.weight.data[relation]
        heads = entity_vectors[np.asarray(heads, dtype=np.int64)]
        tails = entity_vectors[candidates]
        if self.decoder == "distmult":
            return np.einsum("sd,cd->sc", heads * relation_vector, tails)
        translated = heads + relation_vector
        return score_in_blocks(
            lambda rows: self.margin - np.abs(
                translated[rows, None, :] - tails[None, :, :]).sum(axis=2),
            translated.shape[0], tails.shape[0], self.dim)
