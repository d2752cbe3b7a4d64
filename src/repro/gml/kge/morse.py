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

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import TrainingError
from repro.gml.autograd import (
    CSR,
    Embedding,
    Tensor,
    binary_cross_entropy_with_logits,
    no_grad,
    scatter_rows,
    spmm,
)
from repro.gml.kge.base import score_in_blocks
from repro.gml.nn.module import Module

__all__ = ["MorsE"]

#: Elements of one scratch array of :meth:`MorsE.score`: a block of rows
#: (1,024 at dim 32) is scored, and re-scored in the backward pass, at once.
BLOCK_ELEMENTS = 2 ** 15
#: The scratch arrays of one block.
_SCRATCH = ("heads", "relations", "tails", "combined", "spare")


def _scratch(buffers: Dict[str, np.ndarray], rows: int, dim: int) -> List[np.ndarray]:
    """The five ``(rows, dim)`` arrays of one block: leading rows of the
    arrays in ``buffers``, which grow to the largest block asked for."""
    arrays = []
    for name in _SCRATCH:
        array = buffers.get(name)
        if array is None or array.shape[0] < rows or array.shape[1] != dim:
            array = buffers[name] = np.empty((rows, dim))
        arrays.append(array[:rows])
    return arrays


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
                         num_entities: int) -> Tuple[CSR, np.ndarray]:
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
        return CSR.incidence(entity_of_slot, num_entities, normalize=True), init_index

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
        ``tests/gml/test_fused_nodes.py``).

        Both passes run in blocks of :data:`BLOCK_ELEMENTS` ``// dim`` rows:
        the forward gathers a block's heads, relations and tails and writes
        its scores; the backward gathers and recomputes it again and adds
        its terms to the three scatters, in row order (recomputation instead
        of storage, Chen et al. 2016).  So a call holds one block of
        ``(rows, dim)`` arrays, whatever the batch.  ``buffers`` keeps those
        arrays from one call to the next: a training run owns one dict;
        without it the call keeps its own.
        """
        buffers = {} if buffers is None else buffers
        triples = np.asarray(triples, dtype=np.int64).reshape(-1, 3)
        entities, relation_table = entity_embeddings.data, self.relation_embeddings.weight
        relation_data = relation_table.data
        count, dim = triples.shape[0], entities.shape[1]
        block = max(1, BLOCK_ELEMENTS // dim)
        distmult = self.decoder == "distmult"

        def blocks():
            """Each block's rows and triples, its gathered heads, relations
            and tails, their ``h * r`` (distmult) or ``h + r - t`` (transe)
            and a spare array of their shape."""
            scratch = _scratch(buffers, min(count, block), dim)
            for start in range(0, count, block):
                rows = slice(start, start + block)
                part = triples[rows]
                h, r, t, combined, spare = (array[:part.shape[0]] for array in scratch)
                _take(entities, part[:, 0], h)
                _take(relation_data, part[:, 1], r)
                _take(entities, part[:, 2], t)
                if distmult:
                    np.multiply(h, r, out=combined)
                else:
                    np.subtract(np.add(h, r, out=combined), t, out=combined)
                yield rows, part, h, r, t, combined, spare

        scores = np.empty(count)
        for rows, _, _, _, t, combined, spare in blocks():
            if distmult:
                np.multiply(combined, t, out=spare).sum(axis=1, out=scores[rows])
            else:
                np.abs(combined, out=spare).sum(axis=1, out=scores[rows])
        if not distmult:
            np.subtract(self.margin, scores, out=scores)

        def backward(grad: np.ndarray):
            grad_tails, grad_heads = np.zeros(entities.shape), np.zeros(entities.shape)
            grad_relations = np.zeros(relation_data.shape)
            for rows, part, h, r, t, combined, spare in blocks():
                heads, relations, tails = part[:, 0], part[:, 1], part[:, 2]
                if distmult:
                    column = grad[rows, None]
                    scatter_rows(grad_tails, tails, np.multiply(combined, column, out=combined))
                    grad_combined = np.multiply(t, column, out=spare)
                    scatter_rows(grad_heads, heads, np.multiply(grad_combined, r, out=combined))
                    scatter_rows(grad_relations, relations,
                                 np.multiply(grad_combined, h, out=spare))
                else:
                    # |d| back-propagates as relu(d) + relu(-d): -(g [d < 0]) + g [d > 0].
                    column, difference = -grad[rows, None], combined
                    grad_difference = np.multiply(np.less(difference, 0.0), column, out=spare)
                    np.negative(grad_difference, out=grad_difference)
                    grad_difference += np.multiply(np.greater(difference, 0.0), column,
                                                   out=difference)
                    scatter_rows(grad_tails, tails,
                                 np.negative(grad_difference, out=difference))
                    scatter_rows(grad_relations, relations, grad_difference)
                    scatter_rows(grad_heads, heads, grad_difference)
            return grad_tails, grad_relations, grad_heads

        return Tensor._result(scores, (entity_embeddings, relation_table, entity_embeddings),
                              backward)

    def loss(self, entity_embeddings: Tensor, positives: np.ndarray,
             negatives: np.ndarray,
             buffers: Optional[Dict[str, np.ndarray]] = None) -> Tensor:
        """BCE of the positives' and the negatives' scores; ``buffers`` is a
        training run's dict, which both calls share."""
        positive_scores = self.score(entity_embeddings, positives, buffers)
        negative_scores = self.score(entity_embeddings, negatives, buffers)
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
