"""Concrete KGE scoring functions: TransE, DistMult, ComplEx, RotatE.

These are the translational and semantic-matching families of the paper's
method taxonomy (Fig 5).  All share the :class:`~repro.gml.kge.base.KGEModel`
training / ranking machinery and differ only in ``score``, which reduces
over the last axis so it scores a training batch and a (heads x candidates)
ranking block alike.
"""

from __future__ import annotations

import numpy as np

from repro.gml.autograd import Tensor
from repro.gml.kge.base import KGEModel

__all__ = ["TransE", "DistMult", "ComplEx", "RotatE"]


class TransE(KGEModel):
    """Translation model: score = gamma - || h + r - t ||_1."""

    def __init__(self, num_entities: int, num_relations: int, dim: int = 64,
                 margin: float = 6.0, seed: int = 0) -> None:
        super().__init__(num_entities, num_relations, dim, seed=seed)
        self.margin = margin

    def score(self, heads: Tensor, relations: Tensor, tails: Tensor) -> Tensor:
        difference = heads + relations - tails
        # L1 distance; |x| = relu(x) + relu(-x) keeps the graph differentiable.
        distance = (difference.relu() + (-difference).relu()).sum(axis=-1)
        return Tensor(np.full(distance.shape, self.margin)) - distance


class DistMult(KGEModel):
    """Bilinear-diagonal semantic matching: score = sum(h * r * t)."""

    def score(self, heads: Tensor, relations: Tensor, tails: Tensor) -> Tensor:
        return (heads * relations * tails).sum(axis=-1)


class ComplEx(KGEModel):
    """Complex-valued bilinear model (Trouillon et al., 2016).

    Embedding vectors of width ``dim`` are interpreted as ``dim/2`` complex
    numbers: the first half is the real part, the second half the imaginary
    part.  score = Re(<h, r, conj(t)>).
    """

    complex_embeddings = True

    def score(self, heads: Tensor, relations: Tensor, tails: Tensor) -> Tensor:
        h_re, h_im = self._split(heads)
        r_re, r_im = self._split(relations)
        t_re, t_im = self._split(tails)
        real_part = (h_re * r_re * t_re).sum(axis=-1) \
            + (h_im * r_re * t_im).sum(axis=-1) \
            + (h_re * r_im * t_im).sum(axis=-1) \
            - (h_im * r_im * t_re).sum(axis=-1)
        return real_part


class RotatE(KGEModel):
    """Rotation model (Sun et al., 2019): t ~ h ∘ r with |r_i| = 1.

    Relations act as rotations in the complex plane; the score is
    ``gamma - || h ∘ r - t ||`` where ``∘`` is element-wise complex product.
    The rotation is parameterised by the (real, imaginary) halves of the
    relation embedding normalised to unit modulus, which keeps the whole
    scoring function differentiable in this autograd engine.
    """

    complex_embeddings = True
    margin = 9.0

    def score(self, heads: Tensor, relations: Tensor, tails: Tensor) -> Tensor:
        h_re, h_im = self._split(heads)
        t_re, t_im = self._split(tails)
        # Normalise the relation's complex coordinates to unit modulus so it
        # acts as a pure rotation (|r_i| = 1) while staying differentiable.
        rel_re, rel_im = self._split(relations)
        modulus = (rel_re * rel_re + rel_im * rel_im + 1e-12) ** 0.5
        r_re = rel_re / modulus
        r_im = rel_im / modulus
        # (h ∘ r) - t in complex arithmetic.
        rotated_re = h_re * r_re - h_im * r_im
        rotated_im = h_re * r_im + h_im * r_re
        difference_re = rotated_re - t_re
        difference_im = rotated_im - t_im
        squared = difference_re * difference_re + difference_im * difference_im
        distance = (squared + 1e-12) ** 0.5
        return Tensor(np.full(distance.shape[:-1], self.margin)) - distance.sum(axis=-1)
