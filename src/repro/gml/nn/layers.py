"""Graph neural network layers built on the numpy autograd engine.

Layers implemented (paper Fig 5 taxonomy):

* :class:`GCNConv` — spectral graph convolution (Kipf & Welling),
* :class:`RGCNConv` — relational GCN with basis decomposition
  (Schlichtkrull et al., the paper's full-batch baseline),
* :class:`GATConv` — attentional aggregation (Velickovic et al.).

All layers consume pre-built ``scipy.sparse`` adjacency matrices (produced by
:meth:`repro.gml.data.GraphData.adjacency`), matching the "sparse matrices"
stage of the pipeline in paper Fig 6.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np
from scipy import sparse as sp

from repro.exceptions import ShapeError
from repro.gml.autograd import Parameter, Tensor, gather_rows, sparse_product, spmm
from repro.gml.nn.init import xavier_uniform, zeros_init
from repro.gml.nn.module import Module

__all__ = ["GCNConv", "RGCNConv", "GATConv"]


def _summed(total: Optional[np.ndarray], term: np.ndarray) -> np.ndarray:
    """``total + term``, added in place; ``term`` when nothing is summed yet."""
    if total is None:
        return term
    total += term
    return total


class GCNConv(Module):
    """Graph convolution: ``H' = A_hat (H W) + b`` with normalised adjacency."""

    def __init__(self, in_features: int, out_features: int, seed: int = 0) -> None:
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(xavier_uniform((in_features, out_features), seed=seed),
                                name="gcn.weight")
        self.bias = Parameter(zeros_init((out_features,)), name="gcn.bias")

    def forward(self, adjacency: sp.spmatrix, x: Tensor) -> Tensor:
        support = x @ self.weight
        return spmm(adjacency, support) + self.bias


class RGCNConv(Module):
    """Relational GCN layer with basis decomposition.

    ``H' = H W_self + sum_r A_r (H W_r)`` where each relation weight ``W_r``
    is a linear combination of ``num_bases`` shared basis matrices.  Basis
    decomposition keeps the parameter count manageable for KGs with many
    relation types (DBLP has 48, YAGO-4 has 98 in the paper's Table I).
    """

    def __init__(self, in_features: int, out_features: int, num_relations: int,
                 num_bases: Optional[int] = None, bias: bool = True,
                 seed: int = 0) -> None:
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.num_relations = num_relations
        if num_bases is None or num_bases <= 0 or num_bases > num_relations:
            num_bases = min(num_relations, 8)
        self.num_bases = num_bases
        self.bases = Parameter(
            xavier_uniform((num_bases, in_features, out_features), seed=seed),
            name="rgcn.bases")
        self.coefficients = Parameter(
            xavier_uniform((num_relations, num_bases), seed=seed + 1),
            name="rgcn.coefficients")
        self.self_weight = Parameter(
            xavier_uniform((in_features, out_features), seed=seed + 2),
            name="rgcn.self_weight")
        self.bias = Parameter(zeros_init((out_features,)), name="rgcn.bias") if bias else None

    def forward(self, relation_adjacencies: Sequence[sp.spmatrix], x: Tensor) -> Tensor:
        """``x W_self + sum_r A_r (x W_r) + b`` as one autograd node.

        ``W_r`` is ``coefficients[r] @ bases`` and relations without edges are
        skipped.  The backward walks the relations last to first, then the
        self-loop term: the order in which ``backward()`` walks the same sum
        built from small ops (the reference in ``tests/gml/test_fused_nodes.py``),
        so every gradient is summed in its order and has its bits.
        """
        if len(relation_adjacencies) != self.num_relations:
            raise ShapeError(
                f"expected {self.num_relations} relation adjacencies, "
                f"got {len(relation_adjacencies)}")
        if x.shape[-1] != self.in_features:
            raise ShapeError(f"RGCNConv expected {self.in_features} features, "
                             f"got {x.shape[-1]}")
        inputs, self_weight = x.data, self.self_weight.data
        bases_shape, coefficients = self.bases.data.shape, self.coefficients.data
        bases_flat = self.bases.data.reshape(self.num_bases,
                                             self.in_features * self.out_features)
        relations = []    # (r, A_r, coefficients[r] as a (1, B) row, W_r)
        out = inputs @ self_weight
        for relation, adjacency in enumerate(relation_adjacencies):
            if adjacency.nnz == 0:
                continue
            csr = adjacency.tocsr()
            row = coefficients[relation].reshape(1, self.num_bases)
            weight = (row @ bases_flat).reshape(self.in_features, self.out_features)
            out += sparse_product(csr, inputs @ weight, transposed=False)
            relations.append((relation, csr, row, weight))
        children = (x, self.self_weight, self.bases, self.coefficients)
        has_bias = self.bias is not None
        if has_bias:
            out += self.bias.data
            children += (self.bias,)
        wants_x = x.tracked

        def backward(grad: np.ndarray):
            grad_x = grad_bases = grad_coefficients = None
            for relation, csr, row, weight in reversed(relations):
                grad_support = sparse_product(csr, grad, transposed=True)
                if wants_x:
                    grad_x = _summed(grad_x, grad_support @ weight.T)
                grad_weight = (inputs.T @ grad_support).reshape(1, -1)
                if grad_coefficients is None:
                    grad_coefficients = np.zeros_like(coefficients)
                grad_coefficients[relation] += (grad_weight @ bases_flat.T).reshape(-1)
                grad_bases = _summed(grad_bases, (row.T @ grad_weight).reshape(bases_shape))
            if wants_x:
                grad_x = _summed(grad_x, grad @ self_weight.T)
            grads = (grad_x, inputs.T @ grad, grad_bases, grad_coefficients)
            return grads + (grad.sum(axis=0),) if has_bias else grads

        return Tensor._result(out, children, backward)


class GATConv(Module):
    """Single-head graph attention layer.

    Attention logits ``e_ij = LeakyReLU(a_src . h_i + a_dst . h_j)`` are
    normalised per destination node with a segment softmax implemented with
    sparse incidence matrices, so the whole computation stays differentiable.
    """

    negative_slope = 0.2

    def __init__(self, in_features: int, out_features: int, seed: int = 0) -> None:
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(xavier_uniform((in_features, out_features), seed=seed),
                                name="gat.weight")
        self.attn_src = Parameter(xavier_uniform((out_features, 1), seed=seed + 1),
                                  name="gat.attn_src")
        self.attn_dst = Parameter(xavier_uniform((out_features, 1), seed=seed + 2),
                                  name="gat.attn_dst")
        self.bias = Parameter(zeros_init((out_features,)), name="gat.bias")

    def forward(self, edge_index: np.ndarray, num_nodes: int, x: Tensor) -> Tensor:
        edge_index = np.asarray(edge_index, dtype=np.int64).reshape(2, -1)
        # Add self loops so isolated nodes keep their own representation.
        loops = np.arange(num_nodes, dtype=np.int64)
        src = np.concatenate([edge_index[0], loops])
        dst = np.concatenate([edge_index[1], loops])
        num_edges = src.shape[0]

        h = x @ self.weight                                   # (N, F')
        src_scores = (h @ self.attn_src).reshape(num_nodes)    # (N,)
        dst_scores = (h @ self.attn_dst).reshape(num_nodes)
        edge_logits = gather_rows(src_scores.reshape(num_nodes, 1), src) + \
            gather_rows(dst_scores.reshape(num_nodes, 1), dst)  # (E, 1)
        edge_logits = edge_logits.leaky_relu(self.negative_slope)

        # Numerical stabilisation constant (no gradient needed).
        max_per_dst = np.full(num_nodes, -np.inf)
        np.maximum.at(max_per_dst, dst, edge_logits.data.reshape(-1))
        max_per_dst[~np.isfinite(max_per_dst)] = 0.0
        stabiliser = Tensor(max_per_dst[dst].reshape(num_edges, 1))
        exp_logits = (edge_logits - stabiliser).exp()          # (E, 1)

        # Segment sums via the destination incidence matrix (N x E).
        incidence = sp.coo_matrix(
            (np.ones(num_edges), (dst, np.arange(num_edges))),
            shape=(num_nodes, num_edges)).tocsr()
        denom = spmm(incidence, exp_logits)                    # (N, 1)
        denom_per_edge = gather_rows(denom, dst)               # (E, 1)
        alpha = exp_logits / (denom_per_edge + 1e-12)          # (E, 1)

        messages = gather_rows(h, src) * alpha                 # (E, F')
        return spmm(incidence, messages) + self.bias           # (N, F')
