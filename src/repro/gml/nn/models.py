"""GNN models for node classification.

Each model consumes a :class:`~repro.gml.data.GraphData` and produces logits
for every node.  The same model classes are used for full-batch training
(RGCN/GCN/GAT on the whole graph) and for mini-batch training on sampled
subgraphs (GraphSAINT / ShaDow-SAINT) — the trainer decides which graph the
forward pass sees, exactly as in the paper's pipeline where the GNN method
and the sampler are independent choices.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.exceptions import TrainingError
from repro.gml.autograd import Tensor, dropout, no_grad
from repro.gml.data import GraphData
from repro.gml.nn.layers import GATConv, GCNConv, RGCNConv
from repro.gml.nn.module import Module

__all__ = ["NodeClassifier", "GCN", "RGCN", "GAT"]


class NodeClassifier(Module):
    """Base class: logits for every node of a :class:`GraphData`."""

    #: Dropout probability between layers while training.
    dropout_p = 0.3

    def forward(self, data: GraphData, features: Optional[Tensor] = None) -> Tensor:
        raise NotImplementedError

    def predict(self, data: GraphData, nodes: Optional[np.ndarray] = None) -> np.ndarray:
        """Predicted class ids (optionally restricted to ``nodes``)."""
        with no_grad():
            logits = self.forward(data)
        predictions = np.argmax(logits.data, axis=1)
        if nodes is not None:
            return predictions[np.asarray(nodes, dtype=np.int64)]
        return predictions


class GCN(NodeClassifier):
    """Multi-layer graph convolutional network (relation-agnostic)."""

    def __init__(self, in_features: int, hidden_features: int, num_classes: int,
                 num_layers: int = 2, seed: int = 0) -> None:
        super().__init__()
        if num_layers < 1:
            raise TrainingError("GCN needs at least one layer")
        self._rng = np.random.default_rng(seed)
        dims = [in_features] + [hidden_features] * (num_layers - 1) + [num_classes]
        self.layers = [GCNConv(dims[i], dims[i + 1], seed=seed + i)
                       for i in range(num_layers)]

    def forward(self, data: GraphData, features: Optional[Tensor] = None) -> Tensor:
        adjacency = data.cached_adjacency()
        h = features if features is not None else Tensor(data.features)
        for index, layer in enumerate(self.layers):
            h = layer(adjacency, h)
            if index < len(self.layers) - 1:
                h = h.relu()
                h = dropout(h, self.dropout_p, training=self.training, rng=self._rng)
        return h


class RGCN(NodeClassifier):
    """Relational GCN — the paper's full-batch ("full propagation") method."""

    def __init__(self, in_features: int, hidden_features: int, num_classes: int,
                 num_relations: int, num_layers: int = 2, num_bases: Optional[int] = None,
                 seed: int = 0) -> None:
        super().__init__()
        if num_layers < 1:
            raise TrainingError("RGCN needs at least one layer")
        self.num_relations = num_relations
        self._rng = np.random.default_rng(seed)
        dims = [in_features] + [hidden_features] * (num_layers - 1) + [num_classes]
        self.layers = [RGCNConv(dims[i], dims[i + 1], num_relations,
                                num_bases=num_bases, seed=seed + i)
                       for i in range(num_layers)]

    def forward(self, data: GraphData, features: Optional[Tensor] = None) -> Tensor:
        if data.num_relations != self.num_relations:
            raise TrainingError(
                f"model was built for {self.num_relations} relations, "
                f"data has {data.num_relations}")
        adjacencies = data.cached_relation_adjacencies()
        h = features if features is not None else Tensor(data.features)
        for index, layer in enumerate(self.layers):
            h = layer(adjacencies, h)
            if index < len(self.layers) - 1:
                h = h.relu()
                h = dropout(h, self.dropout_p, training=self.training, rng=self._rng)
        return h


class GAT(NodeClassifier):
    """Graph attention network (single head per layer)."""

    def __init__(self, in_features: int, hidden_features: int, num_classes: int,
                 num_layers: int = 2, seed: int = 0) -> None:
        super().__init__()
        if num_layers < 1:
            raise TrainingError("GAT needs at least one layer")
        self._rng = np.random.default_rng(seed)
        dims = [in_features] + [hidden_features] * (num_layers - 1) + [num_classes]
        self.layers = [GATConv(dims[i], dims[i + 1], seed=seed + i)
                       for i in range(num_layers)]

    def forward(self, data: GraphData, features: Optional[Tensor] = None) -> Tensor:
        h = features if features is not None else Tensor(data.features)
        for index, layer in enumerate(self.layers):
            h = layer(data.edge_index, data.num_nodes, h)
            if index < len(self.layers) - 1:
                h = h.relu()
                h = dropout(h, self.dropout_p, training=self.training, rng=self._rng)
        return h
