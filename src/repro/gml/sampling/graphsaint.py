"""GraphSAINT node sampler (Zeng et al., ICLR 2020).

GraphSAINT trains a GNN on small subgraphs sampled from the full graph and
corrects the induced bias with normalisation coefficients.  Nodes are drawn
with probability proportional to (degree + 1); the coefficients are
estimated from a warm-up set of sampled subgraphs, following the reference
implementation's counting estimator.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.exceptions import SamplingError
from repro.gml.data import GraphData
from repro.gml.sampling.base import SampledSubgraph, SubgraphSampler

__all__ = ["GraphSAINTNodeSampler"]


class GraphSAINTNodeSampler(SubgraphSampler):
    """Sample nodes with probability proportional to (degree + 1)."""

    #: Subgraphs drawn up front to estimate the loss normalisation.
    warmup_samples = 10

    def __init__(self, data: GraphData, batch_size: int, num_batches: int,
                 seed: int = 0) -> None:
        super().__init__(data, batch_size, num_batches, seed=seed)
        self._node_counts: Optional[np.ndarray] = None
        self._total_samples = 0
        degree = np.bincount(self.data.edge_index.reshape(-1),
                             minlength=self.data.num_nodes)
        self._probabilities = (degree + 1.0)
        self._probabilities /= self._probabilities.sum()

    def sample_nodes(self) -> np.ndarray:
        # ``batch_size`` is capped at ``num_nodes``, so a draw never repeats.
        nodes = self.rng.choice(self.data.num_nodes, size=self.batch_size,
                                replace=False, p=self._probabilities)
        return np.unique(nodes)

    def _estimate_normalisation(self) -> None:
        """Count node appearances over warm-up subgraphs (alpha/lambda estimator)."""
        counts = np.zeros(self.data.num_nodes, dtype=np.float64)
        for _ in range(self.warmup_samples):
            nodes = self.sample_nodes()
            counts[nodes] += 1.0
        self._node_counts = counts
        self._total_samples = self.warmup_samples

    def node_weights(self, nodes: np.ndarray) -> np.ndarray:
        """Loss normalisation weights ~ 1 / P(node sampled)."""
        if self._node_counts is None:
            self._estimate_normalisation()
        probabilities = (self._node_counts[nodes] + 1.0) / (self._total_samples + 1.0)
        weights = 1.0 / probabilities
        return weights / weights.mean()

    def sample(self) -> SampledSubgraph:
        nodes = self.sample_nodes()
        if nodes.size == 0:
            raise SamplingError("GraphSAINT sampler produced an empty subgraph")
        sub, mapping = self.data.subgraph(nodes)
        return SampledSubgraph(sub, mapping, node_weight=self.node_weights(mapping))
