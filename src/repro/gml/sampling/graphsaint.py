"""GraphSAINT samplers (Zeng et al., ICLR 2020).

GraphSAINT trains a GNN on small subgraphs sampled from the full graph and
corrects the induced bias with normalisation coefficients.  Three classic
samplers are provided:

* :class:`GraphSAINTNodeSampler` — uniform / degree-proportional node sampling,
* :class:`GraphSAINTEdgeSampler` — edge sampling, keeping both endpoints,
* :class:`GraphSAINTRandomWalkSampler` — roots + fixed-length random walks.

The normalisation coefficients are estimated from a warm-up set of sampled
subgraphs, following the reference implementation's counting estimator.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.exceptions import SamplingError
from repro.gml.data import GraphData
from repro.gml.sampling.base import SampledSubgraph, SubgraphSampler

__all__ = [
    "GraphSAINTNodeSampler",
    "GraphSAINTEdgeSampler",
    "GraphSAINTRandomWalkSampler",
]


class _SaintSampler(SubgraphSampler):
    """Shared machinery: normalisation-coefficient estimation."""

    def __init__(self, data: GraphData, batch_size: int, num_batches: int,
                 seed: int = 0, warmup_samples: int = 10) -> None:
        super().__init__(data, batch_size, num_batches, seed=seed)
        self.warmup_samples = max(1, warmup_samples)
        self._node_counts: Optional[np.ndarray] = None
        self._total_samples = 0

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


class GraphSAINTNodeSampler(_SaintSampler):
    """Sample nodes with probability proportional to (degree + 1)."""

    def __init__(self, *args, degree_proportional: bool = True, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.degree_proportional = degree_proportional
        degree = np.bincount(self.data.edge_index.reshape(-1),
                             minlength=self.data.num_nodes)
        self._probabilities = (degree + 1.0)
        self._probabilities /= self._probabilities.sum()

    def sample_nodes(self) -> np.ndarray:
        if self.degree_proportional:
            nodes = self.rng.choice(self.data.num_nodes, size=self.batch_size,
                                    replace=False if self.batch_size <= self.data.num_nodes else True,
                                    p=self._probabilities)
        else:
            nodes = self.rng.choice(self.data.num_nodes, size=self.batch_size,
                                    replace=False)
        return np.unique(nodes)

    def sampling_cost_per_batch(self) -> float:
        return float(self.batch_size)


class GraphSAINTEdgeSampler(_SaintSampler):
    """Sample edges uniformly and keep both endpoints of each edge."""

    def sample_nodes(self) -> np.ndarray:
        if self.data.num_edges == 0:
            return self.rng.choice(self.data.num_nodes,
                                   size=min(self.batch_size, self.data.num_nodes),
                                   replace=False)
        num_edges = min(self.batch_size, self.data.num_edges)
        edges = self.rng.choice(self.data.num_edges, size=num_edges, replace=False)
        nodes = np.concatenate([self.data.edge_index[0, edges],
                                self.data.edge_index[1, edges]])
        return np.unique(nodes)

    def sampling_cost_per_batch(self) -> float:
        return float(min(self.batch_size, max(1, self.data.num_edges)))


class GraphSAINTRandomWalkSampler(_SaintSampler):
    """Sample root nodes and walk ``walk_length`` steps from each root."""

    def __init__(self, data: GraphData, batch_size: int, num_batches: int,
                 walk_length: int = 2, seed: int = 0,
                 warmup_samples: int = 10) -> None:
        super().__init__(data, batch_size, num_batches, seed=seed,
                         warmup_samples=warmup_samples)
        if walk_length < 1:
            raise SamplingError("walk_length must be >= 1")
        self.walk_length = walk_length
        # CSR-style adjacency for fast out-neighbour lookup.
        order = np.argsort(data.edge_index[0], kind="stable")
        self._sorted_dst = data.edge_index[1, order]
        self._offsets = np.cumsum(np.bincount(data.edge_index[0] + 1,
                                              minlength=data.num_nodes + 1))

    def _neighbors(self, node: int) -> np.ndarray:
        return self._sorted_dst[self._offsets[node]:self._offsets[node + 1]]

    def sample_nodes(self) -> np.ndarray:
        num_roots = max(1, self.batch_size // (self.walk_length + 1))
        roots = self.rng.choice(self.data.num_nodes, size=min(num_roots, self.data.num_nodes),
                                replace=False)
        visited = list(roots)
        for root in roots:
            current = int(root)
            for _ in range(self.walk_length):
                neighbors = self._neighbors(current)
                if neighbors.size == 0:
                    break
                current = int(self.rng.choice(neighbors))
                visited.append(current)
        return np.unique(np.asarray(visited, dtype=np.int64))

    def sampling_cost_per_batch(self) -> float:
        num_roots = max(1, self.batch_size // (self.walk_length + 1))
        return float(num_roots * self.walk_length)
