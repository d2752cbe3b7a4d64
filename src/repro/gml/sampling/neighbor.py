"""GraphSAGE-style layer-wise neighbour sampler.

Included for completeness of the taxonomy in paper Fig 5 (node/layer
sampling).  Each batch consists of seed nodes plus a fixed fan-out of sampled
neighbours per hop; the induced subgraph is returned like the other samplers
so the same models can train on it.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.exceptions import SamplingError
from repro.gml.data import GraphData
from repro.gml.sampling.base import SampledSubgraph, SubgraphSampler

__all__ = ["NeighborSampler"]


class NeighborSampler(SubgraphSampler):
    """Fixed fan-out neighbour sampling around seed nodes."""

    def __init__(self, data: GraphData, batch_size: int, num_batches: int,
                 fanouts: Sequence[int] = (10, 10),
                 seed_nodes: Optional[np.ndarray] = None, seed: int = 0) -> None:
        super().__init__(data, batch_size, num_batches, seed=seed)
        if not fanouts or any(f < 1 for f in fanouts):
            raise SamplingError("fanouts must be a non-empty list of positive ints")
        self.fanouts = list(fanouts)
        if seed_nodes is None:
            seed_nodes = data.labeled_nodes()
            if seed_nodes.size == 0:
                seed_nodes = np.arange(data.num_nodes)
        self.seed_nodes = np.asarray(seed_nodes, dtype=np.int64)
        # In-neighbour CSR (messages flow src -> dst, so we expand backwards).
        order = np.argsort(data.edge_index[1], kind="stable")
        self._sorted_src = data.edge_index[0, order]
        self._offsets = np.cumsum(np.bincount(data.edge_index[1] + 1,
                                              minlength=data.num_nodes + 1))

    def _in_neighbors(self, node: int) -> np.ndarray:
        return self._sorted_src[self._offsets[node]:self._offsets[node + 1]]

    def _seeds(self) -> np.ndarray:
        return self.rng.choice(self.seed_nodes,
                               size=min(self.batch_size, self.seed_nodes.shape[0]),
                               replace=False)

    def sample_nodes(self, seeds: Optional[np.ndarray] = None) -> np.ndarray:
        return self._bounded_expansion(self._seeds() if seeds is None else seeds,
                                       self.fanouts, self._in_neighbors)

    def sample(self) -> SampledSubgraph:
        seeds = self._seeds()
        sub, mapping = self.data.subgraph(self.sample_nodes(seeds))
        return SampledSubgraph(sub, mapping, root_nodes=np.searchsorted(mapping, seeds))

    def estimated_subgraph_nodes(self) -> int:
        expansion = 1
        total = 1
        for fanout in self.fanouts:
            expansion *= fanout
            total += expansion
        return int(min(self.data.num_nodes, self.batch_size * total))

    def sampling_cost_per_batch(self) -> float:
        return float(self.batch_size * int(np.prod(self.fanouts)))
