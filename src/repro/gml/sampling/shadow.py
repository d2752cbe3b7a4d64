"""ShaDow-GNN / Shadow-SAINT sampler (Zeng et al., 2022).

Shadow decouples GNN depth from the receptive-field scope: for every target
node a small bounded k-hop "shadow" subgraph is extracted, and an arbitrarily
deep GNN is run *inside* that subgraph, reading the prediction off the root
node.  :class:`ShadowKHopSampler` yields batches of roots together with the
union of their shadow subgraphs.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.exceptions import SamplingError
from repro.gml.data import GraphData
from repro.gml.sampling.base import SampledSubgraph, SubgraphSampler

__all__ = ["ShadowKHopSampler"]


class ShadowKHopSampler(SubgraphSampler):
    """Bounded k-hop ego-subgraph sampler around target (root) nodes: the
    labelled nodes, or every node when none is labelled."""

    def __init__(self, data: GraphData, batch_size: int, num_batches: int,
                 depth: int = 2, neighbors_per_hop: int = 10, seed: int = 0) -> None:
        super().__init__(data, batch_size, num_batches, seed=seed)
        if depth < 1:
            raise SamplingError("depth must be >= 1")
        if neighbors_per_hop < 1:
            raise SamplingError("neighbors_per_hop must be >= 1")
        self.depth = depth
        self.neighbors_per_hop = neighbors_per_hop
        target_nodes = data.labeled_nodes()
        if target_nodes.size == 0:
            target_nodes = np.arange(data.num_nodes)
        self.target_nodes = np.asarray(target_nodes, dtype=np.int64)
        # Bidirectional CSR adjacency for neighbour expansion.
        src = np.concatenate([data.edge_index[0], data.edge_index[1]])
        dst = np.concatenate([data.edge_index[1], data.edge_index[0]])
        order = np.argsort(src, kind="stable")
        self._sorted_dst = dst[order]
        self._offsets = np.cumsum(np.bincount(src + 1, minlength=data.num_nodes + 1))
        self._cursor = 0
        self._order = self.rng.permutation(self.target_nodes)

    def _neighbors(self, node: int) -> np.ndarray:
        return self._sorted_dst[self._offsets[node]:self._offsets[node + 1]]

    def _next_roots(self) -> np.ndarray:
        """Cycle through target nodes so every root is visited across batches."""
        if self._cursor >= self._order.shape[0]:
            self._order = self.rng.permutation(self.target_nodes)
            self._cursor = 0
        roots = self._order[self._cursor:self._cursor + self.batch_size]
        self._cursor += self.batch_size
        return roots

    def _expand(self, roots: np.ndarray) -> np.ndarray:
        """Sorted nodes within ``depth`` hops of ``roots``, following at most
        ``neighbors_per_hop`` randomly chosen neighbours of each node."""
        fanout = self.neighbors_per_hop
        visited = set(int(root) for root in roots)
        frontier: List[int] = [int(root) for root in roots]
        for _ in range(self.depth):
            next_frontier: List[int] = []
            for node in frontier:
                neighbors = self._neighbors(node)
                if neighbors.size > fanout:
                    neighbors = self.rng.choice(neighbors, size=fanout, replace=False)
                for neighbor in neighbors:
                    neighbor = int(neighbor)
                    if neighbor not in visited:
                        visited.add(neighbor)
                        next_frontier.append(neighbor)
            frontier = next_frontier
        return np.asarray(sorted(visited), dtype=np.int64)

    def sample(self) -> SampledSubgraph:
        roots = self._next_roots()
        nodes = self._expand(roots)
        sub, mapping = self.data.subgraph(nodes)
        return SampledSubgraph(sub, mapping, root_nodes=np.searchsorted(mapping, roots))
