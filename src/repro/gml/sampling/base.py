"""Common interface for graph samplers.

The paper's taxonomy (Fig 5) splits GNN training into full-propagation
methods and sampling-based (mini-batch) methods; the samplers here provide
the mini-batches for GraphSAINT, ShaDow-SAINT and the edge-based MorsE-style
training.
"""

from __future__ import annotations

from typing import Iterator, Optional

import numpy as np

from repro.exceptions import SamplingError
from repro.gml.data import GraphData

__all__ = ["SubgraphSampler", "SampledSubgraph"]


class SampledSubgraph:
    """A sampled subgraph plus its mapping back to the full graph."""

    def __init__(self, data: GraphData, node_mapping: np.ndarray,
                 node_weight: Optional[np.ndarray] = None,
                 root_nodes: Optional[np.ndarray] = None) -> None:
        self.data = data
        #: ``node_mapping[i]`` is the full-graph id of subgraph node ``i``.
        self.node_mapping = node_mapping
        #: GraphSAINT normalisation coefficients (loss weights).
        self.node_weight = node_weight
        #: For ShaDow-style samplers: the subgraph-local indices of the root
        #: (target) nodes the prediction is read out from.
        self.root_nodes = root_nodes

    @property
    def num_nodes(self) -> int:
        return self.data.num_nodes

    @property
    def num_edges(self) -> int:
        return self.data.num_edges

    def __repr__(self) -> str:
        return f"<SampledSubgraph nodes={self.num_nodes} edges={self.num_edges}>"


class SubgraphSampler:
    """Base class: iterate over :class:`SampledSubgraph` mini-batches."""

    def __init__(self, data: GraphData, batch_size: int, num_batches: int,
                 seed: int = 0) -> None:
        if batch_size <= 0:
            raise SamplingError("batch_size must be positive")
        if num_batches <= 0:
            raise SamplingError("num_batches must be positive")
        self.data = data
        self.batch_size = min(batch_size, data.num_nodes)
        self.num_batches = num_batches
        self.rng = np.random.default_rng(seed)

    def sample(self) -> SampledSubgraph:
        """Draw one mini-batch (subclass hook)."""
        raise NotImplementedError

    def __iter__(self) -> Iterator[SampledSubgraph]:
        for _ in range(self.num_batches):
            yield self.sample()

    def __len__(self) -> int:
        return self.num_batches
