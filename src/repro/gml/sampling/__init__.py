"""Graph samplers: GraphSAINT, ShaDow and triple/negative sampling."""

from repro.gml.sampling.base import SampledSubgraph, SubgraphSampler
from repro.gml.sampling.graphsaint import GraphSAINTNodeSampler
from repro.gml.sampling.shadow import ShadowKHopSampler
from repro.gml.sampling.negative import (
    EdgeSubKGSampler,
    NegativeSampler,
    TripleBatchSampler,
)

__all__ = [
    "SampledSubgraph",
    "SubgraphSampler",
    "GraphSAINTNodeSampler",
    "ShadowKHopSampler",
    "EdgeSubKGSampler",
    "NegativeSampler",
    "TripleBatchSampler",
]
