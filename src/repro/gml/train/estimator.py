"""Cost estimation for GML methods (memory and training time).

Paper §IV-A: *"We estimate the required memory for each method based on the
size and the number of generated sparse-matrices, as well as the training
time based on the matrix dimensions and feature aggregation approach"*.
The estimators here implement exactly that: closed-form functions of the
(sub)graph's node/edge/relation counts and the method's aggregation style.
The numbers are used for *ranking* candidate methods under a budget, not as
absolute predictions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple, Union

from repro.exceptions import TrainingError
from repro.gml.data import GraphData, TriplesData

__all__ = ["CostEstimate", "MethodCostEstimator", "METHOD_PROFILES",
           "sampling_plan"]

_FLOAT_BYTES = 8
#: Throughput constant translating "floating point operations" into seconds.
#: Calibrated for the pure-numpy engine; only relative values matter.
_SECONDS_PER_FLOP = 5e-9


@dataclass(frozen=True)
class MethodProfile:
    """Static characteristics of a GML method used by the cost model."""

    name: str
    family: str              # "gnn_full_batch", "gnn_sampling", "kge", "kge_inductive"
    relation_aware: bool
    sampler: Optional[str] = None      # "graphsaint", "shadow", "edge_subkg"
    supported_tasks: tuple = ("node_classification",)
    #: Prior on relative accuracy (used only to break ties when the budget
    #: allows several methods); roughly follows the paper's Figs 13-15.
    accuracy_prior: float = 0.5
    default_epochs: int = 30
    default_batch_size: int = 256


METHOD_PROFILES: Dict[str, MethodProfile] = {
    "rgcn": MethodProfile(
        name="rgcn", family="gnn_full_batch", relation_aware=True,
        supported_tasks=("node_classification",), accuracy_prior=0.80,
        default_epochs=40),
    "gcn": MethodProfile(
        name="gcn", family="gnn_full_batch", relation_aware=False,
        supported_tasks=("node_classification",), accuracy_prior=0.72,
        default_epochs=40),
    "gat": MethodProfile(
        name="gat", family="gnn_full_batch", relation_aware=False,
        supported_tasks=("node_classification",), accuracy_prior=0.75,
        default_epochs=40),
    "graph_saint": MethodProfile(
        name="graph_saint", family="gnn_sampling", relation_aware=True,
        sampler="graphsaint", supported_tasks=("node_classification",),
        accuracy_prior=0.82, default_epochs=20),
    "shadow_saint": MethodProfile(
        name="shadow_saint", family="gnn_sampling", relation_aware=True,
        sampler="shadow", supported_tasks=("node_classification",),
        accuracy_prior=0.85, default_epochs=20, default_batch_size=64),
    "morse": MethodProfile(
        name="morse", family="kge_inductive", relation_aware=True,
        sampler="edge_subkg", supported_tasks=("link_prediction",),
        accuracy_prior=0.80, default_epochs=30, default_batch_size=1024),
    "complex": MethodProfile(
        name="complex", family="kge", relation_aware=True,
        supported_tasks=("link_prediction", "entity_similarity"),
        accuracy_prior=0.70, default_epochs=50, default_batch_size=1024),
    "transe": MethodProfile(
        name="transe", family="kge", relation_aware=True,
        supported_tasks=("link_prediction", "entity_similarity"),
        accuracy_prior=0.60, default_epochs=50, default_batch_size=1024),
    "distmult": MethodProfile(
        name="distmult", family="kge", relation_aware=True,
        supported_tasks=("link_prediction", "entity_similarity"),
        accuracy_prior=0.65, default_epochs=50, default_batch_size=1024),
    "rotate": MethodProfile(
        name="rotate", family="kge", relation_aware=True,
        supported_tasks=("link_prediction", "entity_similarity"),
        accuracy_prior=0.68, default_epochs=50, default_batch_size=1024),
}


def sampling_plan(method: str, data: GraphData,
                  batch_size: Optional[int] = None) -> Tuple[int, int]:
    """``(batch size, batches per epoch)`` of ``method``'s sampler on ``data``.

    GraphSAINT draws ``batch_size`` nodes (the profile's 256 by default; at
    most half the graph, at least 8) six times an epoch; ShaDow expands
    ``batch_size`` roots (64 by default; at most a quarter of the labelled
    nodes, at least 4) four times.  The training manager builds its sampler
    from this plan and the estimator prices it.
    """
    profile = METHOD_PROFILES[method]
    batch_size = batch_size or profile.default_batch_size
    if profile.sampler == "shadow":
        return min(batch_size, max(4, int(data.labeled_nodes().size) // 4)), 4
    if profile.sampler == "graphsaint":
        return min(batch_size, max(8, data.num_nodes // 2)), 6
    raise TrainingError(f"GML method {method!r} does not train on a node sampler")


@dataclass
class CostEstimate:
    """Estimated training cost for one (method, dataset) pair."""

    method: str
    memory_bytes: float
    time_seconds: float
    accuracy_prior: float
    details: Dict[str, float] = field(default_factory=dict)


class MethodCostEstimator:
    """Estimates memory / time for each method on a given dataset."""

    def __init__(self, hidden_dim: int = 64, num_layers: int = 2,
                 embedding_dim: int = 64, num_negatives: int = 8) -> None:
        self.hidden_dim = hidden_dim
        self.num_layers = num_layers
        self.embedding_dim = embedding_dim
        self.num_negatives = num_negatives

    # ------------------------------------------------------------------
    # Public entry point
    # ------------------------------------------------------------------
    def estimate(self, method: str, data: Union[GraphData, TriplesData],
                 epochs: Optional[int] = None,
                 batch_size: Optional[int] = None) -> CostEstimate:
        profile = METHOD_PROFILES.get(method)
        if profile is None:
            raise TrainingError(f"unknown GML method {method!r}")
        epochs = epochs or profile.default_epochs
        batch_size = batch_size or profile.default_batch_size
        if isinstance(data, GraphData):
            return self._estimate_gnn(profile, data, epochs, batch_size)
        return self._estimate_kge(profile, data, epochs, batch_size)

    # ------------------------------------------------------------------
    # GNN estimates (node classification)
    # ------------------------------------------------------------------
    def _estimate_gnn(self, profile: MethodProfile, data: GraphData,
                      epochs: int, batch_size: int) -> CostEstimate:
        nodes, edges = data.num_nodes, max(1, data.num_edges)
        feature_dim = data.feature_dim
        hidden = self.hidden_dim
        relations = data.num_relations if profile.relation_aware else 1

        if profile.family == "gnn_full_batch":
            working_nodes = nodes
            working_edges = edges
            batches_per_epoch = 1
            sampling_cost = 0.0
        else:
            batch, batches_per_epoch = sampling_plan(profile.name, data,
                                                     batch_size)
            if profile.sampler == "shadow":
                # Bounded per-root expansion (depth 2, fanout 10).
                working_nodes = min(nodes, batch * 40)
            else:
                working_nodes = min(nodes, batch)
            density = edges / max(1, nodes)
            working_edges = max(1, int(working_nodes * density))
            sampling_cost = working_nodes * batches_per_epoch * 1e-6

        # Memory: features + activations per layer + adjacency structure(s)
        # (one matrix per relation for relation-aware methods) + weights.
        activation_bytes = working_nodes * (feature_dim + hidden * self.num_layers) * _FLOAT_BYTES
        adjacency_bytes = working_edges * 3 * _FLOAT_BYTES * relations
        weight_bytes = (feature_dim * hidden + hidden * hidden * (self.num_layers - 1)
                        + hidden * max(1, data.num_classes)) * _FLOAT_BYTES * max(1, min(relations, 8))
        # Backpropagation roughly doubles the live activations.
        memory = 2.0 * activation_bytes + adjacency_bytes + weight_bytes

        # Time: per epoch, aggregation touches every edge once per layer and
        # the dense transforms are nodes x feature x hidden.
        flops_per_epoch = (working_edges * hidden * self.num_layers * relations
                           + working_nodes * feature_dim * hidden
                           + working_nodes * hidden * hidden * (self.num_layers - 1))
        flops_per_epoch *= batches_per_epoch if profile.family == "gnn_sampling" else 1
        time_seconds = flops_per_epoch * epochs * _SECONDS_PER_FLOP + \
            sampling_cost * epochs

        return CostEstimate(
            method=profile.name,
            memory_bytes=float(memory),
            time_seconds=float(time_seconds),
            accuracy_prior=profile.accuracy_prior,
            details={
                "working_nodes": float(working_nodes),
                "working_edges": float(working_edges),
                "relations": float(relations),
                "batches_per_epoch": float(batches_per_epoch),
                "epochs": float(epochs),
            },
        )

    # ------------------------------------------------------------------
    # KGE estimates (link prediction)
    # ------------------------------------------------------------------
    def _estimate_kge(self, profile: MethodProfile, data: TriplesData,
                      epochs: int, batch_size: int) -> CostEstimate:
        entities = data.num_entities
        relations = data.num_relations
        triples = max(1, data.num_triples)
        dim = self.embedding_dim

        if profile.family == "kge_inductive":
            # MorsE keeps only relation-level tables; entity embeddings are
            # composed on the fly from sampled sub-KGs.
            table_bytes = (3 * relations) * dim * _FLOAT_BYTES
            working_triples = min(triples, batch_size)
            working_entities = min(entities, working_triples * 2)
        else:
            table_bytes = (entities + relations) * dim * _FLOAT_BYTES
            working_triples = min(triples, batch_size)
            working_entities = entities
        batch_bytes = working_triples * (1 + self.num_negatives) * 3 * dim * _FLOAT_BYTES
        memory = 2.0 * table_bytes + batch_bytes + working_entities * dim * _FLOAT_BYTES

        batches_per_epoch = max(1, triples // max(1, batch_size))
        flops_per_batch = working_triples * (1 + self.num_negatives) * dim * 6
        if profile.family == "kge_inductive":
            flops_per_batch += working_triples * dim * 4  # entity composition
            batches_per_epoch = max(1, batches_per_epoch // 4)
        time_seconds = flops_per_batch * batches_per_epoch * epochs * _SECONDS_PER_FLOP

        return CostEstimate(
            method=profile.name,
            memory_bytes=float(memory),
            time_seconds=float(time_seconds),
            accuracy_prior=profile.accuracy_prior,
            details={
                "entities": float(entities),
                "relations": float(relations),
                "triples": float(triples),
                "batches_per_epoch": float(batches_per_epoch),
                "epochs": float(epochs),
            },
        )
