"""In-memory graph data structures used for GML training.

These classes are the sparse-matrix representation the paper's *Dataset
Transformer* produces (Fig 6): a homogeneous-index, heterogeneous-typed graph
(:class:`GraphData`) for node classification with GNNs, and a triple-factored
view (:class:`TriplesData`) for KGE-based link prediction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np
from scipy import sparse as sp

from repro.exceptions import DatasetError

__all__ = ["GraphData", "TriplesData", "xavier_features"]


def xavier_features(num_nodes: int, dim: int, seed: int = 0) -> np.ndarray:
    """Xavier/Glorot-uniform random node features.

    The paper initialises node features randomly with Xavier initialisation
    in every experiment (§V-A), so the transformer does the same.
    """
    rng = np.random.default_rng(seed)
    bound = np.sqrt(6.0 / dim)
    return rng.uniform(-bound, bound, size=(num_nodes, dim))


@dataclass
class GraphData:
    """A typed multigraph in index space, ready for GNN training."""

    num_nodes: int
    edge_index: np.ndarray            # (2, E) int64 — source, destination
    edge_type: np.ndarray             # (E,) int64 — relation id per edge
    num_relations: int
    features: np.ndarray              # (N, F) float64
    labels: np.ndarray                # (N,) int64, -1 where unlabeled
    num_classes: int
    train_mask: np.ndarray            # (N,) bool
    val_mask: np.ndarray              # (N,) bool
    test_mask: np.ndarray             # (N,) bool
    node_names: List[str] = field(default_factory=list)
    node_types: Optional[np.ndarray] = None
    node_type_names: List[str] = field(default_factory=list)
    relation_names: List[str] = field(default_factory=list)
    class_names: List[str] = field(default_factory=list)

    # ------------------------------------------------------------------
    # Validation and derived quantities
    # ------------------------------------------------------------------
    def __post_init__(self) -> None:
        self.edge_index = np.asarray(self.edge_index, dtype=np.int64).reshape(2, -1)
        self.edge_type = np.asarray(self.edge_type, dtype=np.int64).reshape(-1)
        if self.edge_index.shape[1] != self.edge_type.shape[0]:
            raise DatasetError("edge_index and edge_type disagree on the number of edges")
        if self.edge_index.size and self.edge_index.max() >= self.num_nodes:
            raise DatasetError("edge_index references a node id >= num_nodes")
        if self.edge_type.size and not 0 <= self.edge_type.min() <= \
                self.edge_type.max() < self.num_relations:
            raise DatasetError("edge_type references a relation id outside num_relations")
        if self.features.shape[0] != self.num_nodes:
            raise DatasetError("feature matrix has the wrong number of rows")
        if self.labels.shape[0] != self.num_nodes:
            raise DatasetError("label vector has the wrong length")
        for mask in (self.train_mask, self.val_mask, self.test_mask):
            if mask.shape[0] != self.num_nodes:
                raise DatasetError("split mask has the wrong length")

    @property
    def num_edges(self) -> int:
        return int(self.edge_index.shape[1])

    @property
    def feature_dim(self) -> int:
        return int(self.features.shape[1])

    def labeled_nodes(self) -> np.ndarray:
        return np.flatnonzero(self.labels >= 0)

    # ------------------------------------------------------------------
    # Sparse adjacency construction
    # ------------------------------------------------------------------
    def adjacency(self, relation: Optional[int] = None, add_self_loops: bool = True,
                  normalize: bool = True, symmetric: bool = True) -> sp.csr_matrix:
        """Build a (normalised) sparse adjacency matrix.

        ``relation`` restricts the edges to one relation type (used by RGCN);
        ``None`` merges all relations (used by GCN/GraphSAINT aggregation).
        With ``symmetric=True`` (the default) every edge also contributes its
        inverse, so messages flow both along and against edge direction —
        the usual practice for RDF graphs where most predicates have an
        implicit inverse (``authoredBy`` vs ``authorOf``).
        """
        edges = slice(None) if relation is None else self.edge_type == relation
        src, dst = self.edge_index[:, edges]
        return self._adjacencies(src, dst, np.zeros(src.shape[0], dtype=np.int64), 1,
                                 add_self_loops, normalize, symmetric)[0]

    def relation_adjacencies(self, add_self_loops: bool = False,
                             normalize: bool = True,
                             symmetric: bool = True) -> List[sp.csr_matrix]:
        """One adjacency matrix per relation (RGCN message passing)."""
        return self._adjacencies(*self.edge_index, self.edge_type, self.num_relations,
                                 add_self_loops, normalize, symmetric)

    def _adjacencies(self, src: np.ndarray, dst: np.ndarray, group: np.ndarray,
                     num_groups: int, add_self_loops: bool, normalize: bool,
                     symmetric: bool) -> List[sp.csr_matrix]:
        """``num_groups`` adjacency matrices from one sort of (group, dst, src) keys.

        Entry (dst, src) of a matrix counts that group's src -> dst edges; a
        normalised row is divided by its degree, ``count * (1 / degree)``.
        """
        n = self.num_nodes
        if symmetric:
            src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
            group = np.concatenate([group, group])
        if add_self_loops:
            loops = np.tile(np.arange(n), num_groups)
            src, dst = np.concatenate([src, loops]), np.concatenate([dst, loops])
            group = np.concatenate([group, np.repeat(np.arange(num_groups), n)])
        row = group * n + dst
        # Normalised rows list their columns in descending order: spmm sums a
        # node's messages in stored order, and that is the order the models
        # this repository reports were trained with.
        keys, counts = np.unique(row * n + (n - 1 - src if normalize else src),
                                 return_counts=True)
        rows, columns = np.divmod(keys, n)
        values = counts.astype(np.float64)
        if normalize:
            columns = n - 1 - columns
            degree = np.bincount(row, minlength=num_groups * n).astype(np.float64)
            degree[degree == 0] = 1.0
            values = values * (1.0 / degree)[rows]
        # int32 when it fits: scipy scans and copies int64 index arrays.
        ids = np.int32 if max(n, keys.shape[0]) < 2 ** 31 else np.int64
        columns = columns.astype(ids)
        indptr = np.searchsorted(rows, np.arange(num_groups * n + 1)).astype(ids)
        bounds = indptr[np.arange(num_groups + 1) * n]
        return [sp.csr_matrix((values[lo:hi], columns[lo:hi],
                               indptr[g * n:(g + 1) * n + 1] - lo), shape=(n, n))
                for g, (lo, hi) in enumerate(zip(bounds, bounds[1:]))]

    # Cached variants: adjacency construction is the dominant per-forward cost
    # for full-batch training, so models memoise it on the data object itself
    # (the cache dies with the GraphData, which matters for sampled batches).
    def cached_adjacency(self) -> sp.csr_matrix:
        cache = getattr(self, "_adjacency_cache", None)
        if cache is None:
            cache = self.adjacency()
            object.__setattr__(self, "_adjacency_cache", cache)
        return cache

    def cached_relation_adjacencies(self) -> List[sp.csr_matrix]:
        cache = getattr(self, "_relation_adjacency_cache", None)
        if cache is None:
            cache = self.relation_adjacencies()
            object.__setattr__(self, "_relation_adjacency_cache", cache)
        return cache

    # ------------------------------------------------------------------
    # Subgraphs
    # ------------------------------------------------------------------
    def subgraph(self, node_indices: np.ndarray) -> Tuple["GraphData", np.ndarray]:
        """Induce the subgraph on ``node_indices``.

        Returns the new :class:`GraphData` plus the array mapping new node ids
        to the original ids.
        """
        node_indices = np.unique(np.asarray(node_indices, dtype=np.int64))
        remap = -np.ones(self.num_nodes, dtype=np.int64)
        remap[node_indices] = np.arange(node_indices.shape[0])
        src, dst = self.edge_index
        keep = (remap[src] >= 0) & (remap[dst] >= 0)
        new_edge_index = np.stack([remap[src[keep]], remap[dst[keep]]])
        new_edge_type = self.edge_type[keep]
        sub = GraphData(
            num_nodes=node_indices.shape[0],
            edge_index=new_edge_index,
            edge_type=new_edge_type,
            num_relations=self.num_relations,
            features=self.features[node_indices],
            labels=self.labels[node_indices],
            num_classes=self.num_classes,
            train_mask=self.train_mask[node_indices],
            val_mask=self.val_mask[node_indices],
            test_mask=self.test_mask[node_indices],
            node_names=[self.node_names[i] for i in node_indices] if self.node_names else [],
            node_types=self.node_types[node_indices] if self.node_types is not None else None,
            node_type_names=self.node_type_names,
            relation_names=self.relation_names,
            class_names=self.class_names,
        )
        return sub, node_indices

    def neighbors(self, nodes: np.ndarray, bidirectional: bool = True) -> np.ndarray:
        """Return the union of one-hop neighbours of ``nodes``."""
        nodes = np.asarray(nodes, dtype=np.int64)
        node_set = np.zeros(self.num_nodes, dtype=bool)
        node_set[nodes] = True
        src, dst = self.edge_index
        out_neighbors = dst[node_set[src]]
        if bidirectional:
            in_neighbors = src[node_set[dst]]
            return np.unique(np.concatenate([out_neighbors, in_neighbors]))
        return np.unique(out_neighbors)

    def __repr__(self) -> str:
        return (f"<GraphData nodes={self.num_nodes} edges={self.num_edges} "
                f"relations={self.num_relations} classes={self.num_classes}>")


@dataclass
class TriplesData:
    """Triple-factored view of a KG for link prediction / KGE training."""

    num_entities: int
    num_relations: int
    triples: np.ndarray               # (T, 3) int64 — head, relation, tail
    train_idx: np.ndarray             # indices into triples
    valid_idx: np.ndarray
    test_idx: np.ndarray
    entity_names: List[str] = field(default_factory=list)
    relation_names: List[str] = field(default_factory=list)
    target_relation: Optional[int] = None

    def __post_init__(self) -> None:
        self.triples = np.asarray(self.triples, dtype=np.int64).reshape(-1, 3)
        if self.triples.size:
            if self.triples[:, [0, 2]].max() >= self.num_entities:
                raise DatasetError("triples reference an entity id >= num_entities")
            if self.triples[:, 1].max() >= self.num_relations:
                raise DatasetError("triples reference a relation id >= num_relations")

    @property
    def num_triples(self) -> int:
        return int(self.triples.shape[0])

    def split(self, name: str) -> np.ndarray:
        """Return the (T_split, 3) triples of one split by name."""
        index = {"train": self.train_idx, "valid": self.valid_idx,
                 "test": self.test_idx}.get(name)
        if index is None:
            raise DatasetError(f"unknown split {name!r}")
        return self.triples[index]

    def __repr__(self) -> str:
        return (f"<TriplesData entities={self.num_entities} relations={self.num_relations} "
                f"triples={self.num_triples}>")
