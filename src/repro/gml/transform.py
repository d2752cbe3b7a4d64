"""The Dataset Transformer: RDF graphs -> sparse-matrix training data.

This is the first stage of the automated GMLaaS pipeline (paper Fig 6): it
converts a (task-specific) RDF subgraph into the adjacency / feature matrices
a GML method consumes, while

* removing literal-valued triples (they become no graph structure),
* removing the *target class edges* so labels cannot leak into the structure,
* counting what it kept and removed (:class:`TransformReport`),
* performing the train/validation/test split (random or community based).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.exceptions import DatasetError
from repro.gml.data import GraphData, TriplesData, xavier_features
from repro.gml.splits import SplitFractions, community_split, random_split, split_masks
from repro.rdf.graph import Graph
from repro.rdf.terms import IRI, BNode, Literal, Term, RDF_TYPE

__all__ = ["TransformReport", "RDFGraphTransformer"]


@dataclass
class TransformReport:
    """What the transformer did — returned alongside the training data."""

    num_input_triples: int = 0
    num_structural_edges: int = 0
    num_literal_triples_removed: int = 0
    num_label_edges_removed: int = 0
    num_nodes: int = 0
    num_relations: int = 0
    num_target_nodes: int = 0
    num_labeled_nodes: int = 0
    num_classes: int = 0
    split_sizes: Dict[str, int] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        out = {
            "num_input_triples": self.num_input_triples,
            "num_structural_edges": self.num_structural_edges,
            "num_literal_triples_removed": self.num_literal_triples_removed,
            "num_label_edges_removed": self.num_label_edges_removed,
            "num_nodes": self.num_nodes,
            "num_relations": self.num_relations,
            "num_target_nodes": self.num_target_nodes,
            "num_labeled_nodes": self.num_labeled_nodes,
            "num_classes": self.num_classes,
        }
        out.update({f"split_{k}": v for k, v in self.split_sizes.items()})
        return out


class RDFGraphTransformer:
    """Transforms RDF graphs into :class:`GraphData` / :class:`TriplesData`."""

    def __init__(self, feature_dim: int = 64, split_strategy: str = "random",
                 split_fractions: Optional[SplitFractions] = None,
                 seed: int = 0) -> None:
        if split_strategy not in ("random", "community"):
            raise DatasetError(f"unknown split strategy {split_strategy!r}")
        self.feature_dim = feature_dim
        self.split_strategy = split_strategy
        self.split_fractions = split_fractions or SplitFractions()
        self.seed = seed

    # ------------------------------------------------------------------
    # Node classification
    # ------------------------------------------------------------------
    def to_node_classification_data(self, graph: Graph, target_node_type: IRI,
                                    label_predicate: IRI
                                    ) -> Tuple[GraphData, TransformReport]:
        """Build a :class:`GraphData` for a node-classification task.

        ``target_node_type`` selects the nodes to classify (e.g.
        ``dblp:Publication``) and ``label_predicate`` is the edge carrying the
        class (e.g. ``dblp:publishedIn`` for paper-venue).  Label edges are
        removed from the structural graph.
        """
        report = TransformReport(num_input_triples=len(graph))

        # Pass 1: collect labels and structural edges.
        node_ids: Dict[Term, int] = {}
        node_terms: List[Term] = []

        def intern(term: Term) -> int:
            index = node_ids.get(term)
            if index is None:
                index = len(node_terms)
                node_ids[term] = index
                node_terms.append(term)
            return index

        relation_ids: Dict[Term, int] = {}
        relation_terms: List[Term] = []
        sources: List[int] = []
        destinations: List[int] = []
        relations: List[int] = []
        labels_by_node: Dict[Term, Term] = {}
        types_by_node: Dict[Term, Term] = {}

        for s, p, o in graph:
            if p == label_predicate:
                labels_by_node[s] = o
                report.num_label_edges_removed += 1
                continue
            if isinstance(o, Literal):
                report.num_literal_triples_removed += 1
                continue
            if p == RDF_TYPE:
                types_by_node.setdefault(s, o)
            src = intern(s)
            dst = intern(o)
            rel = relation_ids.get(p)
            if rel is None:
                rel = len(relation_terms)
                relation_ids[p] = rel
                relation_terms.append(p)
            sources.append(src)
            destinations.append(dst)
            relations.append(rel)

        target_nodes = [term for term, type_term in types_by_node.items()
                        if type_term == target_node_type]
        # Target nodes that only appear through label edges still need an index.
        for term in labels_by_node:
            if graph.value(subject=term, predicate=RDF_TYPE) == target_node_type:
                intern(term)
                if term not in target_nodes:
                    target_nodes.append(term)
        if not target_nodes:
            raise DatasetError(
                f"no nodes of type {target_node_type.n3()} found in the graph")

        num_nodes = len(node_terms)
        report.num_structural_edges = len(sources)
        report.num_nodes = num_nodes
        report.num_relations = len(relation_terms)
        report.num_target_nodes = len(target_nodes)

        # Labels: map distinct label terms to contiguous class ids.
        class_ids: Dict[Term, int] = {}
        class_terms: List[Term] = []
        labels = -np.ones(num_nodes, dtype=np.int64)
        for term, label_term in labels_by_node.items():
            index = node_ids.get(term)
            if index is None:
                continue
            class_id = class_ids.get(label_term)
            if class_id is None:
                class_id = len(class_terms)
                class_ids[label_term] = class_id
                class_terms.append(label_term)
            labels[index] = class_id
        labeled = np.flatnonzero(labels >= 0)
        if labeled.size == 0:
            raise DatasetError(
                f"no labels found via predicate {label_predicate.n3()}")
        report.num_labeled_nodes = int(labeled.size)
        report.num_classes = len(class_terms)

        edge_index = np.stack([np.asarray(sources, dtype=np.int64),
                               np.asarray(destinations, dtype=np.int64)]) \
            if sources else np.zeros((2, 0), dtype=np.int64)
        edge_type = np.asarray(relations, dtype=np.int64)

        if self.split_strategy == "community":
            train_idx, valid_idx, test_idx = community_split(
                labeled, edge_index, num_nodes,
                fractions=self.split_fractions, seed=self.seed)
        else:
            train_idx, valid_idx, test_idx = random_split(
                labeled, fractions=self.split_fractions, seed=self.seed)
        train_mask, val_mask, test_mask = split_masks(
            num_nodes, train_idx, valid_idx, test_idx)
        report.split_sizes = {"train": int(train_idx.size),
                              "valid": int(valid_idx.size),
                              "test": int(test_idx.size)}

        node_types, node_type_names = self._encode_node_types(node_terms, types_by_node)
        data = GraphData(
            num_nodes=num_nodes,
            edge_index=edge_index,
            edge_type=edge_type,
            num_relations=max(1, len(relation_terms)),
            features=xavier_features(num_nodes, self.feature_dim, seed=self.seed),
            labels=labels,
            num_classes=len(class_terms),
            train_mask=train_mask,
            val_mask=val_mask,
            test_mask=test_mask,
            node_names=[self._name(t) for t in node_terms],
            node_types=node_types,
            node_type_names=node_type_names,
            relation_names=[self._name(t) for t in relation_terms],
            class_names=[self._name(t) for t in class_terms],
        )
        return data, report

    # ------------------------------------------------------------------
    # Link prediction
    # ------------------------------------------------------------------
    def to_link_prediction_data(self, graph: Graph, target_predicate: IRI
                                ) -> Tuple[TriplesData, TransformReport]:
        """Build a :class:`TriplesData` for predicting ``target_predicate`` links.

        All non-literal triples become training structure; the triples whose
        predicate is ``target_predicate`` are split across train/valid/test,
        everything else stays in train (the standard KGE evaluation setup).
        """
        report = TransformReport(num_input_triples=len(graph))

        entity_ids: Dict[Term, int] = {}
        entity_terms: List[Term] = []
        relation_ids: Dict[Term, int] = {}
        relation_terms: List[Term] = []
        triples: List[Tuple[int, int, int]] = []
        target_triple_indices: List[int] = []

        def intern_entity(term: Term) -> int:
            index = entity_ids.get(term)
            if index is None:
                index = len(entity_terms)
                entity_ids[term] = index
                entity_terms.append(term)
            return index

        for s, p, o in graph:
            if isinstance(o, Literal):
                report.num_literal_triples_removed += 1
                continue
            head = intern_entity(s)
            tail = intern_entity(o)
            rel = relation_ids.get(p)
            if rel is None:
                rel = len(relation_terms)
                relation_ids[p] = rel
                relation_terms.append(p)
            if p == target_predicate:
                target_triple_indices.append(len(triples))
            triples.append((head, rel, tail))

        if not triples:
            raise DatasetError("graph has no structural (non-literal) triples")
        if not target_triple_indices:
            raise DatasetError(
                f"no triples with target predicate {target_predicate.n3()}")

        triples_array = np.asarray(triples, dtype=np.int64)
        target_idx = np.asarray(target_triple_indices, dtype=np.int64)
        rng = np.random.default_rng(self.seed)
        permuted = rng.permutation(target_idx)
        n_train, n_valid, _ = self.split_fractions.counts(permuted.shape[0])
        valid_idx = permuted[n_train:n_train + n_valid]
        test_idx = permuted[n_train + n_valid:]
        holdout = set(valid_idx.tolist()) | set(test_idx.tolist())
        train_idx = np.asarray(
            [i for i in range(triples_array.shape[0]) if i not in holdout],
            dtype=np.int64)

        report.num_structural_edges = int(triples_array.shape[0])
        report.num_nodes = len(entity_terms)
        report.num_relations = len(relation_terms)
        report.num_target_nodes = int(target_idx.size)
        report.split_sizes = {"train": int(train_idx.size),
                              "valid": int(valid_idx.size),
                              "test": int(test_idx.size)}

        data = TriplesData(
            num_entities=len(entity_terms),
            num_relations=len(relation_terms),
            triples=triples_array,
            train_idx=train_idx,
            valid_idx=valid_idx,
            test_idx=test_idx,
            entity_names=[self._name(t) for t in entity_terms],
            relation_names=[self._name(t) for t in relation_terms],
            target_relation=relation_ids[target_predicate],
        )
        return data, report

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _name(term: Term) -> str:
        if isinstance(term, IRI):
            return term.value
        if isinstance(term, BNode):
            return term.n3()
        return str(term)

    @staticmethod
    def _encode_node_types(node_terms: List[Term],
                           types_by_node: Dict[Term, Term]
                           ) -> Tuple[np.ndarray, List[str]]:
        type_ids: Dict[Term, int] = {}
        type_terms: List[Term] = []
        encoded = np.zeros(len(node_terms), dtype=np.int64)
        for index, term in enumerate(node_terms):
            type_term = types_by_node.get(term)
            if type_term is None:
                encoded[index] = -1
                continue
            type_id = type_ids.get(type_term)
            if type_id is None:
                type_id = len(type_terms)
                type_ids[type_term] = type_id
                type_terms.append(type_term)
            encoded[index] = type_id
        names = [RDFGraphTransformer._name(t) for t in type_terms]
        return encoded, names
