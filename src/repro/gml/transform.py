"""The Dataset Transformer: RDF graphs -> sparse-matrix training data.

This is the first stage of the automated GMLaaS pipeline (paper Fig 6): it
converts a (task-specific) RDF subgraph into the adjacency / feature matrices
a GML method consumes, while

* removing literal-valued triples (they become no graph structure),
* removing the *target class edges* so labels cannot leak into the structure,
* counting what it kept and removed (:class:`TransformReport`),
* performing the train/validation/test split (random or community based).

It reads the graph's id triples (:meth:`~repro.rdf.graph.Graph.triples_ids`)
and never builds a term-keyed table.  **Numbering rule:** nodes (entities),
relations, classes and node types are numbered by first occurrence in the
graph's iteration order, one ``ids.setdefault(term_id, len(ids))`` each, and
their names are decoded once at the end.  For ``KG'`` that iteration order
is fixed by :mod:`repro.kgnet.meta_sampler`, which numbers ``KG'``'s own
terms by first occurrence too.  (Sorting by id instead would reorder the
nodes and so change every trained model.)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.exceptions import DatasetError
from repro.gml.data import GraphData, TriplesData, xavier_features
from repro.gml.splits import SplitFractions, community_split, random_split, split_masks
from repro.rdf.graph import Graph
from repro.rdf.terms import IRI, Literal, RDF_TYPE

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
                 seed: int = 0) -> None:
        if split_strategy not in ("random", "community"):
            raise DatasetError(f"unknown split strategy {split_strategy!r}")
        self.feature_dim = feature_dim
        self.split_strategy = split_strategy
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
        decode = graph.decode_id
        # A term the dictionary never saw encodes to None, which no id equals.
        label_id = graph.encode_term(label_predicate)
        type_id = graph.encode_term(RDF_TYPE)
        target_type_id = graph.encode_term(target_node_type)

        # Term id -> contiguous index, numbered by first occurrence.
        nodes: Dict[int, int] = {}
        relations: Dict[int, int] = {}
        sources: List[int] = []
        destinations: List[int] = []
        edge_types: List[int] = []
        labels_by_node: Dict[int, int] = {}
        types_by_node: Dict[int, int] = {}
        for s, p, o in graph.triples_ids():
            if p == label_id:
                labels_by_node[s] = o
                report.num_label_edges_removed += 1
                continue
            if isinstance(decode(o), Literal):
                report.num_literal_triples_removed += 1
                continue
            if p == type_id:
                types_by_node.setdefault(s, o)
            sources.append(nodes.setdefault(s, len(nodes)))
            destinations.append(nodes.setdefault(o, len(nodes)))
            edge_types.append(relations.setdefault(p, len(relations)))

        targets = {node for node, node_type in types_by_node.items()
                   if node_type == target_type_id}
        # Target nodes that only appear through label edges still need an index.
        for node in labels_by_node:
            node_type = next(iter(graph.object_ids(node, type_id)), None)
            if node_type is not None and node_type == target_type_id:
                nodes.setdefault(node, len(nodes))
                targets.add(node)
        if not targets:
            raise DatasetError(
                f"no nodes of type {target_node_type.n3()} found in the graph")

        num_nodes = len(nodes)
        report.num_structural_edges = len(sources)
        report.num_nodes = num_nodes
        report.num_relations = len(relations)
        report.num_target_nodes = len(targets)

        classes: Dict[int, int] = {}
        labels = -np.ones(num_nodes, dtype=np.int64)
        for node, label in labels_by_node.items():
            index = nodes.get(node)
            if index is not None:
                labels[index] = classes.setdefault(label, len(classes))
        labeled = np.flatnonzero(labels >= 0)
        if labeled.size == 0:
            raise DatasetError(
                f"no labels found via predicate {label_predicate.n3()}")
        report.num_labeled_nodes = int(labeled.size)
        report.num_classes = len(classes)

        edge_index = np.stack([np.asarray(sources, dtype=np.int64),
                               np.asarray(destinations, dtype=np.int64)]) \
            if sources else np.zeros((2, 0), dtype=np.int64)

        if self.split_strategy == "community":
            train_idx, valid_idx, test_idx = community_split(
                labeled, edge_index, num_nodes, seed=self.seed)
        else:
            train_idx, valid_idx, test_idx = random_split(
                labeled, seed=self.seed)
        train_mask, val_mask, test_mask = split_masks(
            num_nodes, train_idx, valid_idx, test_idx)
        report.split_sizes = {"train": int(train_idx.size),
                              "valid": int(valid_idx.size),
                              "test": int(test_idx.size)}

        types: Dict[int, int] = {}
        node_types = np.asarray(
            [types.setdefault(types_by_node[node], len(types))
             if node in types_by_node else -1 for node in nodes], dtype=np.int64)
        data = GraphData(
            num_nodes=num_nodes,
            edge_index=edge_index,
            edge_type=np.asarray(edge_types, dtype=np.int64),
            num_relations=max(1, len(relations)),
            features=xavier_features(num_nodes, self.feature_dim, seed=self.seed),
            labels=labels,
            num_classes=len(classes),
            train_mask=train_mask,
            val_mask=val_mask,
            test_mask=test_mask,
            node_names=_names(graph, nodes),
            node_types=node_types,
            node_type_names=_names(graph, types),
            relation_names=_names(graph, relations),
            class_names=_names(graph, classes),
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
        decode = graph.decode_id
        target_id = graph.encode_term(target_predicate)

        entities: Dict[int, int] = {}
        relations: Dict[int, int] = {}
        triples: List[Tuple[int, int, int]] = []
        target_triple_indices: List[int] = []
        for s, p, o in graph.triples_ids():
            if isinstance(decode(o), Literal):
                report.num_literal_triples_removed += 1
                continue
            head = entities.setdefault(s, len(entities))
            tail = entities.setdefault(o, len(entities))
            if p == target_id:
                target_triple_indices.append(len(triples))
            triples.append((head, relations.setdefault(p, len(relations)), tail))

        if not triples:
            raise DatasetError("graph has no structural (non-literal) triples")
        if not target_triple_indices:
            raise DatasetError(
                f"no triples with target predicate {target_predicate.n3()}")

        triples_array = np.asarray(triples, dtype=np.int64)
        target_idx = np.asarray(target_triple_indices, dtype=np.int64)
        rng = np.random.default_rng(self.seed)
        permuted = rng.permutation(target_idx)
        n_train, n_valid, _ = SplitFractions().counts(permuted.shape[0])
        valid_idx = permuted[n_train:n_train + n_valid]
        test_idx = permuted[n_train + n_valid:]
        in_train = np.ones(triples_array.shape[0], dtype=bool)
        in_train[permuted[n_train:]] = False
        train_idx = np.flatnonzero(in_train)

        report.num_structural_edges = int(triples_array.shape[0])
        report.num_nodes = len(entities)
        report.num_relations = len(relations)
        report.num_target_nodes = int(target_idx.size)
        report.split_sizes = {"train": int(train_idx.size),
                              "valid": int(valid_idx.size),
                              "test": int(test_idx.size)}

        data = TriplesData(
            num_entities=len(entities),
            num_relations=len(relations),
            triples=triples_array,
            train_idx=train_idx,
            valid_idx=valid_idx,
            test_idx=test_idx,
            entity_names=_names(graph, entities),
            relation_names=_names(graph, relations),
            target_relation=relations[target_id],
        )
        return data, report


def _names(graph: Graph, numbering: Dict[int, int]) -> List[str]:
    """The names of a numbering's term ids, in index order: an IRI's value,
    a blank node's ``_:id``, a literal's lexical form (``str`` of the term)."""
    decode = graph.decode_id
    return [str(decode(term_id)) for term_id in numbering]
