"""Meta-sampling: extraction of task-specific subgraphs (paper §IV-B.2).

A GML task targets the nodes of one type (e.g. ``dblp:Publication``).  With
direction ``d`` in {1, 2} and ``h >= 1`` hops, where a hop follows an
out-edge (``d = 1``) or an out- or in-edge (``d = 2``) to a non-literal node,
the task's subgraph ``KG'`` is the union of

* the out-edges (``d = 2``: and in-edges) of every node within ``h - 1``
  hops of a target, out-edges to literals only with ``include_literals``;
* the ``rdf:type`` triples of every node within ``h`` hops;
* the label edges: the targets' ``label_predicate`` edges (node
  classification), or every ``target_predicate`` edge plus the types of its
  endpoints (link prediction).

The paper finds ``d1h1`` best for node classification and ``d2h1`` for link
prediction, and phrases the rule as a SPARQL query.  :meth:`MetaSampler.extract`
is its only implementation; the test suite checks it against a CONSTRUCT
query of the rule, which is slower and yields the triples in another order.
Callers pass a pinned :meth:`~repro.rdf.graph.Graph.snapshot`, so no
concurrent write reaches it.

The walk stays in the store's term ids and builds ``KG'`` once, in bulk.
**Numbering rule:** ``KG'`` numbers its terms by first occurrence in the
order its triples were first kept, and the frontier is visited sorted by
term, so that order is the same in every process.  The transformer in turn
numbers nodes by first occurrence in ``KG'``'s iteration
(:mod:`repro.gml.transform`), so the order of ``KG'`` decides the node order
of the model trained on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.exceptions import MetaSamplingError
from repro.gml.tasks import TaskSpec, TaskType
from repro.rdf.dictionary import TermDictionary
from repro.rdf.graph import Graph
from repro.rdf.terms import Literal, RDF_TYPE

__all__ = ["MetaSamplingConfig", "MetaSampler"]


@dataclass(frozen=True)
class MetaSamplingConfig:
    """Direction / hop configuration: ``d`` in {1, 2}, ``h`` >= 1."""

    direction: int = 1
    hops: int = 1
    #: Keep literal-valued triples of visited nodes (the transformer drops
    #: them anyway, but keeping them preserves the "KG'" triple counts).
    include_literals: bool = True

    def __post_init__(self) -> None:
        if self.direction not in (1, 2):
            raise MetaSamplingError("direction must be 1 (outgoing) or 2 (bidirectional)")
        if self.hops < 1:
            raise MetaSamplingError("hops must be >= 1")

    @property
    def label(self) -> str:
        """Short label used in the paper: d1h1, d2h1, ..."""
        return f"d{self.direction}h{self.hops}"

    @classmethod
    def from_label(cls, label: str) -> "MetaSamplingConfig":
        label = label.strip().lower()
        if not (len(label) == 4 and label[0] == "d" and label[2] == "h"):
            raise MetaSamplingError(f"cannot parse meta-sampling label {label!r}")
        return cls(direction=int(label[1]), hops=int(label[3]))

    #: Paper defaults per task type (§IV-B.2).
    @classmethod
    def default_for_task(cls, task_type: str) -> "MetaSamplingConfig":
        if task_type == TaskType.LINK_PREDICTION:
            return cls(direction=2, hops=1)
        return cls(direction=1, hops=1)


@dataclass
class MetaSamplingReport:
    """Size statistics of the extracted subgraph versus the full KG."""

    config_label: str = "d1h1"
    num_target_nodes: int = 0
    num_visited_nodes: int = 0
    num_kg_triples: int = 0
    num_subgraph_triples: int = 0

    @property
    def triple_reduction(self) -> float:
        """Fraction of the KG removed (0.9 = KG' is 10x smaller)."""
        if self.num_kg_triples == 0:
            return 0.0
        return 1.0 - self.num_subgraph_triples / self.num_kg_triples

    def as_dict(self) -> Dict[str, object]:
        return {
            "config": self.config_label,
            "num_target_nodes": self.num_target_nodes,
            "num_visited_nodes": self.num_visited_nodes,
            "num_kg_triples": self.num_kg_triples,
            "num_subgraph_triples": self.num_subgraph_triples,
            "triple_reduction": round(self.triple_reduction, 4),
        }


class MetaSampler:
    """Extracts a task-specific subgraph ``KG'`` from a knowledge graph."""

    def __init__(self, config: Optional[MetaSamplingConfig] = None) -> None:
        self.config = config or MetaSamplingConfig()

    def extract(self, graph: Graph, task: TaskSpec,
                config: Optional[MetaSamplingConfig] = None):
        """Return ``(subgraph, report)`` for ``task`` on ``graph``.

        ``subgraph`` is a new :class:`Graph` with its own dictionary, built
        in one bulk insert; ``graph`` is only read.
        """
        config = config or self.config
        seed_type = task.seed_node_type
        if seed_type is None:
            raise MetaSamplingError(f"task {task.name!r} has no seed node type")
        encode, decode = graph.encode_term, graph.decode_id
        rdf_type, seed_id = encode(RDF_TYPE), encode(seed_type)
        targets = list(graph.subject_ids(rdf_type, seed_id)) \
            if rdf_type is not None and seed_id is not None else []
        if not targets:
            raise MetaSamplingError(
                f"no nodes of type {seed_type.n3()} found for task {task.name!r}")
        report = MetaSamplingReport(config_label=config.label,
                                    num_target_nodes=len(targets),
                                    num_kg_triples=len(graph))
        # KG' as an ordered set of id triples: the order triples are first
        # kept in is the order the returned graph numbers its terms in.
        kept: Dict[Tuple[int, int, int], None] = {}

        def keep(id_triples) -> None:
            kept.update(dict.fromkeys(id_triples))

        # Node sets are only ever iterated sorted by term: that keeps the
        # extraction order (and so the node order of the model trained on
        # KG') the same in every process, whatever the hash seed.
        def in_order(nodes: Set[int]) -> List[int]:
            return sorted(nodes, key=lambda node: decode(node).sort_key())

        visited: Set[int] = set(targets)
        frontier: Set[int] = set(targets)
        for _ in range(config.hops):
            next_frontier: Set[int] = set()
            for node in in_order(frontier):
                for s, p, o in graph.triples_ids(node, None, None):
                    if isinstance(decode(o), Literal):
                        if config.include_literals:
                            kept[s, p, o] = None
                        continue
                    kept[s, p, o] = None
                    if o not in visited:
                        next_frontier.add(o)
                if config.direction == 2:
                    for s, p, o in graph.triples_ids(None, None, node):
                        kept[s, p, o] = None
                        if s not in visited:
                            next_frontier.add(s)
            visited |= next_frontier
            frontier = next_frontier
            if not frontier:
                break

        # The types of every visited node, then the task's supervision edges.
        for node in in_order(visited):
            keep(graph.triples_ids(node, rdf_type, None))
        if task.task_type == TaskType.NODE_CLASSIFICATION:
            label = encode(task.label_predicate)
            if label is not None:
                for target in targets:
                    keep(graph.triples_ids(target, label, None))
        elif task.task_type == TaskType.LINK_PREDICTION:
            edge = encode(task.target_predicate)
            if edge is not None:
                for s, p, o in graph.triples_ids(None, edge, None):
                    kept[s, p, o] = None
                    keep(graph.triples_ids(s, rdf_type, None))
                    keep(graph.triples_ids(o, rdf_type, None))

        report.num_visited_nodes = len(visited)
        report.num_subgraph_triples = len(kept)
        if not kept:
            raise MetaSamplingError("meta-sampling produced an empty subgraph")
        # One bulk build: KG' numbers its terms by first occurrence.
        local: Dict[int, int] = {}
        for triple in kept:
            for term in triple:
                local.setdefault(term, len(local))
        subgraph = Graph(namespaces=graph.namespaces.copy(),
                         dictionary=TermDictionary.restore(map(decode, local)))
        subgraph.bulk_add_ids((local[s], local[p], local[o]) for s, p, o in kept)
        return subgraph, report
