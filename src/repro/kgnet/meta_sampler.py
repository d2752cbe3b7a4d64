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
is its only implementation and walks the indexes directly; the test suite
checks it against a CONSTRUCT query of the rule, which is slower and yields
the triples in another order (and the order of ``KG'`` decides the node
order of the model trained on it).  Callers pass a pinned
:meth:`~repro.rdf.graph.Graph.snapshot`, so no concurrent write reaches it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from repro.exceptions import MetaSamplingError
from repro.gml.tasks import TaskSpec, TaskType
from repro.rdf.graph import Graph
from repro.rdf.terms import Literal, Term, RDF_TYPE

__all__ = ["MetaSamplingConfig", "MetaSamplingReport", "MetaSampler"]


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

    # ------------------------------------------------------------------
    # Extraction
    # ------------------------------------------------------------------
    def target_nodes(self, graph: Graph, task: TaskSpec) -> List[Term]:
        """The seed nodes for the expansion (nodes of the task's target type)."""
        seed_type = task.seed_node_type
        if seed_type is None:
            raise MetaSamplingError(f"task {task.name!r} has no seed node type")
        targets = list(graph.subjects(RDF_TYPE, seed_type))
        if not targets:
            raise MetaSamplingError(
                f"no nodes of type {seed_type.n3()} found for task {task.name!r}")
        return targets

    def extract(self, graph: Graph, task: TaskSpec,
                config: Optional[MetaSamplingConfig] = None):
        """Return ``(subgraph, report)`` for ``task`` on ``graph``."""
        config = config or self.config
        targets = self.target_nodes(graph, task)
        report = MetaSamplingReport(config_label=config.label,
                                    num_target_nodes=len(targets),
                                    num_kg_triples=len(graph))
        subgraph = Graph(namespaces=graph.namespaces.copy())

        # Sets of terms are only ever iterated sorted: that keeps the
        # extraction order (and therefore the downstream node interning /
        # feature assignment) reproducible across processes regardless of
        # hash randomisation.
        def in_order(nodes: Set[Term]) -> List[Term]:
            return sorted(nodes, key=lambda term: term.sort_key())

        visited: Set[Term] = set(targets)
        frontier: Set[Term] = set(targets)
        for _ in range(config.hops):
            next_frontier: Set[Term] = set()
            for node in in_order(frontier):
                # Outgoing edges.
                for s, p, o in graph.triples(node, None, None):
                    if isinstance(o, Literal):
                        if config.include_literals:
                            subgraph.add(s, p, o)
                        continue
                    subgraph.add(s, p, o)
                    if o not in visited:
                        next_frontier.add(o)
                # Incoming edges for bidirectional sampling.
                if config.direction == 2:
                    for s, p, o in graph.triples(None, None, node):
                        subgraph.add(s, p, o)
                        if s not in visited:
                            next_frontier.add(s)
            visited |= next_frontier
            frontier = next_frontier
            if not frontier:
                break

        # Keep rdf:type triples of every visited node so the transformer can
        # still see node types, and keep the task's label/target edges.
        for node in in_order(visited):
            for s, p, o in graph.triples(node, RDF_TYPE, None):
                subgraph.add(s, p, o)
        self._keep_task_edges(graph, task, targets, subgraph)

        report.num_visited_nodes = len(visited)
        report.num_subgraph_triples = len(subgraph)
        if len(subgraph) == 0:
            raise MetaSamplingError("meta-sampling produced an empty subgraph")
        return subgraph, report

    def _keep_task_edges(self, graph: Graph, task: TaskSpec, targets: List[Term],
                         subgraph: Graph) -> None:
        """Ensure the supervision edges of the task survive the sampling."""
        if task.task_type == TaskType.NODE_CLASSIFICATION:
            for target in targets:
                for s, p, o in graph.triples(target, task.label_predicate, None):
                    subgraph.add(s, p, o)
        elif task.task_type == TaskType.LINK_PREDICTION:
            for s, p, o in graph.triples(None, task.target_predicate, None):
                subgraph.add(s, p, o)
                for triple in graph.triples(s, RDF_TYPE, None):
                    subgraph.add(triple)
                for triple in graph.triples(o, RDF_TYPE, None):
                    subgraph.add(triple)
