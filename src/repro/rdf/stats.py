"""Knowledge-graph statistics.

KGNet collects per-KG statistics twice: once when reporting dataset
characteristics (paper Table I) and once inside the GML data transformer,
which "validates node/edge type counts ... and generates graph statistics"
(paper §IV-A).  :class:`GraphStatistics` is that shared component.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.rdf.graph import Graph
from repro.rdf.terms import IRI, Literal, RDF_TYPE

__all__ = ["compute_statistics", "format_table"]


@dataclass
class GraphStatistics:
    """Summary statistics of an RDF knowledge graph."""

    num_triples: int = 0
    num_nodes: int = 0
    num_literals: int = 0
    num_edge_types: int = 0
    num_node_types: int = 0
    edge_type_counts: Dict[str, int] = field(default_factory=dict)
    node_type_counts: Dict[str, int] = field(default_factory=dict)
    literal_predicate_counts: Dict[str, int] = field(default_factory=dict)
    avg_out_degree: float = 0.0
    max_out_degree: int = 0

    def as_dict(self) -> Dict[str, object]:
        """Flatten the statistics for JSON-style reporting."""
        return {
            "num_triples": self.num_triples,
            "num_nodes": self.num_nodes,
            "num_literals": self.num_literals,
            "num_edge_types": self.num_edge_types,
            "num_node_types": self.num_node_types,
            "avg_out_degree": round(self.avg_out_degree, 3),
            "max_out_degree": self.max_out_degree,
        }

    def top_edge_types(self, k: int = 10) -> List[Tuple[str, int]]:
        return Counter(self.edge_type_counts).most_common(k)

    def top_node_types(self, k: int = 10) -> List[Tuple[str, int]]:
        return Counter(self.node_type_counts).most_common(k)


def compute_statistics(graph: Graph) -> GraphStatistics:
    """Compute :class:`GraphStatistics` in a single pass over ``graph``.

    Per-predicate triple counts come straight from the graph's incrementally
    maintained cardinality statistics (no counting pass); the remaining
    figures still require one scan.
    """
    edge_types: Counter = Counter()
    node_types: Counter = Counter()
    literal_predicates: Counter = Counter()
    out_degree: Counter = Counter()
    nodes = set()
    num_literals = 0

    maintained = getattr(graph, "predicate_cardinalities", None)
    if maintained is not None:
        for p, count in maintained().items():
            edge_types[p.value if isinstance(p, IRI) else p.n3()] = count

    for s, p, o in graph:
        if maintained is None:
            edge_types[p.value if isinstance(p, IRI) else p.n3()] += 1
        nodes.add(s)
        out_degree[s] += 1
        if isinstance(o, Literal):
            num_literals += 1
            literal_predicates[p.value] += 1
        else:
            nodes.add(o)
        if p == RDF_TYPE and isinstance(o, IRI):
            node_types[o.value] += 1

    num_nodes = len(nodes)
    total_out = sum(out_degree.values())
    stats = GraphStatistics(
        num_triples=len(graph),
        num_nodes=num_nodes,
        num_literals=num_literals,
        num_edge_types=len(edge_types),
        num_node_types=len(node_types),
        edge_type_counts=dict(edge_types),
        node_type_counts=dict(node_types),
        literal_predicate_counts=dict(literal_predicates),
        avg_out_degree=(total_out / num_nodes) if num_nodes else 0.0,
        max_out_degree=max(out_degree.values()) if out_degree else 0,
    )
    return stats


def format_table(rows: List[Dict[str, object]], headers: Optional[List[str]] = None,
                 title: Optional[str] = None) -> str:
    """Render a list of dictionaries as an aligned text table.

    Shared by the benchmark harnesses to print paper-style tables.
    """
    if not rows:
        return title or ""
    if headers is None:
        headers = list(rows[0].keys())
    str_rows = [[str(row.get(h, "")) for h in headers] for row in rows]
    widths = [max(len(h), *(len(r[i]) for r in str_rows)) for i, h in enumerate(headers)]
    lines = []
    if title:
        lines.append(title)
    header_line = " | ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    lines.append(header_line)
    lines.append("-+-".join("-" * w for w in widths))
    for row in str_rows:
        lines.append(" | ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)
