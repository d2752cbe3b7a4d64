"""In-memory RDF substrate (the role Virtuoso plays in the paper).

Public entry points:

* :class:`~repro.rdf.terms.IRI`, :class:`~repro.rdf.terms.Literal`,
  :class:`~repro.rdf.terms.BNode`, :class:`~repro.rdf.terms.Variable`,
  :class:`~repro.rdf.terms.Triple` — the term model.
* :class:`~repro.rdf.graph.Graph` and :class:`~repro.rdf.dataset.Dataset` —
  indexed triple storage.
* :class:`~repro.rdf.namespace.Namespace` and the common vocabularies
  (``DBLP``, ``YAGO``, ``KGNET`` ...).
* :func:`~repro.rdf.io.parse_turtle` / :func:`~repro.rdf.io.serialize_turtle`.
* :func:`~repro.rdf.stats.compute_statistics`.
"""

from repro.rdf.terms import (
    IRI,
    BNode,
    Literal,
    Term,
    Triple,
    Variable,
    RDF_TYPE,
    term_from_python,
    python_from_term,
)
from repro.rdf.namespace import (
    DBLP,
    KGNET,
    Namespace,
    NamespaceManager,
    RDF,
    SCHEMA,
    XSD,
    YAGO,
)
from repro.rdf.dictionary import TermDictionary
from repro.rdf.graph import Graph, GraphSnapshot
from repro.rdf.dataset import Dataset, DatasetSnapshot
from repro.rdf.io import (
    dump_graph,
    iter_turtle,
    load_graph,
    parse_ntriples,
    parse_turtle,
    serialize_ntriples,
    serialize_turtle,
)
from repro.rdf.stats import compute_statistics, format_table

__all__ = [
    "IRI",
    "BNode",
    "Literal",
    "Term",
    "Triple",
    "Variable",
    "RDF_TYPE",
    "term_from_python",
    "python_from_term",
    "Namespace",
    "NamespaceManager",
    "RDF",
    "XSD",
    "KGNET",
    "DBLP",
    "YAGO",
    "SCHEMA",
    "TermDictionary",
    "Graph",
    "GraphSnapshot",
    "Dataset",
    "DatasetSnapshot",
    "parse_turtle",
    "parse_ntriples",
    "iter_turtle",
    "serialize_turtle",
    "serialize_ntriples",
    "load_graph",
    "dump_graph",
    "compute_statistics",
    "format_table",
]
