"""Namespace helpers and the KGNet / common vocabularies.

A :class:`Namespace` produces :class:`~repro.rdf.terms.IRI` terms by attribute
or item access, mirroring the ergonomics of rdflib::

    DBLP = Namespace("https://www.dblp.org/")
    DBLP.Publication            # IRI("https://www.dblp.org/Publication")
    DBLP["title"]               # IRI("https://www.dblp.org/title")

The :class:`NamespaceManager` maintains prefix bindings used by parsers,
serializers and the SPARQL engine.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Tuple

from repro.exceptions import TermError
from repro.rdf.terms import IRI

__all__ = [
    "Namespace",
    "NamespaceManager",
    "RDF",
    "XSD",
    "KGNET",
    "DBLP",
    "YAGO",
    "SCHEMA",
]


class Namespace:
    """A factory for IRIs sharing a common prefix."""

    def __init__(self, base: str) -> None:
        if not base:
            raise TermError("namespace base IRI must be non-empty")
        self._base = base

    @property
    def base(self) -> str:
        return self._base

    def term(self, local: str) -> IRI:
        return IRI(self._base + local)

    def __getitem__(self, local: str) -> IRI:
        return self.term(local)

    def __getattr__(self, local: str) -> IRI:
        if local.startswith("_"):
            raise AttributeError(local)
        return self.term(local)

    def __contains__(self, iri: object) -> bool:
        return isinstance(iri, IRI) and iri.value.startswith(self._base)

    def __repr__(self) -> str:
        return f"Namespace({self._base!r})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Namespace) and other._base == self._base

    def __hash__(self) -> int:
        return hash(("Namespace", self._base))


RDF = Namespace("http://www.w3.org/1999/02/22-rdf-syntax-ns#")
RDFS = Namespace("http://www.w3.org/2000/01/rdf-schema#")
XSD = Namespace("http://www.w3.org/2001/XMLSchema#")
OWL = Namespace("http://www.w3.org/2002/07/owl#")

#: The vocabulary used by KGNet for KGMeta and SPARQL-ML (paper Figs 2, 7-10).
KGNET = Namespace("https://www.kgnet.com/")

#: DBLP-like knowledge graph vocabulary (paper Fig 1 / Table I).
DBLP = Namespace("https://www.dblp.org/")

#: YAGO-4-like knowledge graph vocabulary (paper Table I).
YAGO = Namespace("http://yago-knowledge.org/resource/")

SCHEMA = Namespace("http://schema.org/")

DEFAULT_PREFIXES: Dict[str, str] = {
    "rdf": RDF.base,
    "rdfs": RDFS.base,
    "xsd": XSD.base,
    "owl": OWL.base,
    "kgnet": KGNET.base,
    "dblp": DBLP.base,
    "yago": YAGO.base,
    "schema": SCHEMA.base,
}


class NamespaceManager:
    """Bidirectional prefix <-> namespace registry."""

    def __init__(self, include_defaults: bool = True) -> None:
        self._prefix_to_ns: Dict[str, str] = {}
        self._version = 0
        if include_defaults:
            for prefix, base in DEFAULT_PREFIXES.items():
                self.bind(prefix, base)

    def bind(self, prefix: str, base: str) -> None:
        """Bind ``prefix`` to ``base``, replacing any previous binding."""
        if isinstance(base, Namespace):
            base = base.base
        if self._prefix_to_ns.get(prefix) != base:
            self._version += 1
        self._prefix_to_ns[prefix] = base

    @property
    def version(self) -> int:
        """Counter bumped on every (re)binding.

        Parsing depends on the prefix table, so caches keyed by query text
        include this to avoid serving ASTs parsed under old bindings.
        """
        return self._version

    def __len__(self) -> int:
        return len(self._prefix_to_ns)

    def namespace(self, prefix: str) -> Optional[str]:
        return self._prefix_to_ns.get(prefix)

    def prefixes(self) -> Iterator[Tuple[str, str]]:
        return iter(sorted(self._prefix_to_ns.items()))

    def expand(self, qname: str) -> IRI:
        """Expand a prefixed name such as ``dblp:Publication`` into an IRI."""
        if ":" not in qname:
            raise TermError(f"not a prefixed name: {qname!r}")
        prefix, local = qname.split(":", 1)
        base = self._prefix_to_ns.get(prefix)
        if base is None:
            raise TermError(f"unknown prefix {prefix!r} in {qname!r}")
        return IRI(base + local)

    def shrink(self, iri: IRI) -> Optional[str]:
        """Return the prefixed form of ``iri`` when a binding matches.

        The longest matching namespace wins so that nested namespaces shrink
        correctly.  Returns ``None`` when no binding applies.
        """
        best: Optional[Tuple[str, str]] = None
        for prefix, base in self._prefix_to_ns.items():
            if iri.value.startswith(base):
                if best is None or len(base) > len(best[1]):
                    best = (prefix, base)
        if best is None:
            return None
        prefix, base = best
        local = iri.value[len(base):]
        if not local or any(ch in local for ch in "/#?"):
            return None
        return f"{prefix}:{local}"

    def copy(self) -> "NamespaceManager":
        clone = NamespaceManager(include_defaults=False)
        clone._prefix_to_ns = dict(self._prefix_to_ns)
        return clone

    def __contains__(self, prefix: str) -> bool:
        return prefix in self._prefix_to_ns

    def __len__(self) -> int:
        return len(self._prefix_to_ns)
