"""RDF term model: IRIs, literals, blank nodes, variables and triples.

The term model mirrors the RDF 1.1 abstract syntax.  Terms are immutable,
hashable value objects so they can be used directly as dictionary keys inside
the triple store indexes and as binding values inside the SPARQL evaluator.
"""

from __future__ import annotations

import itertools
import re
import uuid
from typing import Iterator, NamedTuple, Optional, Tuple, Union

from repro.exceptions import TermError

__all__ = [
    "Term",
    "IRI",
    "Literal",
    "BNode",
    "Variable",
    "Triple",
    "XSD_STRING",
    "XSD_INTEGER",
    "XSD_DOUBLE",
    "XSD_BOOLEAN",
    "RDF_TYPE",
    "RDF_LANGSTRING",
    "RDF_FIRST",
    "RDF_REST",
    "RDF_NIL",
    "term_from_python",
    "python_from_term",
]

_IRI_FORBIDDEN = re.compile(r"[<>\"{}|^`\\\x00-\x20]")

_BNODE_COUNTER = itertools.count()

#: Process-unique prefix for generated blank node labels.  A bare counter
#: restarts at zero in every process — fatal once graphs are *persisted*
#: (checkpoint/WAL store raw labels): a fresh process parsing ``[...]``
#: would mint ``b0`` again and silently merge with a recovered bnode.  The
#: full 128-bit UUID is kept: a store that lives through many process
#: lifetimes accumulates one prefix per session, and a truncated prefix
#: (plus counters that restart at 0) would make a birthday collision merge
#: unrelated anonymous nodes silently.
_BNODE_PREFIX = f"b{uuid.uuid4().hex}n"


class Term:
    """Abstract base class for RDF terms.

    Concrete subclasses are :class:`IRI`, :class:`Literal`, :class:`BNode`
    and (for query processing only) :class:`Variable`.

    Terms are immutable value objects used as dictionary keys throughout the
    triple store and the evaluator, so every concrete class caches its hash
    in a ``_hash`` slot on first use (the slot stays unset until then).
    """

    __slots__ = ()

    def _cache_hash(self, value: int) -> int:
        object.__setattr__(self, "_hash", value)
        return value

    def n3(self) -> str:
        """Return the N-Triples / SPARQL surface form of the term."""
        raise NotImplementedError

    # Terms sort by (class rank, surface form) which gives a deterministic
    # total order used by ORDER BY and by the test-suite.
    _sort_rank = 0

    def sort_key(self) -> Tuple[int, str]:
        return (self._sort_rank, self.n3())


class IRI(Term):
    """An IRI reference, e.g. ``https://www.dblp.org/Publication``."""

    __slots__ = ("value", "_hash")
    _sort_rank = 1

    def __init__(self, value: str) -> None:
        if not isinstance(value, str) or not value:
            raise TermError(f"IRI requires a non-empty string, got {value!r}")
        if _IRI_FORBIDDEN.search(value):
            raise TermError(f"IRI contains forbidden characters: {value!r}")
        object.__setattr__(self, "value", value)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("IRI is immutable")

    def n3(self) -> str:
        return f"<{self.value}>"

    def __str__(self) -> str:
        return self.value

    def __repr__(self) -> str:
        return f"IRI({self.value!r})"

    def __eq__(self, other: object) -> bool:
        return self is other or (isinstance(other, IRI) and other.value == self.value)

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            return self._cache_hash(hash(("IRI", self.value)))

    def __reduce__(self):
        return (IRI, (self.value,))

    def __deepcopy__(self, memo):
        return self

    def __copy__(self):
        return self

    def local_name(self) -> str:
        """Return the fragment or last path segment of the IRI.

        Useful for producing readable labels, e.g.
        ``IRI("https://dblp.org/rdf/schema#title").local_name() == "title"``.
        """
        value = self.value
        for separator in ("#", "/", ":"):
            if separator in value:
                candidate = value.rsplit(separator, 1)[1]
                if candidate:
                    return candidate
        return value

    def namespace(self) -> str:
        """Return the IRI with the local name stripped."""
        local = self.local_name()
        if local and self.value.endswith(local):
            return self.value[: -len(local)]
        return self.value


#: N-Triples STRING_LITERAL_QUOTE escaping.  The named ECHAR escapes cover
#: the common controls; every OTHER C0 control must leave as ``\u00XX`` —
#: emitting it raw would produce output conformant external parsers (the
#: audience of the HTTP serving layer) reject.
_ECHAR = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t",
          "\b": "\\b", "\f": "\\f"}
_LEXICAL_ESCAPE_RE = re.compile(r'[\\"\n\r\t\b\f\x00-\x1f]')


def _escape_lexical(text: str) -> str:
    return _LEXICAL_ESCAPE_RE.sub(
        lambda m: _ECHAR.get(m.group(0)) or f"\\u{ord(m.group(0)):04X}", text)


XSD = "http://www.w3.org/2001/XMLSchema#"
RDF_NS = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"

XSD_STRING = IRI(XSD + "string")
XSD_INTEGER = IRI(XSD + "integer")
XSD_DECIMAL = IRI(XSD + "decimal")
XSD_DOUBLE = IRI(XSD + "double")
XSD_BOOLEAN = IRI(XSD + "boolean")
RDF_TYPE = IRI(RDF_NS + "type")
RDF_LANGSTRING = IRI(RDF_NS + "langString")
RDF_FIRST = IRI(RDF_NS + "first")
RDF_REST = IRI(RDF_NS + "rest")
RDF_NIL = IRI(RDF_NS + "nil")

_NUMERIC_DATATYPES = {XSD_INTEGER, XSD_DECIMAL, XSD_DOUBLE}


class Literal(Term):
    """An RDF literal with optional datatype or language tag."""

    __slots__ = ("lexical", "datatype", "language", "_hash")
    _sort_rank = 2

    def __init__(self, lexical: object, datatype: Optional[IRI] = None,
                 language: Optional[str] = None) -> None:
        if language is not None and datatype is not None:
            raise TermError("a literal cannot carry both a language tag and a datatype")
        if isinstance(lexical, bool):
            datatype = datatype or XSD_BOOLEAN
            lexical = "true" if lexical else "false"
        elif isinstance(lexical, int):
            datatype = datatype or XSD_INTEGER
            lexical = str(lexical)
        elif isinstance(lexical, float):
            datatype = datatype or XSD_DOUBLE
            lexical = repr(lexical)
        elif not isinstance(lexical, str):
            raise TermError(f"unsupported literal value type: {type(lexical).__name__}")
        if language is not None:
            language = language.lower()
            datatype = RDF_LANGSTRING
        elif datatype is None:
            datatype = XSD_STRING
        object.__setattr__(self, "lexical", lexical)
        object.__setattr__(self, "datatype", datatype)
        object.__setattr__(self, "language", language)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("Literal is immutable")

    # -- conversions --------------------------------------------------------
    def is_numeric(self) -> bool:
        return self.datatype in _NUMERIC_DATATYPES

    def to_python(self) -> object:
        """Convert the literal to its natural Python value.

        An ill-typed numeric literal (``"abc"^^xsd:integer``) has no such
        value and comes back as its lexical form.
        """
        try:
            if self.datatype == XSD_INTEGER:
                return int(self.lexical)
            if self.datatype in (XSD_DECIMAL, XSD_DOUBLE):
                return float(self.lexical)
        except ValueError:
            return self.lexical
        if self.datatype == XSD_BOOLEAN:
            return self.lexical in ("true", "1")
        return self.lexical

    def n3(self) -> str:
        escaped = _escape_lexical(self.lexical)
        if self.language:
            return f'"{escaped}"@{self.language}'
        if self.datatype == XSD_STRING:
            return f'"{escaped}"'
        return f'"{escaped}"^^{self.datatype.n3()}'

    def __str__(self) -> str:
        return self.lexical

    def __repr__(self) -> str:
        if self.language:
            return f"Literal({self.lexical!r}, language={self.language!r})"
        if self.datatype != XSD_STRING:
            return f"Literal({self.lexical!r}, datatype={self.datatype.value!r})"
        return f"Literal({self.lexical!r})"

    def __eq__(self, other: object) -> bool:
        return self is other or (
            isinstance(other, Literal)
            and other.lexical == self.lexical
            and other.datatype == self.datatype
            and other.language == self.language
        )

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            return self._cache_hash(
                hash(("Literal", self.lexical, self.datatype.value, self.language)))

    def __reduce__(self):
        if self.language is not None:
            return (Literal, (self.lexical, None, self.language))
        return (Literal, (self.lexical, self.datatype, None))

    def __deepcopy__(self, memo):
        return self

    def __copy__(self):
        return self


class BNode(Term):
    """A blank node.  Identity is purely the local identifier."""

    __slots__ = ("id", "_hash")
    _sort_rank = 0

    def __init__(self, node_id: Optional[str] = None) -> None:
        if node_id is None:
            node_id = f"{_BNODE_PREFIX}{next(_BNODE_COUNTER)}"
        if not isinstance(node_id, str) or not node_id:
            raise TermError(f"blank node id must be a non-empty string, got {node_id!r}")
        object.__setattr__(self, "id", node_id)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("BNode is immutable")

    def n3(self) -> str:
        return f"_:{self.id}"

    def __str__(self) -> str:
        return self.n3()

    def __repr__(self) -> str:
        return f"BNode({self.id!r})"

    def __eq__(self, other: object) -> bool:
        return self is other or (isinstance(other, BNode) and other.id == self.id)

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            return self._cache_hash(hash(("BNode", self.id)))

    def __reduce__(self):
        return (BNode, (self.id,))

    def __deepcopy__(self, memo):
        return self

    def __copy__(self):
        return self


class Variable(Term):
    """A SPARQL variable such as ``?paper``.

    Variables only appear inside queries, never inside stored graphs.

    Instances are interned per name: ``Variable("x") is Variable("?x")``.
    Equal variables being *identical* lets every binding-dictionary
    operation on the query hot path take the pointer-comparison fast path
    instead of calling ``__eq__``.  The intern table grows with the set of
    distinct variable names seen by the process, which queries keep small.
    """

    __slots__ = ("name", "_hash")
    _sort_rank = 3
    _interned: dict = {}

    def __new__(cls, name: str) -> "Variable":
        if isinstance(name, str) and name.startswith(("?", "$")):
            name = name[1:]
        cached = cls._interned.get(name)
        if cached is not None:
            return cached
        if not isinstance(name, str) or not name:
            raise TermError(f"variable name must be a non-empty string, got {name!r}")
        instance = super().__new__(cls)
        object.__setattr__(instance, "name", name)
        cls._interned[name] = instance
        return instance

    def __init__(self, name: str) -> None:  # state set in __new__
        pass

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("Variable is immutable")

    def n3(self) -> str:
        return f"?{self.name}"

    def __str__(self) -> str:
        return self.n3()

    def __repr__(self) -> str:
        return f"Variable({self.name!r})"

    def __eq__(self, other: object) -> bool:
        return self is other or (isinstance(other, Variable) and other.name == self.name)

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            return self._cache_hash(hash(("Variable", self.name)))

    def __reduce__(self):
        return (Variable, (self.name,))

    def __deepcopy__(self, memo):
        return self

    def __copy__(self):
        return self


TermOrVariable = Union[IRI, Literal, BNode, Variable]


class Triple(NamedTuple):
    """A subject/predicate/object triple."""

    subject: TermOrVariable
    predicate: TermOrVariable
    object: TermOrVariable

    def n3(self) -> str:
        return f"{self.subject.n3()} {self.predicate.n3()} {self.object.n3()} ."

    def is_ground(self) -> bool:
        """Return True when the triple contains no variables."""
        return not any(isinstance(term, Variable) for term in self)

    def variables(self) -> Iterator[Variable]:
        for term in self:
            if isinstance(term, Variable):
                yield term


def term_from_python(value: object) -> Term:
    """Coerce a Python value into an RDF term.

    Strings that look like IRIs (``http://`` / ``https://`` / ``urn:``) become
    :class:`IRI`; every other scalar becomes a typed :class:`Literal`.  Terms
    pass through unchanged.
    """
    if isinstance(value, Term):
        return value
    if isinstance(value, str):
        if value.startswith(("http://", "https://", "urn:")):
            return IRI(value)
        return Literal(value)
    if isinstance(value, (bool, int, float)):
        return Literal(value)
    raise TermError(f"cannot convert {type(value).__name__} to an RDF term")


def python_from_term(term: Term) -> object:
    """Convert an RDF term to a plain Python value (IRIs become strings)."""
    if isinstance(term, Literal):
        return term.to_python()
    if isinstance(term, IRI):
        return term.value
    if isinstance(term, BNode):
        return term.n3()
    if isinstance(term, Variable):
        return term.n3()
    raise TermError(f"unsupported term type: {type(term).__name__}")
