"""N-Triples and Turtle-lite parsing and serialization.

The parser supports the subset of Turtle actually needed to load and dump the
reproduction's knowledge graphs:

* ``@prefix`` / ``PREFIX`` declarations,
* prefixed names and full IRIs,
* literals with datatypes, language tags, and the numeric / boolean shortcuts,
* ``a`` as shorthand for ``rdf:type``,
* predicate lists (``;``) and object lists (``,``),
* blank node labels (``_:b1``) and anonymous blank nodes (``[...]``,
  including nested predicate lists inside the brackets),
* RDF collections ``( ... )``, desugared into the standard
  ``rdf:first``/``rdf:rest`` chains of fresh blank nodes (``()`` is
  ``rdf:nil``), nestable and usable in subject and object positions,
* all four literal quoting forms — ``"..."``, ``'...'``, ``\"\"\"...\"\"\"``
  and ``'''...'''`` (the long forms may span lines and embed unescaped
  quotes),
* the full string-escape repertoire in literals (``\\n``, ``\\t``, ``\\"``,
  ...) plus numeric ``\\uXXXX`` / ``\\UXXXXXXXX`` escapes in literals *and*
  IRIs (where Turtle permits only the numeric forms),
* comments (``# ...``).

That subset is a strict superset of N-Triples, so the same parser reads both.
Genuinely unsupported syntax still raises a
:class:`~repro.exceptions.ParseError`.
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator, List, Optional, TextIO, Union

from repro.exceptions import ParseError
from repro.rdf.graph import Graph
from repro.rdf.namespace import NamespaceManager
from repro.rdf.terms import (
    IRI,
    BNode,
    Literal,
    Term,
    Triple,
    RDF_FIRST,
    RDF_NIL,
    RDF_REST,
    RDF_TYPE,
    XSD_BOOLEAN,
    XSD_DOUBLE,
    XSD_INTEGER,
)

__all__ = [
    "parse_turtle",
    "parse_ntriples",
    "iter_turtle",
    "serialize_ntriples",
    "serialize_turtle",
    "load_graph",
    "dump_graph",
]

_TOKEN_RE = re.compile(
    r"""
    (?P<comment>\#[^\n]*)
  | (?P<iri><[^>]*>)
  | (?P<literal>"{3}(?:[^"\\]|\\.|"(?!""))*"{3}
               |'{3}(?:[^'\\]|\\.|'(?!''))*'{3}
               |"(?:[^"\\]|\\.)*"
               |'(?:[^'\\]|\\.)*')
  | (?P<prefix_decl>@prefix|@base|PREFIX\b|BASE\b)
  | (?P<langtag>@[a-zA-Z][a-zA-Z0-9-]*)
  | (?P<datatype_marker>\^\^)
  | (?P<bnode>_:[A-Za-z0-9_.-]+)
  | (?P<number>[+-]?\d+\.\d+(?:[eE][+-]?\d+)?|[+-]?\d+(?:[eE][+-]?\d+)?)
  | (?P<boolean>\btrue\b|\bfalse\b)
  | (?P<a_keyword>\ba\b(?!\s*:))
  | (?P<pname>[A-Za-z_][\w-]*)?:(?P<plocal>[A-Za-z0-9_](?:[\w\-/%]|\.(?=[\w\-/%]))*)?
  | (?P<punct>[;,.\[\]()])
  | (?P<ws>\s+)
    """,
    re.VERBOSE,
)


class _Token:
    __slots__ = ("kind", "value", "line")

    def __init__(self, kind: str, value: str, line: int) -> None:
        self.kind = kind
        self.value = value
        self.line = line

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"_Token({self.kind}, {self.value!r}, line={self.line})"


#: Characters pulled per ``read()`` when tokenizing a file-like source.
_CHUNK_SIZE = 1 << 16

#: A match this close to the buffer's end may grow with more input, so the
#: tokenizer refills before emitting.  Three characters cover the longest
#: ambiguous continuation: a number's ``e+``/``e-`` exponent prefix (the
#: digits themselves extend the match to the buffer end, re-triggering the
#: refill) and the ``.`` that may either terminate a statement or continue
#: a decimal / dotted qname local part.
_LOOKAHEAD_MARGIN = 3


def _tokenize(source: Union[str, Iterable[str]]) -> Iterator[_Token]:
    """Tokenize a string or an iterable of string chunks, statement-at-a-time.

    Chunked sources never concatenate into one big string: the scan keeps a
    rolling buffer of the current chunk plus any token tail that straddles a
    chunk boundary, so memory stays O(chunk + longest token) no matter how
    large the document is.  The boundary rules:

    * **no match** at the buffer head — pull more input before declaring the
      character illegal (it may be the first byte of a multi-char token);
    * **match running within** :data:`_LOOKAHEAD_MARGIN` **of the buffer's
      end** — pull more input and re-match: almost any token (IRI, literal,
      number, qname, ``@prefix``, even whitespace) can continue in the next
      chunk, and some need more than one character of lookahead to
      disambiguate (``3`` + ``.14`` is one number but ``3`` + ``. ex:s`` is
      a number and a statement terminator; ``1e`` + ``+5``, ``ex:a`` +
      ``.b`` likewise);
    * **a short-string match that is really a long-form opener** — a buffer
      holding ``\"\"\"abc`` matches the *empty* short literal ``\"\"`` with
      the third quote still unconsumed; emitting it would mis-parse every
      long literal whose body outruns the chunk, so a 2-quote match followed
      by its own quote character retains and extends instead.
    """
    chunks = iter((source,) if isinstance(source, str) else source)
    buffer = ""
    pos = 0
    line = 1
    exhausted = False

    def refill() -> bool:
        """Drop the consumed prefix, append the next non-empty chunk."""
        nonlocal buffer, pos, exhausted
        while not exhausted:
            try:
                chunk = next(chunks)
            except StopIteration:
                exhausted = True
                break
            if chunk:
                buffer = buffer[pos:] + chunk
                pos = 0
                return True
        return False

    while True:
        if pos >= len(buffer):
            if refill():
                continue
            return
        match = _TOKEN_RE.match(buffer, pos)
        if match is None:
            if refill():
                continue
            raise ParseError(f"unexpected character {buffer[pos]!r}", line=line)
        value = match.group(0)
        end = match.end()
        if not exhausted:
            if len(buffer) - end < _LOOKAHEAD_MARGIN:
                if refill():
                    continue
            elif (len(value) == 2 and value in ('""', "''")
                    and buffer[end] == value[0]):
                # ``"""`` prefix mistaken for an empty short string: the
                # closing triple-quote hasn't arrived yet.
                if refill():
                    continue
        kind = match.lastgroup
        line += value.count("\n")
        pos = end
        if kind in ("ws", "comment"):
            continue
        if kind == "plocal" or kind == "pname":
            # A prefixed name matched; reconstruct "prefix:local".
            yield _Token("qname", value, line)
            continue
        yield _Token(kind, value, line)


def _iter_chunks(source: TextIO) -> Iterator[str]:
    """Drain a file-like object in :data:`_CHUNK_SIZE` chunks."""
    while True:
        chunk = source.read(_CHUNK_SIZE)
        if not chunk:
            return
        yield chunk


#: One pass over every escape form: numeric (``\uXXXX`` / ``\UXXXXXXXX``)
#: and single-character string escapes.  A single regex substitution is the
#: only correct shape here — sequential ``str.replace`` calls re-scan their
#: own output, so ``\\n`` (an escaped backslash before an ``n``) would decode
#: to a newline instead of ``\n``.
_ESCAPE_RE = re.compile(
    r"\\(?:u([0-9A-Fa-f]{4})|U([0-9A-Fa-f]{8})|(.))", re.DOTALL)

_STRING_ESCAPES = {
    "t": "\t", "b": "\b", "n": "\n", "r": "\r", "f": "\f",
    '"': '"', "'": "'", "\\": "\\",
}


def _decode_codepoint(hex_digits: str, line: Optional[int]) -> str:
    """One validated ``\\u``/``\\U`` code point.

    Surrogates are rejected here, not merely discouraged: ``chr(0xD800)``
    builds a Python string that cannot be UTF-8 encoded, so letting one
    through turns into a ``UnicodeEncodeError`` deep inside the WAL or the
    HTTP response writer instead of a parse error at the offending line
    (Turtle's UCHAR production excludes surrogates for exactly this reason).
    """
    code_point = int(hex_digits, 16)
    if code_point > 0x10FFFF:
        raise ParseError(f"\\U escape beyond U+10FFFF: \\U{hex_digits}",
                         line=line or 0)
    if 0xD800 <= code_point <= 0xDFFF:
        raise ParseError(
            f"numeric escape names a surrogate code point U+{code_point:04X}",
            line=line or 0)
    return chr(code_point)


def _unescape(value: str, line: Optional[int] = None) -> str:
    """Decode string-literal escapes, including ``\\u``/``\\U`` code points."""
    def replace(match: "re.Match[str]") -> str:
        short_hex, long_hex, char = match.groups()
        if short_hex is not None:
            return _decode_codepoint(short_hex, line)
        if long_hex is not None:
            return _decode_codepoint(long_hex, line)
        try:
            return _STRING_ESCAPES[char]
        except KeyError:
            raise ParseError(f"illegal escape sequence \\{char}", line=line or 0)
    return _ESCAPE_RE.sub(replace, value)


def _unescape_iri(value: str, line: Optional[int] = None) -> str:
    """Decode IRIREF escapes: Turtle allows ONLY ``\\u``/``\\U`` inside ``<>``."""
    def replace(match: "re.Match[str]") -> str:
        short_hex, long_hex, char = match.groups()
        if short_hex is not None:
            return _decode_codepoint(short_hex, line)
        if long_hex is not None:
            return _decode_codepoint(long_hex, line)
        raise ParseError(
            f"illegal escape sequence \\{char} in IRI (only \\uXXXX and "
            "\\UXXXXXXXX are allowed)", line=line or 0)
    return _ESCAPE_RE.sub(replace, value)


class _TurtleParser:
    """Recursive-descent parser over the token stream.

    The parser pulls tokens lazily through a one-slot lookahead, so a
    chunked source (see :func:`_tokenize`) is parsed statement-at-a-time:
    at no point do the tokens — let alone the text — of the whole document
    exist in memory at once.
    """

    def __init__(self, source: Union[str, Iterable[str]],
                 namespaces: Optional[NamespaceManager] = None) -> None:
        self._tokens: Iterator[_Token] = _tokenize(source)
        self._lookahead: Optional[_Token] = None
        self.namespaces = namespaces or NamespaceManager()
        self.base: Optional[str] = None
        #: Triples produced while parsing anonymous blank nodes (``[...]``);
        #: drained into the statement's output after each top-level triple.
        self._pending: List[Triple] = []

    # -- token helpers ------------------------------------------------------
    def _peek(self) -> Optional[_Token]:
        if self._lookahead is None:
            self._lookahead = next(self._tokens, None)
        return self._lookahead

    def _next(self) -> _Token:
        token = self._peek()
        if token is None:
            raise ParseError("unexpected end of input")
        self._lookahead = None
        return token

    def _expect_punct(self, char: str) -> None:
        token = self._next()
        if token.kind != "punct" or token.value != char:
            raise ParseError(f"expected {char!r}, got {token.value!r}", line=token.line)

    # -- grammar ------------------------------------------------------------
    def parse(self) -> Iterator[Triple]:
        while self._peek() is not None:
            token = self._peek()
            if token.kind == "prefix_decl":
                self._parse_directive()
            else:
                yield from self._parse_statement()

    def _parse_directive(self) -> None:
        directive = self._next()
        keyword = directive.value.lstrip("@").lower()
        if keyword == "prefix":
            name_token = self._next()
            if name_token.kind != "qname":
                raise ParseError("expected prefix name after @prefix",
                                 line=name_token.line)
            prefix = name_token.value.rstrip(":")
            iri_token = self._next()
            if iri_token.kind != "iri":
                raise ParseError("expected IRI after prefix name", line=iri_token.line)
            self.namespaces.bind(
                prefix, _unescape_iri(iri_token.value[1:-1], line=iri_token.line))
        elif keyword == "base":
            iri_token = self._next()
            if iri_token.kind != "iri":
                raise ParseError("expected IRI after @base", line=iri_token.line)
            self.base = _unescape_iri(iri_token.value[1:-1], line=iri_token.line)
        else:  # pragma: no cover - unreachable given the token regex
            raise ParseError(f"unknown directive {directive.value!r}", line=directive.line)
        token = self._peek()
        if token is not None and token.kind == "punct" and token.value == ".":
            self._next()

    def _drain_pending(self) -> Iterator[Triple]:
        if self._pending:
            pending, self._pending = self._pending, []
            yield from pending

    def _parse_statement(self) -> Iterator[Triple]:
        token = self._peek()
        anon_subject = token is not None and token.kind == "punct" and token.value == "["
        subject = self._parse_term(position="subject")
        if anon_subject:
            nxt = self._peek()
            if nxt is not None and nxt.kind == "punct" and nxt.value == ".":
                # A blank node property list can be a whole statement:
                # ``[ :p :o ] .`` — the bracketed triples are the statement.
                self._next()
                yield from self._drain_pending()
                return
        while True:
            predicate = self._parse_term(position="predicate")
            while True:
                obj = self._parse_term(position="object")
                yield Triple(subject, predicate, obj)
                yield from self._drain_pending()
                token = self._peek()
                if token is not None and token.kind == "punct" and token.value == ",":
                    self._next()
                    continue
                break
            token = self._peek()
            if token is not None and token.kind == "punct" and token.value == ";":
                self._next()
                nxt = self._peek()
                # A dangling ';' before '.' is legal Turtle.
                if nxt is not None and nxt.kind == "punct" and nxt.value == ".":
                    self._next()
                    return
                continue
            self._expect_punct(".")
            return

    def _parse_anon_body(self, line: int) -> BNode:
        """Parse ``[...]`` (the ``[`` is already consumed) into a fresh BNode.

        The predicate list inside the brackets (which may nest further
        anonymous nodes) is buffered on ``self._pending``; the caller drains
        it into the statement's triple stream.
        """
        node = BNode()
        token = self._peek()
        if token is not None and token.kind == "punct" and token.value == "]":
            self._next()  # empty anonymous node: []
            return node
        while True:
            predicate = self._parse_term(position="predicate")
            while True:
                obj = self._parse_term(position="object")
                self._pending.append(Triple(node, predicate, obj))
                token = self._peek()
                if token is not None and token.kind == "punct" and token.value == ",":
                    self._next()
                    continue
                break
            token = self._peek()
            if token is not None and token.kind == "punct" and token.value == ";":
                self._next()
                nxt = self._peek()
                # A dangling ';' before ']' is legal, as before '.'.
                if nxt is not None and nxt.kind == "punct" and nxt.value == "]":
                    self._next()
                    return node
                continue
            self._expect_punct("]")
            return node

    def _parse_collection(self, line: int) -> Term:
        """Parse ``( ... )`` (the ``(`` is already consumed) into a list head.

        The collection desugars into the standard ``rdf:first``/``rdf:rest``
        chain of fresh blank nodes, buffered on ``self._pending`` just like
        anonymous-node bodies; the empty collection ``()`` is ``rdf:nil``
        and produces no triples.
        """
        token = self._peek()
        if token is None:
            raise ParseError("unterminated collection", line=line)
        if token.kind == "punct" and token.value == ")":
            self._next()
            return RDF_NIL
        head = BNode()
        node = head
        while True:
            item = self._parse_term(position="object")
            self._pending.append(Triple(node, RDF_FIRST, item))
            token = self._peek()
            if token is None:
                raise ParseError("unterminated collection", line=line)
            if token.kind == "punct" and token.value == ")":
                self._next()
                self._pending.append(Triple(node, RDF_REST, RDF_NIL))
                return head
            tail = BNode()
            self._pending.append(Triple(node, RDF_REST, tail))
            node = tail

    def _parse_term(self, position: str) -> Term:
        token = self._next()
        if token.kind == "punct" and token.value == "[":
            if position == "predicate":
                raise ParseError("an anonymous blank node cannot be a predicate",
                                 line=token.line)
            return self._parse_anon_body(token.line)
        if token.kind == "punct" and token.value == "(":
            if position == "predicate":
                raise ParseError("a collection cannot be a predicate",
                                 line=token.line)
            return self._parse_collection(token.line)
        if token.kind == "iri":
            value = _unescape_iri(token.value[1:-1], line=token.line)
            if self.base and not re.match(r"^[A-Za-z][A-Za-z0-9+.-]*:", value):
                value = self.base + value
            return IRI(value)
        if token.kind == "qname":
            return self.namespaces.expand(token.value)
        if token.kind == "a_keyword":
            if position != "predicate":
                raise ParseError("'a' is only valid in the predicate position",
                                 line=token.line)
            return RDF_TYPE
        if token.kind == "bnode":
            return BNode(token.value[2:])
        if token.kind == "literal":
            # Long strings carry three quote characters on each side.
            width = 3 if token.value[:3] in ('"""', "'''") else 1
            lexical = _unescape(token.value[width:-width], line=token.line)
            nxt = self._peek()
            if nxt is not None and nxt.kind == "langtag":
                self._next()
                return Literal(lexical, language=nxt.value[1:])
            if nxt is not None and nxt.kind == "datatype_marker":
                self._next()
                dt_token = self._next()
                if dt_token.kind == "iri":
                    datatype = IRI(_unescape_iri(dt_token.value[1:-1],
                                                 line=dt_token.line))
                elif dt_token.kind == "qname":
                    datatype = self.namespaces.expand(dt_token.value)
                else:
                    raise ParseError("expected datatype IRI after ^^", line=dt_token.line)
                return Literal(lexical, datatype=datatype)
            return Literal(lexical)
        if token.kind == "number":
            if "." in token.value or "e" in token.value or "E" in token.value:
                return Literal(token.value, datatype=XSD_DOUBLE)
            return Literal(token.value, datatype=XSD_INTEGER)
        if token.kind == "boolean":
            return Literal(token.value, datatype=XSD_BOOLEAN)
        raise ParseError(f"unexpected token {token.value!r} in {position} position",
                         line=token.line)


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------

def _as_chunk_source(source: Union[str, TextIO]) -> Union[str, Iterator[str]]:
    """Normalize a string / file-like source for the chunked tokenizer."""
    if hasattr(source, "read"):
        return _iter_chunks(source)
    return source


def parse_turtle(text: Union[str, TextIO]) -> Graph:
    """Parse Turtle-lite ``text`` (a string or file-like) into a new graph."""
    graph = Graph()
    parser = _TurtleParser(_as_chunk_source(text), namespaces=graph.namespaces)
    graph.add_all(parser.parse())
    return graph


def iter_turtle(text: Union[str, TextIO],
                namespaces: Optional[NamespaceManager] = None) -> Iterator[Triple]:
    """Stream triples out of Turtle-lite ``text`` without building a graph.

    ``text`` may be a string or an open file-like object; file-likes are
    read in :data:`_CHUNK_SIZE` pieces, never drained whole.  This is the
    parser entry point the streaming bulk loader
    (:mod:`repro.storage.bulkload`) feeds from: triples come out one at a
    time as the recursive-descent parser produces them, so a caller can
    batch them straight into id-space indexes instead of materialising a
    triple list (or an intermediate :class:`Graph`) first.
    """
    parser = _TurtleParser(_as_chunk_source(text), namespaces=namespaces)
    return parser.parse()


def parse_ntriples(text: str) -> Graph:
    """Parse N-Triples ``text`` into a new graph; identical to
    :func:`parse_turtle`."""
    return parse_turtle(text)


def serialize_ntriples(graph: Iterable[Triple]) -> str:
    """Serialize triples as canonical N-Triples (one triple per line, sorted)."""
    lines = sorted(triple.n3() for triple in graph)
    return "\n".join(lines) + ("\n" if lines else "")


def serialize_turtle(graph: Graph) -> str:
    """Serialize a graph as compact Turtle grouped by subject."""
    manager = graph.namespaces
    lines: List[str] = [
        f"@prefix {prefix}: <{base}> ." for prefix, base in manager.prefixes()
    ]
    if lines:
        lines.append("")

    def render(term: Term) -> str:
        if isinstance(term, IRI):
            short = manager.shrink(term)
            return short if short is not None else term.n3()
        return term.n3()

    by_subject = {}
    for s, p, o in graph:
        by_subject.setdefault(s, []).append((p, o))
    for subject in sorted(by_subject, key=lambda t: t.sort_key()):
        pairs = sorted(by_subject[subject], key=lambda po: (po[0].sort_key(), po[1].sort_key()))
        rendered = [f"    {render(p)} {render(o)}" for p, o in pairs]
        lines.append(render(subject) + "\n" + " ;\n".join(rendered) + " .")
    return "\n".join(lines) + ("\n" if lines else "")


def load_graph(source: Union[str, TextIO]) -> Graph:
    """Load a new graph from a file path or file-like object.

    Either way the serialized text streams through the chunked tokenizer —
    the document is never held in memory whole.
    """
    if hasattr(source, "read"):
        return parse_turtle(source)
    with open(source, "r", encoding="utf-8") as handle:
        return parse_turtle(handle)


def dump_graph(graph: Graph, destination: Union[str, TextIO],
               fmt: str = "turtle") -> None:
    """Write a graph to a file path or file-like object.

    ``fmt`` is ``"turtle"`` or ``"ntriples"``.
    """
    if fmt == "turtle":
        text = serialize_turtle(graph)
    elif fmt in ("ntriples", "nt"):
        text = serialize_ntriples(graph)
    else:
        raise ParseError(f"unknown serialization format {fmt!r}")
    if hasattr(destination, "write"):
        destination.write(text)
    else:
        with open(destination, "w", encoding="utf-8") as handle:
            handle.write(text)
