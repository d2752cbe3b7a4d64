"""Streaming SPARQL 1.1 result serialization and content negotiation.

This module is the wire half of the results API: it turns the in-memory
evaluation results (:class:`~repro.sparql.results.core.ResultSet`, the ASK
``bool``, the CONSTRUCT :class:`~repro.rdf.graph.Graph`) into the standard
SPARQL 1.1 response formats a stock client understands:

* ``application/sparql-results+json``  (SPARQL 1.1 Query Results JSON),
* ``application/sparql-results+xml``   (SPARQL Query Results XML),
* ``text/csv`` / ``text/tab-separated-values`` (SELECT only, per the W3C
  CSV/TSV results note),
* ``application/n-triples`` / ``text/turtle`` for CONSTRUCT graphs.

Every writer is a generator yielding **bytes** fragments — header first,
then one fragment per batch of at most 256 rows — so an HTTP transport can
stream an arbitrarily large result with chunked transfer encoding while
holding only one batch's serialization in memory, and write each fragment to
the socket without a second str→bytes copy.  SELECT results arrive from the
evaluator as rows of *term ids*; the writers never decode them: each format
keeps an id → encoded-fragment table per term dictionary (see "Persistent
encoding memos" below) and a batch of rows is one ``%`` of the result's
compiled row template, repeated per row, over its cells' fragments (see
"Row templates").
:func:`envelope_rows` writes the rows of the ``kgnet/v1`` JSON envelope the
same way, from the same tables.
:func:`negotiate_media_type` implements ``Accept``-header negotiation
(q-values, ``type/*`` and ``*/*`` ranges) over the formats applicable to a
given result kind and raises :class:`NotAcceptable` when the client's
preferences cannot be met.
"""

from __future__ import annotations

import json
import operator
import re
import weakref
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.exceptions import NotAcceptable, QueryError
from repro.rdf.graph import Graph
from repro.rdf.terms import (
    BNode, IRI, Literal, Term, Variable, XSD_STRING, python_from_term)
from repro.sparql.execution import BATCH_ROWS, StreamingResult
from repro.sparql.results.core import ResultSet

__all__ = [
    "MEDIA_JSON",
    "MEDIA_XML",
    "MEDIA_CSV",
    "MEDIA_TSV",
    "NotAcceptable",
    "negotiate",
    "negotiate_media_type",
    "require_acceptable",
    "envelope_rows",
    "serialize_result",
]

MEDIA_JSON = "application/sparql-results+json"
MEDIA_XML = "application/sparql-results+xml"
MEDIA_CSV = "text/csv"
MEDIA_TSV = "text/tab-separated-values"
MEDIA_NTRIPLES = "application/n-triples"
MEDIA_TURTLE = "text/turtle"

#: Formats offered for SELECT results, in server preference order (the first
#: acceptable one wins ties).  ``application/json`` is a courtesy alias many
#: generic HTTP clients send; it serves the SPARQL JSON format.
RESULT_MEDIA_TYPES: Tuple[str, ...] = (
    MEDIA_JSON, MEDIA_XML, MEDIA_CSV, MEDIA_TSV, "application/json")

#: Formats offered for ASK results (the CSV/TSV note covers SELECT only).
BOOLEAN_MEDIA_TYPES: Tuple[str, ...] = (MEDIA_JSON, MEDIA_XML, "application/json")

#: Formats offered for CONSTRUCT graphs.
GRAPH_MEDIA_TYPES: Tuple[str, ...] = (MEDIA_NTRIPLES, MEDIA_TURTLE, "text/plain")

#: Every media type some result kind can serialize to — the cheap pre-check
#: a server runs BEFORE executing a query, so a hopeless ``Accept`` header
#: costs a 406, not a full evaluation (exact per-kind negotiation still
#: happens on the result).
ALL_MEDIA_TYPES: Tuple[str, ...] = tuple(dict.fromkeys(
    RESULT_MEDIA_TYPES + BOOLEAN_MEDIA_TYPES + GRAPH_MEDIA_TYPES))

_XMLNS = "http://www.w3.org/2005/sparql-results#"


# ---------------------------------------------------------------------------
# Content negotiation
# ---------------------------------------------------------------------------

def parse_accept(header: Optional[str]) -> List[Tuple[str, float]]:
    """Parse an ``Accept`` header into ``(media_range, q)`` pairs.

    Pairs come back in client preference order: descending q, then more
    specific ranges before wildcards, then header order.  Malformed entries
    (bad q-values, empty ranges) are skipped rather than rejected — the
    header is advisory and a sloppy client should still get an answer.
    """
    if not header:
        return []
    entries: List[Tuple[str, float, int, int]] = []
    for index, part in enumerate(header.split(",")):
        pieces = part.strip().split(";")
        media = pieces[0].strip().lower()
        if not media or "/" not in media:
            continue
        quality = 1.0
        for param in pieces[1:]:
            name, _, value = param.strip().partition("=")
            if name.strip().lower() == "q":
                try:
                    quality = float(value.strip())
                except ValueError:
                    quality = 1.0
                quality = min(max(quality, 0.0), 1.0)
        if media == "*/*":
            specificity = 0
        elif media.endswith("/*"):
            specificity = 1
        else:
            specificity = 2
        entries.append((media, quality, specificity, index))
    entries.sort(key=lambda e: (-e[1], -e[2], e[3]))
    return [(media, quality) for media, quality, _, _ in entries]


def _range_matches(media_range: str, offered: str) -> bool:
    if media_range == "*/*":
        return True
    if media_range.endswith("/*"):
        return offered.split("/", 1)[0] == media_range.split("/", 1)[0]
    return media_range == offered


#: Memo for :func:`negotiate`: real clients send a handful of distinct
#: ``Accept`` headers against a handful of offer tuples, so the hot path is
#: one dict probe.  Bounded against hostile header churn; cleared, not
#: evicted, on overflow (negotiation is pure, so entries never go stale).
_NEGOTIATE_MEMO: dict = {}
_NEGOTIATE_MEMO_LIMIT = 1024


def negotiate(accept: Optional[str], offered: Sequence[str]) -> Optional[str]:
    """Pick the best of ``offered`` for an ``Accept`` header.

    No header (or an empty one) means "anything": the server's first offer
    wins.  Per RFC 9110 each offered type's effective quality comes from the
    *most specific* matching range — so ``type;q=0, */*`` excludes ``type``
    while still accepting everything else (a plain first-match walk would
    hand back exactly the format the client vetoed).  Ties in quality break
    toward the server's offer order.  Returns None when nothing survives.
    """
    key = (accept, tuple(offered))
    try:
        return _NEGOTIATE_MEMO[key]
    except (KeyError, TypeError):
        pass
    best = _negotiate_uncached(accept, offered)
    try:
        if len(_NEGOTIATE_MEMO) >= _NEGOTIATE_MEMO_LIMIT:
            _NEGOTIATE_MEMO.clear()
        _NEGOTIATE_MEMO[key] = best
    except TypeError:
        pass  # unhashable accept value; just skip the memo
    return best


def _negotiate_uncached(accept: Optional[str],
                        offered: Sequence[str]) -> Optional[str]:
    ranges = parse_accept(accept)
    if not ranges:
        return offered[0] if offered else None
    best: Optional[str] = None
    best_quality = 0.0
    for candidate in offered:
        quality = 0.0
        specificity = -1
        for media_range, range_quality in ranges:
            if not _range_matches(media_range, candidate):
                continue
            if media_range == "*/*":
                range_spec = 0
            elif media_range.endswith("/*"):
                range_spec = 1
            else:
                range_spec = 2
            # parse_accept sorts by descending q, so the first match at the
            # highest specificity carries that specificity's best q.
            if range_spec > specificity:
                specificity = range_spec
                quality = range_quality
        if quality > best_quality:
            best = candidate
            best_quality = quality
    return best


def negotiate_media_type(accept: Optional[str], result: object) -> str:
    """Negotiate the response format for one evaluation result.

    ``result`` decides the offer: :class:`ResultSet` offers the four SELECT
    formats, ``bool`` the JSON/XML boolean formats, :class:`Graph` the RDF
    serializations.  Raises :class:`NotAcceptable` when negotiation fails.
    """
    if isinstance(result, (ResultSet, StreamingResult)):
        offered: Sequence[str] = RESULT_MEDIA_TYPES
    elif isinstance(result, bool):
        offered = BOOLEAN_MEDIA_TYPES
    elif isinstance(result, Graph):
        offered = GRAPH_MEDIA_TYPES
    else:
        raise QueryError(
            f"no media types exist for result type {type(result).__name__}")
    return require_acceptable(accept, offered)


def require_acceptable(accept: Optional[str], offered: Sequence[str]) -> str:
    """:func:`negotiate`, raising :class:`NotAcceptable` when nothing survives."""
    chosen = negotiate(accept, offered)
    if chosen is None:
        raise NotAcceptable(
            f"no acceptable result format for Accept: {accept or ''!r}; "
            f"supported: {', '.join(offered)}", offered)
    return chosen


# ---------------------------------------------------------------------------
# Term encodings
# ---------------------------------------------------------------------------

def binding_json(term: Term) -> dict:
    """One RDF term as a SPARQL JSON results binding object."""
    if isinstance(term, IRI):
        return {"type": "uri", "value": term.value}
    if isinstance(term, BNode):
        return {"type": "bnode", "value": term.id}
    if isinstance(term, Literal):
        obj = {"type": "literal", "value": term.lexical}
        if term.language is not None:
            obj["xml:lang"] = term.language
        elif term.datatype != XSD_STRING:
            obj["datatype"] = term.datatype.value
        return obj
    raise QueryError(f"cannot serialize term type {type(term).__name__}")


#: Code points XML 1.0 cannot carry at all — not even as character
#: references.  Literals may legitimately hold them (the Turtle parser
#: accepts the ``\u0001`` escape); emitting them raw would make every conformant
#: client's XML parser reject the whole response, so they degrade to
#: U+FFFD in this one format (JSON/CSV/TSV represent them losslessly).
_XML_UNREPRESENTABLE = re.compile(r"[\x00-\x08\x0B\x0C\x0E-\x1F]")


def _xml_escape(text: str) -> str:
    """``&``, ``<`` and ``>`` as entity references, as
    ``xml.sax.saxutils.escape`` writes them (which would import
    ``urllib.request`` and the HTTP client stack into a server)."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _xml_attr(text: str) -> str:
    """``text`` as a quoted attribute value, as ``xml.sax.saxutils.quoteattr``
    writes it: escaped, with ``\\n``, ``\\r`` and ``\\t`` as character
    references, in single quotes when it holds ``"`` but no ``'``."""
    text = (_xml_escape(text).replace("\n", "&#10;").replace("\r", "&#13;")
            .replace("\t", "&#9;"))
    if '"' not in text:
        return f'"{text}"'
    if "'" not in text:
        return f"'{text}'"
    return '"' + text.replace('"', "&quot;") + '"'


def _xml_text(text: str) -> str:
    return _xml_escape(_XML_UNREPRESENTABLE.sub("�", text))


def _binding_body_xml(term: Term) -> str:
    """The element inside ``<binding name=...>`` for one term."""
    if isinstance(term, IRI):
        return f"<uri>{_xml_text(term.value)}</uri>"
    if isinstance(term, BNode):
        return f"<bnode>{_xml_text(term.id)}</bnode>"
    if isinstance(term, Literal):
        text = _xml_text(term.lexical)
        if term.language is not None:
            return f"<literal xml:lang={_xml_attr(term.language)}>{text}</literal>"
        if term.datatype != XSD_STRING:
            return (f"<literal datatype={_xml_attr(term.datatype.value)}>"
                    f"{text}</literal>")
        return f"<literal>{text}</literal>"
    raise QueryError(f"cannot serialize term type {type(term).__name__}")


def _csv_value(term: Term) -> str:
    """W3C CSV results encoding: raw lexical forms, RFC 4180 quoting."""
    if isinstance(term, BNode):
        value = f"_:{term.id}"
    elif isinstance(term, IRI):
        value = term.value
    else:
        value = term.lexical  # type: ignore[union-attr]
    if any(ch in value for ch in (",", '"', "\n", "\r")):
        return '"' + value.replace('"', '""') + '"'
    return value


# ---------------------------------------------------------------------------
# Persistent encoding memos
# ---------------------------------------------------------------------------
#
# A SELECT writer is handed rows of *cells* plus an :class:`_Encoder`, the
# cell -> wire-fragment table of its format.  Evaluator output carries term
# ids, so its table is indexed by id, one per (dictionary, format): ids are
# never reused, so an entry never goes stale, and a predicate that appears
# in ten thousand rows across ten thousand requests is escaped and
# UTF-8-encoded once per process — found again by an int-keyed probe, with no
# term hashed and none decoded.  Results built from ``Solution`` objects
# (parsed responses, hand-made result sets) carry the terms themselves and
# share one term-keyed table per format.  Tables fill lazily, are bounded
# (cleared, not evicted, on overflow: worst case a re-encode, never a wrong
# fragment) and need no lock — dict get/set is atomic under the GIL, a race
# costs one duplicate encode.

_TERM_MEMO_LIMIT = 1 << 16


class _Encoder:
    """``cell -> bytes`` for one wire format, over one fragment table.

    An id encoder serves one query's result; the query's private (negative)
    ids are remembered in a table of the encoder's own, never in the shared
    one.
    """

    __slots__ = ("memo", "get", "_encode", "_decode", "_private")

    def __init__(self, memo: dict, encode: Callable[[Term], str],
                 decode: Optional[Callable[[int], Term]] = None) -> None:
        self.memo = memo
        #: The hot-path probe; ``None`` (or an empty fragment) = :meth:`miss`.
        self.get = memo.get
        self._encode = encode
        self._decode = decode
        self._private: dict = {}

    def miss(self, cell) -> bytes:
        table = self.memo if self._decode is None or cell >= 0 else self._private
        fragment = table.get(cell)
        if fragment is None:
            term = cell if self._decode is None else self._decode(cell)
            fragment = self._encode(term).encode("utf-8")
            if len(table) >= _TERM_MEMO_LIMIT:
                table.clear()
            table[cell] = fragment
        return fragment


def _json_fragment(term: Term) -> str:
    return json.dumps(binding_json(term), separators=(",", ":"))


def _value_fragment(term: Term) -> str:
    """A cell of the JSON envelope: the term's plain-Python value."""
    return json.dumps(python_from_term(term))


#: format -> term-level encoding of one *bound* cell ("value" is the
#: ``kgnet/v1`` envelope's, the other four the protocol's).
_CELL_ENCODINGS = {"json": _json_fragment, "xml": _binding_body_xml,
                   "csv": _csv_value, "tsv": operator.methodcaller("n3"),
                   "value": _value_fragment}

#: format -> term-keyed table (results that carry terms, not ids).
_TERM_MEMOS: dict = {form: {} for form in _CELL_ENCODINGS}

#: dictionary -> {format: id-keyed table}; dies with the dictionary.
_ID_MEMOS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _encoder_for(form: str, terms) -> _Encoder:
    """The encoder of ``form``: id-keyed when the rows carry ids (``terms``
    is the query's :class:`~repro.rdf.dictionary.DictionaryOverlay`)."""
    if terms is None:
        return _Encoder(_TERM_MEMOS[form], _CELL_ENCODINGS[form])
    tables = _ID_MEMOS.get(terms.dictionary)
    if tables is None:
        tables = _ID_MEMOS.setdefault(terms.dictionary,
                                      {form: {} for form in _CELL_ENCODINGS})
    return _Encoder(tables[form], _CELL_ENCODINGS[form], terms.decode)


# ---------------------------------------------------------------------------
# Row templates
# ---------------------------------------------------------------------------
#
# A SELECT writer compiles one ``%b`` template per result — the format's
# keys, tags or delimiters baked in, ``%`` escaped — and repeats it per
# batch size, so a batch whose cells are all in the memo is written as
# ``batch_template % cells``: one C-level format per batch instead of a
# concatenation per cell.  A cell the memo cannot answer (unbound, private
# to the query, or not encoded yet) probes as ``None``, which ``%b`` refuses
# with TypeError; that batch is then written cell by cell, which also fills
# the memo for the next one.  Both ways give the same bytes.

def _escaped(fragment: bytes) -> bytes:
    return fragment.replace(b"%", b"%%")


def _batch_writer(row_template: bytes, separator: bytes,
                  cell_by_cell: Callable[[Sequence[Sequence]], List[bytes]],
                  encoder: _Encoder) -> Callable[[Sequence[Sequence]], bytes]:
    """``write(batch)``: the batch's encoded rows joined by ``separator``.

    Every row must hold one cell per ``%b`` of ``row_template``.
    """
    get = encoder.get
    templates: dict = {}

    def write(batch: Sequence[Sequence]) -> bytes:
        template = templates.get(len(batch))
        if template is None:
            template = templates[len(batch)] = separator.join(
                [row_template] * len(batch))
        try:
            return template % tuple(map(get, chain.from_iterable(batch)))
        except TypeError:
            return separator.join(cell_by_cell(batch))
    return write


def _json_writer(variables: Sequence[Variable],
                 encoder: _Encoder) -> Callable[[Sequence[Sequence]], bytes]:
    """``write(batch)``: each row as the JSON object of its bound cells,
    comma-separated."""
    keys = [(encode_basestring_ascii(v.name) + ":").encode("ascii")
            for v in variables]
    get, miss = encoder.get, encoder.miss

    def cell_by_cell(batch: Sequence[Sequence]) -> List[bytes]:
        return [b"{" + b",".join([key + (get(cell) or miss(cell))
                                  for key, cell in zip(keys, row)
                                  if cell is not None]) + b"}"
                for row in batch]

    template = b"{" + b",".join([_escaped(key) + b"%b" for key in keys]) + b"}"
    return _batch_writer(template, b",", cell_by_cell, encoder)


# ---------------------------------------------------------------------------
# Streaming writers (generators of bytes fragments)
# ---------------------------------------------------------------------------
#
# Each SELECT writer takes the projected variables, an iterator of non-empty
# row *batches* (rows aligned with the variables, ``None`` = unbound) and the
# format's encoder, and yields the header, then one fragment per batch.

def write_select_json(variables: Sequence[Variable],
                      batches: Iterable[Sequence[Sequence]],
                      encoder: _Encoder) -> Iterator[bytes]:
    head = json.dumps({"head": {"vars": [v.name for v in variables]}},
                      separators=(",", ":"))
    yield (head[:-1] + ',"results":{"bindings":[').encode("utf-8")
    write = _json_writer(variables, encoder)
    separator = b""
    for batch in batches:
        yield separator + write(batch)
        separator = b","
    yield b"]}}"


def write_ask_json(value: bool) -> Iterator[bytes]:
    yield json.dumps({"head": {}, "boolean": bool(value)},
                     separators=(",", ":")).encode("utf-8")


def write_select_xml(variables: Sequence[Variable],
                     batches: Iterable[Sequence[Sequence]],
                     encoder: _Encoder) -> Iterator[bytes]:
    head = "".join(f'<variable name={_xml_attr(v.name)}/>' for v in variables)
    yield (f'<?xml version="1.0"?>\n<sparql xmlns="{_XMLNS}">'
           f"<head>{head}</head><results>").encode("utf-8")
    opens = [f"<binding name={_xml_attr(v.name)}>".encode("utf-8")
             for v in variables]
    get, miss = encoder.get, encoder.miss

    def cell_by_cell(batch: Sequence[Sequence]) -> List[bytes]:
        return [b"<result>" + b"".join([
            tag + (get(cell) or miss(cell)) + b"</binding>"
            for tag, cell in zip(opens, row) if cell is not None]) + b"</result>"
            for row in batch]

    template = (b"<result>"
                + b"".join([_escaped(tag) + b"%b</binding>" for tag in opens])
                + b"</result>")
    write = _batch_writer(template, b"", cell_by_cell, encoder)
    for batch in batches:
        yield write(batch)
    yield b"</results></sparql>"


def write_ask_xml(value: bool) -> Iterator[bytes]:
    yield (f'<?xml version="1.0"?>\n<sparql xmlns="{_XMLNS}">'
           f"<head></head><boolean>{'true' if value else 'false'}</boolean>"
           "</sparql>").encode("utf-8")


def _write_delimited(names: Sequence[str], delimiter: bytes, newline: bytes,
                     batches: Iterable[Sequence[Sequence]],
                     encoder: _Encoder) -> Iterator[bytes]:
    yield delimiter.join([name.encode("utf-8") for name in names]) + newline
    get, miss = encoder.get, encoder.miss

    def cell_by_cell(batch: Sequence[Sequence]) -> List[bytes]:
        return [delimiter.join([b"" if cell is None else get(cell) or miss(cell)
                                for cell in row])
                for row in batch]

    template = _escaped(delimiter).join([b"%b"] * len(names))
    write = _batch_writer(template, newline, cell_by_cell, encoder)
    for batch in batches:
        yield write(batch) + newline


def write_select_csv(variables: Sequence[Variable],
                     batches: Iterable[Sequence[Sequence]],
                     encoder: _Encoder) -> Iterator[bytes]:
    return _write_delimited([v.name for v in variables], b",", b"\r\n",
                            batches, encoder)


def write_select_tsv(variables: Sequence[Variable],
                     batches: Iterable[Sequence[Sequence]],
                     encoder: _Encoder) -> Iterator[bytes]:
    return _write_delimited([f"?{v.name}" for v in variables], b"\t", b"\n",
                            batches, encoder)


def write_graph_ntriples(graph: Graph) -> Iterator[bytes]:
    # N-Triples terms are spelled like TSV cells: one table serves both.
    encoder = _encoder_for("tsv", None)
    get, miss = encoder.get, encoder.miss
    for triple in graph:
        yield b" ".join([get(term) or miss(term) for term in triple]) + b" .\n"


def write_graph_turtle(graph: Graph) -> Iterator[bytes]:
    # Turtle groups statements by subject, which needs the whole graph in
    # hand anyway; reuse the canonical writer and yield it in one fragment.
    from repro.rdf.io import serialize_turtle
    yield serialize_turtle(graph).encode("utf-8")


_SELECT_WRITERS = {
    MEDIA_JSON: (write_select_json, "json"),
    "application/json": (write_select_json, "json"),
    MEDIA_XML: (write_select_xml, "xml"),
    MEDIA_CSV: (write_select_csv, "csv"),
    MEDIA_TSV: (write_select_tsv, "tsv"),
}

_BOOLEAN_WRITERS = {
    MEDIA_JSON: write_ask_json,
    "application/json": write_ask_json,
    MEDIA_XML: write_ask_xml,
}

_GRAPH_WRITERS = {
    MEDIA_NTRIPLES: write_graph_ntriples,
    "text/plain": write_graph_ntriples,
    MEDIA_TURTLE: write_graph_turtle,
}


def _finishing_batches(result: StreamingResult) -> Iterator[Sequence]:
    """Drain a lazy SELECT, reporting the row count on clean exhaustion.

    A mid-stream :class:`~repro.exceptions.QueryInterrupted` propagates out
    through the writer (the transport turns it into a cut stream); ``finish``
    only fires for complete results, so statistics never describe a partial
    drain as a full one.
    """
    rows = 0
    for batch in result.batches:
        rows += len(batch)
        yield batch
    result.finish(rows)


def _sliced(rows: Sequence[Sequence]) -> Iterator[Sequence[Sequence]]:
    return (rows[start:start + BATCH_ROWS]
            for start in range(0, len(rows), BATCH_ROWS))


def _result_rows(result: ResultSet) -> Tuple[List[Sequence], object]:
    """``(rows, id decoder or None)`` of a materialised SELECT result."""
    rows = result.id_rows
    terms = result.terms
    if rows is None:
        variables = result.variables
        rows = [[solution.get(var) for var in variables] for solution in result]
    return rows, terms


def _select_batches(result) -> Tuple[Iterator[Sequence], object]:
    """``(row batches, id decoder or None)`` of a SELECT result."""
    if isinstance(result, StreamingResult):
        return _finishing_batches(result), result.terms
    rows, terms = _result_rows(result)
    return _sliced(rows), terms


def envelope_rows(result) -> Tuple[List[Sequence],
                                   Callable[[Sequence[Sequence]], bytes]]:
    """``(rows, write)`` of a SELECT result for the ``kgnet/v1`` envelope.

    ``rows`` are the result's rows as the evaluator left them (term ids, or
    terms); ``write(rows[i:j])`` is the JSON array of those rows, each the
    object ``{"var":value,...}`` of its bound cells, each value
    :func:`~repro.rdf.terms.python_from_term` of the cell's term — what
    ``ResultSet.to_python`` holds.  The JSON writer's batch loop writes it
    from the per-dictionary memo, so a page of id rows is never decoded into
    ``Solution`` objects.  A :class:`StreamingResult` is drained (and
    finished) here.
    """
    if isinstance(result, StreamingResult):
        rows = [row for batch in _finishing_batches(result) for row in batch]
        terms = result.terms
    else:
        rows, terms = _result_rows(result)
    write_batch = _json_writer(result.variables, _encoder_for("value", terms))

    def write(page: Sequence[Sequence]) -> bytes:
        return b"[" + b",".join([write_batch(batch)
                                 for batch in _sliced(page)]) + b"]"
    return rows, write


def serialize_result(result: object, media_type: str) -> Iterator[bytes]:
    """Serialize one evaluation result in ``media_type`` as a bytes stream.

    ``media_type`` must have come from :func:`negotiate_media_type` (or be
    one of the constants above); an inapplicable combination — CSV for an
    ASK, JSON for a graph — raises :class:`~repro.exceptions.QueryError`.
    A :class:`~repro.sparql.execution.StreamingResult` serializes batch by
    batch as the lazy pipeline produces them, which keeps the execution
    context's deadline and cancellation live for the whole transfer.
    """
    if isinstance(result, (ResultSet, StreamingResult)):
        writer, form = _SELECT_WRITERS.get(media_type, (None, None))
        if writer is not None:
            batches, terms = _select_batches(result)
            return writer(result.variables, batches, _encoder_for(form, terms))
    elif isinstance(result, bool):
        writer = _BOOLEAN_WRITERS.get(media_type)
        if writer is not None:
            return writer(result)
    elif isinstance(result, Graph):
        writer = _GRAPH_WRITERS.get(media_type)
        if writer is not None:
            return writer(result)
    raise QueryError(
        f"cannot serialize a {type(result).__name__} result as {media_type!r}")
