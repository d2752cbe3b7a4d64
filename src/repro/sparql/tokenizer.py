"""Tokenizer for the SPARQL subset used by the KGNet reproduction.

The tokenizer produces a flat list of :class:`Token` objects consumed by the
recursive-descent parser in :mod:`repro.sparql.parser`.  It understands the
lexical forms needed for both plain SPARQL and the SPARQL-ML surface syntax
(prefixed names with dots such as ``sql:UDFS.getNodeClass``, ``$``-variables,
JSON-ish braces inside ``TrainGML`` calls are handled at a higher level).
"""

from __future__ import annotations

import re
from typing import List

from repro.exceptions import ParseError

__all__ = ["Token", "tokenize"]

#: Keywords recognised case-insensitively.  Stored upper-case.
KEYWORDS = {
    "SELECT", "DISTINCT", "REDUCED", "WHERE", "FROM", "NAMED", "PREFIX", "BASE",
    "ORDER", "BY", "ASC", "DESC", "LIMIT", "OFFSET", "GROUP", "HAVING", "AS",
    "OPTIONAL", "FILTER", "UNION", "MINUS", "BIND", "VALUES", "UNDEF",
    "ASK", "CONSTRUCT", "DESCRIBE",
    "INSERT", "DELETE", "DATA", "INTO", "WITH", "USING", "GRAPH", "CLEAR",
    "DROP", "CREATE", "LOAD", "SILENT", "ALL", "DEFAULT",
    "COUNT", "SUM", "AVG", "MIN", "MAX", "SAMPLE", "GROUP_CONCAT", "SEPARATOR",
    "NOT", "IN", "EXISTS", "A",
    "TRUE", "FALSE",
}


class Token:
    """A single lexical token."""

    __slots__ = ("kind", "value", "line", "column")

    def __init__(self, kind: str, value: str, line: int, column: int) -> None:
        self.kind = kind
        self.value = value
        self.line = line
        self.column = column

    def is_keyword(self, *names: str) -> bool:
        return self.kind == "KEYWORD" and self.value in names

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.kind}, {self.value!r}, {self.line}:{self.column})"


_TOKEN_RE = re.compile(
    r"""
    (?P<comment>\#[^\n]*)
  | (?P<iri><[^<>\s]*>)
  | (?P<string>"(?:[^"\\]|\\.)*"|'(?:[^'\\]|\\.)*')
  | (?P<var>[?$][A-Za-z_][A-Za-z0-9_]*)
  | (?P<bnode>_:[A-Za-z0-9_.-]+)
  | (?P<langtag>@[a-zA-Z][a-zA-Z0-9-]*)
  | (?P<double_caret>\^\^)
  | (?P<number>[+-]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)
    # Local names may contain '/' (KGNet-style IRIs like dblp:paper/1), but a
    # '/' that starts another prefixed name is a property-path sequence
    # operator (ex:p/ex:q), so it must not be swallowed into the local name.
  | (?P<qname>[A-Za-z_][A-Za-z0-9_-]*:[A-Za-z0-9_](?:[A-Za-z0-9_\-%]
                                                   |/(?=[A-Za-z0-9_%\-/])(?!(?:[A-Za-z_][A-Za-z0-9_-]*)?:)
                                                   |\.(?=[A-Za-z0-9_\-/%]))*
              |[A-Za-z_][A-Za-z0-9_-]*:
              |:[A-Za-z0-9_](?:[A-Za-z0-9_\-%]
                             |/(?=[A-Za-z0-9_%\-/])(?!(?:[A-Za-z_][A-Za-z0-9_-]*)?:)
                             |\.(?=[A-Za-z0-9_\-/%]))*)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op><=|>=|!=|&&|\|\||[=<>!+\-*/^|?])
  | (?P<punct>[{}()\[\].,;])
  | (?P<ws>\s+)
    """,
    re.VERBOSE,
)


def tokenize(text: str) -> List[Token]:
    """Tokenize SPARQL ``text``; raises :class:`ParseError` on bad input."""
    tokens: List[Token] = []
    pos = 0
    line = 1
    line_start = 0
    length = len(text)
    while pos < length:
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            column = pos - line_start + 1
            raise ParseError(f"unexpected character {text[pos]!r}", line=line,
                             column=column)
        kind = match.lastgroup or ""
        value = match.group(0)
        column = pos - line_start + 1
        newlines = value.count("\n")
        if kind not in ("ws", "comment"):
            if kind == "name":
                upper = value.upper()
                if upper in KEYWORDS:
                    tokens.append(Token("KEYWORD", upper, line, column))
                else:
                    tokens.append(Token("NAME", value, line, column))
            else:
                tokens.append(Token(kind.upper(), value, line, column))
        if newlines:
            line += newlines
            line_start = match.end() - (len(value) - value.rfind("\n") - 1)
        pos = match.end()
    tokens.append(Token("EOF", "", line, pos - line_start + 1))
    return tokens
