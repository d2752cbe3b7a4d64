"""SPARQL string literals decode their escapes exactly as Turtle does.

Both syntaxes share one decoder (``repro.rdf.io._unescape``): ECHAR and
UCHAR escapes decode in a single pass, surrogates and illegal escapes are
parse errors.  The differential writes a random string as an N3 literal and
checks that ``INSERT DATA`` and the Turtle parser store the same term.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.exceptions import ParseError
from repro.rdf import IRI, Literal
from repro.rdf.io import parse_turtle
from repro.sparql import SPARQLEndpoint

STRESS = bool(os.environ.get("KGNET_STRESS"))

#: Text heavy in what escaping must get right: quotes, backslashes, line
#: breaks and tabs, characters outside the BMP, and escape-like letters.
TEXT = st.text(
    alphabet=st.one_of(
        st.sampled_from('"\'\\\n\r\tnrtuU0aeé'),
        st.characters(blacklist_categories=("Cs",)),
    ),
    max_size=24)


def stored_by_insert(lexical_n3: str) -> Literal:
    endpoint = SPARQLEndpoint()
    endpoint.execute(f"INSERT DATA {{ <urn:s> <urn:p> {lexical_n3} }}")
    (triple,) = endpoint.dataset.default_graph
    return triple.object


def stored_by_turtle(lexical_n3: str) -> Literal:
    (triple,) = parse_turtle(f"<urn:s> <urn:p> {lexical_n3} .")
    return triple.object


@settings(max_examples=300 if STRESS else 60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(TEXT)
@example("Caf\u00e9")
@example("C:\\new")
@example('say "\\n" twice\n')
def test_insert_data_stores_what_turtle_stores(text):
    literal = Literal(text)
    assert stored_by_insert(literal.n3()) == literal
    assert stored_by_turtle(literal.n3()) == literal


def test_a_unicode_escape_matches_the_decoded_text():
    endpoint = SPARQLEndpoint()
    endpoint.execute(r'INSERT DATA { <urn:a> <urn:name> "Caf\u00e9" }')
    rows = endpoint.execute('SELECT ?s WHERE { ?s <urn:name> "Café" }').rows()
    assert rows == [[IRI("urn:a")]]


def test_an_escaped_backslash_is_not_a_newline():
    assert stored_by_insert(r'"C:\\new"') == Literal("C:\\new")
    assert stored_by_turtle(r'"C:\\new"') == Literal("C:\\new")


@pytest.mark.parametrize("lexical", [r'"\q"', r'"\uD800"'])
def test_an_illegal_escape_is_a_parse_error(lexical):
    with pytest.raises(ParseError):
        stored_by_insert(lexical)
