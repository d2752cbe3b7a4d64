"""The XML results writer escapes text and attributes as
``xml.sax.saxutils`` does, character for character (so byte for byte in any
encoding), without importing it: it pulls ``urllib.request`` and the HTTP
client stack into a server."""

from __future__ import annotations

from xml.sax.saxutils import escape, quoteattr

from hypothesis import example, given
from hypothesis import strategies as st

from repro.sparql.results.serialize import _xml_attr, _xml_escape

#: Text heavy in what escaping must get right: markup, both quotes, line
#: breaks, tabs and entity-like runs, among arbitrary characters.
TEXT = st.text(alphabet=st.one_of(st.sampled_from("&<>\"'\n\r\t;#amp"),
                                  st.characters()))


@given(TEXT)
@example("")
@example("&amp; <a href=\"x\">'y'</a>\r\n\t")
def test_text_escapes_as_saxutils_does(text):
    assert _xml_escape(text) == escape(text)


@given(TEXT)
@example('say "hi"')
@example("it's")
@example("both \" and '")
@example("\n\r\t")
def test_attributes_quote_as_saxutils_does(text):
    assert _xml_attr(text) == quoteattr(text)
