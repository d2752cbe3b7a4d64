"""Query solutions, result sets, and their wire serializations.

``repro.sparql.results`` started life as the in-memory result model
(:class:`Solution`, :class:`ResultSet` — now :mod:`~repro.sparql.results.core`)
and grew into the service boundary's serialization layer when the platform
gained a real SPARQL endpoint over HTTP:
:mod:`~repro.sparql.results.serialize` holds *streaming* writers for the four
standard SPARQL 1.1 result formats (``application/sparql-results+json``,
``…+xml``, ``text/csv``, ``text/tab-separated-values``), RDF graph writers
for CONSTRUCT results, and the ``Accept``-header content negotiation that
picks between them.  Every writer is a row-at-a-time generator, so an HTTP
transport can stream a large result set with chunked transfer encoding
instead of buffering the full serialization.
"""

from repro.sparql.results.core import ResultSet, Solution
from repro.sparql.results.serialize import (
    MEDIA_CSV,
    MEDIA_JSON,
    MEDIA_TSV,
    MEDIA_XML,
    NotAcceptable,
    negotiate_media_type,
    serialize_result,
)

__all__ = [
    "ResultSet",
    "Solution",
    "MEDIA_CSV",
    "MEDIA_JSON",
    "MEDIA_TSV",
    "MEDIA_XML",
    "NotAcceptable",
    "negotiate_media_type",
    "serialize_result",
]
