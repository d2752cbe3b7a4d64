"""Compiled row templates: the same bytes as the per-cell writers, faster.

Every SELECT writer formats a batch of rows with one ``%`` of its compiled
row template when all the batch's cells are in the encoding memo, and falls
back to encoding the batch cell by cell otherwise.  Pinned here:

* for JSON, XML, CSV and TSV the template path writes exactly the bytes of
  the per-cell path — over all-bound rows, OPTIONAL-unbound cells, a private
  (negative) id from BIND, an empty literal, non-ASCII text and a ``%`` in a
  variable name; for id rows, ``Solution`` rows and lazy streams; with the
  memo cold and warm;
* the ``kgnet/v1`` envelope's SELECT rows (ops ``sparql`` and
  ``sparqlml_select``, the latter under both inference plans) leave as
  already-encoded JSON that parses to ``ResultSet.to_python()``, page through
  ``next_page`` to the unpaged rows, survive an ``APIClient`` round trip, and
  are written without decoding the result into ``Solution`` objects;
* an ill-typed numeric literal is served as its lexical form, not a 500.
"""

from __future__ import annotations

import json

import pytest

from repro.kgnet import APIClient, KGNet
from repro.kgnet.api.envelopes import APIRequest, RawJSON, encode_json
from repro.rdf import BNode, IRI, Literal, Triple, Variable
from repro.rdf.terms import XSD_INTEGER
from repro.server.service import ServiceHandler, ServiceRequest
from repro.sparql import SPARQLEndpoint
from repro.sparql.results import ResultSet, Solution
from repro.sparql.results import serialize
from tests.kgnet.test_infer_operator import BENCHMARK_CLASSES, PREFIXES

EX = "http://example.org/rows/"

#: More rows than one batch, so a warm memo formats whole batches.
FILLER = 300

QUERIES = {
    "all-bound": "SELECT ?s ?p ?o WHERE { ?s ?p ?o }",
    "optional-unbound": (f"SELECT ?s ?name ?note WHERE {{ ?s <{EX}name> ?name "
                         f"OPTIONAL {{ ?s <{EX}note> ?note }} }}"),
    "bind-private-id": ('SELECT ?s ?x WHERE { ?s ?p ?o '
                        'BIND(CONCAT(STR(?o), "!") AS ?x) }'),
    "empty-literal": f"SELECT ?s ?name WHERE {{ ?s <{EX}name> ?name }}",
}

FORMATS = {"json": serialize.MEDIA_JSON, "xml": serialize.MEDIA_XML,
           "csv": serialize.MEDIA_CSV, "tsv": serialize.MEDIA_TSV}


def triples():
    a, b, c = IRI(EX + "a"), IRI(EX + "b"), IRI(EX + "c")
    yield Triple(a, IRI(EX + "name"), Literal("Zürich — 日本語 ✓"))
    yield Triple(a, IRI(EX + "label"), Literal("chat", language="fr"))
    yield Triple(a, IRI(EX + "count"), Literal(7))
    yield Triple(a, IRI(EX + "score"), Literal(2.5))
    yield Triple(a, IRI(EX + "flag"), Literal(True))
    yield Triple(a, IRI(EX + "note"), Literal('comma, "quote"\nline %b 100%'))
    yield Triple(b, IRI(EX + "name"), Literal(""))
    yield Triple(b, IRI(EX + "knows"), BNode("n1"))
    yield Triple(BNode("n1"), IRI(EX + "name"), Literal("blank\tnode"))
    yield Triple(c, IRI(EX + "count"), Literal("abc", datatype=XSD_INTEGER))
    for i in range(FILLER):
        yield Triple(IRI(f"{EX}s{i}"), IRI(f"{EX}p{i % 3}"), Literal(f"v{i}"))


def make_endpoint() -> SPARQLEndpoint:
    """A fresh endpoint: its own dictionary, so its id memos start cold."""
    endpoint = SPARQLEndpoint()
    endpoint.load(list(triples()))
    return endpoint


def make_result(endpoint: SPARQLEndpoint, text: str, kind: str):
    if kind == "id-rows":
        result = endpoint.query(text)
        assert result.id_rows is not None
        return result
    if kind == "solutions":
        decoded = endpoint.query(text)
        return ResultSet(decoded.variables, list(decoded.solutions))
    return endpoint.start(text, require="query")


def write(form: str, result, cell_by_cell: bool = False) -> bytes:
    """The body ``serialize_result`` writes; ``cell_by_cell`` makes every
    memo probe miss, so no row can take its template."""
    writer, _ = serialize._SELECT_WRITERS[FORMATS[form]]
    batches, terms = serialize._select_batches(result)
    encoder = serialize._encoder_for(form, terms)
    if cell_by_cell:
        encoder.get = lambda cell: None
    return b"".join(writer(result.variables, batches, encoder))


@pytest.fixture()
def cold_term_memos():
    """Empty the term-keyed tables that ``Solution`` rows share."""
    for table in serialize._TERM_MEMOS.values():
        table.clear()


@pytest.mark.parametrize("form", sorted(FORMATS))
@pytest.mark.parametrize("query", sorted(QUERIES))
@pytest.mark.parametrize("kind", ["id-rows", "solutions", "stream"])
class TestTemplateEqualsCellByCell:
    def test_cold_then_warm(self, form, query, kind, cold_term_memos):
        endpoint = make_endpoint()
        text = QUERIES[query]
        cold = write(form, make_result(endpoint, text, kind))
        warm = write(form, make_result(endpoint, text, kind))
        by_cell = write(form, make_result(endpoint, text, kind),
                        cell_by_cell=True)
        public = b"".join(serialize.serialize_result(
            make_result(endpoint, text, kind), FORMATS[form]))
        assert cold == warm == by_cell == public
        if kind != "stream":
            assert len(make_result(endpoint, text, kind)) > 0

    def test_cell_by_cell_first_then_template(self, form, query, kind,
                                              cold_term_memos):
        endpoint = make_endpoint()
        text = QUERIES[query]
        by_cell = write(form, make_result(endpoint, text, kind),
                        cell_by_cell=True)
        assert write(form, make_result(endpoint, text, kind)) == by_cell


@pytest.mark.parametrize("form", sorted(FORMATS))
def test_percent_in_a_variable_name_is_escaped(form):
    variables = [Variable("p%b"), Variable("q%%s")]
    rows = [Solution({variables[0]: IRI(EX + "x"), variables[1]: Literal("y")}),
            Solution({variables[0]: Literal("%b")})]
    result = ResultSet(variables, rows)
    written = write(form, result)
    assert written == write(form, ResultSet(variables, rows), cell_by_cell=True)
    assert written == write(form, ResultSet(variables, rows))
    assert b"p%b" in written


@pytest.mark.parametrize("kind", ["id-rows", "solutions", "stream"])
def test_envelope_rows_equal_to_python(kind, cold_term_memos):
    endpoint = make_endpoint()
    for text in QUERIES.values():
        expected = endpoint.query(text).to_python()
        for _ in ("cold", "warm"):
            rows, write = serialize.envelope_rows(
                make_result(endpoint, text, kind))
            assert json.loads(write(rows)) == expected
            assert json.loads(write(rows[5:300])) == expected[5:300]
            assert write([]) == b"[]"


# ---------------------------------------------------------------------------
# The kgnet/v1 envelope
# ---------------------------------------------------------------------------


def test_encode_json_splices_raw_parts_and_matches_json_dumps():
    plain = {"a": [1, 2.5, None], "b": {"c": "ü", "d": True}, 3: "x"}
    assert encode_json(plain) == json.dumps(plain).encode("utf-8")
    assert encode_json({"k": {1: 2}}) == json.dumps({"k": {1: 2}}).encode()
    raw = RawJSON(b'[{"s":1},{"s":"%b"}]')
    document = {"result": {"rows": raw, "n": 2}}
    assert b'"rows": [{"s":1},{"s":"%b"}]' in encode_json(document)
    assert json.loads(encode_json(document)) == {
        "result": {"rows": [{"s": 1}, {"s": "%b"}], "n": 2}}


def envelope_platform() -> KGNet:
    platform = KGNet()
    platform.load_graph(list(triples()))
    return platform


def wire_and_dict(response):
    """(the parsed wire body, ``to_dict()``) — encoded first, so the wire
    body is the one spliced from already-encoded rows."""
    wire = json.loads(response.encode())
    return wire, response.to_dict()


def follow_pages(api, first_rows, cursor):
    rows = list(first_rows)
    while cursor:
        page = api.dispatch(APIRequest(op="next_page",
                                       params={"cursor": cursor}))
        wire, native = wire_and_dict(page)
        assert wire["result"] == native["result"]
        rows.extend(native["result"]["items"])
        cursor = native["result"]["next_cursor"]
    return rows


@pytest.mark.parametrize("query", sorted(QUERIES))
def test_sparql_op_rows(query):
    platform = envelope_platform()
    text = QUERIES[query]
    expected = platform.endpoint.query(text).to_python()

    response = platform.api.dispatch(APIRequest(op="sparql",
                                                params={"query": text}))
    assert response.ok, response.error
    wire, native = wire_and_dict(response)
    assert wire["result"] == native["result"]
    assert native["result"]["rows"] == expected
    assert native["result"]["total_rows"] == len(expected)
    # Written from ids: the attachment was never decoded into Solutions.
    assert response.attachment.id_rows is not None

    paged = platform.api.dispatch(APIRequest(
        op="sparql", params={"query": text, "page_size": 7}))
    wire, native = wire_and_dict(paged)
    assert wire["result"] == native["result"]
    assert len(native["result"]["rows"]) == min(7, len(expected))
    assert follow_pages(platform.api, native["result"]["rows"],
                        native["result"]["next_cursor"]) == expected

    assert APIClient.for_router(platform.api).sparql(text)["rows"] == expected


def test_streamed_sparql_op_is_drained_into_rows():
    platform = envelope_platform()
    text = QUERIES["optional-unbound"]
    response = platform.api.dispatch(APIRequest(
        op="sparql", params={"query": text, "stream": True}))
    wire, native = wire_and_dict(response)
    assert wire["result"]["rows"] == platform.endpoint.query(text).to_python()


@pytest.mark.parametrize("plan", ["per_instance", "dictionary"])
@pytest.mark.parametrize("query", ["nc_all", "lp_topk"])
def test_sparqlml_select_rows(trained_platform, query, plan):
    text = PREFIXES + BENCHMARK_CLASSES[query]
    api = trained_platform.api
    response = api.dispatch(APIRequest(op="sparqlml_select", params={
        "query": text, "force_plan": plan}))
    assert response.ok, response.error
    wire, native = wire_and_dict(response)
    assert wire["result"] == native["result"]
    assert response.attachment.results.id_rows is not None
    expected = response.attachment.results.to_python()
    assert native["result"]["rows"] == expected
    assert native["result"]["num_results"] == len(expected) > 0

    paged = api.dispatch(APIRequest(op="sparqlml_select", params={
        "query": text, "force_plan": plan, "page_size": 5}))
    wire, native = wire_and_dict(paged)
    assert wire["result"] == native["result"]
    assert follow_pages(api, native["result"]["rows"],
                        native["result"]["next_cursor"]) == expected

    client = APIClient.for_router(api)
    assert client.query(text, force_plan=plan)["rows"] == expected


# ---------------------------------------------------------------------------
# An ill-typed literal is a value, not a 500
# ---------------------------------------------------------------------------


ILL_TYPED = "SELECT ?o WHERE { <http://e/a> <http://e/p> ?o }"


@pytest.mark.parametrize("op", ["sparql", "sparqlml_select"])
def test_ill_typed_literal_is_served_as_its_lexical_form(op):
    platform = KGNet()
    platform.sparql('INSERT DATA { <http://e/a> <http://e/p> '
                    '"abc"^^<http://www.w3.org/2001/XMLSchema#integer> }')
    handler = ServiceHandler(platform.api)
    response = handler.handle(ServiceRequest(
        "POST", f"/kgnet/v1/{op}", {"Content-Type": "application/json"},
        json.dumps({"query": ILL_TYPED}).encode("utf-8")))
    assert response.status == 200, response.read_body()
    body = json.loads(response.read_body())
    assert body["result"]["rows"] == [{"o": "abc"}]
    assert platform.api_metrics()[op]["errors"] == 0
