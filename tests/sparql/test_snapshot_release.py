"""A write copies the indexes only while a reader still holds the snapshot.

Every finished query — a drained SELECT, an ASK, a CONSTRUCT, a written
protocol response, a finished SPARQL-ML SELECT — must leave the snapshot it
ran on unreachable through reference counting alone (the garbage collector
is off in these tests), and an update must not itself hold the snapshot it
writes past.  Then the next write mutates the live indexes in place: the
default graph's SPO dict stays the same object.  A reader that does hold a
result open keeps its snapshot, so the write copies and the held result
still answers at its own epoch.
"""

from __future__ import annotations

import gc
import json
import weakref
from urllib.parse import quote

import pytest

from repro.concurrency.scheduler import QueryScheduler
from repro.datasets import DBLPConfig, dblp_paper_venue_task, generate_dblp_kg
from repro.kgnet import KGNet, TrainingManagerConfig
from repro.kgnet.api.envelopes import APIRequest
from repro.rdf import IRI, Triple
from repro.server.service import ServiceHandler, ServiceRequest
from repro.sparql import SPARQLEndpoint

EX = "urn:ex:"


@pytest.fixture()
def no_gc():
    """Only reference counting frees anything while the test runs."""
    enabled = gc.isenabled()
    gc.disable()
    yield
    if enabled:
        gc.enable()


def _chain(count: int):
    return [Triple(IRI(f"{EX}{i}"), IRI(EX + "p"), IRI(f"{EX}{i + 1}"))
            for i in range(count)]


class _Writes:
    """Numbered INSERT DATA requests through one endpoint."""

    def __init__(self, endpoint: SPARQLEndpoint) -> None:
        self.endpoint = endpoint
        self.count = 0

    def __call__(self) -> None:
        self.count += 1
        self.endpoint.execute(
            f"INSERT DATA {{ <{EX}w{self.count}> <{EX}q> <{EX}0> }}")


def _copies(endpoint: SPARQLEndpoint, write) -> bool:
    """Whether ``write`` replaced the default graph's SPO dict."""
    spo = endpoint.graph._spo
    write()
    return endpoint.graph._spo is not spo


@pytest.fixture()
def endpoint():
    endpoint = SPARQLEndpoint()
    endpoint.load(_chain(60))
    endpoint.load([Triple(IRI(EX + "m"), IRI(EX + "about"), IRI(EX + "1"))],
                  graph_iri=EX + "meta")
    return endpoint


READS = {
    "select": f"SELECT ?s ?o WHERE {{ ?s <{EX}p> ?o }}",
    "select_star": "SELECT * WHERE { ?s ?p ?o }",
    "ask": f"ASK {{ <{EX}1> <{EX}p> ?o }}",
    "construct": f"CONSTRUCT {{ ?o <{EX}r> ?s }} WHERE {{ ?s <{EX}p> ?o }}",
    "path": f"SELECT ?s WHERE {{ ?s <{EX}p>+ <{EX}20> }}",
    "negated": f"SELECT ?s ?o WHERE {{ ?s !<{EX}q> ?o }}",
    "modify": (f"DELETE {{ ?s <{EX}p> <{EX}5> }} INSERT {{ ?s <{EX}p> <{EX}50> }}"
               f" WHERE {{ ?s <{EX}p> <{EX}5> }}"),
}


class TestEndpoint:
    @pytest.mark.parametrize("kind", sorted(READS))
    def test_a_finished_request_leaves_nothing_to_copy(self, endpoint, no_gc,
                                                       kind):
        write = _Writes(endpoint)
        write()
        endpoint.execute(READS[kind])
        assert not _copies(endpoint, write)

    def test_delete_insert_where_writes_past_its_own_snapshot(self, endpoint,
                                                              no_gc):
        endpoint.execute(READS["select"])
        assert not _copies(endpoint, lambda: endpoint.execute(READS["modify"]))
        assert endpoint.query(f"ASK {{ <{EX}4> <{EX}p> <{EX}50> }}") is True

    def test_data_updates_pin_nothing(self, endpoint, no_gc):
        for text in (f"INSERT DATA {{ <{EX}a> <{EX}p> <{EX}b> }}",
                     f"DELETE DATA {{ <{EX}a> <{EX}p> <{EX}b> }}",
                     f"CLEAR GRAPH <{EX}meta>"):
            pinned = endpoint.graph._pinned
            endpoint.execute(text)
            assert endpoint.graph._pinned is pinned is None

    def test_an_undrained_stream_keeps_its_snapshot(self, endpoint, no_gc):
        write = _Writes(endpoint)
        held = endpoint.start(READS["select"])
        assert _copies(endpoint, write)
        assert len(held.materialize()) == 60
        del held
        endpoint.execute(READS["select"])
        assert not _copies(endpoint, write)

    def test_closure_plans_hold_no_superseded_snapshot(self):
        endpoint = SPARQLEndpoint()
        endpoint.load(_chain(2000))
        pinned = []
        for step in range(8):
            endpoint.execute(f"SELECT ?s WHERE {{ ?s <{EX}p>+ <{EX}50> }}")
            pinned.append(weakref.ref(endpoint.graph.snapshot()))
            endpoint.execute(f"INSERT DATA {{ <{EX}x{step}> <{EX}q> <{EX}y> }}")
        gc.collect()
        assert sum(ref() is not None for ref in pinned) == 0


def _get(handler, text, accept=None):
    headers = {"Accept": accept} if accept else {}
    response = handler.handle(ServiceRequest(
        method="GET", target="/sparql?query=" + quote(text, safe=""),
        headers=headers))
    return response.read_body()


def _post_update(handler, text):
    handler.handle(ServiceRequest(
        method="POST", target="/sparql",
        headers={"Content-Type": "application/sparql-update"},
        body=text.encode("utf-8"))).read_body()


class TestServiceHandler:
    @pytest.fixture()
    def platform(self):
        platform = KGNet()
        platform.load_graph(_chain(60))
        return platform

    @pytest.mark.parametrize("kind, accept", [
        ("select", None), ("select", "text/csv"),
        ("select", "application/sparql-results+xml"), ("path", None),
        ("ask", None), ("construct", None)])
    def test_a_written_response_leaves_nothing_to_copy(self, platform, no_gc,
                                                       kind, accept):
        handler = ServiceHandler(platform.api)
        count = iter(range(1000))

        def write():
            _post_update(handler, f"INSERT DATA {{ <{EX}w{next(count)}> "
                                  f"<{EX}q> <{EX}0> }}")

        write()
        _get(handler, READS[kind], accept)
        assert not _copies(platform.endpoint, write)

    def test_a_scheduled_query_lets_go_of_its_stream(self, no_gc):
        with QueryScheduler(max_workers=1, quantum_rows=16) as scheduler:
            platform = KGNet(scheduler=scheduler)
            platform.load_graph(_chain(60))
            write = _Writes(platform.endpoint)
            write()
            response = platform.api.dispatch(APIRequest(
                op="sparql", params={"query": READS["select"]}))
            assert response.result["total_rows"] == 60
            del response
            assert not _copies(platform.endpoint, write)

    def test_a_paging_cursor_answers_at_its_own_epoch(self, platform, no_gc):
        api = platform.api
        first = api.dispatch(APIRequest(op="sparql", params={
            "query": READS["select"], "page_size": 10})).result
        assert first["total_rows"] == 60
        # The cursor keeps id rows, not the snapshot: the write is in place.
        assert not _copies(platform.endpoint, lambda: platform.sparql(
            f"DELETE DATA {{ <{EX}30> <{EX}p> <{EX}31> }}"))
        rows, cursor = list(first["rows"]), first["next_cursor"]
        while cursor:
            page = api.dispatch(APIRequest(
                op="next_page", params={"cursor": cursor})).result
            rows.extend(page["items"])
            cursor = page["next_cursor"]
        assert len(rows) == 60
        assert len(platform.endpoint.select(READS["select"])) == 59


PREFIXES = ("prefix dblp: <https://www.dblp.org/>\n"
            "prefix kgnet: <https://www.kgnet.com/>\n")
NC_SELECT = (PREFIXES + "select ?paper ?venue where { ?paper a dblp:Publication. "
             "?paper ?NC ?venue. ?NC a kgnet:NodeClassifier. "
             "?NC kgnet:TargetNode dblp:Publication. "
             "?NC kgnet:NodeLabel dblp:publishedIn. } limit 5")


class TestSPARQLML:
    @pytest.fixture(scope="class")
    def trained(self):
        platform = KGNet(training_config=TrainingManagerConfig(
            feature_dim=16, hidden_dim=16, embedding_dim=16,
            epochs_full_batch=4, epochs_sampling=3, epochs_kge=4, seed=0))
        platform.load_graph(generate_dblp_kg(DBLPConfig(scale=0.15, seed=5)))
        platform.train_task(dblp_paper_venue_task(), method="rgcn")
        return platform

    @pytest.mark.parametrize("plan", ["per_instance", "dictionary"])
    def test_a_finished_select_leaves_nothing_to_copy(self, trained, no_gc,
                                                      plan):
        write = _Writes(trained.endpoint)
        for _ in range(2):  # compiled, then served from the compile cache
            write()
            report = trained.sparqlml.execute_select(NC_SELECT, force_plan=plan)
            assert report.models and len(report.results) == 5
            del report
            assert not _copies(trained.endpoint, write)

    def test_the_envelope_route_too(self, trained, no_gc):
        handler = ServiceHandler(trained.api)
        write = _Writes(trained.endpoint)
        write()
        response = handler.handle(ServiceRequest(
            method="POST", target="/kgnet/v1/sparqlml",
            headers={"Content-Type": "application/json"},
            body=json.dumps({"query": NC_SELECT}).encode("utf-8")))
        assert json.loads(response.read_body())["ok"]
        del response
        assert not _copies(trained.endpoint, write)
