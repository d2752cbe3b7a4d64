"""The SPARQL-ML SELECT over the wire is served from the endpoint's ResultCache.

``POST /kgnet/v1/sparqlml_select`` (and ``sparqlml`` when it answers a
``SELECT_REPORT``) reads through the same result cache as ``/sparql``.  A
hit is the stored report projection in a fresh envelope: this request's
``request_id`` and ``meta``, ``http_calls`` 0, its own ``elapsed_seconds``,
every other member as the miss wrote it.  What must hold:

* **a hit makes no GMLaaS call** and answers what the miss answered;
* **never stale** — a data-KG write, a KGMeta registration, a SPARQL-ML
  DELETE and a model-store add or remove behind KGMeta's back each make the
  next request a miss with the fresh answer, and under a concurrent writer
  every answer is one a fresh evaluation gives at an epoch no earlier than
  the one read before the request;
* **never stored** — ``Cache-Control: no-store`` requests, paginated
  answers and errors;
* **accounted** — a hit is one call on the route's metrics and one hit in
  the cache's stats.
"""

from __future__ import annotations

import json
import random
import re
import sys
import threading

import pytest

from repro.datasets import dblp_paper_venue_task
from repro.kgnet import KGNet
from repro.kgnet.api.envelopes import API_VERSION, APIRequest
from repro.kgnet.gmlaas.model_store import NodeClassArtefact
from repro.kgnet.kgmeta import ontology as O
from repro.kgnet.kgmeta.governor import ModelMetadata
from repro.rdf import DBLP, IRI, RDF_TYPE
from repro.server.service import ServiceHandler, ServiceRequest

PREFIXES = ("prefix dblp: <https://www.dblp.org/>\n"
            "prefix kgnet: <https://www.kgnet.com/>\n")
NC_PREDICATE = ("?paper ?NC ?venue. ?NC a kgnet:NodeClassifier. "
                "?NC kgnet:TargetNode dblp:Publication. "
                "?NC kgnet:NodeLabel dblp:publishedIn. ")
NC_ALL = (PREFIXES + "select ?paper ?venue where { "
          "?paper a dblp:Publication. " + NC_PREDICATE + "}")
NO_MODEL = (PREFIXES + "select ?author ?aff where { ?author a dblp:Person. "
            "?author ?LP ?aff. ?LP a kgnet:LinkPredictor. "
            "?LP kgnet:SourceNode dblp:Person. "
            "?LP kgnet:DestinationNode dblp:Affiliation. }")
PAPERS = 20
TASK = dblp_paper_venue_task()
HIT = "X-KGNet-Result-Cache"


def paper(index: int) -> IRI:
    return DBLP[f"paper/{index}"]


class Served:
    """A platform with stored node classifiers behind the service layer."""

    def __init__(self) -> None:
        self.platform = KGNet()
        self.handler = ServiceHandler(self.platform.api)
        for index in range(PAPERS // 2):
            self.platform.endpoint.graph.add(paper(index), RDF_TYPE,
                                             DBLP["Publication"])
        self.model = self.add_model(accuracy=0.8, shift=0)

    def stored(self, shift: int) -> NodeClassArtefact:
        """A classifier predicting venue ``(i + shift) % 3`` for paper i."""
        return NodeClassArtefact(prediction_map={
            paper(index).value: DBLP[f"venue/{(index + shift) % 3}"].value
            for index in range(PAPERS)})

    def register(self, uri: IRI, accuracy: float, method: str) -> None:
        """The KGMeta write a TrainGML request ends with."""
        self.platform.governor.register_model(TASK, ModelMetadata(
            uri=uri, task_type=TASK.task_type,
            model_class=O.classifier_class_for_task(TASK.task_type),
            method=method, accuracy=accuracy, cardinality=PAPERS,
            target_node_type=TASK.target_node_type,
            label_predicate=TASK.label_predicate))

    def add_model(self, accuracy: float, shift: int,
                  method: str = "rgcn") -> IRI:
        uri = self.platform.governor.mint_model_uri(TASK, method)
        self.platform.gmlaas.model_store.add(uri, self.stored(shift))
        self.register(uri, accuracy, method)
        return uri

    def post(self, params, op: str = "sparqlml_select", headers=None,
             envelope: bool = False):
        """``(status, hit, envelope)`` of one POST; ``params`` a query text
        or a params object."""
        if isinstance(params, str):
            params = {"query": params}
        body = params
        target = f"/kgnet/v1/{op}"
        if envelope:
            body, target = dict(envelope), "/kgnet/v1"
        response = self.handler.handle(ServiceRequest(
            "POST", target, dict(headers or {},
                                 **{"Content-Type": "application/json"}),
            json.dumps(body).encode("utf-8")))
        payload = json.loads(response.read_body())
        return response.status, response.header(HIT) == "hit", payload

    def fresh(self):
        """The uncached answer: the router's dispatch of the same params."""
        response = self.platform.api.dispatch(APIRequest(
            op="sparqlml_select", params={"query": NC_ALL}))
        return response.to_dict()


def rows(payload) -> list:
    return sorted(json.dumps(row, sort_keys=True)
                  for row in payload["result"]["rows"])


def answer(payload) -> dict:
    """The result members a hit must reproduce as the miss wrote them."""
    result = dict(payload["result"])
    del result["http_calls"], result["elapsed_seconds"]
    return result


@pytest.fixture()
def served():
    return Served()


def test_a_second_identical_post_is_a_hit_with_no_gmlaas_call(served):
    status, hit, miss = served.post(NC_ALL)
    assert status == 200 and not hit
    assert miss["result"]["http_calls"] == 1
    calls = served.platform.gmlaas.http_calls
    status, hit, cached = served.post(NC_ALL)
    assert status == 200 and hit
    assert served.platform.gmlaas.http_calls == calls
    assert cached["result"]["http_calls"] == 0
    for member in ("rows", "models", "plans", "rewritten"):
        assert cached["result"][member] == miss["result"][member]
    assert answer(cached) == answer(miss)
    assert cached["request_id"] != miss["request_id"]
    assert set(cached["meta"]) == {"elapsed_seconds", "api_version"}


def test_a_hit_is_byte_identical_to_the_miss_but_for_its_own_members(served):
    bodies = []
    for _ in range(2):
        response = served.handler.handle(ServiceRequest(
            "POST", "/kgnet/v1/sparqlml_select",
            {"Content-Type": "application/json"},
            json.dumps({"query": NC_ALL}).encode("utf-8")))
        bodies.append(response.read_body())
    assert response.header(HIT) == "hit"

    def without_own(body: bytes) -> bytes:
        for member in (rb'"request_id": "[^"]*"', rb'"http_calls": \d+',
                       rb'"elapsed_seconds": [-+.e\d]+'):
            body = re.sub(member, b"", body)
        return body
    assert without_own(bodies[0]) == without_own(bodies[1])


def test_in_process_dispatch_stays_uncached(served):
    served.post(NC_ALL)
    calls = served.platform.gmlaas.http_calls
    for _ in range(2):
        assert served.fresh()["result"]["http_calls"] == 1
    assert served.platform.gmlaas.http_calls == calls + 2


def data_write(served: Served) -> None:
    served.platform.endpoint.update(
        f"INSERT DATA {{ {paper(PAPERS - 1).n3()} {RDF_TYPE.n3()} "
        f"{DBLP['Publication'].n3()} }}")


def kgmeta_registration(served: Served) -> None:
    # The model is in GMLaaS already (that moved the generation before the
    # cached read); only its KGMeta record arrives now.
    served.register(served.better, accuracy=0.95, method="graphsaint")


def sparqlml_delete(served: Served) -> None:
    status, _, payload = served.post(
        PREFIXES + "delete {?NC ?p ?o} where { ?NC a kgnet:NodeClassifier. "
        "?NC kgnet:TargetNode dblp:Publication. "
        '?NC kgnet:gmlMethod "rgcn". }', op="sparqlml")
    assert status == 200, payload
    assert payload["result"]["deleted_models"] == [served.model.value]


def model_store_add(served: Served) -> None:
    # The same URI retrained behind KGMeta's back.
    served.platform.gmlaas.model_store.add(served.model, served.stored(shift=1))


def model_store_remove(served: Served) -> None:
    assert served.platform.gmlaas.model_store.remove(served.model)


#: change -> whether it moves the dataset epoch, the model-store generation
CHANGES = {data_write: (True, False), kgmeta_registration: (True, False),
           sparqlml_delete: (True, True), model_store_add: (False, True),
           model_store_remove: (False, True)}


@pytest.mark.parametrize("change", list(CHANGES), ids=lambda c: c.__name__)
def test_a_change_makes_the_next_request_a_miss_with_the_fresh_answer(
        served, change):
    # A weaker model serves once the first is gone; a better one, in GMLaaS
    # but not yet in KGMeta, is what a registration makes the choice.
    served.add_model(accuracy=0.5, shift=2, method="gcn")
    served.better = served.platform.governor.mint_model_uri(TASK, "graphsaint")
    served.platform.gmlaas.model_store.add(served.better, served.stored(1))
    _, _, before = served.post(NC_ALL)
    assert served.post(NC_ALL)[1]
    epoch = served.platform.endpoint.dataset.epoch()
    generation = served.platform.gmlaas.model_store.generation
    change(served)
    assert CHANGES[change] == (
        served.platform.endpoint.dataset.epoch() != epoch,
        served.platform.gmlaas.model_store.generation != generation)
    status, hit, after = served.post(NC_ALL)
    assert status == 200 and not hit
    assert answer(after) == answer(served.fresh())
    assert answer(after) != answer(before)
    assert served.post(NC_ALL)[1]


def test_no_store_requests_are_never_stored(served):
    no_store = {"Cache-Control": "no-store"}
    for _ in range(2):
        status, hit, _ = served.post(NC_ALL, headers=no_store)
        assert status == 200 and not hit
    assert len(served.platform.endpoint.result_cache) == 0
    assert not served.post(NC_ALL)[1]
    # A no-store request is not served from the cache either.
    assert not served.post(NC_ALL, headers=no_store)[1]


def test_paginated_answers_are_never_stored(served):
    paged = {"query": NC_ALL, "page_size": 3}
    for _ in range(2):
        status, hit, payload = served.post(paged)
        assert status == 200 and not hit
        assert payload["result"]["next_cursor"] is not None
    assert len(served.platform.endpoint.result_cache) == 0
    # A page size the whole answer fits is a whole answer, and its own key.
    whole = {"query": NC_ALL, "page_size": PAPERS}
    served.post(whole)
    status, hit, payload = served.post(whole)
    assert hit and payload["result"]["next_cursor"] is None
    assert not served.post(NC_ALL)[1]


def test_error_answers_are_never_stored(served):
    for _ in range(2):
        status, hit, payload = served.post(NO_MODEL)
        assert status == 404 and not hit
        assert payload["error"]["code"] == "MODEL_NOT_FOUND"
    status, hit, payload = served.post({"query": NC_ALL, "bogus": 1})
    assert status == 400 and not hit
    assert len(served.platform.endpoint.result_cache) == 0


def test_a_full_envelope_gets_its_own_request_id_on_a_hit(served):
    served.post(NC_ALL)
    envelope = {"api_version": API_VERSION, "op": "sparqlml_select",
                "request_id": "client-7", "params": {"query": NC_ALL}}
    status, hit, payload = served.post(None, envelope=envelope)
    assert status == 200 and hit
    assert payload["request_id"] == "client-7"
    assert payload["op"] == "sparqlml_select"


def test_op_sparqlml_caches_select_reports_only(served):
    status, hit, miss = served.post(NC_ALL, op="sparqlml")
    assert status == 200 and not hit
    status, hit, cached = served.post(NC_ALL, op="sparqlml")
    assert hit and cached["op"] == "sparqlml" and answer(cached) == answer(miss)
    # Its own key: the same text on the other op is a miss first.
    assert not served.post(NC_ALL)[1]
    plain = "SELECT ?s WHERE { ?s a <https://www.dblp.org/Publication> }"
    for _ in range(2):
        status, hit, payload = served.post(plain, op="sparqlml")
        assert status == 200 and not hit
        assert payload["result"]["kind"] == "SELECT"


def test_a_rebound_prefix_is_another_key(served):
    text = NC_ALL.replace(PREFIXES, "prefix kgnet: <https://www.kgnet.com/>\n")
    served.platform.endpoint.namespaces.bind("dblp", "https://www.dblp.org/")
    served.post(text)
    assert served.post(text)[1]
    epoch = served.platform.endpoint.dataset.epoch()
    served.platform.endpoint.namespaces.bind("dblp", "http://elsewhere.org/")
    assert served.platform.endpoint.dataset.epoch() == epoch
    # The text now names classes no model is trained for.
    status, hit, payload = served.post(text)
    assert status == 404 and not hit
    assert payload["error"]["code"] == "MODEL_NOT_FOUND"


def test_a_hit_is_counted_on_the_route_and_in_the_cache_stats(served):
    served.post(NC_ALL)
    api = served.platform.api
    calls = api.metrics()["sparqlml_select"]["calls"]
    hits = api.endpoint.result_cache.stats()["hits"]
    assert served.post(NC_ALL)[1]
    assert api.metrics()["sparqlml_select"]["calls"] == calls + 1
    assert api.metrics()["sparqlml_select"]["errors"] == 0
    assert api.endpoint.result_cache.stats()["hits"] == hits + 1
    stats = served.post({}, op="stats")[2]["result"]
    assert stats["result_cache"]["hits"] == hits + 1


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_answers_under_a_concurrent_writer_are_never_older_than_the_request(
        seed):
    """Writer: seeded toggles of papers' types, each followed by the fresh
    answer at its epoch.  Reader: cached POSTs, each with the epoch read
    before it.  Every answer must be the fresh answer of a state no older."""
    served = Served()
    dataset = served.platform.endpoint.dataset
    states = [(dataset.epoch(), rows(served.fresh()))]
    answers = []
    done = threading.Event()
    errors = []

    def writer():
        rng = random.Random(seed)
        try:
            for _ in range(25):
                index = rng.randrange(PAPERS)
                triple = (f"{paper(index).n3()} {RDF_TYPE.n3()} "
                          f"{DBLP['Publication'].n3()}")
                present = served.platform.endpoint.graph.count(
                    paper(index), RDF_TYPE, DBLP["Publication"])
                verb = "DELETE" if present else "INSERT"
                served.platform.endpoint.update(f"{verb} DATA {{ {triple} }}")
                states.append((dataset.epoch(), rows(served.fresh())))
                done.wait(0.002)
        except Exception as exc:  # noqa: BLE001 — surfaced below
            errors.append(exc)
        finally:
            done.set()

    def reader():
        try:
            while not done.is_set() or len(answers) < 4:
                epoch = dataset.epoch()
                status, hit, payload = served.post(NC_ALL)
                assert status == 200, payload
                answers.append((epoch, hit, rows(payload)))
        except Exception as exc:  # noqa: BLE001 — surfaced below
            errors.append(exc)
            done.set()

    threads = [threading.Thread(target=writer), threading.Thread(target=reader)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    epochs = [epoch for epoch, _ in states]
    assert epochs == sorted(epochs)
    for epoch, hit, got in answers:
        oldest = max(k for k, (at, _) in enumerate(states) if at <= epoch)
        assert got in [answer for _, answer in states[oldest:]], (epoch, hit)
    assert any(hit for _, hit, _ in answers)
