"""Every prediction goes through one route: ``GMLaaS.infer``.

The ``infer_node_class`` / ``infer_links`` / ``infer_similar`` /
``infer_batch`` ops, the ``GMLaaS.infer_*`` methods and the SPARQL-ML UDFs all reach
a model through that one call, so they agree by construction: an input the
model does not know is ``None`` / ``[]`` on every op (it used to be a 500 on
``infer_similar`` alone), a model of the wrong kind is ``INFERENCE_ERROR``,
an unknown one ``MODEL_NOT_FOUND``, every op is one GMLaaS call, and one
input answers the same alone as inside a batch of 256.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.gml.kge import DistMult
from repro.kgnet import KGNet
from repro.kgnet.gmlaas import GMLaaS
from repro.kgnet.gmlaas.model_store import (
    LinkArtefact,
    NodeClassArtefact,
    SimilarityArtefact,
)
from repro.rdf import IRI
from repro.server.service import ServiceHandler, ServiceRequest

EX = "http://example.org/"
NAMES = [EX + f"e{i}" for i in range(300)]
UNKNOWN = EX + "nobody"
MODELS = {kind: EX + f"model/{kind}" for kind in ("class", "links", "similar")}

#: op -> (the model it reads, the parameter naming its input, the answer for
#: an input that model does not know)
SINGLE_OPS = {
    "infer_node_class": ("class", "node", None),
    "infer_links": ("links", "source", []),
    "infer_similar": ("similar", "entity", []),
}


@pytest.fixture(scope="module")
def platform():
    """Three small stored models: a classifier, a link predictor and an
    embedding model, over the same 300 entities."""
    platform = KGNet()
    rng = np.random.default_rng(7)
    embeddings = rng.normal(size=(len(NAMES), 8))
    store = platform.gmlaas.model_store
    store.add(IRI(MODELS["class"]), NodeClassArtefact(
        prediction_map={name: f"{EX}class/{index % 3}"
                        for index, name in enumerate(NAMES)}))
    store.add(IRI(MODELS["links"]), LinkArtefact(
        scorer=DistMult(len(NAMES), 1, dim=8, seed=7),
        entity_embeddings=embeddings,
        candidate_tails=np.arange(0, len(NAMES), 7),
        entity_names=NAMES, target_relation=0))
    store.add(IRI(MODELS["similar"]), SimilarityArtefact(
        entity_embeddings=embeddings, entity_names=NAMES))
    return platform


def post(platform, op: str, **params):
    """One op over the service layer: ``(HTTP status, response envelope)``."""
    response = ServiceHandler(platform.api).handle(ServiceRequest(
        "POST", f"/kgnet/v1/{op}", {"Content-Type": "application/json"},
        json.dumps(params).encode("utf-8")))
    return response.status, json.loads(response.read_body())


def test_the_manager_has_two_prediction_routes():
    """``infer`` and the Fig 12 dictionary; the other ``infer_*`` methods
    are forms of ``infer``, and nothing else of GMLaaS predicts."""
    public = {name for name in vars(GMLaaS) if not name.startswith("_")}
    assert {name for name in public if name.startswith("infer")} == {
        "infer", "infer_node_class_dictionary", "infer_node_class",
        "infer_links", "infer_batch"}
    assert public - {name for name in public if name.startswith("infer")} == {
        "train", "delete_model", "has_model", "list_models"}


@pytest.mark.parametrize("op", sorted(SINGLE_OPS))
def test_an_unknown_input_is_answered_not_failed(platform, op):
    kind, name, empty = SINGLE_OPS[op]
    status, envelope = post(platform, op, model_uri=MODELS[kind],
                            **{name: UNKNOWN})
    assert (status, envelope["ok"]) == (200, True), envelope["error"]
    assert envelope["result"]["output"] == empty
    status, envelope = post(platform, op, model_uri=MODELS[kind],
                            **{name: NAMES[3]})
    assert status == 200 and envelope["result"]["output"]


@pytest.mark.parametrize("kind", sorted(MODELS))
def test_an_unknown_input_in_a_batch_is_answered_not_failed(platform, kind):
    empty = None if kind == "class" else []
    status, envelope = post(platform, "infer_batch", model_uri=MODELS[kind],
                            inputs=[NAMES[1], UNKNOWN, NAMES[2]], k=3)
    assert status == 200, envelope["error"]
    outputs = [record["output"] for record in envelope["result"]["predictions"]]
    assert outputs[1] == empty
    assert outputs[0] and outputs[2]


@pytest.mark.parametrize("op,model", [
    ("infer_node_class", "links"),
    ("infer_links", "class"),
    ("infer_similar", "class"),          # a classifier has no embeddings
])
def test_a_model_of_the_wrong_kind_is_an_inference_error(platform, op, model):
    _, name, _ = SINGLE_OPS[op]
    status, envelope = post(platform, op, model_uri=MODELS[model],
                            **{name: NAMES[0]})
    assert (status, envelope["error"]["code"]) == (500, "INFERENCE_ERROR")
    status, envelope = post(platform, "infer_batch", model_uri=MODELS[model],
                            inputs=[NAMES[0]], mode=SINGLE_OPS[op][0])
    assert (status, envelope["error"]["code"]) == (500, "INFERENCE_ERROR")


@pytest.mark.parametrize("op,params", [
    ("infer_node_class", {"node": NAMES[0]}),
    ("infer_links", {"source": NAMES[0]}),
    ("infer_similar", {"entity": NAMES[0]}),
    ("infer_batch", {"inputs": [NAMES[0]]}),
])
def test_an_unknown_model_is_not_found(platform, op, params):
    status, envelope = post(platform, op, model_uri=EX + "model/none", **params)
    assert (status, envelope["error"]["code"]) == (404, "MODEL_NOT_FOUND")


@pytest.mark.parametrize("op,params", [
    ("infer_node_class", {"model_uri": MODELS["class"], "node": NAMES[0]}),
    ("infer_links", {"model_uri": MODELS["links"], "source": NAMES[0]}),
    ("infer_similar", {"model_uri": MODELS["similar"], "entity": NAMES[0]}),
    ("infer_batch", {"model_uri": MODELS["class"], "inputs": NAMES[:256]}),
    ("infer_batch", {"model_uri": MODELS["links"], "inputs": NAMES[:256]}),
    ("infer_batch", {"model_uri": MODELS["similar"], "inputs": NAMES[:256]}),
])
def test_every_op_is_one_gmlaas_call(platform, op, params):
    before = platform.gmlaas.http_calls
    status, envelope = post(platform, op, **params)
    assert status == 200, envelope["error"]
    assert platform.gmlaas.http_calls - before == 1


@pytest.mark.parametrize("kind", ["class", "links", "similar"])
def test_alone_equals_inside_a_batch_of_256(platform, kind):
    gmlaas = platform.gmlaas
    inputs = NAMES[:256]
    inputs[17] = UNKNOWN
    batch = gmlaas.infer_batch(MODELS[kind], inputs, k=5, mode=kind)
    assert [record["input"] for record in batch] == inputs
    for value, record in zip(inputs, batch):
        if kind == "class":
            alone = gmlaas.infer_node_class(MODELS[kind], value)
        elif kind == "links":
            alone = gmlaas.infer_links(MODELS[kind], value, k=5)
        else:
            alone = gmlaas.infer(MODELS[kind], [value], "similar", 5)[0]
        assert alone == record["output"]
    assert batch[17]["output"] == (None if kind == "class" else [])
