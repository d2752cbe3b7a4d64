"""One decoder per link predictor.

How a link predictor scores ``(head, relation, tail)`` is written once, in
the model's own ``tail_scores``; training evaluation
(:func:`~repro.gml.kge.base.filtered_tail_ranks`), the inference artefacts
of training and GMLaaS inference all rank with it.  Pinned here for every
family of the paper's taxonomy (Fig 5: TransE, DistMult, ComplEx, RotatE,
MorsE):

* ``infer_links`` answers the model's own top k, in the model's order;
* a source scores bit for bit the same alone and inside a batch of 256;
* every family's test metrics on a fixed seed, and the parameter bytes of
  the four TrainGML tasks on the ``train_pipeline`` benchmark fixture, are
  those of the separate ranking copies this single entry replaced;
* GMLaaS keeps no training outcome once ``train`` has returned.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import weakref

import numpy as np
import pytest

from repro.datasets import DBLPConfig, dblp_author_affiliation_task, generate_dblp_kg
from repro.kgnet import KGNet, TrainingManagerConfig
from repro.kgnet.api.envelopes import APIRequest
from repro.kgnet.gmlaas.model_store import LinkArtefact
from repro.kgnet.gmlaas.service import GMLaaS
from repro.kgnet.gmlaas.training_manager import TrainingOutcome
from repro.rdf import IRI

FAMILIES = ("transe", "distmult", "complex", "rotate", "morse")

CONFIG = TrainingManagerConfig(feature_dim=16, hidden_dim=16, embedding_dim=16,
                               epochs_full_batch=4, epochs_sampling=3,
                               epochs_kge=20, seed=0)

#: Test metrics of each family trained with ``CONFIG`` on the ``dblp_graph``
#: fixture, as the per-family ranking copies computed them.
METRICS = {
    "transe": {"hits@1": 0.5, "hits@3": 0.8, "hits@10": 1.0,
               "mrr": 0.6733333333333333},
    "distmult": {"hits@1": 0.0, "hits@3": 0.0, "hits@10": 0.0,
                 "mrr": 0.019495871154261633},
    "complex": {"hits@1": 0.1, "hits@3": 0.1, "hits@10": 0.4,
                "mrr": 0.16711438746733212},
    "rotate": {"hits@1": 0.1, "hits@3": 0.2, "hits@10": 0.3,
               "mrr": 0.17371615771929544},
    "morse": {"hits@1": 0.2, "hits@3": 0.2, "hits@10": 1.0,
              "mrr": 0.3502777777777778},
}

NC_TASK = ("TaskType: kgnet:NodeClassifier, TargetNode: dblp:Publication, "
           "NodeLable: dblp:publishedIn")
LP_TASK = ("TaskType: kgnet:LinkPredictor, SourceNode: dblp:Person, "
           "DestinationNode: dblp:Affiliation, TargetEdge: dblp:affiliation")

#: The ``train_pipeline`` tasks (benchmarks/e2e/oplists.py): name, task,
#: method, trained on the full KG instead of KG', and the sha256 of every
#: parameter byte and history loss of the model it trains.  The GNN tasks
#: multiply dense matrices through BLAS, whose kernels may differ between
#: builds and CPUs: on another one, take the digests from the parent commit.
PIPELINE = (
    ("T1", NC_TASK, "graph_saint", False,
     "89497215cd0b542782c1cdfbff7f0ef5a6b504fb8e704c6a5bd48e96f6e6fa63"),
    ("T2", NC_TASK, "rgcn", False,
     "95c2085b83f681fb006eba7d5b20b78dc653d94c2120fdf4427b8c39bdd34a7c"),
    ("T3", LP_TASK, "morse", False,
     "d040748ba0e0651c2feb77c6186280929568792ff072d29835560eb1a1db8b35"),
    ("T4", NC_TASK, "rgcn", True,
     "5c6b7025a2228903ff14b2aec04339e1b85468d4cda6eba95c1da77853b2fb32"),
)


def model_uri(family: str) -> str:
    return f"https://www.kgnet.com/model/lp/{family}"


@pytest.fixture(scope="module")
def served(dblp_graph):
    """A GMLaaS holding one author-affiliation link predictor per family,
    and the train response of each."""
    gmlaas = GMLaaS(CONFIG)
    responses = {family: gmlaas.train(dblp_graph, dblp_author_affiliation_task(),
                                      IRI(model_uri(family)), method=family)
                 for family in FAMILIES}
    return gmlaas, responses


def lp_artefact(gmlaas: GMLaaS, family: str) -> LinkArtefact:
    return gmlaas.model_store.get(model_uri(family))


@pytest.mark.parametrize("family", FAMILIES)
def test_links_are_the_models_own_top_k(served, family):
    gmlaas, _ = served
    artefact = lp_artefact(gmlaas, family)
    model = artefact.scorer
    names, candidates = artefact.entity_names, artefact.candidate_tails
    sources = [name for name in names if "/person/" in name][:20]
    assert len(sources) == 20
    for source in sources:
        scores = model.tail_scores(artefact.entity_embeddings,
                                   [artefact.rows[source]],
                                   artefact.target_relation, candidates)[0]
        order = np.argsort(-scores, kind="stable")[:5]
        assert gmlaas.infer_links(model_uri(family), source, k=5) == [
            {"entity": names[candidates[index]], "score": float(scores[index]),
             "rank": rank} for rank, index in enumerate(order)]


@pytest.mark.parametrize("family", FAMILIES)
def test_a_source_scores_alike_alone_and_in_a_batch_of_256(served, family):
    gmlaas, _ = served
    artefact = lp_artefact(gmlaas, family)
    model = artefact.scorer
    vectors, relation = artefact.entity_embeddings, artefact.target_relation
    heads = np.arange(0, 256 * 7, 7) % vectors.shape[0]
    every_entity = np.arange(vectors.shape[0])     # several blocks per batch
    batch = model.tail_scores(vectors, heads, relation, every_entity)
    for head, row in zip(heads, batch):
        alone = model.tail_scores(vectors, [head], relation, every_entity)
        assert alone.tobytes() == row.tobytes()
    uri = model_uri(family)
    sources = [artefact.entity_names[head] for head in heads]
    k = len(artefact.candidate_tails)
    records = gmlaas.infer_batch(uri, sources, k=k, mode="links")
    for source, record in zip(sources, records):
        assert gmlaas.infer_links(uri, source, k=k) == record["output"]


@pytest.mark.parametrize("family", FAMILIES)
def test_test_metrics_are_pinned(served, family):
    _, responses = served
    assert responses[family].metrics == METRICS[family]


def test_train_pipeline_models_are_pinned():
    platform = KGNet()
    platform.load_graph(generate_dblp_kg(DBLPConfig(seed=7, scale=0.5)))
    manager = platform.gmlaas.training_manager
    train = manager.train
    results = []

    def recording(*args, **kwargs):
        outcome = train(*args, **kwargs)
        results.append(outcome.result)
        return outcome

    manager.train = recording
    for name, task, method, full_kg, digest in PIPELINE:
        text = ("prefix dblp:<https://www.dblp.org/>\n"
                "prefix kgnet:<https://www.kgnet.com/>\n"
                "Insert into <kgnet> { ?s ?p ?o }\n"
                "where {select * from kgnet.TrainGML(\n"
                f"  {{Name: 'setup_{name}', GML-Method: {method},\n"
                f"   GML-Task:{{ {task} }},\n"
                "   Task Budget:{ MaxMemory:8GB, MaxTime:10min, "
                "Priority:ModelScore} } )};")
        params = {"query": text}
        if full_kg:
            params["use_meta_sampling"] = False
        platform.api.dispatch(APIRequest(op="sparqlml", params=params)).raise_for_error()
        hashed = hashlib.sha256()
        for parameter in results[-1].model.parameters():
            hashed.update(np.ascontiguousarray(parameter.data).tobytes())
        for entry in results[-1].history:
            hashed.update(repr(entry["loss"]).encode())
        assert (name, hashed.hexdigest()) == (name, digest)
    assert results[2].metrics["mrr"] == 0.34480339105339103


def test_gmlaas_keeps_no_training_outcome(dblp_graph):
    gmlaas = GMLaaS(CONFIG)
    train = gmlaas.training_manager.train
    outcomes = []

    def recording(*args, **kwargs):
        outcome = train(*args, **kwargs)
        outcomes.append(weakref.ref(outcome))
        return outcome

    gmlaas.training_manager.train = recording
    uri = IRI(model_uri("morse"))
    gmlaas.train(dblp_graph, dblp_author_affiliation_task(), uri, method="morse")
    gc.collect()
    assert len(outcomes) == 1 and outcomes[0]() is None
    assert "data" not in TrainingOutcome.__dataclass_fields__
    assert not hasattr(gmlaas, "outcomes")
    artefact = gmlaas.model_store.get(uri)
    assert type(artefact) is LinkArtefact
    assert {field.name for field in dataclasses.fields(artefact)} == {
        "entity_names", "entity_embeddings", "candidate_tails",
        "target_relation", "scorer"}
